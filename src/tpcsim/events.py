"""Monte Carlo generation of timestamped detector click records.

Each cycle runs one protocol trajectory, one photon at a time, in one sampler
for every chain length. The first photon's state is a leaf of the
precomputed trajectory table of the preparation and the first entangling
block; each later photon's state comes from Kraus sampling of the rotation
between blocks and the block, applied to the spin that the previous photon's
measurement left. Every photon is measured by one rule: its two time bins give
the outcome (none, early, erased, late or double), an erased photon collapses
the spin onto its analyzer port's superposition of the bins, and clicks are
thinned by the detection efficiency. Poisson background clicks are added, and
the phonon-sideband readout click is sampled from the final spin.

Cycles consume dedicated counter-based RNG streams keyed by (seed, block), so
the record stream is bit-for-bit reproducible and independent of how blocks
are sharded across workers: each worker runs one contiguous run of blocks in
order, carrying the walk phase from block to block, and first carries it
through the phase steps of the blocks before its run. A block takes all of its
draws up front, for any chain length, then samples only the cycles with a
surviving thinning draw of some photon or a background click. The per-cycle
tomography basis follows the arrival class of the cycle's earliest surviving
photon click (path-erased -> equatorial readout, path-revealed -> polar
readout); a cycle without one reads out in the polar basis when its last
photon was path-revealing and in the equatorial basis otherwise, as settings
and event classes are matched up in the corresponding hardware datasets.
"""
from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice, repeat
from math import isfinite
from typing import NamedTuple

import numpy as np

from . import emitter as em
from .optics import (
    EARLY,
    ERASED,
    INVALID,
    LATE,
    PORT_NAMES,
    ArrivalClass,
    InterferometerConfig,
    arm_weights,
    classify_arrival,
    port_offsets,
    window_spans,
)
from .protocol import ProtocolConfig, build_sequence, pulse_times, step_kraus

RECORD_COLUMNS = ("cycle_id", "port", "arrival_class", "t_ns", "phase_rad", "prep_sign", "readout_click")
# In memory, the three label columns hold uint8 codes that index the label
# tables below; the labels themselves appear only in CSV files and ClickRecords.
RECORD_DTYPE = np.dtype(
    [
        ("cycle_id", np.int64),
        ("port", np.uint8),
        ("arrival_class", np.uint8),
        ("t_ns", np.float64),
        ("phase_rad", np.float64),
        ("prep_sign", np.uint8),
        ("readout_click", np.uint8),
    ]
)

ARRIVAL_CLASSES = tuple(c.value for c in ArrivalClass)  # indexed by EARLY, ERASED, LATE, INVALID
PREP_NAMES = ("minus", "plus")
_CSV_LABELS = {
    name: np.array(labels, dtype=object)
    for name, labels in (
        ("port", PORT_NAMES),
        ("arrival_class", ARRIVAL_CLASSES),
        ("prep_sign", PREP_NAMES),
        ("readout_click", ("0", "1")),
    )
}
_RECORD_LABELS = dict(_CSV_LABELS, readout_click=np.array([False, True], dtype=object))
# closed vocabulary of each coded CSV column: label -> code
CODES = {name: {label: code for code, label in enumerate(labels)} for name, labels in _CSV_LABELS.items()}
_ROW_FORMAT = "{},{},{},{:.3f},{:.9f},{},{}\n".format

# bin occupations on the last axis of a (spin, occupation) state: 2 * bin1 + bin2
_OCC_00, _OCC_01, _OCC_10, _OCC_11 = range(4)
# occupation that each photon outcome (0 none, 1 early, 2 erased, 3 late,
# 4 double) leaves the spin in; an erased photon's spin comes from the collapse
_OUTCOME_OCC = np.array([_OCC_00, _OCC_10, _OCC_00, _OCC_01, _OCC_11])
_LEAF_PRUNE = 1e-12
_MAX_LEAVES = 20_000
_CHUNK = 8192  # rows per CSV write, parse or photon measurement step; bounds the objects alive at once
_BLOCK_SIZE = 65536  # cycles per keyed RNG block; the record bytes depend on it


class EventModelError(ValueError):
    pass


class RecordFormatError(ValueError):
    pass


@dataclass
class DetectionParams:
    """Detection-chain parameters of the Monte Carlo.

    ``zpl_efficiency`` is the end-to-end source-to-click probability and
    already includes the zero-phonon branching fraction; the per-photon
    detector thinning is therefore zpl_efficiency / zpl_fraction for photons
    that survived the branching inside the quantum model.
    """

    zpl_efficiency: float = 2e-5
    background_rate_hz: float = 0.0
    readout_dark_click: float = 0.0
    seed: int = 2024
    alternate_preps: bool = True

    def validate(self) -> None:
        if not 0.0 < self.zpl_efficiency <= 1.0:
            raise EventModelError("zpl_efficiency must lie in (0, 1]")
        if self.background_rate_hz < 0:
            raise EventModelError("background_rate_hz must be >= 0")
        if not 0.0 <= self.readout_dark_click <= 1.0:
            raise EventModelError("readout_dark_click must lie in [0, 1]")
        if not 0 <= self.seed < SEED_LIMIT:
            raise EventModelError(f"seed must lie in [0, 2**64), got {self.seed}")

    def validate_photons(self, n_photons: int) -> None:
        """Refuse background clicks on a photon chain: the sampler draws them in the first photon's windows only."""
        if n_photons > 1 and self.background_rate_hz > 0:
            raise EventModelError(
                f"background_rate_hz must be 0 when n_photons > 1, got {self.background_rate_hz}: "
                "background clicks are modeled for single photons only"
            )

    def detector_thinning(self, zpl_fraction: float) -> float:
        return min(1.0, self.zpl_efficiency / zpl_fraction)


class ClickRecord(NamedTuple):
    cycle_id: int
    port: str
    arrival_class: str
    t_ns: float
    phase_rad: float
    prep_sign: str
    readout_click: bool


# -- trajectory compilation ------------------------------------------------------


def _prep_codes(ids: np.ndarray, protocol_cfg: ProtocolConfig, detection: DetectionParams) -> np.ndarray:
    """Preparation code of each cycle id: minus on even and plus on odd ids
    when the preparations alternate, else the configured sign."""
    if detection.alternate_preps:
        return ids % 2
    return np.full(ids.shape, PREP_NAMES.index(protocol_cfg.prep_sign), dtype=np.int64)


def _block_operators(params: em.EmitterParams, protocol_cfg: ProtocolConfig, ifm: InterferometerConfig):
    """Kraus matrices of the step list on the (spin, bin1, bin2) layout: the
    preparation (one set per prep code), the first entangling block (pulse,
    flip, pulse) and the rotation between blocks (empty for one photon)."""
    schedules = [
        [ops for _, ops in step_kraus(build_sequence(replace(protocol_cfg, prep_sign=name), ifm), params)]
        for name in PREP_NAMES
    ]
    steps = schedules[0]
    return [s[0] for s in schedules], steps[1:4], steps[4] if len(steps) > 4 else []


class _CycleModel:
    """What every cycle shares: the validated configuration, the block size,
    pulse times, detector thinning, arm weights, port offsets, the bright
    readout row of the tomography rotation, the leaf table of the first photon
    and the Kraus operators of every later photon.

    Every branch of the preparation and the first entangling block is
    enumerated once: per leaf, the normalized (spin, bin occupation) state,
    its weight (cumulative per prep) and the cumulative photon-outcome
    weights. Each leaf is doubled with the late-bin amplitude's sign flipped,
    weighted by the erasure visibility. Drawing a leaf per cycle replaces
    sampling the first block's Kraus branches cycle by cycle (about 25x slower
    on the default config). A chain repeats the block once per photon, with a
    rotation between blocks; the sampler applies ``later_ops`` (that rotation,
    then the block) branch by branch to the spin that the previous photon's
    measurement left, so a cycle's live state never grows beyond
    (spin, bin1, bin2).
    """

    def __init__(
        self,
        params: em.EmitterParams,
        protocol_cfg: ProtocolConfig,
        ifm: InterferometerConfig,
        detection: DetectionParams,
    ):
        detection.validate_photons(protocol_cfg.n_photons)
        params.validate()
        protocol_cfg.validate()
        ifm.validate()
        self.block_size = _BLOCK_SIZE  # taken here, so that every worker cuts the same blocks
        self.ifm = ifm
        self.protocol_cfg = protocol_cfg
        self.params = params
        self.pulse_times = pulse_times(build_sequence(protocol_cfg, ifm))
        self.eta_det = detection.detector_thinning(params.zpl_fraction)
        self.arms = arm_weights(ifm)
        self.port_offsets = port_offsets(ifm.quadrature_offset)
        self.bright_row = em.qubit_rotation(protocol_cfg.tomo_theta)[em.LVL_G0]
        self.bg_span_ns = window_spans(ifm)[2]  # the background window of one port
        self.bg_per_cycle = detection.background_rate_hz * 4.0 * self.bg_span_ns * 1e-9

        prep_ops, block_ops, interblock_ops = _block_operators(params, protocol_cfg, ifm)
        self.later_ops = [interblock_ops, *block_ops]
        init_pops = np.real(np.diag(em.initialize_spin(params)))
        shares = np.array([1.0 + ifm.erasure_visibility, 1.0 - ifm.erasure_visibility])
        leaves, self.leaf_cum, self.prep_offset = [], [], [0]
        for ops in prep_ops:
            states, w = self._expand(init_pops, [ops, *block_ops])
            # visibility dephasing: each leaf and a copy with the late-bin
            # amplitude's sign flipped; at visibility 1 the copy weighs 0
            copies = np.stack([states, states], axis=1)
            copies[:, 1, :, _OCC_01] *= -1.0
            cw = w[:, None] * shares / 2
            keep = cw >= _LEAF_PRUNE
            leaves.append(copies[keep])
            self.leaf_cum.append(np.cumsum(cw[keep] / cw[keep].sum()))
            self.prep_offset.append(self.prep_offset[-1] + int(keep.sum()))
        self.leaves = np.concatenate(leaves)
        self.outcome_cum = np.cumsum(_outcome_weights(self.leaves, self.arms), axis=1)

    @staticmethod
    def _expand(init_pops, chains):
        """Normalized (spin, occupation) states and weights of every trajectory
        branch above _LEAF_PRUNE, in depth-first order: rows major and each
        row's branches last-first."""
        levels = [lvl for lvl in (em.LVL_G0, em.LVL_GM1, em.LVL_GP1) if init_pops[lvl] >= _LEAF_PRUNE]
        vecs = np.zeros((len(levels), em.SPIN_DIM * 4), dtype=complex)
        vecs[np.arange(len(levels)), np.multiply(levels, 4)] = 1.0  # both bins empty
        w = init_pops[levels]
        for ops in chains:
            children = np.stack([vecs @ k.T for k in reversed(ops)], axis=1)
            p = _sq_norms(children)
            keep = p * w[:, None] > _LEAF_PRUNE
            if np.count_nonzero(keep) > _MAX_LEAVES:
                raise EventModelError("trajectory tree too large; reduce channel branching")
            vecs = children[keep] / np.sqrt(p[keep])[:, None]
            w = (w[:, None] * p)[keep]
        return _normalized(vecs).reshape(-1, em.SPIN_DIM, 4), w


# -- phase trajectory ------------------------------------------------------------


_CYCLE_STREAM, _PHASE_STREAM = 1, 2  # the per-cycle draws and the phase-walk steps
SEED_LIMIT = 2**64  # a seed is one 64-bit word of the Philox key


def _keyed_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """Counter-based generator for one (stream, block) pair of a run.

    Streams and blocks map to disjoint Philox keys, so any sharding of blocks
    across workers reproduces the identical draws.
    """
    key = np.array([np.uint64(seed), np.uint64((stream << 48) | block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _walk_steps(ifm: InterferometerConfig, seed: int, block: int, m: int, offset: float, period_ns: float):
    """Phase steps of the random walk over a block's ``m`` cycles, and the
    walk's offset after them; no steps (None) and nothing drawn when the phase
    does not walk."""
    sigma = np.sqrt(ifm.phase_drift_var_per_ns * period_ns)
    if ifm.phase_mode != "walk" or sigma == 0:
        return None, offset
    normals = _keyed_rng(seed, _PHASE_STREAM, block).standard_normal(m)
    return sigma * normals, offset + sigma * normals.sum()


def _block_true_phase(ifm: InterferometerConfig, ids: np.ndarray, seed: int, block: int, offset: float, period_ns: float):
    """True phase of each cycle of a block, and the walk's offset for the next block."""
    if ifm.phase_mode == "static":
        return np.full(ids.shape, ifm.phase), offset
    if ifm.phase_mode == "scan":
        return np.mod(ifm.phase + ifm.scan_step_rad * ids, 2.0 * np.pi), offset
    steps, next_offset = _walk_steps(ifm, seed, block, ids.shape[0], offset, period_ns)
    if steps is None:
        return np.full(ids.shape, offset), offset
    return offset + np.cumsum(steps), next_offset


# -- block simulation --------------------------------------------------------------


def _simulate_block(model: _CycleModel, detection: DetectionParams, lo: int, hi: int, walk_offset: float):
    """Records of the cycles lo..hi-1, and the walk offset of the next block."""
    ifm = model.ifm
    pcfg = model.protocol_cfg
    eta = model.eta_det
    t_a1, t_a2 = model.pulse_times[:2]
    delay, w = ifm.delay_ns, ifm.window_ns

    m = hi - lo
    ids = np.arange(lo, hi, dtype=np.int64)
    block = lo // model.block_size
    rng = _keyed_rng(detection.seed, _CYCLE_STREAM, block)
    phase_true, next_offset = _block_true_phase(ifm, ids, detection.seed, block, walk_offset, pcfg.cycle_period_ns)
    draws = rng.random((9, m))
    phase_read = phase_true + rng.standard_normal(m) * ifm.phase_readout_sigma
    n_bg = rng.poisson(model.bg_per_cycle, m) if model.bg_per_cycle > 0 else np.zeros(m, dtype=np.int64)
    u_bg_time, u_bg_port = rng.random((2, int(n_bg.sum())))
    n_ops = len(model.later_ops)
    later = rng.random((pcfg.n_photons - 1, n_ops + 8, m))  # per later photon: a Kraus uniform per op, then 8 photon uniforms
    # every draw is taken; only a cycle with a surviving thinning draw of some
    # photon or a background click can leave a record, so only those are sampled on
    active = n_bg > 0
    for u_thin in (draws[4], draws[5], *later[:, n_ops + 4], *later[:, n_ops + 5]):
        active |= u_thin < eta
    if not active.all():
        rows = np.flatnonzero(active)
        ids, phase_true, phase_read, n_bg, draws, later = (a[..., rows] for a in (ids, phase_true, phase_read, n_bg, draws, later))
        m = rows.size
    u_leaf, u_ro = draws[0], draws[8]
    prep_idx = _prep_codes(ids, pcfg, detection)

    li = np.empty(m, dtype=np.int64)
    for p in (0, 1):
        msk = prep_idx == p
        seg = np.searchsorted(model.leaf_cum[p], u_leaf[msk], side="right")
        seg = np.minimum(seg, len(model.leaf_cum[p]) - 1)
        li[msk] = model.prep_offset[p] + seg
    # photon 1's state is its cycle's leaf
    states, state_rows = model.leaves, li
    outcome = _pick(model.outcome_cum[li], draws[1])

    sources = []
    basis_x = np.zeros(m, dtype=bool)
    undecided = np.ones(m, dtype=bool)  # no surviving photon click yet
    ro_click = np.zeros(m, dtype=bool)
    for k in range(pcfg.n_photons):
        if k:
            states = None  # free the measured photon's state before the next one's
            # the rotation between blocks and the entangling block, one Born-weighted
            # Kraus branch each, applied to the spin that the last measurement left
            state = np.zeros((m, em.SPIN_DIM * 4), dtype=complex)
            state[:, ::4] = spin  # both bins empty
            for ops, u in zip(model.later_ops, later[k - 1, :n_ops]):
                state = _sample_kraus(state, ops, u)
            states, state_rows = state.reshape(-1, em.SPIN_DIM, 4), np.arange(m)
            draws = later[k - 1, n_ops:]
            outcome = _pick(np.cumsum(_outcome_weights(states, model.arms), axis=1), draws[0])
            # the late-bin amplitude's sign flips at rate (1 - visibility) / 2
            states[:, :, _OCC_01] *= np.where(draws[1] < (1 + ifm.erasure_visibility) / 2, 1.0, -1.0)[:, None]
        # draws[2:8]: arm, arm, thinning, thinning, port, port of the photon's clicks
        u_thin1, u_port1 = draws[4], draws[6]
        t_erased = model.pulse_times[2 * k + 1]
        t_class = np.array([model.pulse_times[2 * k], t_erased, t_erased + delay])  # arrival time of EARLY, ERASED, LATE
        det = np.flatnonzero((outcome >= 1) & (outcome <= 3) & (u_thin1 < eta))
        det_cls = outcome[det] - 1  # outcome 1, 2, 3 -> EARLY, ERASED, LATE
        pair_sources = _pair_clicks(np.flatnonzero(outcome == 4), draws[2:8], model.arms, eta, t_class)

        # the readout basis is the class of the cycle's earliest surviving
        # photon click; photons arrive in order, and a pair's first click
        # never arrives after its second
        for rows, cls in ((det, det_cls), *(src[:2] for src in pair_sources)):
            first = undecided[rows]
            basis_x[rows[first]] = cls[first] == ERASED
            undecided[rows] = False
        last = k == pcfg.n_photons - 1
        if last:
            # no surviving photon click: polar for a revealing last photon,
            # equatorial for none, erased or double (outcomes 0, 2, 4)
            basis_x[undecided] = outcome[undecided] % 2 == 0
            # only the cycles that own a record have a port or a readout to write
            measured = np.flatnonzero(~undecided | (n_bg > 0))
        else:
            measured = np.arange(m)
            spin = np.empty((m, em.SPIN_DIM), dtype=complex)
        port = np.zeros(m, dtype=np.int64)
        for chunk in np.split(measured, range(_CHUNK, measured.size, _CHUNK)):
            port[chunk], chunk_spin = _measure(states, state_rows[chunk], outcome[chunk], phase_true[chunk], u_port1[chunk], model)
            if last:
                p_bright = _bright(chunk_spin, basis_x[chunk], model.bright_row)
                ro_click[chunk] = u_ro[chunk] < em.readout_click_probability(p_bright, model.params, detection.readout_dark_click)
            else:
                spin[chunk] = chunk_spin
        # (cycle index, class, time in cycle, port) in insertion order: first
        # and second photons of double cycles, then single detections
        sources += [*pair_sources, (det, det_cls, t_class[det_cls], port[det])]

    t_in = (t_a1 - w) + u_bg_time * model.bg_span_ns
    owners = np.repeat(np.arange(m), n_bg)
    sources.append((owners, classify_arrival(t_in, t_a2, ifm), t_in, _quarter(u_bg_port)))
    return _rows(sources, ids, pcfg.cycle_period_ns, phase_read, prep_idx, ro_click), next_offset


def _outcome_weights(states, arms):
    """Weights of the photon outcomes 0 none, 1 early, 2 erased, 3 late and
    4 double of each (spin, occupation) state on the last two axes of
    ``states``, for the arm weights ``arms``."""
    (erase1, reveal1), (erase2, reveal2) = arms
    p00, p01, p10, p11 = np.moveaxis(_sq_norms(np.swapaxes(states, -1, -2)), -1, 0)
    return np.stack([p00, reveal1 * p10, erase1 * p10 + erase2 * p01, reveal2 * p01, p11], axis=-1)


def _measure(states, rows, outcome, phase, u_port, model):
    """Analyzer port and normalized post-measurement spin of the photon in
    each ``states[rows]``, given its outcome.

    A revealing or double photon takes a uniform port. An erased photon picks
    a port with the weights base + 2|zeta| cos(phase + offset + arg zeta),
    zeta = sqrt(e1 e2) <chi01|chi10>, and the spin collapses onto that port's
    superposition of the two bins.
    """
    (erase1, _), (erase2, _) = model.arms
    port = _quarter(u_port)
    spin = states[rows, :, _OUTCOME_OCC[outcome]]
    er = np.flatnonzero(outcome == 2)
    early, late = states[rows[er], :, _OCC_10], states[rows[er], :, _OCC_01]
    zeta = np.sqrt(erase1 * erase2) * np.einsum("ls,ls->l", late.conj(), early)
    base = erase1 * _sq_norms(early) + erase2 * _sq_norms(late)
    args = phase[er, None] + model.port_offsets
    weights = base[:, None] + 2.0 * np.abs(zeta)[:, None] * np.cos(args + np.angle(zeta)[:, None])
    port[er] = _pick(np.cumsum(np.maximum(weights, 0.0), axis=1), u_port[er])
    early *= np.sqrt(erase1) * np.exp(1j * phase[er])[:, None]
    late *= np.sqrt(erase2)
    late *= np.exp(-1j * model.port_offsets[port[er]])[:, None]
    spin[er] = early + late
    return port, _normalized(spin)


def _bright(spin, basis_x, bright_row):
    """Probability of the bright level for each normalized ``spin``: in the
    equatorial basis (after the tomography rotation, whose bright row is
    ``bright_row``) where ``basis_x``, in the polar basis elsewhere."""
    # einsum, not a BLAS matrix-vector product, whose threads cost more than this product
    return np.abs(np.where(basis_x, np.einsum("ij,j->i", spin, bright_row), spin[:, em.LVL_G0])) ** 2


def _pair_clicks(rows, draws, arms, eta, t_class):
    """Clicks of the cycles ``rows`` whose photon occupied both bins.

    Each photon of the pair takes its own arm and survives detection on its
    own; ``draws`` holds the per-cycle uniforms (arm, arm, thinning, thinning,
    port, port). Returns the click sources of the first and the second photon;
    the first never arrives after the second.
    """
    u_arm1, u_arm2, u_thin1, u_thin2, u_port1, u_port2 = (u[rows] for u in draws)
    (erase1, _), (erase2, _) = arms
    first_cls = np.where(u_arm1 < erase1, ERASED, EARLY)
    second_cls = np.where(u_arm2 < erase2, ERASED, LATE)
    seen1, seen2 = u_thin1 < eta, u_thin2 < eta
    return [
        (rows[seen1], first_cls[seen1], t_class[first_cls[seen1]], _quarter(u_port1[seen1])),
        (rows[seen2], second_cls[seen2], t_class[second_cls[seen2]], _quarter(u_port2[seen2])),
    ]


def _quarter(u):
    """Uniform port code from a uniform draw."""
    return np.minimum((u * 4).astype(np.int64), 3)


def _pick(cum, u):
    """Index of the branch that each row's uniform draw ``u`` selects with
    probability proportional to its weight, given each row's cumulative
    branch weights ``cum``."""
    return (u[:, None] * cum[:, -1:] > cum).sum(axis=1)


def _sq_norms(vecs):
    """Squared norm of each vector along the last axis, without a temporary of the vectors' size."""
    return np.einsum("...j,...j->...", vecs.real, vecs.real) + np.einsum("...j,...j->...", vecs.imag, vecs.imag)


def _normalized(vecs):
    """Rows of ``vecs`` scaled to unit norm in place; zero rows stay zero."""
    sq = _sq_norms(vecs)
    vecs /= np.sqrt(np.where(sq > 0, sq, 1.0))[:, None]
    return vecs


def _sample_kraus(vecs, ops, u):
    """Apply one Born-weighted Kraus branch to each row of ``vecs`` and renormalize.

    Only the (rows x ops) weights are held at once, never every branch's state.
    """
    weights = np.empty((len(vecs), len(ops)))
    for k, op in enumerate(ops):
        weights[:, k] = _sq_norms(vecs @ op.T)
    pick = _pick(np.cumsum(weights, axis=1), u)
    out = vecs @ ops[0].T  # every row through the first branch, then redo the rows that took another
    for k, op in enumerate(ops[1:], start=1):
        rows = pick == k
        out[rows] = vecs[rows] @ op.T
    return _normalized(out)


def _rows(sources, ids, period, phase_read, prep_idx, ro_click) -> np.ndarray:
    """Records of a block from its click sources, each a tuple of columns
    (cycle index in block, class, time in cycle, port); ties on time keep the
    order of ``sources``."""
    owner, cls, t_cycle, port = (np.concatenate(col) for col in zip(*sources))
    t_ns = ids[owner] * period + t_cycle
    # stable: the two erased clicks of a double cycle tie on t_ns
    order = np.lexsort((t_ns, owner))
    owner = owner[order]
    out = np.empty(order.size, dtype=RECORD_DTYPE)
    out["cycle_id"] = ids[owner]
    out["port"] = port[order]
    out["arrival_class"] = cls[order]
    out["t_ns"] = t_ns[order]
    out["phase_rad"] = phase_read[owner]
    out["prep_sign"] = prep_idx[owner]
    out["readout_click"] = ro_click[owner]
    return out


def _simulate_shard(model: _CycleModel, detection: DetectionParams, n_cycles: int, first: int, stop: int) -> np.ndarray:
    """Records of the blocks first..stop-1 of an ``n_cycles`` run, run in order
    with the walk offset carried from block to block. The offset at ``first``
    comes from carrying the walk through the earlier blocks, which are full."""
    size, period = model.block_size, model.protocol_cfg.cycle_period_ns
    offset = model.ifm.phase
    for block in range(first):
        _, offset = _walk_steps(model.ifm, detection.seed, block, size, offset, period)
    parts = []
    for lo in range(first * size, min(n_cycles, stop * size), size):
        part, offset = _simulate_block(model, detection, lo, min(n_cycles, lo + size), offset)
        parts.append(part)
    return np.concatenate(parts)


# -- public API --------------------------------------------------------------------


def simulate_cycles(
    n_cycles: int,
    params: em.EmitterParams,
    ifm: InterferometerConfig,
    protocol_cfg: ProtocolConfig,
    detection: DetectionParams,
    workers: int = 1,
) -> np.ndarray:
    """Simulate ``n_cycles`` protocol cycles and return the click records.

    Deterministic in (configs, detection.seed); the ``workers`` count splits
    the RNG blocks into contiguous runs, one per process, and never changes
    the output.
    """
    if n_cycles < 1:
        raise EventModelError("n_cycles must be >= 1")
    detection.validate()
    model = _CycleModel(params, protocol_cfg, ifm, detection)
    n_blocks = (n_cycles + model.block_size - 1) // model.block_size
    workers = min(workers, n_blocks)  # a fork-started pool launches every worker at the first submit
    shard = partial(_simulate_shard, model, detection, n_cycles)
    if workers == 1:
        return shard(0, n_blocks)
    # one contiguous run of blocks per worker, of nearly equal length
    cuts = [n_blocks * k // workers for k in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(shard, cuts[:-1], cuts[1:])))


# -- record I/O ---------------------------------------------------------------------


def _columns(records: np.ndarray, labels: dict) -> list[list]:
    """The record columns as Python lists, code columns mapped through ``labels``."""
    return [(labels[name][records[name]] if name in labels else records[name]).tolist() for name in RECORD_COLUMNS]


# The writer builds a chunk's rows in one uint8 buffer, each field in the width
# of its widest value and padded with NULs, which are deleted before writing.
# Digits come four at a time from _QUADS, the ASCII of "0000".."9999" as uint32.
_DECIMALS = {"t_ns": 3, "phase_rad": 9}
_EXACT_BELOW = 2.0**52  # a chunk with |x * 10**d| at or above this is formatted by _ROW_FORMAT
_QUADS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).view(np.uint32).ravel()
_POW10 = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)
_LABEL_BYTES = {name: np.array(labels, "S").view(np.uint8).reshape(len(labels), -1) for name, labels in _CSV_LABELS.items()}
# The columns as np.loadtxt reads them: a label column one byte wider than its longest label cuts a longer field to no label
_TABLE_DTYPE = np.dtype([(n, f"S{_LABEL_BYTES[n].shape[1] + 1}" if n in CODES else RECORD_DTYPE[n]) for n in RECORD_COLUMNS])


def _check_writable(records: np.ndarray) -> None:
    """Refuse what read_records would refuse: a non-finite number or a code outside its vocabulary."""
    for name in RECORD_COLUMNS[1:]:
        column, labels = records[name], _CSV_LABELS.get(name)
        bad = ~np.isfinite(column) if labels is None else column >= len(labels)
        if bad.any():
            k = int(np.argmax(bad))
            expected = "a finite number" if labels is None else "a code of " + ", ".join(labels)
            raise RecordFormatError(f"record {k}: {name} {column[k]} is not {expected}")


def _decimal(mag: np.ndarray, neg: np.ndarray, min_digits: int) -> np.ndarray:
    """ASCII decimals of uint64 magnitudes after one sign column: '-' before the
    negatives, NUL in place of leading zeros beyond ``min_digits`` digits."""
    digits = np.maximum(np.searchsorted(_POW10, mag, side="right") + 1, min_digits)
    groups = -(-int(digits.max(initial=min_digits)) // 4)
    quads = np.empty((mag.size, groups), np.uint32)
    for j in range(groups - 1, -1, -1):
        mag, low = np.divmod(mag, np.uint64(10_000))
        quads[:, j] = np.take(_QUADS, low.view(np.int64))  # numpy 1.x take casts only safely to intp
    width = 4 * groups + 1
    lead = width - 1 - digits  # the sign column of each row
    text = np.empty((mag.size, width), np.uint8)
    text[:, 1:] = quads.view(np.uint8)
    cols = np.arange(width)
    text &= np.take(np.where(cols > cols[:, None], np.uint8(255), np.uint8(0)), lead, axis=0)
    np.put(text, np.flatnonzero(neg) * width + lead[neg], ord("-"))
    return text


def _round_scaled(x: np.ndarray, p: np.ndarray, d: int) -> np.ndarray:
    """|x * 10**d| rounded half to even, from p = fl(x * 10**d) below 2**52: rint(p)
    unless p is a half-integer, where the sign of Dekker's exact error of p decides
    (x split by Veltkamp; 10**d has at most 26 significant bits and needs no split)."""
    scale = 10.0**d
    split = x * 134217729.0  # 2**27 + 1
    hi = split - (split - x)
    err = (hi * scale - p) + (x - hi) * scale
    r = np.rint(p)
    half = p - r
    r += (half == 0.5) & (err > 0)
    r -= (half == -0.5) & (err < 0)
    return np.abs(r).astype(np.uint64)


def _format_rows(chunk: np.ndarray) -> bytes:
    """The CSV rows of ``chunk``, byte for byte those of _ROW_FORMAT."""
    with np.errstate(over="ignore"):
        scaled = {name: chunk[name] * 10.0**d for name, d in _DECIMALS.items()}
    if not all((np.abs(p) < _EXACT_BELOW).all() for p in scaled.values()):
        return "".join(map(_ROW_FORMAT, *_columns(chunk, _CSV_LABELS))).encode()
    comma, dot, newline = (np.full((len(chunk), 1), ord(c), np.uint8) for c in ",.\n")
    ids = chunk["cycle_id"]
    mag = ids.astype(np.uint64)
    pieces = [_decimal(np.where(ids < 0, -mag, mag), ids < 0, 1)]  # -mag wraps, so int64 min works
    for name in RECORD_COLUMNS[1:]:
        column, d = chunk[name], _DECIMALS.get(name)
        if d is None:
            pieces += [comma, np.take(_LABEL_BYTES[name], column, axis=0)]
        else:
            text = _decimal(_round_scaled(column, scaled[name], d), np.signbit(column), d + 1)
            pieces += [comma, text[:, :-d], dot, text[:, -d:]]
    return np.concatenate(pieces + [newline], axis=1).tobytes().translate(None, b"\0")


def write_records(path, records: np.ndarray) -> None:
    """Write a record file; a record that read_records would refuse raises RecordFormatError before any write."""
    _check_writable(records)
    with open(path, "wb") as fh:
        fh.write((",".join(RECORD_COLUMNS) + "\n").encode())
        for lo in range(0, len(records), _CHUNK):
            fh.write(_format_rows(records[lo : lo + _CHUNK]))


def read_records(path) -> np.ndarray:
    """Read a record file, each chunk of lines with numpy's C reader; a chunk that it refuses goes
    to _parse_lines, which sets the rules: a malformed field raises RecordFormatError naming its line."""
    # a byte that is not UTF-8 decodes to a lone surrogate and fails its field's check
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().strip()
        cols = tuple(header.split(","))
        if cols != RECORD_COLUMNS:
            missing = set(RECORD_COLUMNS) - set(cols)
            raise RecordFormatError(
                f"bad header: expected columns {','.join(RECORD_COLUMNS)}"
                + (f" (missing {','.join(sorted(missing))})" if missing else "")
            )
        parts = []
        first = 2
        for lines in iter(lambda: list(islice(fh, _CHUNK)), []):
            try:
                parts.append(_parse_table(lines))
            except (ValueError, Warning):
                parts.append(_parse_lines(lines, first))
            first += len(lines)
    return np.concatenate(parts) if parts else np.empty(0, dtype=RECORD_DTYPE)


def _parse_table(lines: list[str]) -> np.ndarray:
    """The lines parsed by numpy's C reader, or ValueError or a warning where it might differ from
    _parse_lines: no rows, a field outside its column's range, or a NUL, which a bytes label drops."""
    if "\0" in "".join(lines):
        raise ValueError("NUL in a line")
    # taken before the larger table, whose freed block the next chunk reuses rather than leaves a hole
    out = np.empty(len(lines), dtype=RECORD_DTYPE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = np.loadtxt(lines, dtype=_TABLE_DTYPE, delimiter=",", comments=None, quotechar=None, ndmin=1, encoding="utf-8")
    out = out[: len(table)]  # blank lines hold no row
    for name in RECORD_COLUMNS:
        column = table[name]
        if name in CODES:
            hits = column[:, None] == _CSV_LABELS[name].astype("S")
            column, valid = hits.argmax(axis=1), hits.any(axis=1)
        else:
            valid = np.isfinite(column)
        if not valid.all():
            raise ValueError(f"{name} outside its vocabulary or range")
        out[name] = column
    return out


def _parse_lines(lines: list[str], first: int) -> np.ndarray:
    """The non-blank lines as records; the first bad field of the first bad line raises RecordFormatError."""
    rows = []
    for lineno, line in enumerate(lines, first):
        if row := line.strip():
            fields = row.split(",")
            if len(fields) != len(RECORD_COLUMNS):
                raise RecordFormatError(f"line {lineno}: expected {len(RECORD_COLUMNS)} fields, got {len(fields)}")
            rows.append(tuple(map(_parse_field, RECORD_COLUMNS, fields, repeat(lineno))))
    return np.array(rows, dtype=RECORD_DTYPE)


def _parse_field(name: str, text: str, lineno: int):
    """One text field as its record dtype, checked against its column's vocabulary or range."""
    if name in CODES:
        if text in CODES[name]:
            return CODES[name][text]
        expected = "one of " + ", ".join(CODES[name])
    else:
        parse, expected = (int, "an integer") if name == "cycle_id" else (float, "a finite number")
        try:
            value = RECORD_DTYPE[name].type(parse(text))  # an id outside int64 raises OverflowError
        except (ValueError, OverflowError):
            pass
        else:
            if isfinite(value):
                return value
    raise RecordFormatError(f"line {lineno}: {name} {text!r} is not {expected}")


def multiclick_cycles(cycle_ids: np.ndarray, n_photons: int):
    """Mask of the records whose cycle has more clicks than the protocol emits
    photons, and the number of such cycles.

    Such cycles lie outside the protocol subspace and are rejected. The
    records may come in any order.
    """
    order = np.argsort(cycle_ids, kind="stable") if np.any(cycle_ids[1:] < cycle_ids[:-1]) else slice(None)
    ids = cycle_ids[order]
    counts = np.diff(np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]]), append=ids.size)  # run lengths
    over = counts > n_photons
    mask = np.empty(ids.size, dtype=bool)
    mask[order] = np.repeat(over, counts)
    return mask, int(np.count_nonzero(over))


def pair_coincidences(records: np.ndarray, n_photons: int = 1):
    """Pair each cycle's photon click(s) with its readout flag.

    Cycles carrying more clicks than the protocol emits photons lie outside
    the protocol subspace and are rejected (counted, not returned). Returns
    (pairs, n_rejected) with pairs as (ClickRecord, readout_click) tuples.
    The records must be sorted by cycle_id.
    """
    if np.any(records["cycle_id"][1:] < records["cycle_id"][:-1]):
        raise EventModelError("records must be sorted by cycle_id")
    drop, rejected = multiclick_cycles(records["cycle_id"], n_photons)
    clicks = map(ClickRecord, *_columns(records[~drop], _RECORD_LABELS))
    return [(rec, rec.readout_click) for rec in clicks], rejected


def summarize(records: np.ndarray, n_photons: int = 1) -> dict:
    """Counts of the records, in any order: all, heralded, readout clicks of
    the cycles kept, and multi-click cycles rejected."""
    drop, rejected = multiclick_cycles(records["cycle_id"], n_photons)
    return {
        "records": int(len(records)),
        "heralded": int(np.count_nonzero(records["arrival_class"] == ERASED)),
        "coincidences": int(np.count_nonzero(records["readout_click"][~drop])),
        "rejected_cycles": rejected,
    }
