"""Monte Carlo generation of timestamped detector click records.

Each cycle runs one protocol trajectory, one photon at a time, in one sampler
for every chain length. The first photon's state is a leaf of the
precomputed trajectory table of the preparation and the first entangling
block; each later photon's state comes from Kraus sampling of the rotation
between blocks and the block (a run of one-operator steps as one product),
applied to the spin that the previous photon's measurement left, on the levels
it can reach. Every photon is measured by one rule, on the levels its state
holds: its two time bins give the outcome (none, early, erased, late or
double), the photon of each occupied bin clicks by one rule (an arm, thinning
by the detection efficiency and a uniform analyzer port), and an erased photon
collapses the spin onto its port's superposition of the bins. Poisson
background clicks are added, and the readout click is drawn from the last
photon's per-state amplitudes.

Cycles consume dedicated counter-based RNG streams keyed by (seed, block), so
the record stream is bit-for-bit reproducible and independent of how blocks
are sharded across workers: each worker runs one contiguous run of blocks in
order, carrying the walk phase from block to block, and first carries it
through the phase steps of the blocks before its run. A block draws the
thinning uniforms, readout normals and background clicks of every cycle, and
every uniform of its later photons, then samples only the cycles with a
surviving thinning draw of some photon or a background click. The first
photon's non-thinning uniforms are read at those cycles alone, by Philox
counter when they are few, so the other cycles' draws are never made; the
records are those of drawing every number. The per-cycle
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
from functools import partial, reduce
from itertools import islice, repeat
from math import isfinite
from typing import NamedTuple

import numpy as np

from . import emitter as em
from .optics import (
    EARLY,
    ERASED,
    GOLDEN_STEP,
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
from .protocol import ProtocolConfig, SequenceStep, build_sequence, prep_theta, pulse_times, step_kraus

ARRIVAL_CLASSES = tuple(c.value for c in ArrivalClass)  # indexed by EARLY, ERASED, LATE, INVALID
PREP_NAMES = ("minus", "plus")
# The record format, one column a row: its in-memory type, then its CSV labels
# or its CSV decimals. In memory, the four label columns hold uint8 codes that
# index their labels; the labels appear only in CSV files and ClickRecords.
_FORMAT = (
    ("cycle_id", np.int64, None),
    ("port", np.uint8, PORT_NAMES),
    ("arrival_class", np.uint8, ARRIVAL_CLASSES),
    ("t_ns", np.float64, 3),
    ("phase_rad", np.float64, 9),
    ("prep_sign", np.uint8, PREP_NAMES),
    ("readout_click", np.uint8, ("0", "1")),
)
RECORD_COLUMNS = tuple(name for name, _, _ in _FORMAT)
RECORD_DTYPE = np.dtype([(name, kind) for name, kind, _ in _FORMAT])
_CSV_LABELS = {name: np.array(csv, dtype=object) for name, _, csv in _FORMAT if isinstance(csv, tuple)}
_DECIMALS = {name: csv for name, _, csv in _FORMAT if isinstance(csv, int)}
_ROW_FORMAT = (",".join(f"{{:.{_DECIMALS[name]}f}}" if name in _DECIMALS else "{}" for name in RECORD_COLUMNS) + "\n").format
_RECORD_LABELS = dict(_CSV_LABELS, readout_click=np.array([False, True], dtype=object))
# closed vocabulary of each coded CSV column: label -> code
CODES = {name: {label: code for code, label in enumerate(labels)} for name, labels in _CSV_LABELS.items()}

# bin occupations on the last axis of a (spin, occupation) state: 2 * bin1 + bin2
_OCC_00, _OCC_01, _OCC_10, _OCC_11 = range(4)
# occupation that each photon outcome (0 none, 1 early, 2 erased, 3 late,
# 4 double) leaves the spin in; an erased photon's spin comes from the collapse
_OUTCOME_OCC = np.array([_OCC_00, _OCC_10, _OCC_00, _OCC_01, _OCC_11])
_LEAF_PRUNE = 1e-12
_CHUNK = 8192  # rows per CSV write or parse step; bounds the text alive at once
_BLOCK_SIZE = 65536  # cycles per keyed RNG block; the record bytes depend on it
# A block with fewer active cycles than 1/_COUNTER_SHARE of it reads photon 1's
# seven other uniforms by counter, at about 0.2 us a value; drawing its whole
# table takes about 3 ms a 65,536-cycle block (x86-64, 2 vCPUs), so the counter
# wins below about 1 active cycle in 30, and the cutoff keeps a margin of 2.
_COUNTER_SHARE = 64
_COUNTER_ROWS = np.array([0, 1, 2, 3, 6, 7, 8])  # photon 1's rows other than thinning


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


def _block_operators(steps: list[SequenceStep], params: em.EmitterParams):
    """Kraus matrices on the (spin, bin1, bin2) layout of the preparation (one
    set per prep code), the first entangling block (pulse, flip, pulse) and the
    rotation between blocks (empty for one photon). Every later block repeats
    the first, so ``step_kraus`` runs on these steps of ``steps`` alone, the
    preparation at each sign's angle: one pulse set and at most four rotations."""
    prep, *kept = [s for s in steps if s.kind in ("mw_rotation", "optical_pulse")][:5]
    preps = [replace(prep, theta=prep_theta(name)) for name in PREP_NAMES]
    ops = [ops for _, ops in step_kraus(preps + kept, params)]
    return ops[:2], ops[2:5], ops[5] if len(ops) > 5 else []


class _Support:
    """Maps of the levels 4 * spin + occupation that a state array's columns
    hold: each column's occupation (one-hot) and entries of the polar and
    equatorial readout rows per occupation, the occupation-01 columns
    (``late``), and the column of each (occupation, spin) level ``held``."""

    def __init__(self, levels: np.ndarray, bright_row: np.ndarray):
        spin, occ = np.divmod(levels, 4)
        self.occ, self.late = (occ[:, None] == np.arange(4)) * 1.0, np.flatnonzero(occ == _OCC_01)
        self.readout = np.hstack([self.occ * (spin == em.LVL_G0)[:, None], self.occ * bright_row[spin, None]])
        self.column, self.held = np.zeros((4, em.SPIN_DIM), np.intp), np.zeros((4, em.SPIN_DIM), bool)
        self.column[occ, spin], self.held[occ, spin] = np.arange(len(levels)), True

    def spins(self, states, rows, occ):
        """The spin of occupation ``occ`` of each state ``states[rows]``, zero off the support."""
        columns = np.take(self.column, occ, axis=0) + (rows * states.shape[1])[:, None]  # np.take: faster than fancy indexing
        return np.where(np.take(self.held, occ, axis=0), np.take(states, columns), 0)


class _CycleModel:
    """What every cycle shares: the validated configuration, the block size,
    pulse times, detector thinning, arm weights, port offsets, the bright
    readout row of the tomography rotation, the leaf table of the first photon
    and the Kraus operators of every later photon.

    Every branch of the preparation and the first entangling block is
    enumerated once: per leaf, the normalized state on all 28 (spin,
    occupation) levels (``leaf_support``), its weight (cumulative per prep),
    the cumulative photon-outcome weights and the ``leaf_terms`` that its
    photon's readout reads. Each leaf is doubled with the late-bin amplitude's
    sign flipped, weighted by the erasure visibility. Drawing a leaf per cycle
    replaces sampling the first block's Kraus branches cycle by cycle (about
    25x slower on the default config). A chain repeats the block once per
    photon, with a rotation between blocks, sampled branch by branch from the
    spin that the previous photon's measurement left. Each such later step
    (``later_ops``) keeps the levels it can reach, the rows nonzero (!= 0) on
    the support that the step before left, from both bins empty: 7, 7, 9 and
    9 of 28 on an ideal chain, one operator each, as a pulse writes a fresh
    bin. A run of one-operator steps is one product (``later_steps``: one 9 x
    7 matrix on an ideal chain), and a later photon's terms and collapse are
    read on the levels reached (``later_support``).
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
        steps = build_sequence(protocol_cfg, ifm)
        self.pulse_times = pulse_times(steps)
        self.eta_det = detection.detector_thinning(params.zpl_fraction)
        self.arms = arm_weights(ifm)
        self.port_offsets = port_offsets(ifm.quadrature_offset)
        self.bright_row = em.qubit_rotation(protocol_cfg.tomo_theta)[em.LVL_G0]
        self.bg_span_ns = window_spans(ifm)[2]  # the background window of one port
        self.bg_per_cycle = detection.background_rate_hz * 4.0 * self.bg_span_ns * 1e-9

        prep_ops, block_ops, interblock_ops = _block_operators(steps, params)
        self.later_ops, self.later_supports, self.later_steps = [], [np.arange(0, em.SPIN_DIM * 4, 4)], []
        for j, ops in enumerate([interblock_ops, *block_ops] if interblock_ops else []):
            cols = self.later_supports[-1]
            rows = np.flatnonzero(np.any(np.stack(ops)[:, :, cols] != 0, axis=(0, 2)))
            self.later_ops.append([op[np.ix_(rows, cols)] for op in ops])
            self.later_supports.append(rows)
            # (uniform row, Kraus set) of each step that the sampler takes: a run of one-operator steps is one product
            fuse = len(ops) == 1 and self.later_steps and len(self.later_steps[-1][1]) == 1
            self.later_steps.append((j, [self.later_ops[-1][0] @ self.later_steps.pop()[1][0]] if fuse else self.later_ops[-1]))
        self.leaf_support = _Support(np.arange(em.SPIN_DIM * 4), self.bright_row)
        self.later_support = _Support(self.later_supports[-1], self.bright_row)
        init_pops = np.real(np.diag(em.initialize_spin(params)))
        shares = np.array([1.0 + ifm.erasure_visibility, 1.0 - ifm.erasure_visibility])
        leaves, self.leaf_cum, self.prep_offset = [], [], [0]
        for ops in prep_ops:
            states, w = self._expand(init_pops, [ops, *block_ops])
            # visibility dephasing: each leaf and a copy with the late-bin
            # amplitude's sign flipped; at visibility 1 the copy weighs 0
            copies = np.stack([states, states], axis=1)
            copies[:, 1, self.leaf_support.late] *= -1.0
            cw = w[:, None] * shares / 2
            keep = cw >= _LEAF_PRUNE
            leaves.append(copies[keep])
            self.leaf_cum.append(np.cumsum(cw[keep] / cw[keep].sum()))
            self.prep_offset.append(self.prep_offset[-1] + int(keep.sum()))
        self.leaves = np.concatenate(leaves)
        self.leaf_terms = _state_terms(self.leaves, self.leaf_support)
        self.outcome_cum = np.cumsum(_outcome_weights(self.leaf_terms[0], self.arms), axis=1)

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
            vecs = children[keep] / np.sqrt(p[keep])[:, None]
            w = (w[:, None] * p)[keep]
        return _normalized(vecs), w


# -- phase trajectory ------------------------------------------------------------


_CYCLE_STREAM, _PHASE_STREAM = 1, 2  # the per-cycle draws and the phase-walk steps
SEED_LIMIT = 2**64  # a seed is one 64-bit word of the Philox key


def _stream_key(seed: int, stream: int, block: int) -> tuple[int, int]:
    """The two 64-bit Philox key words of one (stream, block) pair of a run."""
    return seed, (stream << 48) | block


def _keyed_rng(seed: int, stream: int, block: int, position: int = 0) -> np.random.Generator:
    """Counter-based generator for one (stream, block) pair of a run, placed
    at raw output ``position`` of its stream.

    Streams and blocks map to disjoint Philox keys, so any sharding of blocks
    across workers reproduces the identical draws. Philox makes four outputs
    per counter value: the generator starts at counter position // 4 and
    discards the outputs before ``position`` in that group.
    """
    key = np.array([np.uint64(word) for word in _stream_key(seed, stream, block)], dtype=np.uint64)
    bitgen = np.random.Philox(key=key, counter=position // 4)
    if position % 4:
        bitgen.random_raw(position % 4)
    return np.random.Generator(bitgen)


# Philox4x64-10 as numpy's Philox computes it (Salmon et al., SC'11): the round
# multipliers and the key increments. Every operand is a uint64, because numpy
# 1.x promotes a uint64 mixed with a Python int to float64.
_PHILOX_MUL = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_PHILOX_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32, _U32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(a, b):
    """High and low words of each 128-bit product a * b of uint64s, the high word from 32-bit halves."""
    a_lo, a_hi, b_lo, b_hi = a & _LOW32, a >> _U32, b & _LOW32, b >> _U32
    lh, hl = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo >> _U32) + (lh & _LOW32) + (hl & _LOW32)
    return a_hi * b_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32), a * b


def _philox_uniforms(seed: int, stream: int, block: int, positions: np.ndarray) -> np.ndarray:
    """The uniform that ``Generator.random`` makes from each raw output
    ``positions`` of a keyed stream, without the outputs before it.

    numpy's Philox steps its counter before each call of the rounds and hands
    out the four words in order, so output p is word p % 4 of counter p // 4 + 1.
    """
    positions = positions.astype(np.uint64)
    zero = np.zeros_like(positions)
    x0, x1, x2, x3 = (positions >> np.uint64(2)) + np.uint64(1), zero, zero, zero
    key = _stream_key(seed, stream, block)
    with np.errstate(over="ignore"):
        for r in range(_PHILOX_ROUNDS):
            k0, k1 = (np.uint64((k + r * bump) % 2**64) for k, bump in zip(key, _PHILOX_BUMP))
            hi0, lo0 = _mulhilo(_PHILOX_MUL[0], x0)
            hi1, lo1 = _mulhilo(_PHILOX_MUL[1], x2)
            x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    out = np.choose((positions & np.uint64(3)).astype(np.intp), (x0, x1, x2, x3))
    return (out >> np.uint64(11)) * 2.0**-53  # Generator.random's 53-bit mantissa


def _walk_steps(ifm: InterferometerConfig, seed: int, block: int, m: int, offset: float, period_ns: float, out=None):
    """Phase steps of the random walk over a block's ``m`` cycles, in ``out``
    if given, and the walk's offset after them; no steps (None) and nothing
    drawn when the phase does not walk."""
    sigma = np.sqrt(ifm.phase_drift_var_per_ns * period_ns)
    if ifm.phase_mode != "walk" or sigma == 0:
        return None, offset
    steps = _keyed_rng(seed, _PHASE_STREAM, block).standard_normal(m, out=out)
    next_offset = offset + sigma * steps.sum()
    steps *= sigma
    return steps, next_offset


def _block_true_phase(ifm: InterferometerConfig, ids: np.ndarray, seed: int, block: int, offset: float, period_ns: float, out):
    """True phase of each cycle of a block, written to ``out``, and the walk's offset for the next block."""
    if ifm.phase_mode == "scan":
        return np.mod(ifm.phase + GOLDEN_STEP * ids, 2.0 * np.pi, out=out), offset
    steps, next_offset = _walk_steps(ifm, seed, block, ids.shape[0], offset, period_ns, out)
    if steps is None:  # a phase that does not walk keeps its starting offset, ifm.phase
        out.fill(offset)
        return out, offset
    np.cumsum(steps, out=steps)
    steps += offset
    return steps, next_offset


# -- block simulation --------------------------------------------------------------


def _simulate_block(model: _CycleModel, detection: DetectionParams, lo: int, hi: int, walk_offset: float, scratch: np.ndarray):
    """Records of the cycles lo..hi-1, and the walk offset of the next block;
    the block's true phases, readout normals and thinning uniforms are drawn
    into ``scratch``, 4 * (hi - lo) floats that the block owns until it returns."""
    ifm = model.ifm
    pcfg = model.protocol_cfg
    eta, dark = model.eta_det, detection.readout_dark_click
    (erase1, _), (erase2, _) = model.arms
    t_a1, t_a2 = model.pulse_times[:2]
    delay, w = ifm.delay_ns, ifm.window_ns

    m = hi - lo
    ids = np.arange(lo, hi, dtype=np.int64)
    block, seed = lo // model.block_size, detection.seed
    per_cycle = scratch[: 4 * m].reshape(4, m)
    phase_true, next_offset = _block_true_phase(ifm, ids, seed, block, walk_offset, pcfg.cycle_period_ns, per_cycle[0])
    # the cycle stream opens with photon 1's (9, m) uniforms, row by row: its
    # thinning rows 4 and 5 are drawn for every cycle, and the draws after the
    # table, from the readout normals on, by a generator placed at its end
    u_thin = _keyed_rng(seed, _CYCLE_STREAM, block, 4 * m).random(out=per_cycle[2:])
    rng = _keyed_rng(seed, _CYCLE_STREAM, block, 9 * m)
    normals = rng.standard_normal(out=per_cycle[1])
    # without background, a read-only zero count: the active rows take a copy
    n_bg = rng.poisson(model.bg_per_cycle, m) if model.bg_per_cycle > 0 else np.broadcast_to(np.int64(0), m)
    u_bg_time, u_bg_port = rng.random((2, int(n_bg.sum())))
    n_ops = len(model.later_ops)
    later = rng.random((pcfg.n_photons - 1, n_ops + 8, m))  # per later photon: a Kraus uniform per op, then 8 photon uniforms
    # only a cycle with a surviving thinning draw of some photon or a
    # background click can leave a record, so only those are sampled on
    active = n_bg > 0
    for u in (*u_thin, *later[:, n_ops + 4], *later[:, n_ops + 5]):
        active |= u < eta
    rows = slice(None)
    if not active.all():
        rows = np.flatnonzero(active)
        ids, phase_true, normals, n_bg, u_thin, later = (a[..., rows] for a in (ids, phase_true, normals, n_bg, u_thin, later))
    draws = _first_photon_draws(seed, block, m, rows, u_thin)
    m = ids.size
    phase_read = phase_true + normals * ifm.phase_readout_sigma
    u_leaf, u_ro = draws[0], draws[8]
    prep_idx = _prep_codes(ids, pcfg, detection)

    li = np.empty(m, dtype=np.int64)
    for p in (0, 1):
        msk = prep_idx == p
        seg = np.searchsorted(model.leaf_cum[p], u_leaf[msk], side="right")
        seg = np.minimum(seg, len(model.leaf_cum[p]) - 1)
        li[msk] = model.prep_offset[p] + seg
    # photon 1's state is its cycle's leaf
    states, support, state_rows, terms = model.leaves, model.leaf_support, li, model.leaf_terms
    outcome = _pick(model.outcome_cum[li], draws[1])

    sources = []
    basis = np.zeros(m, dtype=np.intp)  # of the readout: 0 polar, 1 equatorial
    undecided = np.ones(m, dtype=bool)  # no surviving photon click yet
    for k in range(pcfg.n_photons):
        if k:
            # the rotation between blocks and the entangling block, one Born-weighted Kraus branch each
            # (one product for a run of one-operator steps) on the levels it can reach, from the spin
            # that the last measurement left; the measured photon's state and terms are freed first
            states, support, state_rows, terms = spin, model.later_support, np.arange(m), None
            for j, ops in model.later_steps:
                states = _sample_kraus(states, ops, later[k - 1, j])
            draws = later[k - 1, n_ops:]
            # the late-bin amplitude's sign flips at rate (1 - visibility) / 2
            states[:, support.late] *= np.where(draws[1] < (1 + ifm.erasure_visibility) / 2, 1.0, -1.0)[:, None]
            terms = _state_terms(states, support)
            outcome = _pick(np.cumsum(_outcome_weights(terms[0], model.arms), axis=1), draws[0])
        # draws[2:8]: arm, arm, thinning, thinning, port, port of the photon in
        # the first occupied bin, then of a double's photon in the second bin
        port = _quarter(draws[6])
        t_erased = model.pulse_times[2 * k + 1]
        t_class = np.array([model.pulse_times[2 * k], t_erased, t_erased + delay])  # arrival time of EARLY, ERASED, LATE
        first = np.flatnonzero((outcome >= 1) & (draws[4] < eta))
        first_cls = outcome[first] - 1  # outcome 1, 2, 3 -> EARLY, ERASED, LATE
        pair = first_cls == 3  # outcome 4: a double's first photon
        first_cls[pair] = np.where(draws[2, first[pair]] < erase1, ERASED, EARLY)
        second = np.flatnonzero(outcome == 4)
        second = second[draws[5, second] < eta]
        second_cls = np.where(draws[3, second] < erase2, ERASED, LATE)
        # the readout basis is the class of the cycle's earliest surviving
        # photon click; photons arrive in order, and a double's first click
        # never arrives after its second
        for rows, cls in ((first, first_cls), (second, second_cls)):
            new = undecided[rows]
            basis[rows[new]] = cls[new] == ERASED
            undecided[rows] = False
        if k == pcfg.n_photons - 1:
            # no surviving photon click: polar for a revealing last photon,
            # equatorial for none, erased or double (outcomes 0, 2, 4)
            basis[undecided] = outcome[undecided] % 2 == 0
            # the spin readout; no name holds the bright probabilities while the records are built
            ro_click = u_ro < em.readout_click_probability(
                _measure(states, support, terms, state_rows, outcome, phase_true, port, model, basis), model.params, dark
            )
        else:
            spin = _measure(states, support, terms, state_rows, outcome, phase_true, port, model)
        # (cycle index, class, time in cycle, port): first clicks, then second clicks
        sources += [
            (first, first_cls, t_class[first_cls], port[first]),
            (second, second_cls, t_class[second_cls], _quarter(draws[7, second])),
        ]

    t_in = (t_a1 - w) + u_bg_time * model.bg_span_ns
    owners = np.repeat(np.arange(m), n_bg)
    sources.append((owners, classify_arrival(t_in, t_a2, ifm), t_in, _quarter(u_bg_port)))
    return _rows(sources, ids, pcfg.cycle_period_ns, phase_read, prep_idx, ro_click), next_offset


def _first_photon_draws(seed: int, block: int, m: int, rows, u_thin: np.ndarray) -> np.ndarray:
    """Photon 1's nine uniforms at the columns ``rows`` of the (9, m) table
    that opens a block's cycle stream, given its thinning rows 4 and 5 there.

    Below one column in _COUNTER_SHARE the other seven rows are read by
    Philox counter at those columns alone. Otherwise the whole table is drawn,
    thinning rows again: with every cycle active that takes no gathered copy.
    """
    if u_thin.shape[1] >= m // _COUNTER_SHARE:
        return _keyed_rng(seed, _CYCLE_STREAM, block).random((9, m))[:, rows]
    draws = np.empty((9, u_thin.shape[1]))
    draws[4:6] = u_thin
    draws[_COUNTER_ROWS] = _philox_uniforms(seed, _CYCLE_STREAM, block, _COUNTER_ROWS[:, None] * m + rows)
    return draws


def _outcome_weights(sq, arms):
    """Weights of the photon outcomes 0 none, 1 early, 2 erased, 3 late and
    4 double of each (spin, occupation) state whose occupations' squared
    norms are ``sq``, for the arm weights ``arms``."""
    (erase1, reveal1), (erase2, reveal2) = arms
    p00, p01, p10, p11 = sq.T
    return np.stack([p00, reveal1 * p10, erase1 * p10 + erase2 * p01, reveal2 * p01, p11], axis=-1)


def _state_terms(states, support):
    """Per state on ``support``: each occupation's squared norm (which give
    the outcome weights and an erased photon's norm) and each occupation's
    readout amplitude <r|spin>, on axis 1 for r the polar row (LVL_G0) and
    the equatorial row (bright_row)."""
    return states.real**2 @ support.occ + states.imag**2 @ support.occ, (states @ support.readout).reshape(-1, 2, 4)


def _measure(states, support, terms, rows, outcome, phase, port, model, basis=None):
    """The normalized spin that the photon in each ``states[rows]`` (on
    ``support``) leaves, given its outcome and analyzer ``port``; or, given
    the readout ``basis`` of each (0 polar, 1 equatorial), that spin's
    probability of the bright level in that basis, read from the state's
    ``terms`` (_state_terms) alone (0 for a zero spin), so only a photon that
    a later photon follows makes a spin.

    An erased photon collapses the spin onto its port's superposition
    sqrt(e1) e^{i phase} chi10 + sqrt(e2) e^{-i offset} chi01, of squared norm
    e1 |chi10|^2 + e2 |chi01|^2 at every port, so its port is uniform: a
    pulse's Kraus branches emit from |0> alone and the flip between the pulses
    is a pi rotation, so in every branch the spin of chi10 lies in span{|-1>}
    and that of chi01 in span{|0>}, or is zero, whatever spin enters the block.
    """
    (erase1, _), (erase2, _) = model.arms
    er = np.flatnonzero(outcome == 2)
    occ, early_phase, late_phase = _OUTCOME_OCC[outcome], np.exp(1j * phase[er]), np.exp(-1j * model.port_offsets[port[er]])
    if basis is None:
        spin, early, late = (support.spins(states, r, o) for r, o in ((rows, occ), (rows[er], _OCC_10), (rows[er], _OCC_01)))
        spin[er] = early * (np.sqrt(erase1) * early_phase)[:, None] + late * np.sqrt(erase2) * late_phase[:, None]
        return _normalized(spin)
    sq, amps = terms
    proj, norm, er_amps = amps[rows, basis, occ], sq[rows, occ], amps[rows[er], basis[er]]
    proj[er] = er_amps[:, _OCC_10] * np.sqrt(erase1) * early_phase + er_amps[:, _OCC_01] * np.sqrt(erase2) * late_phase
    norm[er] = erase1 * sq[rows[er], _OCC_10] + erase2 * sq[rows[er], _OCC_01]
    return np.divide(np.abs(proj) ** 2, norm, out=np.zeros(rows.size), where=norm > 0)


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

    ``ops`` may be restricted to (reached rows, support columns) and ``vecs``
    to that support. Only the (rows x ops) weights are held at once, never
    every branch's state; a step of one operator takes none, as _pick gives 0.
    """
    if len(ops) == 1:
        return _normalized(vecs @ ops[0].T)
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
    # the per-cycle rows of every block of the shard, the first one the
    # largest, and the walk steps of each earlier block go to this one buffer:
    # block-sized arrays made afresh per block are handed back to the OS at
    # its end and faulted in again by the next (about 740 page faults a block
    # with glibc's malloc, a fifth of a sparse block's time)
    scratch = np.empty(max(4 * min(size, n_cycles - first * size), size if first else 0))
    offset = model.ifm.phase
    for block in range(first):
        _, offset = _walk_steps(model.ifm, detection.seed, block, size, offset, period, scratch[:size])
    parts = []
    for lo in range(first * size, min(n_cycles, stop * size), size):
        part, offset = _simulate_block(model, detection, lo, min(n_cycles, lo + size), offset, scratch)
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
    if workers < 1:
        raise EventModelError(f"workers must be >= 1, got {workers}")
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
_EXACT_BELOW = 2.0**52  # a chunk with |x * 10**d| at or above this is formatted by _ROW_FORMAT
_QUADS = np.ascontiguousarray(np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).view(np.uint32).ravel()
_POW10 = np.uint64(10) ** np.arange(1, 20, dtype=np.uint64)
_LABEL_BYTES = {name: np.array(labels, "S").view(np.uint8).reshape(len(labels), -1) for name, labels in _CSV_LABELS.items()}
# The columns as np.loadtxt reads them. A label column is the fewest 8-byte words that hold one byte more than its
# longest label, so a field and a label, both NUL-padded, are equal exactly when their uint64 words are, and a
# longer field, cut to the full width, fills every byte and matches no label.
_TABLE_DTYPE = np.dtype(
    [(n, f"S{_LABEL_BYTES[n].shape[1] // 8 * 8 + 8}" if n in CODES else RECORD_DTYPE[n]) for n in RECORD_COLUMNS]
)
_LABEL_WORDS = {n: np.array(labels, _TABLE_DTYPE[n]).view(np.uint64).reshape(len(labels), -1) for n, labels in _CSV_LABELS.items()}


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
            words = column.view(np.dtype((np.uint64, (column.itemsize // 8,)))).T
            column, valid = np.zeros(len(table), np.uint8), np.zeros(len(table), bool)
            for code, label in enumerate(_LABEL_WORDS[name]):
                hit = reduce(np.logical_and, map(np.equal, words, label))
                np.putmask(column, hit, code)
                valid |= hit
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
