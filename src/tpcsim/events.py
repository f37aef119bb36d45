"""Monte Carlo generation of timestamped detector click records.

Each cycle runs one protocol trajectory: a branch of every imperfection
channel is sampled, the photon arrival window and analyzer port are drawn from
the exact conditional probabilities of the sampled pure state, clicks are
thinned by the detection efficiency, Poisson background clicks are added, and
the phonon-sideband readout click is sampled from the final spin populations.

Cycles consume dedicated counter-based RNG streams keyed by (seed, block), so
the record stream is bit-for-bit reproducible and independent of how blocks
are sharded across workers. The per-cycle tomography basis follows the arrival
class of the detected photon (path-erased -> equatorial readout, path-revealed
-> polar readout), mirroring how measurement settings and event classes are
matched up in the corresponding hardware datasets.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice, repeat
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

PORT_LETTERS = PORT_NAMES
ARRIVAL_CLASSES = tuple(c.value for c in ArrivalClass)  # indexed by EARLY, ERASED, LATE, INVALID
PREP_NAMES = ("minus", "plus")
_CSV_LABELS = {
    name: np.array(labels, dtype=object)
    for name, labels in (
        ("port", PORT_LETTERS),
        ("arrival_class", ARRIVAL_CLASSES),
        ("prep_sign", PREP_NAMES),
        ("readout_click", ("0", "1")),
    )
}
_RECORD_LABELS = dict(_CSV_LABELS, readout_click=np.array([False, True], dtype=object))
# closed vocabulary of each coded CSV column: label -> code
CODES = {name: {label: code for code, label in enumerate(labels)} for name, labels in _CSV_LABELS.items()}
_ROW_FORMAT = "{},{},{},{:.3f},{:.9f},{},{}\n".format

_LEAF_PRUNE = 1e-12
_MAX_LEAVES = 20_000
_IO_CHUNK = 8192  # rows per CSV write or parse step; bounds the Python objects alive at once


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
    block_size: int = 65536

    def validate(self) -> None:
        if not 0.0 < self.zpl_efficiency <= 1.0:
            raise EventModelError("zpl_efficiency must lie in (0, 1]")
        if self.background_rate_hz < 0:
            raise EventModelError("background_rate_hz must be >= 0")
        if not 0.0 <= self.readout_dark_click <= 1.0:
            raise EventModelError("readout_dark_click must lie in [0, 1]")
        if self.block_size < 1:
            raise EventModelError("block_size must be >= 1")

    def validate_photons(self, n_photons: int) -> None:
        """Refuse background clicks on a photon chain: the chain sampler does not model them."""
        if n_photons > 1 and self.background_rate_hz > 0:
            raise EventModelError(
                f"background_rate_hz must be 0 when n_photons > 1, got {self.background_rate_hz}: "
                "background clicks are modeled on the single-photon path only"
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


class _BlockModel:
    """What both samplers share: the validated configuration, pulse times,
    detector thinning, port offsets, initial spin populations and the bright
    readout row of the tomography rotation."""

    def __init__(
        self,
        params: em.EmitterParams,
        protocol_cfg: ProtocolConfig,
        ifm: InterferometerConfig,
        detection: DetectionParams,
    ):
        params.validate()
        protocol_cfg.validate()
        ifm.validate()
        self.ifm = ifm
        self.protocol_cfg = protocol_cfg
        self.params = params
        self.pulse_times = pulse_times(build_sequence(protocol_cfg, ifm))
        self.eta_det = detection.detector_thinning(params.zpl_fraction)
        self.port_offsets = port_offsets(ifm.quadrature_offset)
        self.init_pops = np.real(np.diag(em.initialize_spin(params)))
        self.bright_row = em.qubit_rotation(protocol_cfg.tomo_theta)[em.LVL_G0]


class _CompiledModel(_BlockModel):
    """Per-leaf tables of the single-photon cycle, shared by all cycles.

    Trajectory branches of all channels are enumerated once; each leaf stores
    the four spin vectors conditioned on the joint bin occupation, plus the
    derived timing, port, and readout coefficients. The erasure-visibility
    dephasing is folded in by doubling each leaf with the late-bin amplitude
    sign flipped.

    This is the n = 1 case of the chain sampler (_ChainModel), kept because
    looking up a leaf per cycle runs about 25x faster than propagating each
    cycle through the Kraus operators (single-photon default config).
    """

    def __init__(self, params, protocol_cfg, ifm, detection):
        super().__init__(params, protocol_cfg, ifm, detection)
        span_ns = 2.0 * ifm.delay_ns + 2.0 * ifm.window_ns
        self.bg_per_cycle = detection.background_rate_hz * 4.0 * span_ns * 1e-9

        leaves: list[list[np.ndarray]] = [[] for _ in PREP_NAMES]
        probs: list[list[float]] = [[] for _ in PREP_NAMES]
        prep_ops, block_ops, _ = _block_operators(params, protocol_cfg, ifm)
        for prep_idx, ops in enumerate(prep_ops):
            chains = [ops, *block_ops]
            for lvl in (em.LVL_G0, em.LVL_GM1, em.LVL_GP1):
                w0 = self.init_pops[lvl]
                if w0 < _LEAF_PRUNE:
                    continue
                root = np.zeros(em.SPIN_DIM * 4, dtype=complex)
                root[lvl * 4 + 0] = 1.0
                stack = [(root, w0, 0)]
                while stack:
                    vec, w, depth = stack.pop()
                    if depth == len(chains):
                        leaves[prep_idx].append(vec / np.linalg.norm(vec))
                        probs[prep_idx].append(w)
                        if len(leaves[prep_idx]) > _MAX_LEAVES:
                            raise EventModelError("trajectory tree too large; reduce channel branching")
                        continue
                    for k in chains[depth]:
                        child = k @ vec
                        p = float(np.vdot(child, child).real)
                        if p * w > _LEAF_PRUNE:
                            stack.append((child / np.sqrt(p), w * p, depth + 1))

        # visibility dephasing: flip the sign of the late-bin amplitude
        v = ifm.erasure_visibility
        all_probs, chi = [], {"00": [], "10": [], "01": [], "11": []}
        self.prep_offset = []
        for prep_idx in (0, 1):
            self.prep_offset.append(len(all_probs))
            for vec, w in zip(leaves[prep_idx], probs[prep_idx]):
                t = vec.reshape(em.SPIN_DIM, 2, 2)
                copies = [(w, 1.0)] if v >= 1.0 else [(w * (1 + v) / 2, 1.0), (w * (1 - v) / 2, -1.0)]
                for cw, sgn in copies:
                    if cw < _LEAF_PRUNE:
                        continue
                    all_probs.append(cw)
                    chi["00"].append(t[:, 0, 0])
                    chi["10"].append(t[:, 1, 0])
                    chi["01"].append(sgn * t[:, 0, 1])
                    chi["11"].append(t[:, 1, 1])
        self.prep_offset.append(len(all_probs))

        w_arr = np.array(all_probs)
        chi = {k: np.array(vs) for k, vs in chi.items()}

        # cumulative leaf distribution per prep
        self.leaf_cum = []
        for prep_idx in (0, 1):
            lo, hi = self.prep_offset[prep_idx], self.prep_offset[prep_idx + 1]
            seg = w_arr[lo:hi]
            self.leaf_cum.append(np.cumsum(seg / seg.sum()))

        p00, p10, p01, p11 = (_sq_norms(chi[occ]) for occ in ("00", "10", "01", "11"))

        (erase1, reveal1), (erase2, reveal2) = arm_weights(ifm)
        self.erase_weights = (erase1, erase2)
        p_erased = erase1 * p10 + erase2 * p01
        self.timing_cum = np.cumsum(
            np.stack([p00, reveal1 * p10, p_erased, reveal2 * p01, p11], axis=1), axis=1
        )

        # erased-window port / readout coefficients
        zeta = np.sqrt(erase1 * erase2) * np.einsum("ls,ls->l", chi["01"].conj(), chi["10"])
        self.u_hv = p_erased
        self.zeta_abs = np.abs(zeta)
        self.zeta_arg = np.angle(zeta)

        alpha = np.sqrt(erase1) * (chi["10"] @ self.bright_row)
        beta = np.sqrt(erase2) * (chi["01"] @ self.bright_row)
        kappa = np.conj(alpha) * beta
        self.a2b2 = np.abs(alpha) ** 2 + np.abs(beta) ** 2
        self.kappa_abs = np.abs(kappa)
        self.kappa_arg = np.angle(kappa)

        def bright(vecs, pops, row):
            amp = vecs @ row
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.abs(amp) ** 2 / pops
            return np.nan_to_num(out, nan=0.0, posinf=0.0)

        row_z = np.eye(em.SPIN_DIM, dtype=complex)[em.LVL_G0]
        self.bright_early = bright(chi["10"], p10, row_z)
        self.bright_late = bright(chi["01"], p01, row_z)
        self.bright_none = bright(chi["00"], p00, self.bright_row)
        self.bright_dbl_x = bright(chi["11"], p11, self.bright_row)
        self.bright_dbl_z = bright(chi["11"], p11, row_z)


class _ChainModel(_BlockModel):
    """Operators of the n-photon chain, shared by all cycles.

    A chain repeats the entangling block once per photon, with a rotation
    between blocks. Nothing touches a photon's time bins after its block, so
    the sampler measures each photon as soon as its block ends and discards
    its bins: a cycle's live state never grows beyond (spin, bin1, bin2).
    """

    def __init__(self, params, protocol_cfg, ifm, detection):
        detection.validate_photons(protocol_cfg.n_photons)
        super().__init__(params, protocol_cfg, ifm, detection)
        self.prep_ops, self.block_ops, self.interblock_ops = _block_operators(params, protocol_cfg, ifm)


# -- phase trajectory ------------------------------------------------------------


_CYCLE_STREAM, _PHASE_STREAM = 1, 2  # the per-cycle draws and the phase-walk steps


def _keyed_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """Counter-based generator for one (stream, block) pair of a run.

    Streams and blocks map to disjoint Philox keys, so any sharding of blocks
    across workers reproduces the identical draws.
    """
    key = np.array([np.uint64(seed & 0xFFFF_FFFF_FFFF_FFFF), np.uint64((stream << 48) | block)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _walk_block_offsets(ifm: InterferometerConfig, n_blocks: int, block_size: int, n_cycles: int, seed: int, period_ns: float):
    """Starting phase of every block under the random-walk model."""
    sigma = np.sqrt(ifm.phase_drift_var_per_ns * period_ns)
    offsets = np.empty(n_blocks)
    acc = ifm.phase
    for b in range(n_blocks):
        offsets[b] = acc
        m = min(block_size, n_cycles - b * block_size)
        if sigma > 0:
            acc += sigma * _keyed_rng(seed, _PHASE_STREAM, b).standard_normal(m).sum()
    return offsets


def _block_true_phase(ifm: InterferometerConfig, ids: np.ndarray, seed: int, block: int, offset: float, period_ns: float):
    if ifm.phase_mode == "static":
        return np.full(ids.shape, ifm.phase)
    if ifm.phase_mode == "scan":
        return np.mod(ifm.phase + ifm.scan_step_rad * ids, 2.0 * np.pi)
    sigma = np.sqrt(ifm.phase_drift_var_per_ns * period_ns)
    if sigma == 0:
        return np.full(ids.shape, offset)
    steps = sigma * _keyed_rng(seed, _PHASE_STREAM, block).standard_normal(ids.shape[0])
    return offset + np.cumsum(steps)


# -- block simulation --------------------------------------------------------------


def _simulate_block(model: _CompiledModel, detection: DetectionParams, lo: int, hi: int, walk_offset: float):
    ifm = model.ifm
    pcfg = model.protocol_cfg
    eta = model.eta_det
    period = pcfg.cycle_period_ns
    t_a1, t_a2 = model.pulse_times
    delay = ifm.delay_ns
    w = ifm.window_ns

    m = hi - lo
    ids = np.arange(lo, hi, dtype=np.int64)
    rng = _keyed_rng(detection.seed, _CYCLE_STREAM, lo // detection.block_size)

    phase_true = _block_true_phase(ifm, ids, detection.seed, lo // detection.block_size, walk_offset, period)

    u_leaf = rng.random(m)
    u_time = rng.random(m)
    u_arm1 = rng.random(m)
    u_arm2 = rng.random(m)
    u_thin1 = rng.random(m)
    u_thin2 = rng.random(m)
    u_port1 = rng.random(m)
    u_port2 = rng.random(m)
    u_ro = rng.random(m)
    noise_ro = rng.standard_normal(m) * ifm.phase_readout_sigma
    n_bg = rng.poisson(model.bg_per_cycle, m) if model.bg_per_cycle > 0 else np.zeros(m, dtype=np.int64)
    total_bg = int(n_bg.sum())
    u_bg_time = rng.random(total_bg)
    u_bg_port = rng.random(total_bg)

    phase_read = phase_true + noise_ro
    t_class = np.array([t_a1, t_a2, t_a2 + delay])  # arrival time of EARLY, ERASED, LATE
    prep_idx = _prep_codes(ids, pcfg, detection)

    li = np.empty(m, dtype=np.int64)
    for p in (0, 1):
        msk = prep_idx == p
        seg = np.searchsorted(model.leaf_cum[p], u_leaf[msk], side="right")
        seg = np.minimum(seg, len(model.leaf_cum[p]) - 1)
        li[msk] = model.prep_offset[p] + seg

    cum = model.timing_cum[li]
    total = cum[:, -1]
    outcome = (u_time[:, None] * total[:, None] > cum).sum(axis=1)
    # 0 none, 1 early, 2 erased, 3 late, 4 double

    # erased ports: conditional probabilities over D, A, R, L
    erased = outcome == 2
    port_idx = np.zeros(m, dtype=np.int64)
    pb = np.zeros(m)

    if erased.any():
        le = li[erased]
        ph = phase_true[erased]
        base = model.u_hv[le]
        args = ph[:, None] + model.port_offsets[None, :]
        pj = base[:, None] + 2.0 * model.zeta_abs[le][:, None] * np.cos(args + model.zeta_arg[le][:, None])
        pj = np.maximum(pj, 0.0)
        cumj = np.cumsum(pj, axis=1)
        pick = u_port1[erased] * cumj[:, -1]
        port_idx[erased] = (pick[:, None] > cumj).sum(axis=1)
        o = model.port_offsets[port_idx[erased]]
        num = model.a2b2[le] + 2.0 * model.kappa_abs[le] * np.cos(ph + o - model.kappa_arg[le])
        den = base + 2.0 * model.zeta_abs[le] * np.cos(ph + o + model.zeta_arg[le])
        with np.errstate(invalid="ignore", divide="ignore"):
            pb_er = np.clip(np.nan_to_num(num / den, nan=0.0, posinf=0.0), 0.0, 1.0)
        pb[erased] = pb_er

    early = outcome == 1
    late = outcome == 3
    none = outcome == 0
    pb[early] = model.bright_early[li[early]]
    pb[late] = model.bright_late[li[late]]
    pb[none] = model.bright_none[li[none]]
    port_idx[early | late] = _quarter(u_port1[early | late])

    # both bins occupied: the readout basis follows the earliest surviving
    # click (the cycle is rejected downstream anyway)
    dbl = np.flatnonzero(outcome == 4)
    pair_sources, lead_erased = _pair_clicks(
        dbl, (u_arm1, u_arm2, u_thin1, u_thin2, u_port1, u_port2), model.erase_weights, eta, t_class
    )
    pb[dbl] = np.where(lead_erased, model.bright_dbl_x[li[dbl]], model.bright_dbl_z[li[dbl]])
    ro_click = u_ro < em.readout_click_probability(pb, model.params, detection.readout_dark_click)

    det = np.flatnonzero((early | late | erased) & (u_thin1 < eta))
    owners = np.repeat(np.arange(m), n_bg)
    t_in = (t_a1 - w) + u_bg_time * (2.0 * delay + 2.0 * w)

    # (cycle index, class, time in cycle, port) in insertion order: first and
    # second photons of double cycles, single detections, background clicks
    sources = (
        *pair_sources,
        (det, outcome[det] - 1, t_class[outcome[det] - 1], port_idx[det]),  # outcome 1, 2, 3 -> EARLY, ERASED, LATE
        (owners, classify_arrival(t_in, t_a2, ifm), t_in, _quarter(u_bg_port)),
    )
    return _rows(sources, ids, period, phase_read, prep_idx, ro_click)


def _pair_clicks(rows, draws, erase_weights, eta, t_class):
    """Clicks of the cycles ``rows`` whose photon occupied both bins.

    Each photon of the pair takes its own arm and survives detection on its
    own; ``draws`` holds the per-cycle uniforms (arm, arm, thinning, thinning,
    port, port). Returns the click sources of the first and the second photon
    and whether each cycle's earliest surviving click is path-erased (true
    when none survives). The first photon never arrives after the second.
    """
    u_arm1, u_arm2, u_thin1, u_thin2, u_port1, u_port2 = (u[rows] for u in draws)
    first_cls = np.where(u_arm1 < erase_weights[0], ERASED, EARLY)
    second_cls = np.where(u_arm2 < erase_weights[1], ERASED, LATE)
    seen1, seen2 = u_thin1 < eta, u_thin2 < eta
    sources = [
        (rows[seen1], first_cls[seen1], t_class[first_cls[seen1]], _quarter(u_port1[seen1])),
        (rows[seen2], second_cls[seen2], t_class[second_cls[seen2]], _quarter(u_port2[seen2])),
    ]
    return sources, np.where(seen1, first_cls == ERASED, ~seen2 | (second_cls == ERASED))


def _quarter(u):
    """Uniform port code from a uniform draw."""
    return np.minimum((u * 4).astype(np.int64), 3)


def _pick(weights, u):
    """Index of the branch that each row's uniform draw ``u`` selects with
    probability proportional to that row of ``weights``."""
    cum = np.cumsum(weights, axis=1)
    return np.minimum((cum <= (u * cum[:, -1])[:, None]).sum(axis=1), weights.shape[1] - 1)


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
    pick = _pick(weights, u)
    out = vecs @ ops[0].T  # every row through the first branch, then redo the rows that took another
    for k, op in enumerate(ops[1:], start=1):
        rows = pick == k
        out[rows] = vecs[rows] @ op.T
    return _normalized(out)


def _simulate_chain_block(model: _ChainModel, detection: DetectionParams, lo: int, hi: int, walk_offset: float):
    ifm = model.ifm
    pcfg = model.protocol_cfg
    eta = model.eta_det
    (erase1, reveal1), (erase2, reveal2) = arm_weights(ifm)

    m = hi - lo
    ids = np.arange(lo, hi, dtype=np.int64)
    block = lo // detection.block_size
    rng = _keyed_rng(detection.seed, _CYCLE_STREAM, block)
    phase_true = _block_true_phase(ifm, ids, detection.seed, block, walk_offset, pcfg.cycle_period_ns)
    phase_read = phase_true + rng.standard_normal(m) * ifm.phase_readout_sigma
    prep_idx = _prep_codes(ids, pcfg, detection)

    spin = np.eye(em.SPIN_DIM, dtype=complex)[_pick(np.broadcast_to(model.init_pops, (m, em.SPIN_DIM)), rng.random(m))]
    sources = []
    for k in range(pcfg.n_photons):
        state = np.zeros((m, em.SPIN_DIM * 4), dtype=complex)
        state[:, ::4] = spin  # both bins empty
        # the rotation before the block: the preparation, then the interblock rotation
        u = rng.random(m)
        for p, ops in enumerate(model.prep_ops if k == 0 else [model.interblock_ops] * len(PREP_NAMES)):
            rows = prep_idx == p
            state[rows] = _sample_kraus(state[rows], ops, u[rows])
        for ops in model.block_ops:
            state = _sample_kraus(state, ops, rng.random(m))

        # measure the photon: spin vectors conditioned on the (bin1, bin2) occupation
        chi = state.reshape(m, em.SPIN_DIM, 2, 2)
        c00, c10, c01, c11 = chi[:, :, 0, 0], chi[:, :, 1, 0], chi[:, :, 0, 1], chi[:, :, 1, 1]
        p00, p10, p01, p11 = map(_sq_norms, (c00, c10, c01, c11))
        draws = rng.random((8, m))
        u_out, u_vis, u_arm1, u_arm2, u_thin1, u_thin2, u_port1, u_port2 = draws
        outcome = _pick(np.stack([p00, reveal1 * p10, erase1 * p10 + erase2 * p01, reveal2 * p01, p11], axis=1), u_out)
        # 0 none, 1 early, 2 erased, 3 late, 4 double
        spin = np.choose(outcome[:, None], (c00, c10, c00, c01, c11))
        port = _quarter(u_port1)

        # erased: collapse onto the analyzer port, with the late amplitude's
        # sign flipped at rate (1 - visibility) / 2
        er = np.flatnonzero(outcome == 2)
        sign = np.where(u_vis[er] < (1 + ifm.erasure_visibility) / 2, 1.0, -1.0)
        early_amp = np.sqrt(erase1) * np.exp(1j * phase_true[er])[:, None] * c10[er]
        late_amp = np.sqrt(erase2) * sign[:, None] * c01[er]
        collapsed = early_amp[:, None] + np.exp(-1j * model.port_offsets)[:, None] * late_amp[:, None]
        port[er] = _pick(_sq_norms(collapsed), u_port1[er])
        spin[er] = collapsed[np.arange(er.size), port[er]]
        spin = _normalized(spin)

        t_erased = model.pulse_times[2 * k + 1]
        t_class = np.array([model.pulse_times[2 * k], t_erased, t_erased + ifm.delay_ns])
        det = np.flatnonzero((outcome >= 1) & (outcome <= 3) & (u_thin1 < eta))
        pair_sources, _ = _pair_clicks(np.flatnonzero(outcome == 4), draws[2:], (erase1, erase2), eta, t_class)
        sources += [*pair_sources, (det, outcome[det] - 1, t_class[outcome[det] - 1], port[det])]
        del state, chi, c00, c10, c01, c11  # free the measured block state before the next photon's

    # the readout basis follows the cycle's earliest surviving click (equatorial if none)
    owner, cls, t_cycle, _ = (np.concatenate(col) for col in zip(*sources))
    order = np.lexsort((t_cycle, owner))
    earliest = order[np.unique(owner[order], return_index=True)[1]]
    basis_x = np.ones(m, dtype=bool)
    basis_x[owner[earliest]] = cls[earliest] == ERASED
    amp = np.where(basis_x, spin @ model.bright_row, spin[:, em.LVL_G0])
    ro_click = rng.random(m) < em.readout_click_probability(np.abs(amp) ** 2, model.params, detection.readout_dark_click)
    return _rows(sources, ids, pcfg.cycle_period_ns, phase_read, prep_idx, ro_click)


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


def _block_task(args):
    model = args[0]
    sample = _simulate_block if isinstance(model, _CompiledModel) else _simulate_chain_block
    return sample(*args)


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

    Deterministic in (configs, detection.seed); the ``workers`` count shards
    whole RNG blocks across processes and never changes the output.
    """
    if n_cycles < 1:
        raise EventModelError("n_cycles must be >= 1")
    detection.validate()
    model_class = _CompiledModel if protocol_cfg.n_photons == 1 else _ChainModel
    model = model_class(params, protocol_cfg, ifm, detection)
    n_blocks = (n_cycles + detection.block_size - 1) // detection.block_size
    if ifm.phase_mode == "walk":
        offsets = _walk_block_offsets(ifm, n_blocks, detection.block_size, n_cycles, detection.seed, protocol_cfg.cycle_period_ns)
    else:
        offsets = np.zeros(n_blocks)
    tasks = [
        (model, detection, b * detection.block_size, min(n_cycles, (b + 1) * detection.block_size), offsets[b])
        for b in range(n_blocks)
    ]
    if workers > 1 and n_blocks > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_block_task, tasks, chunksize=max(1, n_blocks // (4 * workers))))
    else:
        parts = [_block_task(t) for t in tasks]
    return np.concatenate(parts)


# -- record I/O ---------------------------------------------------------------------


def _columns(records: np.ndarray, labels: dict) -> list[list]:
    """The record columns as Python lists, code columns mapped through ``labels``."""
    return [(labels[name][records[name]] if name in labels else records[name]).tolist() for name in RECORD_COLUMNS]


def write_records(path, records: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(RECORD_COLUMNS) + "\n")
        for lo in range(0, len(records), _IO_CHUNK):
            fh.write("".join(map(_ROW_FORMAT, *_columns(records[lo : lo + _IO_CHUNK], _CSV_LABELS))))


def read_records(path) -> np.ndarray:
    """Read a record file; a malformed field raises RecordFormatError naming its line."""
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
        for lines in iter(lambda: list(islice(fh, _IO_CHUNK)), []):
            parts.append(_parse_lines(lines, first))
            first += len(lines)
    return np.concatenate(parts) if parts else np.empty(0, dtype=RECORD_DTYPE)


def _parse_lines(lines: list[str], first: int) -> np.ndarray:
    rows = [line.strip() for line in lines]
    linenos = range(first, first + len(rows))
    if not all(rows):
        linenos = [n for n, row in zip(linenos, rows) if row]
        rows = [row for row in rows if row]
    width = len(RECORD_COLUMNS)
    commas = list(map(str.count, rows, repeat(",")))
    if commas.count(width - 1) != len(commas):
        k = next(k for k, n in enumerate(commas) if n != width - 1)
        raise RecordFormatError(f"line {linenos[k]}: expected {width} fields, got {commas[k] + 1}")
    fields = ",".join(rows).split(",")
    out = np.empty(len(rows), dtype=RECORD_DTYPE)
    for k, name in enumerate(RECORD_COLUMNS):
        out[name] = _parse_column(name, fields[k::width], linenos)
    return out


def _parse_column(name: str, column: list[str], linenos) -> np.ndarray:
    """One column of text fields as its record dtype, checked against its vocabulary or range."""
    dtype = RECORD_DTYPE[name]
    if name in CODES:
        vocab = CODES[name]
        values = np.fromiter(map(vocab.get, column, repeat(len(vocab))), dtype, len(column))
        bad = values == len(vocab)
        expected = "one of " + ", ".join(vocab)
    else:
        parse = int if name == "cycle_id" else float
        expected = "an integer" if name == "cycle_id" else "a finite number"
        try:
            values = np.fromiter(map(parse, column), dtype, len(column))
            bad = ~np.isfinite(values)
        except (ValueError, OverflowError):
            bad = np.array([not _finite(parse, dtype, text) for text in column])
    if bad.any():
        k = int(np.argmax(bad))
        raise RecordFormatError(f"line {linenos[k]}: {name} {column[k]!r} is not {expected}")
    return values


def _finite(parse, dtype: np.dtype, text: str) -> bool:
    try:
        return bool(np.isfinite(dtype.type(parse(text))))
    except (ValueError, OverflowError):
        return False


def multiclick_cycles(cycle_ids: np.ndarray, n_photons: int):
    """Mask of the records whose cycle has more clicks than the protocol emits
    photons, and the number of such cycles.

    Such cycles lie outside the protocol subspace and are rejected. The
    records may come in any order.
    """
    _, inverse, counts = np.unique(cycle_ids, return_inverse=True, return_counts=True)
    over = counts > n_photons
    return over[inverse], int(np.count_nonzero(over))


def _sorted_multiclick(records: np.ndarray, n_photons: int):
    ids = records["cycle_id"]
    if ids.size and np.any(np.diff(ids) < 0):
        raise EventModelError("records must be sorted by cycle_id")
    return multiclick_cycles(ids, n_photons)


def pair_coincidences(records: np.ndarray, n_photons: int = 1):
    """Pair each cycle's photon click(s) with its readout flag.

    Cycles carrying more clicks than the protocol emits photons lie outside
    the protocol subspace and are rejected (counted, not returned). Returns
    (pairs, n_rejected) with pairs as (ClickRecord, readout_click) tuples.
    """
    drop, rejected = _sorted_multiclick(records, n_photons)
    clicks = map(ClickRecord, *_columns(records[~drop], _RECORD_LABELS))
    return [(rec, rec.readout_click) for rec in clicks], rejected


def summarize(records: np.ndarray, n_photons: int = 1) -> dict:
    drop, rejected = _sorted_multiclick(records, n_photons)
    return {
        "records": int(len(records)),
        "heralded": int(np.count_nonzero(records["arrival_class"] == ERASED)),
        "coincidences": int(np.count_nonzero(records["readout_click"][~drop])),
        "rejected_cycles": rejected,
    }
