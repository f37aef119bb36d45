"""Unbalanced polarization-maintaining interferometer model.

The long arm delays by ``delay_ns`` and is mapped to H polarization, the short
arm to V. Matching the pulse spacing to the arm delay makes the middle arrival
window path-erasing: a photon detected there has been converted from a time-bin
qubit into a polarization qubit. The two outer windows reveal the emission
cycle and provide the polar-basis data instead.

Four quadrature ports monitor the output. D/A analyze along (|H> +- |V>)/sqrt2;
R/L add a fixed quadrature offset to the analyzer phase.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import pi

import numpy as np

from .qsim import Operator, QuantumState, SubsystemSpec

POL_H = 0
POL_V = 1

GOLDEN_STEP = 2.0 * pi * 0.3819660112501051  # irrational fraction of a turn


class OpticsModelError(ValueError):
    pass


class ArrivalClass(str, Enum):
    EARLY_REVEALING = "EarlyRevealing"
    ERASED = "Erased"
    LATE_REVEALING = "LateRevealing"
    INVALID = "Invalid"


# arrival-class code of a record: the position of its class in ArrivalClass
EARLY, ERASED, LATE, INVALID = range(len(ArrivalClass))

PORT_NAMES = ("D", "A", "R", "L")  # the port code of a record indexes this


@dataclass
class InterferometerConfig:
    delay_ns: float = 262.0
    phase: float = 0.0
    phase_readout_sigma: float = 0.18
    long_arm_pol: str = "H"
    short_arm_pol: str = "V"
    window_ns: float = 20.0
    split_ratio: float = 0.5
    quadrature_offset: float = pi / 4.0
    erasure_visibility: float = 1.0
    active_switch: bool = False
    phase_mode: str = "walk"  # walk | scan | static
    phase_drift_var_per_ns: float = 2.4e-9
    scan_step_rad: float = GOLDEN_STEP

    def validate(self) -> None:
        if self.delay_ns <= 0:
            raise OpticsModelError("delay_ns must be positive")
        if not 0.0 < self.split_ratio < 1.0:
            raise OpticsModelError("split_ratio must lie in (0, 1)")
        if not 0.0 < self.window_ns < self.delay_ns / 2.0:
            raise OpticsModelError("window_ns must lie in (0, delay_ns / 2)")
        if not 0.0 <= self.erasure_visibility <= 1.0:
            raise OpticsModelError("erasure_visibility must lie in [0, 1]")
        if self.phase_readout_sigma < 0 or self.phase_drift_var_per_ns < 0:
            raise OpticsModelError("phase noise parameters must be non-negative")
        if self.phase_mode not in ("walk", "scan", "static"):
            raise OpticsModelError(f"unknown phase_mode {self.phase_mode!r}")
        if {self.long_arm_pol, self.short_arm_pol} != {"H", "V"}:
            raise OpticsModelError("arm polarizations must be H and V")


def port_offsets(quadrature_offset: float) -> np.ndarray:
    """Analyzer phase offset of each port, indexed by port code: D/A at 0/pi,
    R/L at q/q+pi. Z denotes the timing-based polar measurement and is no port."""
    return np.array([0.0, pi, quadrature_offset, quadrature_offset + pi])


def arm_weights(config: InterferometerConfig) -> tuple[tuple[float, float], tuple[float, float]]:
    """(path-erasing, path-revealing) arm probabilities of the first-bin photon,
    then of the second-bin photon.

    The first-bin photon reaches the erasing window through the long arm, the
    second-bin photon through the short arm. The passive splitter sends a photon
    down the long arm with probability ``split_ratio``; the active switch routes
    both photons into the erasing window.
    """
    if config.active_switch:
        return (1.0, 0.0), (1.0, 0.0)
    s = config.split_ratio
    return (s, 1.0 - s), (1.0 - s, s)


def route(emission_cycle: str, arm: str, t_emit: float, config: InterferometerConfig):
    """Arrival time and physical polarization for one (cycle, arm) choice.

    The short arm is the time reference (zero extra propagation).
    """
    if emission_cycle not in ("first", "second"):
        raise OpticsModelError(f"unknown emission cycle {emission_cycle!r}")
    if arm not in ("short", "long"):
        raise OpticsModelError(f"unknown arm {arm!r}")
    delay = config.delay_ns if arm == "long" else 0.0
    pol = config.long_arm_pol if arm == "long" else config.short_arm_pol
    return t_emit + delay, pol


def classify_arrival(t, t_ref: float, config: InterferometerConfig) -> np.ndarray:
    """Arrival-class codes of the arrival times ``t`` against the erased-window
    center ``t_ref``; the window edges belong to the window."""
    rel = np.asarray(t) - t_ref
    w = config.window_ns
    d = config.delay_ns
    cls = np.full(rel.shape, INVALID, dtype=np.uint8)
    cls[np.abs(rel) <= w] = ERASED
    cls[np.abs(rel + d) <= w] = EARLY
    cls[np.abs(rel - d) <= w] = LATE
    return cls


def port_projector(port: str, config: InterferometerConfig, pol_label: str = "pol") -> tuple[Operator, Operator]:
    """Projector pair for an equatorial port at the current instrument phase.

    The first projector is onto (|H> + e^{i(phase+offset)}|V>)/sqrt2, the
    second onto its orthogonal complement. The Z `port` is timing-based and
    has no projector.
    """
    if port not in PORT_NAMES:
        raise OpticsModelError(f"port {port!r} has no equatorial projector")
    alpha = config.phase + port_offsets(config.quadrature_offset)[PORT_NAMES.index(port)]
    plus = np.array([1.0, np.exp(1j * alpha)], dtype=complex) / np.sqrt(2.0)
    minus = np.array([1.0, -np.exp(1j * alpha)], dtype=complex) / np.sqrt(2.0)
    return (
        Operator(np.outer(plus, plus.conj()), (pol_label,)),
        Operator(np.outer(minus, minus.conj()), (pol_label,)),
    )


def hardware_port_states(config: InterferometerConfig) -> dict[str, np.ndarray]:
    """Fixed analyzer states of the four detectors (no instrument phase).

    The interferometer phase is carried by the state (attached to the long-arm
    H component in tpc_transform); projecting the phased state onto these
    fixed analyzers is equivalent to projecting the unphased state onto the
    phase-dependent bases reported by ``port_projector``.
    """
    offsets = port_offsets(config.quadrature_offset)
    return {
        name: np.array([1.0, np.exp(1j * offset)], dtype=complex) / np.sqrt(2.0)
        for name, offset in zip(PORT_NAMES, offsets)
    }


def _bin_axes(state: QuantumState, bins: tuple[str, str]) -> tuple[int, int]:
    return state.index_of(bins[0]), state.index_of(bins[1])


def tpc_transform(
    state: QuantumState,
    config: InterferometerConfig,
    bins: tuple[str, str] = ("bin1", "bin2"),
    pol_label: str = "pol",
) -> tuple[QuantumState, float]:
    """Convert a pair of time bins into one polarization qubit by heralding.

    Conditioned on detection in the path-erasing window, the early-bin photon
    becomes |H> with amplitude sqrt(split_ratio) * e^{i phase} and the late-bin
    photon becomes |V> with amplitude sqrt(1 - split_ratio). With the active
    switch the conversion is deterministic (both amplitudes 1). Returns the
    renormalized heralded state and the heralding probability.

    Raises if the two bins carry a joint double occupation: that lies outside
    the protocol subspace and must be projected out by the caller beforehand.
    """
    config.validate()
    if pol_label in state.labels:
        raise OpticsModelError(f"label {pol_label!r} already present")
    i1, i2 = _bin_axes(state, bins)
    dims = state.dims
    if dims[i1] != 2 or dims[i2] != 2:
        raise OpticsModelError("time bins must be two-level occupation subsystems")
    n = len(dims)
    order = [i1, i2] + [i for i in range(n) if i not in (i1, i2)]
    rest_dims = [dims[i] for i in order[2:]]
    rest = int(np.prod(rest_dims)) if rest_dims else 1

    (erase_first, _), (erase_second, _) = arm_weights(config)
    amp_h = np.sqrt(erase_first) * np.exp(1j * config.phase)
    amp_v = float(np.sqrt(erase_second))

    total = state.trace()
    new_specs = [SubsystemSpec(pol_label, 2)] + [state.subsystems[i] for i in order[2:]]
    kept_order = [order[0]] + order[2:]  # old positions; pol inherits bin1's slot
    perm = list(np.argsort(kept_order))
    specs_final = tuple(new_specs[p] for p in perm)
    dims_new = [2] + rest_dims
    m = len(dims_new)

    if state.is_pure and config.erasure_visibility == 1.0:
        psi = np.transpose(state.data.reshape(dims), order).reshape(2, 2, rest)
        if np.linalg.norm(psi[1, 1, :]) > 1e-9:
            raise OpticsModelError("both time bins occupied: outside the protocol subspace")
        out = np.zeros((2, rest), dtype=complex)
        out[POL_H, :] = amp_h * psi[1, 0, :]
        out[POL_V, :] = amp_v * psi[0, 1, :]
        prob = float(np.vdot(out, out).real)
        if prob <= 0:
            raise OpticsModelError("zero heralding probability: no photon in either bin")
        out = np.transpose((out / np.sqrt(prob)).reshape(dims_new), perm)
        result = QuantumState(specs_final, out.reshape(-1), "pure")
        return result, prob / total

    rho = state.to_density()
    t = rho.data.reshape(list(dims) + list(dims))
    t = np.transpose(t, order + [i + n for i in order]).reshape(2, 2, rest, 2, 2, rest)

    if abs(np.trace(t[1, 1, :, 1, 1, :]).real) > 1e-9:
        raise OpticsModelError("both time bins occupied: outside the protocol subspace")

    out = np.zeros((2, rest, 2, rest), dtype=complex)
    out[POL_H, :, POL_H, :] = abs(amp_h) ** 2 * t[1, 0, :, 1, 0, :]
    out[POL_V, :, POL_V, :] = abs(amp_v) ** 2 * t[0, 1, :, 0, 1, :]
    cross = amp_h * np.conj(amp_v) * config.erasure_visibility
    out[POL_H, :, POL_V, :] = cross * t[1, 0, :, 0, 1, :]
    out[POL_V, :, POL_H, :] = np.conj(cross) * t[0, 1, :, 1, 0, :]

    prob = float(np.trace(out.reshape(2 * rest, 2 * rest)).real)
    if prob <= 0:
        raise OpticsModelError("zero heralding probability: no photon in either bin")
    out = out.reshape([2] + rest_dims + [2] + rest_dims) / prob
    out = np.transpose(out, perm + [p + m for p in perm])
    d_out = 2 * rest
    result = QuantumState(specs_final, out.reshape(d_out, d_out), "mixed")
    return result, prob / total
