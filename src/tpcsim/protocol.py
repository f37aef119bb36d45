"""Pulse-sequence construction and execution.

One entangling block is [optical pulse, spin flip, optical pulse]: the first
pulse writes a photon into the early time bin conditioned on |0>, the flip
exchanges the qubit amplitudes, and the second pulse addresses the late bin.
Matching the pulse spacing to the interferometer delay lets the conversion
stage merge the two bins into one polarization qubit. Repeating the block with
an interleaved half rotation extends the output to a photon chain entangled
with the spin (a linear-cluster resource in the default mode, a GHZ-type state
with a full flip instead).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import emitter as em
from .optics import InterferometerConfig, tpc_transform
from .qsim import (
    Operator,
    QuantumState,
    SubsystemSpec,
    apply,
    apply_kraus,
    basis_ket,
    expectation,
    partial_trace,
    ry,
    tensor,
)

SPIN = em.SPIN


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class SequenceStep:
    kind: str  # green_init | pump_init | mw_rotation | optical_pulse | tomography_rotation | readout
    time_ns: float
    theta: float | None = None
    bin_label: str | None = None
    duration_ns: float = 0.0

    def describe(self) -> str:
        extra = ""
        if self.theta is not None:
            extra = f" theta={self.theta:+.4f} rad"
        if self.bin_label is not None:
            extra = f" bin={self.bin_label}"
        return f"{self.time_ns:>12.1f} ns  {self.kind:<20s}{extra}"


@dataclass
class ProtocolConfig:
    n_photons: int = 1
    prep_sign: str = "minus"  # minus -> (|-1> - |0>)/sqrt2, plus -> (|-1> + |0>)/sqrt2
    tomo_theta: float = -np.pi / 2.0  # maps |+x> onto the bright readout level
    cycle_period_ns: float = 167_000.0
    chain_mode: str = "cluster"  # interleaving between blocks: cluster | ghz
    green_init_ns: float = 10_000.0
    pump_init_ns: float = 50_000.0
    mw_pulse_ns: float = 50.0
    readout_pulse_ns: float = 5_000.0

    def validate(self) -> None:
        if self.n_photons < 1:
            raise ProtocolError("n_photons must be >= 1")
        if self.prep_sign not in ("plus", "minus"):
            raise ProtocolError(f"prep_sign must be plus or minus, got {self.prep_sign!r}")
        if self.chain_mode not in ("cluster", "ghz"):
            raise ProtocolError(f"chain_mode must be cluster or ghz, got {self.chain_mode!r}")
        for name in ("green_init_ns", "pump_init_ns", "mw_pulse_ns", "readout_pulse_ns"):
            if getattr(self, name) < 0:
                raise ProtocolError(f"{name} must be >= 0")

    def interblock_theta(self) -> float:
        return np.pi / 2.0 if self.chain_mode == "cluster" else np.pi


def prep_theta(prep_sign: str) -> float:
    """Angle of the preparation rotation for a preparation sign."""
    return np.pi / 2.0 if prep_sign == "minus" else -np.pi / 2.0


def bin_label(pulse_index: int) -> str:
    return f"bin{pulse_index}"


def photon_label(photon_index: int) -> str:
    return f"photon{photon_index}"


def build_sequence(config: ProtocolConfig, ifm: InterferometerConfig) -> list[SequenceStep]:
    """Canonical timed step list for one protocol cycle.

    Optical pulses sit on a comb with spacing exactly ``ifm.delay_ns`` so that
    consecutive emissions collide in the path-erasing window.
    """
    config.validate()
    ifm.validate()
    steps: list[SequenceStep] = []
    t = 0.0
    steps.append(SequenceStep("green_init", t, duration_ns=config.green_init_ns))
    t += config.green_init_ns
    steps.append(SequenceStep("pump_init", t, duration_ns=config.pump_init_ns))
    t += config.pump_init_ns
    steps.append(SequenceStep("mw_rotation", t, theta=prep_theta(config.prep_sign), duration_ns=config.mw_pulse_ns))
    t += config.mw_pulse_ns

    delay = ifm.delay_ns
    t0 = t
    n_pulses = 2 * config.n_photons
    for j in range(1, n_pulses + 1):
        t_pulse = t0 + (j - 1) * delay
        steps.append(SequenceStep("optical_pulse", t_pulse, bin_label=bin_label(j)))
        if j < n_pulses:
            theta = np.pi if j % 2 == 1 else config.interblock_theta()
            steps.append(
                SequenceStep("mw_rotation", t_pulse + delay / 2.0, theta=theta, duration_ns=config.mw_pulse_ns)
            )
    t_end = t0 + (n_pulses - 1) * delay + delay / 2.0
    steps.append(
        SequenceStep("tomography_rotation", t_end, theta=config.tomo_theta, duration_ns=config.mw_pulse_ns)
    )
    steps.append(SequenceStep("readout", t_end + config.mw_pulse_ns, duration_ns=config.readout_pulse_ns))

    total = steps[-1].time_ns + steps[-1].duration_ns
    if config.cycle_period_ns < total:
        raise ProtocolError(
            f"cycle_period_ns {config.cycle_period_ns} shorter than sequence duration {total}"
        )
    times = [s.time_ns for s in steps]
    if times != sorted(times):
        raise ProtocolError("sequence steps are not time-ordered")
    return steps


def format_sequence(steps: list[SequenceStep]) -> str:
    return "\n".join(s.describe() for s in steps)


def pulse_times(steps: list[SequenceStep]) -> list[float]:
    return [s.time_ns for s in steps if s.kind == "optical_pulse"]


# -- ideal executor ------------------------------------------------------------


def run_ideal(
    steps: list[SequenceStep],
    phi: float = 0.0,
    ifm: InterferometerConfig | None = None,
    return_checkpoints: bool = False,
):
    """Exact pure-state evolution with all imperfections switched off.

    The spin is reduced to its protocol qubit {|0>, |-1>}. Returns the heralded
    state (every photon path-erased); with ``return_checkpoints`` also returns
    the named intermediate states in order.
    """
    cfg = replace(ifm or InterferometerConfig(), phase=phi)
    spin = SubsystemSpec(SPIN, 2)
    state = basis_ket((spin,), (1,))  # |-1>
    checkpoints: list[tuple[str, QuantumState]] = [("initialized", state.copy())]

    mw_seen = 0
    pulses_seen = 0
    photons_done = 0
    for step in steps:
        if step.kind in ("green_init", "pump_init", "readout", "tomography_rotation"):
            continue
        if step.kind == "mw_rotation":
            mw_seen += 1
            state = apply(state, ry(step.theta, SPIN, 2))
            name = "prepared" if mw_seen == 1 else f"after_flip_{mw_seen - 1}"
            checkpoints.append((name, state.copy()))
        elif step.kind == "optical_pulse":
            pulses_seen += 1
            vac = basis_ket((SubsystemSpec(step.bin_label, 2),), (em.BIN_VAC,))
            state = tensor(state, vac)
            state = apply(state, em.ideal_pulse_operator(step.bin_label, 2))
            checkpoints.append((f"after_pulse_{pulses_seen}", state.copy()))
            if pulses_seen % 2 == 0:
                photons_done += 1
                pair = (bin_label(pulses_seen - 1), bin_label(pulses_seen))
                state, _ = tpc_transform(state, cfg, bins=pair, pol_label=photon_label(photons_done))
                checkpoints.append((f"converted_{photons_done}", state.copy()))
        else:
            raise ProtocolError(f"unknown step kind {step.kind!r}")

    if return_checkpoints:
        return state, checkpoints
    return state


def bell_target(phi: float = 0.0, labels: tuple[str, str] = (SPIN, "photon1")) -> QuantumState:
    """(|0>|V> + e^{i phi} |-1>|H>)/sqrt2 with qubit spin."""
    from .optics import POL_H, POL_V

    amps = np.zeros(4, dtype=complex)
    amps[0 * 2 + POL_V] = 1.0
    amps[1 * 2 + POL_H] = np.exp(1j * phi)
    subs = (SubsystemSpec(labels[0], 2), SubsystemSpec(labels[1], 2))
    return QuantumState(subs, amps / np.sqrt(2.0), "pure")


# -- noisy executor ------------------------------------------------------------


def run_noisy(
    steps: list[SequenceStep],
    params: em.EmitterParams,
    ifm: InterferometerConfig,
):
    """Density-matrix evolution of the full imperfection model.

    Returns the state conditioned on every photon heralding in the path-erasing
    window, unnormalized: its trace is the heralding probability. Joint double
    occupation of a bin pair lies outside the protocol subspace and counts as
    heralding failure. Tomography rotation and readout are measurement stage
    and are not applied.
    """
    params.validate()
    ifm.validate()
    state = em.initialize_spin(params)
    success = 1.0
    pulses_seen = 0
    photons_done = 0
    for step in steps:
        if step.kind in ("green_init", "pump_init", "readout", "tomography_rotation"):
            continue
        if step.kind == "mw_rotation":
            state = apply_kraus(state, em.mw_rotation_kraus(step.theta, params))
        elif step.kind == "optical_pulse":
            pulses_seen += 1
            state = em.optical_pi_pulse(state, params, step.bin_label)
            if pulses_seen % 2 == 0:
                photons_done += 1
                pair = (bin_label(pulses_seen - 1), bin_label(pulses_seen))
                state, p_keep = _project_out_double_occupation(state, pair)
                success *= p_keep
                state, p_herald = tpc_transform(state, ifm, bins=pair, pol_label=photon_label(photons_done))
                success *= p_herald
        else:
            raise ProtocolError(f"unknown step kind {step.kind!r}")

    return QuantumState(state.subsystems, state.data * success, "mixed")


def _project_out_double_occupation(state: QuantumState, bins: tuple[str, str]):
    proj = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
    out = apply_kraus(state, [Operator(proj, bins)], require_tp=False)
    before = state.trace()
    after = out.trace()
    if after <= 0:
        raise ProtocolError("no population left inside the protocol subspace")
    return out.normalized(), after / before


def as_qubit_pair(state: QuantumState, photon: str = "photon1") -> QuantumState:
    """Reduce a heralded (spin x photon) state to the measured two-qubit form.

    Spin population outside {|0>, |-1>} neither responds to microwave pulses
    nor produces readout clicks, so the measurement lumps it into the dark
    (|-1>) row while its photon block is retained; the |0>..|-1> coherence
    block passes through unchanged.
    """
    rho = state.to_density()
    if rho.labels != (SPIN, photon):
        rho = partial_trace(rho, [SPIN, photon])
    d_spin = rho.subsystems[0].dim
    if d_spin == 2:
        return rho
    t = rho.data.reshape(d_spin, 2, d_spin, 2)
    out = np.zeros((2, 2, 2, 2), dtype=complex)
    g0, gm1 = em.LVL_G0, em.LVL_GM1
    out[0, :, 0, :] = t[g0, :, g0, :]
    out[0, :, 1, :] = t[g0, :, gm1, :]
    out[1, :, 0, :] = t[gm1, :, g0, :]
    out[1, :, 1, :] = t[gm1, :, gm1, :]
    for lvl in range(d_spin):
        if lvl not in (g0, gm1):
            out[1, :, 1, :] += t[lvl, :, lvl, :]
    subs = (SubsystemSpec(SPIN, 2), SubsystemSpec(photon, 2))
    return QuantumState(subs, out.reshape(4, 4), "mixed")


# -- chain stabilizers ---------------------------------------------------------

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

# conjugation tables: letter -> (new letter, sign)
_HALF_TURN = {"I": ("I", 1), "Z": ("X", 1), "X": ("Z", -1), "Y": ("Y", 1)}
_NEG_HALF_TURN = {"I": ("I", 1), "Z": ("X", -1), "X": ("Z", 1), "Y": ("Y", 1)}
_FULL_TURN = {"I": ("I", 1), "Z": ("Z", -1), "X": ("X", -1), "Y": ("Y", 1)}
# pushing a spin Pauli through one entangling block: spin letter -> (new spin
# letter, photon letter picked up, sign)
_EMISSION_PUSH = {"I": ("I", "I", 1), "Z": ("Z", "I", -1), "X": ("X", "X", -1), "Y": ("Y", "X", 1)}


def chain_generators(n: int, chain_mode: str = "cluster", prep_sign: str = "minus"):
    """Stabilizer generators of the ideal spin + n-photon chain at phase 0.

    Derived by pushing the initial spin stabilizer through the sequence: each
    rotation conjugates the spin letter, each entangling block rewrites it via
    _EMISSION_PUSH and appends its own spin-photon correlation generator.
    Returns n + 1 tuples (sign, spin letter, photon letters) in emission order.
    """
    if n < 1:
        raise ProtocolError("n must be >= 1")
    first = _HALF_TURN if prep_sign == "minus" else _NEG_HALF_TURN
    inter = _HALF_TURN if chain_mode == "cluster" else _FULL_TURN

    gens: list[tuple[int, str, list[str]]] = [(-1, "Z", [])]

    def rotate(table):
        nonlocal gens
        gens = [
            (sign * table[letter][1], table[letter][0], photons) for sign, letter, photons in gens
        ]

    rotate(first)
    for k in range(1, n + 1):
        if k > 1:
            rotate(inter)
        pushed = []
        for sign, letter, photons in gens:
            new_letter, photon_letter, factor = _EMISSION_PUSH[letter]
            pushed.append((sign * factor, new_letter, photons + [photon_letter]))
        gens = pushed
        gens.append((-1, "Z", ["I"] * (k - 1) + ["Z"]))
    return [(sign, spin, photons + ["I"] * (n - len(photons))) for sign, spin, photons in gens]


def _embedded_pauli(letter: str, dim: int) -> np.ndarray:
    if letter == "I":
        return np.eye(dim, dtype=complex)
    if dim == 2:
        return _PAULI[letter]
    m = np.zeros((dim, dim), dtype=complex)
    m[:2, :2] = _PAULI[letter]
    return m


def stabilizer_check(
    state: QuantumState,
    n: int,
    chain_mode: str = "cluster",
    prep_sign: str = "minus",
) -> list[float]:
    """Expectation of each chain stabilizer generator on ``state``.

    ``state`` must carry the spin and photon1..photonN. For spin dimensions
    above 2 the Pauli letters act on the {|0>, |-1>} qubit block.
    """
    labels = [SPIN] + [photon_label(k) for k in range(1, n + 1)]
    for label in labels:
        state.index_of(label)
    spin_dim = state.subsystems[state.index_of(SPIN)].dim
    values = []
    for sign, spin_letter, photon_letters in chain_generators(n, chain_mode, prep_sign):
        mat = sign * _embedded_pauli(spin_letter, spin_dim)
        for letter in photon_letters:
            mat = np.kron(mat, _PAULI[letter])
        values.append(expectation(state, Operator(mat, tuple(labels))))
    return values
