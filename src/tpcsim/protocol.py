"""Pulse-sequence construction and execution.

One entangling block is [optical pulse, spin flip, optical pulse]: the first
pulse writes a photon into the early time bin conditioned on |0>, the flip
exchanges the qubit amplitudes, and the second pulse addresses the late bin.
Matching the pulse spacing to the interferometer delay lets the conversion
stage merge the two bins into one polarization qubit. Repeating the block with
an interleaved half rotation extends the output to a photon chain entangled
with the spin (a linear-cluster resource in the default mode, a GHZ-type state
with a full flip instead).

The step list from ``build_sequence`` is the one schedule source. ``step_kraus``
turns it into plain Kraus matrices on the (spin, bin1, bin2) layout, which the
samplers in ``events`` and the one exact executor here share. The executor
evolves a density matrix over (spin, bin1, bin2) x the photons so far and
converts the two bins into a polarization qubit after each second pulse;
``run_noisy`` returns its heralded state, and ``run_ideal`` runs it on an
ideal emitter and returns pure states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import emitter as em
from .optics import POL_H, POL_V, InterferometerConfig, arm_weights
from .qsim import Operator, QuantumState, SubsystemSpec, expectation, partial_trace

SPIN = em.SPIN


class ProtocolError(ValueError):
    pass


@dataclass(frozen=True)
class SequenceStep:
    kind: str  # green_init | pump_init | mw_rotation | optical_pulse | tomography_rotation | readout
    time_ns: float
    theta: float | None = None
    duration_ns: float = 0.0


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
        steps.append(SequenceStep("optical_pulse", t_pulse))
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
    """One line per step: time, kind, and the rotation angle or the pulse's bin number."""
    lines, pulses = [], 0
    for s in steps:
        extra = f" theta={s.theta:+.4f} rad" if s.theta is not None else ""
        if s.kind == "optical_pulse":
            pulses += 1
            extra = f" bin=bin{pulses}"
        lines.append(f"{s.time_ns:>12.1f} ns  {s.kind:<20s}{extra}")
    return "\n".join(lines)


def pulse_times(steps: list[SequenceStep]) -> list[float]:
    return [s.time_ns for s in steps if s.kind == "optical_pulse"]


# -- exact executor ------------------------------------------------------------

_MEASUREMENT_STAGE = ("green_init", "pump_init", "tomography_rotation", "readout")
_BIN_STATES = 4  # joint occupations of (bin1, bin2); index 0 is both empty


def _swap_bins(m: np.ndarray) -> np.ndarray:
    """A matrix on the (spin, bin2, bin1) layout re-expressed on (spin, bin1, bin2)."""
    d = em.SPIN_DIM
    return m.reshape(d, 2, 2, d, 2, 2).transpose(0, 2, 1, 3, 5, 4).reshape(d * 4, d * 4)


def step_kraus(steps: list[SequenceStep], params: em.EmitterParams) -> list[tuple[SequenceStep, list[np.ndarray]]]:
    """The Kraus matrices of each mw_rotation and optical_pulse step, in order.

    Every matrix acts on the (spin, bin1, bin2) layout that the executor and
    the samplers share: a rotation acts on the spin alone, and an optical pulse
    writes into bin 1 when its pulse index is odd and into bin 2 when it is
    even. Initialization, tomography rotation and readout carry no operator.
    """
    on_bin1 = [np.kron(k, np.eye(2)) for k in em.optical_pulse_kraus(params)]
    pulse_ops = (on_bin1, [_swap_bins(m) for m in on_bin1])
    out = []
    pulses = 0
    for step in steps:
        if step.kind == "mw_rotation":
            out.append((step, [np.kron(k, np.eye(_BIN_STATES)) for k in em.mw_rotation_kraus(step.theta, params)]))
        elif step.kind == "optical_pulse":
            out.append((step, pulse_ops[pulses % 2]))
            pulses += 1
        elif step.kind not in _MEASUREMENT_STAGE:
            raise ProtocolError(f"unknown step kind {step.kind!r}")
    return out


def _convert(rho: np.ndarray, photons: int, ifm: InterferometerConfig) -> np.ndarray:
    """Herald the two time bins in the path-erasing window as one new, last
    photon qubit, and leave the bins empty.

    H <- |10> sqrt(e1) e^{i phase} and V <- |01> sqrt(e2), with e1 and e2 the
    erasing arm weights; the H-V coherence is scaled by the erasure
    visibility. Vacuum and double occupation drop out, so the trace falls by
    the heralding probability.
    """
    (e1, _), (e2, _) = arm_weights(ifm)
    cross = np.sqrt(e1 * e2) * np.exp(1j * ifm.phase) * ifm.erasure_visibility
    d, p = em.SPIN_DIM, 2**photons
    t = rho.reshape(d, 2, 2, p, d, 2, 2, p)
    out = np.zeros((d, _BIN_STATES, p, 2, d, _BIN_STATES, p, 2), dtype=complex)
    out[:, 0, :, POL_H, :, 0, :, POL_H] = e1 * t[:, 1, 0, :, :, 1, 0, :]
    out[:, 0, :, POL_V, :, 0, :, POL_V] = e2 * t[:, 0, 1, :, :, 0, 1, :]
    out[:, 0, :, POL_H, :, 0, :, POL_V] = cross * t[:, 1, 0, :, :, 0, 1, :]
    out[:, 0, :, POL_V, :, 0, :, POL_H] = np.conj(cross) * t[:, 0, 1, :, :, 1, 0, :]
    n = 2 * rho.shape[0]
    return out.reshape(n, n)


def _left(k: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """(K x identity on the photons) @ rho, for K on the leading (spin, bin1, bin2) factor."""
    return (k @ rho.reshape(k.shape[0], -1)).reshape(rho.shape)


def _evolve(steps: list[SequenceStep], params: em.EmitterParams, ifm: InterferometerConfig):
    """Density-matrix evolution on (spin, bin1, bin2) x the photons so far.

    Yields (checkpoint name, density matrix, photons so far) after the spin
    initialization and after every step; each second pulse is followed by
    the conversion of its bins into a photon. Nothing is renormalized, so the
    trace is the probability that every photon so far heralded.
    """
    params.validate()
    ifm.validate()
    rho = np.kron(em.initialize_spin(params), np.diag([1.0, 0.0, 0.0, 0.0]))  # both bins empty
    yield "initialized", rho, 0
    photons = pulses = rotations = 0
    for step, ops in step_kraus(steps, params):
        rho = sum(_left(k, _left(k, rho).conj().T) for k in ops)  # K rho K^dag, as rho is Hermitian
        if step.kind == "mw_rotation":
            rotations += 1
            yield ("prepared" if rotations == 1 else f"after_flip_{rotations - 1}"), rho, photons
            continue
        pulses += 1
        yield f"after_pulse_{pulses}", rho, photons
        if pulses % 2 == 0:
            rho = _convert(rho, photons, ifm)
            photons += 1
            yield f"converted_{photons}", rho, photons
    if pulses % 2:
        raise ProtocolError("the step list ends between the two pulses of a photon")


def _restrict(rho: np.ndarray, photons: int, spin_levels: int) -> np.ndarray:
    """The part of ``rho`` on the first ``spin_levels`` spin levels, with the
    bins dropped by taking their empty state."""
    d, p = em.SPIN_DIM, 2**photons
    n = spin_levels * p
    return rho.reshape(d, _BIN_STATES, p, d, _BIN_STATES, p)[:spin_levels, 0, :, :spin_levels, 0, :].reshape(n, n)


def _subsystems(spin_levels: int, photons: int) -> tuple[SubsystemSpec, ...]:
    return (SubsystemSpec(SPIN, spin_levels), *(SubsystemSpec(photon_label(k), 2) for k in range(1, photons + 1)))


def _ket(rho: np.ndarray, photons: int) -> QuantumState:
    """The normalized pure qubit-spin state of a rank-one ``rho``, up to a global phase."""
    m = _restrict(rho, photons, 2)
    if m.trace().real <= 0:
        raise ProtocolError("zero heralding probability: no photon heralds in the path-erasing window")
    j = int(np.argmax(m.diagonal().real))
    psi = m[:, j] / np.sqrt(m[j, j].real * m.trace().real)
    return QuantumState(_subsystems(2, photons), psi, "pure")


_IDEAL_EMITTER = dict(
    p_cross=0.0, zpl_fraction=1.0, p_shelve=0.0, p_spin_flip=0.0, init_fidelity=1.0, nuclear_pol=1.0, pi_pulse_error=0.0
)


def run_ideal(steps: list[SequenceStep], phi: float = 0.0) -> QuantumState:
    """Exact evolution with all imperfections switched off, as pure states.

    Runs the executor of ``run_noisy`` on an ideal emitter and a balanced
    interferometer at phase ``phi``, and keeps the spin's protocol qubit
    {|0>, |-1>}. Returns the heralded (spin, photon1..N) state (every photon
    path-erased).
    """
    for _, rho, photons in _evolve(steps, em.EmitterParams(**_IDEAL_EMITTER), InterferometerConfig(phase=phi)):
        pass
    return _ket(rho, photons)


def run_noisy(
    steps: list[SequenceStep],
    params: em.EmitterParams,
    ifm: InterferometerConfig,
):
    """Density-matrix evolution of the full imperfection model.

    Returns the (spin, photon1..N) state conditioned on every photon heralding
    in the path-erasing window, unnormalized: its trace is the heralding
    probability. Joint double occupation of a bin pair lies outside the
    protocol subspace and counts as heralding failure. Tomography rotation and
    readout are measurement stage and are not applied.
    """
    for _, rho, photons in _evolve(steps, params, ifm):
        pass
    return QuantumState(_subsystems(em.SPIN_DIM, photons), _restrict(rho, photons, em.SPIN_DIM), "mixed")


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
