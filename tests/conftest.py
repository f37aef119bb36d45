"""Helpers shared by the test modules, and the reference state algebra that
the tests check the program against: basis states, products, the embedding of
an operator on some of a state's subsystems, operator and channel application,
partial traces, fidelities, the interferometer's routing table and analyzer
ports, the target Bell state, and the readout of a collapsed spin. The
program's own ``qsim`` reads states only through observables on the whole
layout."""
from math import cos, sin

import numpy as np

from tpcsim import emitter as em
from tpcsim.analysis import fidelity_bound
from tpcsim.events import _OCC_01, _OCC_10, _OUTCOME_OCC, CODES, RECORD_COLUMNS, RECORD_DTYPE
from tpcsim.optics import POL_H, POL_V, PORT_NAMES, InterferometerConfig, OpticsModelError, port_offsets
from tpcsim.protocol import ProtocolConfig, as_qubit_pair, build_sequence, run_noisy, step_kraus
from tpcsim.qsim import Operator, QsimError, QuantumState, SubsystemSpec

ALG_TOL = 1e-10  # tolerance for algebraic identities (norms, hermiticity)
PSD_EIG_FLOOR = -1e-8  # eigenvalue floor accepted by positivity checks
LABELLED_COLUMNS = ("port", "arrival_class", "prep_sign")


def ideal_emitter(**overrides) -> em.EmitterParams:
    """An emitter without imperfections; ``p_readout_click`` keeps its default
    unless overridden."""
    base = dict(
        p_cross=0.0,
        zpl_fraction=1.0,
        p_shelve=0.0,
        p_spin_flip=0.0,
        init_fidelity=1.0,
        nuclear_pol=1.0,
        pi_pulse_error=0.0,
    )
    base.update(overrides)
    return em.EmitterParams(**base)


class SerialPool:
    """ProcessPoolExecutor stand-in that maps in this process; ``sizes`` lists
    the max_workers of every pool made, and a test resets it before use."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def make_records(rows):
    """Records from rows that spell the coded columns with their CSV labels,
    e.g. (0, "D", "Erased", 100.0, 0.1, "minus", 1)."""
    coded = [
        tuple(CODES[name][value] if name in LABELLED_COLUMNS else value for name, value in zip(RECORD_COLUMNS, row))
        for row in rows
    ]
    return np.array(coded, dtype=RECORD_DTYPE)


def pure_state(subsystems, amplitudes) -> QuantumState:
    return QuantumState(tuple(subsystems), np.asarray(amplitudes, dtype=complex), "pure")


def check_valid(state: QuantumState, expected_trace: float | None = 1.0, tol: float = ALG_TOL) -> None:
    """Raise QsimError unless ``state`` satisfies its representation invariants."""
    if state.is_pure:
        if expected_trace is not None and abs(state.trace() - expected_trace) > tol:
            raise QsimError(f"pure state norm^2 {state.trace()} != {expected_trace}")
        return
    rho = state.data
    if not np.allclose(rho, rho.conj().T, atol=tol):
        raise QsimError("density matrix is not Hermitian")
    if expected_trace is not None and abs(np.trace(rho).real - expected_trace) > tol:
        raise QsimError(f"trace {np.trace(rho).real} != {expected_trace}")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < PSD_EIG_FLOOR:
        raise QsimError(f"density matrix not PSD: min eigenvalue {eigs.min()}")


def projector_onto(vec, targets) -> Operator:
    """Rank-1 projector |v><v| / <v|v> as an Operator on ``targets``."""
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return Operator(np.outer(v, v.conj()), targets)


# Frozen imperfection fixture: parameters solved so the exact heralded
# two-qubit state carries C_zz = 0.837, C_xx = 0.407 and a fidelity bound of
# 0.647. Initialization and nuclear polarization sit at their published
# values; spin mixing, cross excitation, and erasure visibility carry the
# remaining imperfection budget.
FIXTURE = dict(
    p_cross=0.038295666561,
    zpl_fraction=1.0,
    p_shelve=0.05,
    p_spin_flip=0.158111125535,
    init_fidelity=0.979,
    nuclear_pol=0.838,
    pi_pulse_error=0.01,
    p_readout_click=0.167,
)


def fixture_exact(ifm: InterferometerConfig) -> tuple[float, float, float]:
    """Exact c_zz, c_xx and fidelity bound of the FIXTURE emitter behind
    ``ifm``: the heralded states of both preparations, each weighted by its
    heralding probability, as the analysis pools them."""
    params = em.EmitterParams(**FIXTURE)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    diag_w, xx_w = [], []
    for prep in ("minus", "plus"):
        heralded = run_noisy(build_sequence(ProtocolConfig(prep_sign=prep), ifm), params, ifm)
        pair = as_qubit_pair(heralded.normalized())
        diag_w.append((heralded.trace(), np.real(np.diag(pair.data))))
        xx_w.append(np.real(np.trace(pair.data @ np.kron(sx, sx))))
    diag = sum(w * d for w, d in diag_w) / sum(w for w, _ in diag_w)
    c_xx = 0.5 * (xx_w[0] - xx_w[1])
    return diag[1] + diag[2] - diag[0] - diag[3], c_xx, fidelity_bound(tuple(diag), c_xx)


def write_fixture_ini(path):
    """The run configuration of the criterion-4 fixture, seed 404."""
    path.write_text(
        "[emitter]\n"
        + "\n".join(f"{k} = {v}" for k, v in FIXTURE.items())
        + "\n\n[interferometer]\nphase_mode = scan\nphase_readout_sigma = 0.0\n"
        + "erasure_visibility = 0.695814665779\n"
        + "\n[detection]\nzpl_efficiency = 1.0\nseed = 404\n"
        + "\n[analysis]\np_readout_click = 0.167\n"
    )


# -- reference state algebra on labelled states ----------------------------------


def basis_ket(subsystems, indices) -> QuantumState:
    """Pure product basis state |i1, i2, ...> on the given subsystems."""
    subsystems = tuple(subsystems)
    indices = tuple(indices)
    if len(indices) != len(subsystems):
        raise QsimError("one basis index per subsystem required")
    dims = [s.dim for s in subsystems]
    for i, (idx, d) in enumerate(zip(indices, dims)):
        if not 0 <= idx < d:
            raise QsimError(f"basis index {idx} out of range for dim {d}")
    vec = np.zeros(int(np.prod(dims)), dtype=complex)
    vec[int(np.ravel_multi_index(indices, dims))] = 1.0
    return QuantumState(subsystems, vec, "pure")


def ry(theta: float, target: str = "spin", dim: int = 2, levels: tuple[int, int] = (0, 1)) -> Operator:
    """Rotation about y in the two-level subspace ``levels``; identity elsewhere.

    In the ordered qubit basis the block is [[cos t/2, -sin t/2], [sin t/2,
    cos t/2]], so ry(pi/2) maps the second level to (second - first)/sqrt(2).
    """
    c, s = cos(theta / 2.0), sin(theta / 2.0)
    m = np.eye(dim, dtype=complex)
    a, b = levels
    m[a, a] = c
    m[a, b] = -s
    m[b, a] = s
    m[b, b] = c
    return Operator(m, (target,))


def tensor(a: QuantumState, b: QuantumState) -> QuantumState:
    """Tensor product; mixed representation wins if the kinds differ."""
    overlap_labels = set(a.labels) & set(b.labels)
    if overlap_labels:
        raise QsimError(f"duplicate subsystem labels in tensor: {sorted(overlap_labels)}")
    if a.kind != b.kind:
        a, b = a.to_density(), b.to_density()
    subs = a.subsystems + b.subsystems
    if a.is_pure:
        return QuantumState(subs, np.kron(a.data, b.data), "pure")
    return QuantumState(subs, np.kron(a.data, b.data), "mixed")


def _target_axes(state: QuantumState, targets) -> list[int]:
    for label in targets:
        if label not in state.labels:
            raise QsimError(f"no subsystem labelled {label!r} in {state.labels}")
    return [state.labels.index(label) for label in targets]


def _apply_left(matrix: np.ndarray, axes: list[int], target_dims, array: np.ndarray) -> np.ndarray:
    """Contract a square ``matrix`` onto the given axes of a tensor.

    ``matrix`` has shape (prod(target_dims), prod(target_dims)); axes beyond
    the subsystem axes of ``array`` act as batch dimensions and pass through.
    """
    full_dims = list(array.shape)
    others = [i for i in range(len(full_dims)) if i not in axes]
    perm = list(axes) + others
    tensor_ = np.transpose(array, perm)
    lead = int(np.prod([full_dims[i] for i in axes]))
    tensor_ = tensor_.reshape(lead, -1)
    tensor_ = matrix @ tensor_
    tensor_ = tensor_.reshape(list(target_dims) + [full_dims[i] for i in others])
    return np.transpose(tensor_, np.argsort(perm))


def embedded_matrix(op: Operator, state: QuantumState) -> np.ndarray:
    """Dense full-space matrix of ``op`` acting on ``state``'s layout."""
    axes = _target_axes(state, op.targets)
    dims = [s.dim for s in state.subsystems]
    t_dims = [dims[a] for a in axes]
    if int(np.prod(t_dims)) != op.matrix.shape[0]:
        raise QsimError(f"operator dim {op.matrix.shape[0]} does not match targets {op.targets} with dims {t_dims}")
    d = int(np.prod(dims))
    eye = np.eye(d, dtype=complex).reshape(dims + [d])
    out = _apply_left(op.matrix, axes, t_dims, eye)
    return out.reshape(d, d)


def partial_trace(state: QuantumState, keep) -> QuantumState:
    """Reduced density matrix over ``keep`` labels (in state order)."""
    keep = list(keep)
    if not keep:
        raise QsimError("partial_trace needs a non-empty keep list")
    keep_idx = sorted(_target_axes(state, keep))
    rho = state.to_density()
    n = len(state.subsystems)
    dims = [s.dim for s in state.subsystems]
    tensor_rho = rho.data.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep_idx]
    for count, axis in enumerate(sorted(traced)):
        ax = axis - count  # axes shift down as earlier ones are traced out
        cur_n = n - count
        tensor_rho = np.trace(tensor_rho, axis1=ax, axis2=ax + cur_n)
    kept_specs = tuple(state.subsystems[i] for i in keep_idx)
    d = int(np.prod([s.dim for s in kept_specs]))
    return QuantumState(kept_specs, tensor_rho.reshape(d, d), "mixed")


def apply(state: QuantumState, op: Operator) -> QuantumState:
    """Apply an operator: U|psi> for pure states, U rho U^dag for mixed."""
    m = embedded_matrix(op, state)
    if state.is_pure:
        return QuantumState(state.subsystems, m @ state.data, "pure")
    return QuantumState(state.subsystems, m @ state.data @ m.conj().T, "mixed")


def apply_kraus(state: QuantumState, kraus: list[Operator], *, require_tp: bool = True) -> QuantumState:
    """Channel application rho -> sum_k K rho K^dag (pure states auto-promote).

    With ``require_tp`` the Kraus set must resolve the identity on its targets
    within ALG_TOL; otherwise sum K^dag K may be <= identity (lossy channel).
    """
    if not kraus:
        raise QsimError("empty Kraus set")
    targets = kraus[0].targets
    if any(k.targets != targets for k in kraus):
        raise QsimError("all Kraus operators must share the same targets")
    total = sum(k.matrix.conj().T @ k.matrix for k in kraus)
    eye = np.eye(kraus[0].matrix.shape[0])
    if require_tp:
        if not np.allclose(total, eye, atol=1e-9):
            raise QsimError("Kraus set is not trace-preserving within tolerance")
    else:
        eigs = np.linalg.eigvalsh(eye - total)
        if eigs.min() < PSD_EIG_FLOOR:
            raise QsimError("Kraus set exceeds the identity: sum K^dag K > I")
    rho = state.to_density()
    out = np.zeros_like(rho.data)
    for k in kraus:
        m = embedded_matrix(k, rho)
        out += m @ rho.data @ m.conj().T
    return QuantumState(rho.subsystems, out, "mixed")


def fidelity_to(state: QuantumState, target: QuantumState) -> float:
    """<target|rho|target> against a pure target state."""
    if not target.is_pure:
        raise QsimError("fidelity target must be pure")
    if state.labels != target.labels:
        raise QsimError("fidelity requires identical subsystem layouts")
    if state.is_pure:
        return float(abs(np.vdot(target.data, state.data)) ** 2)
    return float(np.real(target.data.conj() @ state.data @ target.data))


def bell_target(phi: float = 0.0, labels: tuple[str, str] = ("spin", "photon1")) -> QuantumState:
    """(|0>|V> + e^{i phi} |-1>|H>)/sqrt2 with qubit spin."""
    amps = np.zeros(4, dtype=complex)
    amps[0 * 2 + POL_V] = 1.0
    amps[1 * 2 + POL_H] = np.exp(1j * phi)
    subs = (SubsystemSpec(labels[0], 2), SubsystemSpec(labels[1], 2))
    return QuantumState(subs, amps / np.sqrt(2.0), "pure")


# -- reference interferometer: routing table and analyzer ports -------------------


def route(emission_cycle: str, arm: str, t_emit: float, config: InterferometerConfig):
    """Arrival time and physical polarization for one (cycle, arm) choice.

    The short arm is the time reference (zero extra propagation). The long arm
    always carries H, the short arm V.
    """
    if emission_cycle not in ("first", "second"):
        raise OpticsModelError(f"unknown emission cycle {emission_cycle!r}")
    if arm not in ("short", "long"):
        raise OpticsModelError(f"unknown arm {arm!r}")
    delay = config.delay_ns if arm == "long" else 0.0
    pol = "H" if arm == "long" else "V"
    return t_emit + delay, pol


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
    H component when the executor converts the bins); projecting the phased
    state onto these fixed analyzers is equivalent to projecting the unphased
    state onto the phase-dependent bases reported by ``port_projector``.
    """
    offsets = port_offsets(config.quadrature_offset)
    return {
        name: np.array([1.0, np.exp(1j * offset)], dtype=complex) / np.sqrt(2.0)
        for name, offset in zip(PORT_NAMES, offsets)
    }


# -- the executor's plain matrices on (spin, bin1, bin2) ------------------------------


def channel(kraus, rho):
    """sum_k K rho K^dag for plain Kraus matrices and a density matrix."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def pulse_kraus(params: em.EmitterParams, pulse_index: int = 1) -> list[np.ndarray]:
    """The 28x28 Kraus matrices on (spin, bin1, bin2) of optical pulse
    ``pulse_index`` of a single-photon sequence: 1 writes bin 1, 2 writes bin 2."""
    steps = build_sequence(ProtocolConfig(), InterferometerConfig())
    return [ops for step, ops in step_kraus(steps, params) if step.kind == "optical_pulse"][pulse_index - 1]


def with_empty_bins(spin) -> np.ndarray:
    """A 7-level spin ket or density matrix with both time bins empty, as a
    28x28 density matrix on (spin, bin1, bin2)."""
    spin = np.asarray(spin, dtype=complex)
    if spin.ndim == 1:
        spin = np.outer(spin, spin.conj())
    return np.kron(spin, np.diag([1.0, 0.0, 0.0, 0.0]))


def first_bin(rho) -> np.ndarray:
    """The (spin, bin1) density matrix of a (spin, bin1, bin2) one whose bin 2 is empty."""
    d = em.SPIN_DIM
    return rho.reshape(d, 2, 2, d, 2, 2)[:, :, 0, :, :, 0].reshape(2 * d, 2 * d)


def collapsed_spin(states, outcome, phase, port, model) -> np.ndarray:
    """The spin that the photon in each (spin, occupation) state of ``states``
    (shape (n, 7, 4)) leaves: the spin of its outcome's occupation, or for an
    erased photon (outcome 2) its ``port``'s superposition of the two bins,
    normalized (a zero spin stays zero)."""
    (erase1, _), (erase2, _) = model.arms
    spin = states[np.arange(len(states)), :, _OUTCOME_OCC[outcome]]
    early = states[:, :, _OCC_10] * (np.sqrt(erase1) * np.exp(1j * phase))[:, None]
    late = states[:, :, _OCC_01] * (np.sqrt(erase2) * np.exp(-1j * model.port_offsets[port]))[:, None]
    spin = np.where((outcome == 2)[:, None], early + late, spin)
    norm = np.linalg.norm(spin, axis=1)
    return spin / np.where(norm > 0, norm, 1.0)[:, None]


def collapsed_bright(states, outcome, phase, port, basis, model) -> np.ndarray:
    """Bright probability of the spin that the photon in each (spin, occupation)
    state of ``states`` leaves (collapsed_spin), read in its readout
    ``basis``: 0 polar, 1 equatorial."""
    spin = collapsed_spin(states, outcome, phase, port, model)
    return np.abs(np.where(basis == 1, spin @ model.bright_row, spin[:, em.LVL_G0])) ** 2
