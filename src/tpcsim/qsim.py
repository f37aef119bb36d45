"""Dense linear algebra for small composite Hilbert spaces.

States live on an ordered list of labelled finite-dimensional subsystems and
are stored either as pure amplitude vectors or as density matrices. Everything
is value-semantic: no function mutates its arguments, so concurrent callers
only need to own their RNG stream.

Total dimensions in this project stay below ~2048, so all storage is dense.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

ALG_TOL = 1e-10        # tolerance for algebraic identities (norms, hermiticity)
PSD_EIG_FLOOR = -1e-8  # eigenvalue floor accepted by positivity checks


class QsimError(ValueError):
    """Contract violation: bad labels, dimensions, or tolerance breaches."""


@dataclass(frozen=True)
class SubsystemSpec:
    """One tensor factor: a short label and its Hilbert-space dimension."""

    label: str
    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise QsimError(f"subsystem {self.label!r}: dim must be >= 2, got {self.dim}")


@dataclass(frozen=True)
class Operator:
    """A square matrix acting on the listed target subsystems (in order)."""

    matrix: np.ndarray
    targets: tuple[str, ...]

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "targets", tuple(self.targets))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise QsimError(f"operator matrix must be square, got shape {m.shape}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_hermitian(self, tol: float = ALG_TOL) -> bool:
        return bool(np.allclose(self.matrix, self.matrix.conj().T, atol=tol))


class QuantumState:
    """State over ordered labelled subsystems, pure vector or density matrix.

    ``kind`` is ``"pure"`` or ``"mixed"``. Conditioning on a heralding outcome
    can leave a mixed state with trace < 1; callers renormalize explicitly.
    """

    __slots__ = ("subsystems", "data", "kind")

    def __init__(self, subsystems, data, kind: str):
        subsystems = tuple(subsystems)
        labels = [s.label for s in subsystems]
        if len(set(labels)) != len(labels):
            raise QsimError(f"duplicate subsystem labels: {labels}")
        if kind not in ("pure", "mixed"):
            raise QsimError(f"unknown state kind {kind!r}")
        dim = int(np.prod([s.dim for s in subsystems]))
        data = np.asarray(data, dtype=complex)
        if kind == "pure":
            if data.shape != (dim,):
                raise QsimError(f"pure state needs shape ({dim},), got {data.shape}")
        else:
            if data.shape != (dim, dim):
                raise QsimError(f"density matrix needs shape ({dim},{dim}), got {data.shape}")
        self.subsystems = subsystems
        self.data = data
        self.kind = kind

    # -- bookkeeping ---------------------------------------------------------

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.subsystems)

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def index_of(self, label: str) -> int:
        for i, s in enumerate(self.subsystems):
            if s.label == label:
                return i
        raise QsimError(f"no subsystem labelled {label!r} in {self.labels}")

    def copy(self) -> "QuantumState":
        return QuantumState(self.subsystems, self.data.copy(), self.kind)

    # -- scalars -------------------------------------------------------------

    def trace(self) -> float:
        """Total probability weight: |psi|^2 for pure states, Tr(rho) for mixed."""
        if self.is_pure:
            return float(np.vdot(self.data, self.data).real)
        return float(np.trace(self.data).real)

    def normalized(self) -> "QuantumState":
        t = self.trace()
        if t <= 0:
            raise QsimError("cannot normalize a zero state")
        if self.is_pure:
            return QuantumState(self.subsystems, self.data / np.sqrt(t), "pure")
        return QuantumState(self.subsystems, self.data / t, "mixed")

    def to_density(self) -> "QuantumState":
        if not self.is_pure:
            return self.copy()
        rho = np.outer(self.data, self.data.conj())
        return QuantumState(self.subsystems, rho, "mixed")

    def fidelity_to(self, target: "QuantumState") -> float:
        """<target|rho|target> against a pure target state."""
        if not target.is_pure:
            raise QsimError("fidelity target must be pure")
        if self.labels != target.labels:
            raise QsimError("fidelity requires identical subsystem layouts")
        if self.is_pure:
            return float(abs(np.vdot(target.data, self.data)) ** 2)
        return float(np.real(target.data.conj() @ self.data @ target.data))


# -- constructors -------------------------------------------------------------


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


# -- internal index plumbing ---------------------------------------------------


def _target_axes(state: QuantumState, targets: tuple[str, ...]) -> list[int]:
    return [state.index_of(t) for t in targets]


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
    dims = state.dims
    t_dims = [dims[a] for a in axes]
    if int(np.prod(t_dims)) != op.dim:
        raise QsimError(
            f"operator dim {op.dim} does not match targets {op.targets} with dims {t_dims}"
        )
    d = state.dim
    eye = np.eye(d, dtype=complex).reshape(list(dims) + [d])
    out = _apply_left(op.matrix, axes, t_dims, eye)
    return out.reshape(d, d)


# -- operations ----------------------------------------------------------------


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
    eye = np.eye(kraus[0].dim)
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


def partial_trace(state: QuantumState, keep) -> QuantumState:
    """Reduced density matrix over ``keep`` labels (in state order)."""
    keep = list(keep)
    if not keep:
        raise QsimError("partial_trace needs a non-empty keep list")
    for label in keep:
        state.index_of(label)  # raises on unknown labels
    keep_idx = sorted(state.index_of(label) for label in keep)
    rho = state.to_density()
    n = len(state.subsystems)
    dims = list(state.dims)
    tensor_rho = rho.data.reshape(dims + dims)
    traced = [i for i in range(n) if i not in keep_idx]
    for count, axis in enumerate(sorted(traced)):
        ax = axis - count  # axes shift down as earlier ones are traced out
        cur_n = n - count
        tensor_rho = np.trace(tensor_rho, axis1=ax, axis2=ax + cur_n)
    kept_specs = tuple(state.subsystems[i] for i in keep_idx)
    d = int(np.prod([s.dim for s in kept_specs]))
    return QuantumState(kept_specs, tensor_rho.reshape(d, d), "mixed")


def expectation(state: QuantumState, obs: Operator) -> float:
    """Tr(rho O) for a Hermitian observable; the residual imaginary part must vanish."""
    if not obs.is_hermitian():
        raise QsimError("observable is not Hermitian within tolerance")
    m = embedded_matrix(obs, state)
    if state.is_pure:
        val = complex(np.vdot(state.data, m @ state.data))
    else:
        val = complex(np.trace(m @ state.data))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise QsimError(f"expectation value has imaginary part {val.imag}")
    return float(val.real)
