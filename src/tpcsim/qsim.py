"""Labelled states and observables: what the exact executors return.

The executors in ``protocol`` evolve plain matrices. Their results are
labelled here as states on an ordered list of finite-dimensional subsystems,
stored as pure amplitude vectors or density matrices, and read out through
partial traces and expectation values. Everything is value-semantic: no
function mutates its arguments.

Total dimensions in this project stay below ~2048, so all storage is dense.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALG_TOL = 1e-10        # tolerance for algebraic identities (norms, hermiticity)


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


# -- observables ---------------------------------------------------------------


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
