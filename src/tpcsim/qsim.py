"""Labelled states and observables: what the exact executors return.

The executors in ``protocol`` evolve plain matrices. Their results are
labelled here as states on an ordered list of finite-dimensional subsystems,
stored as pure amplitude vectors or density matrices, and read out through
expectation values of observables on the whole layout. Everything is
value-semantic: no function mutates its arguments.

Total dimensions in this project stay below ~2048, so all storage is dense.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_HERMITIAN_TOL = 1e-10  # how far an observable may be from its adjoint


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
            return QuantumState(self.subsystems, self.data.copy(), "mixed")
        rho = np.outer(self.data, self.data.conj())
        return QuantumState(self.subsystems, rho, "mixed")


# -- observables ---------------------------------------------------------------


def expectation(state: QuantumState, obs: Operator) -> float:
    """Tr(rho O) for a Hermitian observable on all of ``state``'s subsystems, in
    order; the residual imaginary part must vanish."""
    if obs.targets != state.labels:
        raise QsimError(f"observable targets {obs.targets} are not the state's subsystems {state.labels}")
    m = obs.matrix
    if not np.allclose(m, m.conj().T, atol=_HERMITIAN_TOL):
        raise QsimError("observable is not Hermitian within tolerance")
    if state.is_pure:
        val = complex(np.vdot(state.data, m @ state.data))
    else:
        val = complex(np.trace(m @ state.data))
    if abs(val.imag) > 1e-8 * max(1.0, abs(val.real)):
        raise QsimError(f"expectation value has imaginary part {val.imag}")
    return float(val.real)
