"""Helpers shared by the test modules."""
import numpy as np

from tpcsim.events import CODES, RECORD_COLUMNS, RECORD_DTYPE
from tpcsim.qsim import ALG_TOL, PSD_EIG_FLOOR, Operator, QsimError, QuantumState

LABELLED_COLUMNS = ("port", "arrival_class", "prep_sign")


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
