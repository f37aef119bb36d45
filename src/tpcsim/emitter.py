"""Emitter level structure, conditional optical pulses, and imperfection channels.

The spin carries seven levels: three optical ground states, three excited
states, and one metastable shelf. Basis ordering is fixed once here and every
other module refers to these index constants, never to raw integers:

    0: |0>      ground, m_s = 0        (resonantly driven level)
    1: |-1>     ground, m_s = -1       (second qubit level)
    2: |+1>     ground, m_s = +1
    3: |0_e>    excited, m_s = 0
    4: |-1_e>   excited, m_s = -1
    5: |+1_e>   excited, m_s = +1
    6: MS       metastable shelf (loss within one cycle)

Time-bin modes are two-level occupation subsystems (0: vacuum, 1: one photon).
Channels are lists of plain Kraus matrices: on the seven spin levels for a
microwave rotation, on (spin, time bin) for an optical pulse.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin

import numpy as np

LVL_G0 = 0
LVL_GM1 = 1
LVL_GP1 = 2
LVL_E0 = 3
LVL_EM1 = 4
LVL_EP1 = 5
LVL_MS = 6
SPIN_DIM = 7
SPIN = "spin"

BIN_VAC = 0
BIN_OCC = 1


class EmitterModelError(ValueError):
    pass


@dataclass
class EmitterParams:
    """All branching and fidelity parameters of the emitter.

    ``p_cross`` may be the string ``"auto"``, in which case it is derived from
    the optical detuning through a Lorentzian line factor with the configured
    linewidth. Probabilities are dimensionless; detuning is GHz, linewidth MHz.
    """

    p_cross: float | str = "auto"
    detuning_ghz: float = 0.87
    linewidth_mhz: float = 13.0
    zpl_fraction: float = 0.03
    p_shelve: float = 0.0
    p_spin_flip: float = 0.0
    init_fidelity: float = 0.979
    nuclear_pol: float = 0.838
    p_readout_click: float = 0.167
    pi_pulse_error: float = 0.0

    def resolved_p_cross(self) -> float:
        if self.p_cross == "auto":
            return lorentzian_cross_excitation(self.detuning_ghz, self.linewidth_mhz)
        return float(self.p_cross)

    def validate(self) -> None:
        # the line parameters come first: an automatic p_cross is resolved from them
        if self.detuning_ghz < 0:
            raise EmitterModelError(f"detuning_ghz must be >= 0, got {self.detuning_ghz}")
        if self.linewidth_mhz <= 0:
            raise EmitterModelError(f"linewidth_mhz must be > 0, got {self.linewidth_mhz}")
        probs = {
            "p_shelve": self.p_shelve,
            "p_spin_flip": self.p_spin_flip,
            "init_fidelity": self.init_fidelity,
            "nuclear_pol": self.nuclear_pol,
            "p_readout_click": self.p_readout_click,
            "pi_pulse_error": self.pi_pulse_error,
            "p_cross": self.resolved_p_cross(),
        }
        for name, value in probs.items():
            if not 0.0 <= value <= 1.0:
                raise EmitterModelError(f"{name} must lie in [0, 1], got {value}")
        if not 0.0 < self.zpl_fraction <= 1.0:
            raise EmitterModelError(f"zpl_fraction must lie in (0, 1], got {self.zpl_fraction}")


def lorentzian_cross_excitation(detuning_ghz: float, linewidth_mhz: float) -> float:
    """Off-resonant excitation probability from the Lorentzian line factor."""
    ratio = 2.0 * (detuning_ghz * 1e3) / linewidth_mhz
    return 1.0 / (1.0 + ratio * ratio)


def initialize_spin(params: EmitterParams) -> np.ndarray:
    """Optically pumped spin state as a 7x7 density matrix.

    Population ``init_fidelity`` sits on |-1>; the residual is split evenly
    between |0> and |+1>. Imperfect nuclear polarization is not a quantum
    degree of freedom here; it enters as a dephasing weight on microwave
    rotations (see mw_rotation_kraus).
    """
    params.validate()
    f = params.init_fidelity
    r = (1.0 - f) / 2.0
    pops = np.zeros(SPIN_DIM)
    pops[LVL_GM1] = f
    pops[LVL_G0] = r
    pops[LVL_GP1] = r
    return np.diag(pops.astype(complex))


def _ket(i: int) -> np.ndarray:
    v = np.zeros(SPIN_DIM, dtype=complex)
    v[i] = 1.0
    return v


def _proj(i: int) -> np.ndarray:
    return np.outer(_ket(i), _ket(i).conj())


def _flip(to: int, frm: int) -> np.ndarray:
    return np.outer(_ket(to), _ket(frm).conj())


def qubit_rotation(theta: float) -> np.ndarray:
    """Rotation about y by ``theta`` in the {|0>, |-1>} qubit subspace of the spin.

    The qubit block is [[cos t/2, -sin t/2], [sin t/2, cos t/2]] in the ordered
    basis (|0>, |-1>), so a rotation by pi/2 maps |-1> to (|-1> - |0>)/sqrt2.
    """
    c, s = cos(theta / 2.0), sin(theta / 2.0)
    m = np.eye(SPIN_DIM, dtype=complex)
    m[LVL_G0, LVL_G0] = c
    m[LVL_G0, LVL_GM1] = -s
    m[LVL_GM1, LVL_G0] = s
    m[LVL_GM1, LVL_GM1] = c
    return m


def mw_rotation_kraus(theta: float, params: EmitterParams) -> list[np.ndarray]:
    """Microwave rotation in the {|0>, |-1>} subspace with hyperfine dephasing.

    With weight ``nuclear_pol`` the rotation is exact. The residual nuclear
    population detunes the drive; its effect is modeled as the same rotation
    followed by complete dephasing of the qubit coherence. The channel is
    trace-preserving and leaves post-rotation populations untouched, so spin
    readout immediately after a rotation is unaffected.
    """
    u = qubit_rotation(theta)
    w = params.nuclear_pol
    ops = [np.sqrt(w) * u]
    if w < 1.0:
        rest = np.eye(SPIN_DIM, dtype=complex) - _proj(LVL_G0) - _proj(LVL_GM1)
        for pi in (_proj(LVL_G0), _proj(LVL_GM1), rest):
            ops.append(np.sqrt(1.0 - w) * (pi @ u))
    return ops


def optical_pulse_kraus(params: EmitterParams) -> list[np.ndarray]:
    """Kraus matrices of one optical pi-pulse on (spin, fresh time bin).

    The resonant |0> -> |0_e> drive emits into the collected zero-phonon mode
    with probability ``zpl_fraction``; the no-emission (pulse error) amplitude
    stays coherent with the rest of the state since no environmental record
    distinguishes them. Phonon-sideband decay, excited-state spin mixing, and
    shelving each leave an environmental record and appear as separate Kraus
    branches. Mixed decay that does emit into the zero-phonon line lands in
    the same time bin (the line filter does not resolve the fine-structure
    detuning) but carries the flipped spin. Off-resonant cross excitation of
    |+-1> is followed by shelving / spin-flip / photon-loss branching only;
    its decay photons are never routed into the protocol mode.
    """
    pc = params.resolved_p_cross()
    pe = 1.0 - params.pi_pulse_error
    pf = params.p_spin_flip
    psh = params.p_shelve
    zpl = params.zpl_fraction

    vac_keep = np.zeros((2, 2), dtype=complex)
    vac_keep[BIN_VAC, BIN_VAC] = 1.0
    emit = np.zeros((2, 2), dtype=complex)
    emit[BIN_OCC, BIN_VAC] = 1.0
    occ_keep = np.zeros((2, 2), dtype=complex)
    occ_keep[BIN_OCC, BIN_OCC] = 1.0

    def on_vac(spin_m: np.ndarray) -> np.ndarray:
        return np.kron(spin_m, vac_keep)

    def emitting(spin_m: np.ndarray) -> np.ndarray:
        return np.kron(spin_m, emit)

    ops: list[np.ndarray] = []

    # coherent main branch: emission + unexcited amplitude + undisturbed levels
    main = np.sqrt(pe * (1.0 - pf) * zpl) * emitting(_proj(LVL_G0))
    main += np.sqrt(1.0 - pe) * on_vac(_proj(LVL_G0))
    main += np.sqrt(1.0 - pc) * on_vac(_proj(LVL_GM1) + _proj(LVL_GP1))
    inert = _proj(LVL_MS) + _proj(LVL_E0) + _proj(LVL_EM1) + _proj(LVL_EP1)
    main += on_vac(inert)
    ops.append(main)

    # phonon-sideband decay of the resonant branch: photon lost, spin back in |0>
    if pe * (1.0 - pf) * (1.0 - zpl) > 0:
        ops.append(np.sqrt(pe * (1.0 - pf) * (1.0 - zpl)) * on_vac(_proj(LVL_G0)))

    # excited-state mixing of the resonant branch
    if pe * pf > 0:
        for dst in (LVL_GM1, LVL_GP1):
            amp = pe * pf * (1.0 - psh) / 2.0
            if amp * zpl > 0:
                ops.append(np.sqrt(amp * zpl) * emitting(_flip(dst, LVL_G0)))
            if amp * (1.0 - zpl) > 0:
                ops.append(np.sqrt(amp * (1.0 - zpl)) * on_vac(_flip(dst, LVL_G0)))
        if pe * pf * psh > 0:
            ops.append(np.sqrt(pe * pf * psh) * on_vac(_flip(LVL_MS, LVL_G0)))

    # off-resonant cross excitation of |+-1>
    if pc > 0:
        for src in (LVL_GM1, LVL_GP1):
            back = pc * (1.0 - psh) * (1.0 - pf)
            if back > 0:
                ops.append(np.sqrt(back) * on_vac(_proj(src)))
            flip = pc * (1.0 - psh) * pf
            if flip > 0:
                ops.append(np.sqrt(flip) * on_vac(_flip(LVL_G0, src)))
            if pc * psh > 0:
                ops.append(np.sqrt(pc * psh) * on_vac(_flip(LVL_MS, src)))

    # occupied-bin subspace is inert (never reached when the bin is fresh)
    ops.append(np.kron(np.eye(SPIN_DIM, dtype=complex), occ_keep))
    return ops


def readout_click_probability(p_bright, params: EmitterParams, dark_click: float = 0.0):
    """Probability of a phonon-sideband readout click given the probability
    ``p_bright`` (scalar or array) of the bright level |0>: ``p_readout_click``
    on the bright level and ``dark_click`` on the dark one, the affine response
    that ``AnalysisParams.invert_click_fraction`` inverts."""
    return dark_click + (params.p_readout_click - dark_click) * p_bright
