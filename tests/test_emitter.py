"""Emitter model tests: initialization, pulse channel, branching imperfections."""
import numpy as np
import pytest

from tpcsim.emitter import (
    BIN_OCC,
    BIN_VAC,
    LVL_G0,
    LVL_GM1,
    LVL_GP1,
    LVL_MS,
    SPIN_DIM,
    EmitterModelError,
    EmitterParams,
    initialize_spin,
    lorentzian_cross_excitation,
    mw_rotation_kraus,
    optical_pi_pulse,
    optical_pulse_kraus,
    readout_click_probability,
    spin_spec,
)
from tpcsim.qsim import (
    QuantumState,
    SubsystemSpec,
    apply_kraus,
    basis_ket,
    partial_trace,
    tensor,
)


def ideal_params(**overrides):
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
    return EmitterParams(**base)


def spin_ket(level):
    return basis_ket((spin_spec(),), (level,))


def kraus_is_trace_preserving(kraus):
    dim = kraus[0].dim
    total = sum(k.matrix.conj().T @ k.matrix for k in kraus)
    return np.allclose(total, np.eye(dim), atol=1e-10)


class TestParams:
    def test_auto_cross_excitation_matches_lorentzian(self):
        p = EmitterParams()
        expected = 1.0 / (1.0 + (2.0 * 870.0 / 13.0) ** 2)
        assert abs(p.resolved_p_cross() - expected) < 1e-12
        # negligible at the published detuning, as claimed
        assert p.resolved_p_cross() < 1e-4
        assert abs(lorentzian_cross_excitation(0.87, 13.0) - 5.582e-5) < 1e-7

    def test_explicit_cross_excitation_passthrough(self):
        assert EmitterParams(p_cross=0.25).resolved_p_cross() == 0.25

    def test_probability_bounds_enforced(self):
        with pytest.raises(EmitterModelError):
            EmitterParams(p_shelve=1.5).validate()
        with pytest.raises(EmitterModelError):
            EmitterParams(zpl_fraction=0.0).validate()


class TestInitializeSpin:
    def test_perfect_init(self):
        state = initialize_spin(ideal_params())
        assert abs(state.data[LVL_GM1, LVL_GM1] - 1.0) < 1e-12

    def test_published_fidelity_split(self):
        state = initialize_spin(EmitterParams(init_fidelity=0.979))
        diag = np.real(np.diag(state.data))
        assert abs(diag[LVL_G0] - 0.0105) < 1e-12
        assert abs(diag[LVL_GM1] - 0.979) < 1e-12
        assert abs(diag[LVL_GP1] - 0.0105) < 1e-12

    def test_one_third_gives_mixed_ground_manifold(self):
        state = initialize_spin(EmitterParams(init_fidelity=1.0 / 3.0))
        diag = np.real(np.diag(state.data))
        assert np.allclose(diag[:3], 1.0 / 3.0, atol=1e-12)
        assert np.allclose(diag[3:], 0.0)


class TestMwRotation:
    def test_pure_rotation_at_full_polarization(self):
        kraus = mw_rotation_kraus(np.pi / 2, ideal_params())
        assert len(kraus) == 1
        out = apply_kraus(spin_ket(LVL_GM1), kraus)
        expected = np.zeros(SPIN_DIM, dtype=complex)
        expected[LVL_G0] = -1 / np.sqrt(2)
        expected[LVL_GM1] = 1 / np.sqrt(2)
        assert np.allclose(out.data, np.outer(expected, expected.conj()), atol=1e-12)

    def test_dephasing_weight_scales_coherence(self):
        w = 0.7
        kraus = mw_rotation_kraus(np.pi / 2, ideal_params(nuclear_pol=w))
        assert kraus_is_trace_preserving(kraus)
        out = apply_kraus(spin_ket(LVL_GM1), kraus)
        # populations are those of the perfect rotation, coherence is scaled by w
        assert abs(out.data[LVL_G0, LVL_G0].real - 0.5) < 1e-12
        assert abs(out.data[LVL_G0, LVL_GM1] + 0.5 * w) < 1e-12

    def test_populations_after_rotation_unaffected_by_dephasing(self):
        for w in (1.0, 0.5, 0.0):
            kraus = mw_rotation_kraus(np.pi / 3, ideal_params(nuclear_pol=w))
            out = apply_kraus(spin_ket(LVL_GM1), kraus)
            assert abs(out.data[LVL_G0, LVL_G0].real - np.sin(np.pi / 6) ** 2) < 1e-12


class TestBranchChannels:
    """Shelving and excited-state spin mixing, as branches of the optical pulse."""

    def test_shelving_identity_at_zero(self):
        # cross excitation without shelving never reaches the shelf
        out = optical_pi_pulse(spin_ket(LVL_GM1), ideal_params(p_cross=1.0), "bin1")
        assert abs(out.data[LVL_MS * 2 + BIN_VAC, LVL_MS * 2 + BIN_VAC]) < 1e-12
        assert abs(out.data[LVL_GM1 * 2 + BIN_VAC, LVL_GM1 * 2 + BIN_VAC].real - 1.0) < 1e-12

    def test_shelving_half_from_excited(self):
        params = ideal_params(p_cross=1.0, p_shelve=0.5)
        out = optical_pi_pulse(spin_ket(LVL_GM1), params, "bin1")
        assert abs(out.data[LVL_MS * 2 + BIN_VAC, LVL_MS * 2 + BIN_VAC].real - 0.5) < 1e-12

    def test_shelving_composition(self):
        # two pulses at p: MS population 1 - (1 - p)^2
        params = ideal_params(p_cross=1.0, p_shelve=0.5)
        out = optical_pi_pulse(spin_ket(LVL_GM1), params, "bin1")
        out = optical_pi_pulse(out, params, "bin2")
        ms = partial_trace(out, ["spin"]).data[LVL_MS, LVL_MS].real
        assert abs(ms - 0.75) < 1e-12

    def test_channels_trace_preserving(self):
        params = ideal_params(p_shelve=0.3, p_spin_flip=0.4)
        assert kraus_is_trace_preserving(optical_pulse_kraus(params, "bin1"))
        assert kraus_is_trace_preserving(optical_pulse_kraus(ideal_params(p_cross=0.2, p_shelve=0.3), "bin1"))

    def test_spin_flip_moves_population_across_excited_manifold(self):
        # the resonant excitation decays back to |0> or, mixed, to |-1> and |+1>
        params = ideal_params(p_spin_flip=0.4)
        out = optical_pi_pulse(spin_ket(LVL_G0), params, "bin1")
        diag = np.real(np.diag(out.data))
        assert abs(diag[LVL_G0 * 2 + BIN_OCC] - 0.6) < 1e-12
        assert abs(diag[LVL_GM1 * 2 + BIN_OCC] - 0.2) < 1e-12
        assert abs(diag[LVL_GP1 * 2 + BIN_OCC] - 0.2) < 1e-12


class TestOpticalPulse:
    def test_kraus_sets_trace_preserving_across_grid(self):
        for zpl in (0.03, 0.5, 1.0):
            for pf in (0.0, 0.2):
                for psh in (0.0, 0.4):
                    for eps in (0.0, 0.1):
                        for pc in (0.0, 0.3):
                            params = ideal_params(
                                zpl_fraction=zpl,
                                p_spin_flip=pf,
                                p_shelve=psh,
                                pi_pulse_error=eps,
                                p_cross=pc,
                            )
                            assert kraus_is_trace_preserving(optical_pulse_kraus(params, "b"))

    def test_ideal_pulse_entangles_photon_number(self):
        # psi0 (x) |vac> -> (|-1,0> - |0,1>)/sqrt2
        psi0 = np.zeros(SPIN_DIM, dtype=complex)
        psi0[LVL_G0] = -1 / np.sqrt(2)
        psi0[LVL_GM1] = 1 / np.sqrt(2)
        state = QuantumState((spin_spec(),), psi0, "pure")
        out = optical_pi_pulse(state, ideal_params(), "bin1")
        expected = np.zeros(SPIN_DIM * 2, dtype=complex)
        expected[LVL_G0 * 2 + BIN_OCC] = -1 / np.sqrt(2)
        expected[LVL_GM1 * 2 + BIN_VAC] = 1 / np.sqrt(2)
        assert np.allclose(out.data, np.outer(expected, expected.conj()), atol=1e-12)

    def test_no_resonant_transition_leaves_state(self):
        out = optical_pi_pulse(spin_ket(LVL_GM1), ideal_params(), "bin1")
        diag = np.real(np.diag(out.data))
        assert abs(diag[LVL_GM1 * 2 + BIN_VAC] - 1.0) < 1e-12

    def test_deterministic_shelving_via_cross_excitation(self):
        params = ideal_params(p_cross=1.0, p_shelve=1.0)
        out = optical_pi_pulse(spin_ket(LVL_GM1), params, "bin1")
        diag = np.real(np.diag(out.data))
        assert abs(diag[LVL_MS * 2 + BIN_VAC] - 1.0) < 1e-12
        # no photon amplitude anywhere
        occ = sum(diag[i * 2 + BIN_OCC] for i in range(SPIN_DIM))
        assert occ < 1e-12

    def test_duplicate_bin_label_rejected(self):
        state = optical_pi_pulse(spin_ket(LVL_G0), ideal_params(), "bin1")
        with pytest.raises(EmitterModelError):
            optical_pi_pulse(state, ideal_params(), "bin1")

    def test_channel_matches_branch_enumeration_oracle(self):
        # expected state assembled from the documented branch amplitudes by hand
        zpl, pf, psh, eps, pc = 0.7, 0.2, 0.3, 0.1, 0.05
        pe = 1.0 - eps
        params = ideal_params(
            zpl_fraction=zpl, p_spin_flip=pf, p_shelve=psh, pi_pulse_error=eps, p_cross=pc
        )
        psi0 = np.zeros(SPIN_DIM, dtype=complex)
        psi0[LVL_G0] = -1 / np.sqrt(2)
        psi0[LVL_GM1] = 1 / np.sqrt(2)
        state = QuantumState((spin_spec(),), psi0, "pure")
        out = optical_pi_pulse(state, params, "b")

        def ket(level, occ):
            v = np.zeros(SPIN_DIM * 2, dtype=complex)
            v[level * 2 + occ] = 1.0
            return v

        a0, am1 = -1 / np.sqrt(2), 1 / np.sqrt(2)
        branches = []
        branches.append(
            a0 * np.sqrt(pe * (1 - pf) * zpl) * ket(LVL_G0, 1)
            + a0 * np.sqrt(eps) * ket(LVL_G0, 0)
            + am1 * np.sqrt(1 - pc) * ket(LVL_GM1, 0)
        )
        branches.append(a0 * np.sqrt(pe * (1 - pf) * (1 - zpl)) * ket(LVL_G0, 0))
        for dst in (LVL_GM1, LVL_GP1):
            branches.append(a0 * np.sqrt(pe * pf * (1 - psh) / 2 * zpl) * ket(dst, 1))
            branches.append(a0 * np.sqrt(pe * pf * (1 - psh) / 2 * (1 - zpl)) * ket(dst, 0))
        branches.append(a0 * np.sqrt(pe * pf * psh) * ket(LVL_MS, 0))
        branches.append(am1 * np.sqrt(pc * (1 - psh) * (1 - pf)) * ket(LVL_GM1, 0))
        branches.append(am1 * np.sqrt(pc * (1 - psh) * pf) * ket(LVL_G0, 0))
        branches.append(am1 * np.sqrt(pc * psh) * ket(LVL_MS, 0))
        expected = sum(np.outer(b, b.conj()) for b in branches)

        assert abs(out.trace() - 1.0) < 1e-10
        assert np.allclose(out.data, expected, atol=1e-10)


class TestReadout:
    def test_bright_state_default(self):
        assert abs(readout_click_probability(1.0, EmitterParams()) - 0.167) < 1e-12

    def test_dark_state_zero(self):
        assert readout_click_probability(0.0, EmitterParams()) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(readout_click_probability(0.5, EmitterParams()) - 0.0835) < 1e-12

    def test_dark_click_term(self):
        p = readout_click_probability(0.0, EmitterParams(), dark_click=0.01)
        assert abs(p - 0.01) < 1e-12
        assert readout_click_probability(1.0, EmitterParams(p_readout_click=1.0), dark_click=0.01) == 1.0

    def test_works_on_composite_states(self):
        joint = tensor(spin_ket(LVL_G0), basis_ket((SubsystemSpec("pol", 2),), (0,)))
        p_bright = partial_trace(joint, ["spin"]).data[LVL_G0, LVL_G0].real
        p = readout_click_probability(np.array([p_bright, 0.0]), EmitterParams())
        assert np.allclose(p, [0.167, 0.0], atol=1e-12)
