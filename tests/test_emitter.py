"""Emitter model tests: initialization, pulse channel, branching imperfections."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tpcsim.analysis import AnalysisParams
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
    kron,
    lorentzian_cross_excitation,
    mw_rotation_kraus,
    readout_click_probability,
)
from tpcsim.qsim import SubsystemSpec

from conftest import basis_ket, channel, first_bin, partial_trace, pulse_kraus, tensor, with_empty_bins


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
    return np.eye(SPIN_DIM, dtype=complex)[level]


def spin_rho(level):
    return np.outer(spin_ket(level), spin_ket(level))


def optical_pi_pulse(spin, params):
    """(spin, bin1) density matrix after the first optical pulse of a sequence."""
    return first_bin(channel(pulse_kraus(params, 1), with_empty_bins(spin)))


def kraus_is_trace_preserving(kraus, domain=None):
    """sum K^dag K is the projector ``domain`` (the identity when None)."""
    total = sum(k.conj().T @ k for k in kraus)
    return np.allclose(total, np.eye(len(total)) if domain is None else domain, atol=1e-10)


def fresh_bin_projector(pulse_index):
    """I_spin x |vac><vac| on the bin that optical pulse ``pulse_index`` writes
    (1: bin 1, 2: bin 2), x I on the other bin, on (spin, bin1, bin2): a pulse
    writes an empty bin, so its set is trace-preserving on that domain only."""
    vac = np.diag([1.0, 0.0])
    bins = np.kron(vac, np.eye(2)) if pulse_index == 1 else np.kron(np.eye(2), vac)
    return np.kron(np.eye(SPIN_DIM), bins)


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
        assert abs(state[LVL_GM1, LVL_GM1] - 1.0) < 1e-12

    def test_published_fidelity_split(self):
        state = initialize_spin(EmitterParams(init_fidelity=0.979))
        diag = np.real(np.diag(state))
        assert abs(diag[LVL_G0] - 0.0105) < 1e-12
        assert abs(diag[LVL_GM1] - 0.979) < 1e-12
        assert abs(diag[LVL_GP1] - 0.0105) < 1e-12

    def test_one_third_gives_mixed_ground_manifold(self):
        state = initialize_spin(EmitterParams(init_fidelity=1.0 / 3.0))
        diag = np.real(np.diag(state))
        assert np.allclose(diag[:3], 1.0 / 3.0, atol=1e-12)
        assert np.allclose(diag[3:], 0.0)


class TestMwRotation:
    def test_pure_rotation_at_full_polarization(self):
        kraus = mw_rotation_kraus(np.pi / 2, ideal_params())
        assert len(kraus) == 1
        out = channel(kraus, spin_rho(LVL_GM1))
        expected = np.zeros(SPIN_DIM, dtype=complex)
        expected[LVL_G0] = -1 / np.sqrt(2)
        expected[LVL_GM1] = 1 / np.sqrt(2)
        assert np.allclose(out, np.outer(expected, expected.conj()), atol=1e-12)

    def test_dephasing_weight_scales_coherence(self):
        w = 0.7
        kraus = mw_rotation_kraus(np.pi / 2, ideal_params(nuclear_pol=w))
        assert kraus_is_trace_preserving(kraus)
        out = channel(kraus, spin_rho(LVL_GM1))
        # populations are those of the perfect rotation, coherence is scaled by w
        assert abs(out[LVL_G0, LVL_G0].real - 0.5) < 1e-12
        assert abs(out[LVL_G0, LVL_GM1] + 0.5 * w) < 1e-12

    def test_populations_after_rotation_unaffected_by_dephasing(self):
        for w in (1.0, 0.5, 0.0):
            kraus = mw_rotation_kraus(np.pi / 3, ideal_params(nuclear_pol=w))
            out = channel(kraus, spin_rho(LVL_GM1))
            assert abs(out[LVL_G0, LVL_G0].real - np.sin(np.pi / 6) ** 2) < 1e-12


class TestBranchChannels:
    """Shelving and excited-state spin mixing, as branches of the optical pulse."""

    def test_shelving_identity_at_zero(self):
        # cross excitation without shelving never reaches the shelf
        out = optical_pi_pulse(spin_ket(LVL_GM1), ideal_params(p_cross=1.0))
        assert abs(out[LVL_MS * 2 + BIN_VAC, LVL_MS * 2 + BIN_VAC]) < 1e-12
        assert abs(out[LVL_GM1 * 2 + BIN_VAC, LVL_GM1 * 2 + BIN_VAC].real - 1.0) < 1e-12

    def test_shelving_half_from_excited(self):
        params = ideal_params(p_cross=1.0, p_shelve=0.5)
        out = optical_pi_pulse(spin_ket(LVL_GM1), params)
        assert abs(out[LVL_MS * 2 + BIN_VAC, LVL_MS * 2 + BIN_VAC].real - 0.5) < 1e-12

    def test_shelving_composition(self):
        # two pulses at p: MS population 1 - (1 - p)^2
        params = ideal_params(p_cross=1.0, p_shelve=0.5)
        out = channel(pulse_kraus(params, 1), with_empty_bins(spin_ket(LVL_GM1)))
        out = channel(pulse_kraus(params, 2), out)
        ms = np.trace(out.reshape(SPIN_DIM, 4, SPIN_DIM, 4)[LVL_MS, :, LVL_MS, :]).real
        assert abs(ms - 0.75) < 1e-12

    def test_channels_trace_preserving(self):
        params = ideal_params(p_shelve=0.3, p_spin_flip=0.4)
        assert kraus_is_trace_preserving(pulse_kraus(params, 1), fresh_bin_projector(1))
        assert kraus_is_trace_preserving(pulse_kraus(ideal_params(p_cross=0.2, p_shelve=0.3), 2), fresh_bin_projector(2))

    @pytest.mark.parametrize("pulse_index", [1, 2])
    def test_fresh_bin_trace_check_bites(self, pulse_index):
        # every branch of weight > 0 is needed for the sum, and an operator on
        # the occupied target bin, which no state reaches, breaks it: with it
        # the set would be trace-preserving on the whole space instead
        kraus = pulse_kraus(ideal_params(p_cross=0.2, p_shelve=0.3, p_spin_flip=0.4, zpl_fraction=0.5), pulse_index)
        fresh = fresh_bin_projector(pulse_index)
        assert kraus_is_trace_preserving(kraus, fresh)
        assert not kraus_is_trace_preserving(kraus, fresh_bin_projector(3 - pulse_index))
        for k in range(len(kraus)):
            assert not kraus_is_trace_preserving(kraus[:k] + kraus[k + 1 :], fresh)
        occupied = np.eye(28) - fresh
        assert not kraus_is_trace_preserving(kraus + [occupied], fresh)
        assert kraus_is_trace_preserving(kraus + [occupied])

    def test_spin_flip_moves_population_across_excited_manifold(self):
        # the resonant excitation decays back to |0> or, mixed, to |-1> and |+1>
        params = ideal_params(p_spin_flip=0.4)
        out = optical_pi_pulse(spin_ket(LVL_G0), params)
        diag = np.real(np.diag(out))
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
                            assert kraus_is_trace_preserving(pulse_kraus(params, 1), fresh_bin_projector(1))

    def test_ideal_pulse_entangles_photon_number(self):
        # psi0 (x) |vac> -> (|-1,0> - |0,1>)/sqrt2
        psi0 = np.zeros(SPIN_DIM, dtype=complex)
        psi0[LVL_G0] = -1 / np.sqrt(2)
        psi0[LVL_GM1] = 1 / np.sqrt(2)
        out = optical_pi_pulse(psi0, ideal_params())
        expected = np.zeros(SPIN_DIM * 2, dtype=complex)
        expected[LVL_G0 * 2 + BIN_OCC] = -1 / np.sqrt(2)
        expected[LVL_GM1 * 2 + BIN_VAC] = 1 / np.sqrt(2)
        assert np.allclose(out, np.outer(expected, expected.conj()), atol=1e-12)

    def test_no_resonant_transition_leaves_state(self):
        out = optical_pi_pulse(spin_ket(LVL_GM1), ideal_params())
        diag = np.real(np.diag(out))
        assert abs(diag[LVL_GM1 * 2 + BIN_VAC] - 1.0) < 1e-12

    def test_deterministic_shelving_via_cross_excitation(self):
        params = ideal_params(p_cross=1.0, p_shelve=1.0)
        out = optical_pi_pulse(spin_ket(LVL_GM1), params)
        diag = np.real(np.diag(out))
        assert abs(diag[LVL_MS * 2 + BIN_VAC] - 1.0) < 1e-12
        # no photon amplitude anywhere
        occ = sum(diag[i * 2 + BIN_OCC] for i in range(SPIN_DIM))
        assert occ < 1e-12

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
        out = optical_pi_pulse(psi0, params)

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

        assert abs(np.trace(out) - 1.0) < 1e-10
        assert np.allclose(out, expected, atol=1e-10)


class TestReadout:
    def test_bright_state_default(self):
        assert abs(readout_click_probability(1.0, EmitterParams()) - 0.167) < 1e-12

    def test_dark_state_zero(self):
        assert readout_click_probability(0.0, EmitterParams()) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(readout_click_probability(0.5, EmitterParams()) - 0.0835) < 1e-12

    def test_dark_click_term(self):
        # the dark level clicks with the dark-click probability and the bright
        # level with p_readout_click, whatever the dark-click probability
        p = readout_click_probability(0.0, EmitterParams(), dark_click=0.01)
        assert abs(p - 0.01) < 1e-12
        assert readout_click_probability(1.0, EmitterParams(p_readout_click=1.0), dark_click=0.01) == 1.0
        assert abs(readout_click_probability(1.0, EmitterParams(), dark_click=0.01) - 0.167) < 1e-12

    def test_analysis_inverts_the_click_probability(self):
        # the sampler's readout response and the analysis's inversion are one affine rule
        q = np.linspace(0.0, 1.0, 101)
        for p in (0.05, 0.167, 0.5, 1.0):
            for d in (0.0, 0.001, 0.03, 0.5 * p, 0.99 * p):
                f = readout_click_probability(q, EmitterParams(p_readout_click=p), dark_click=d)
                back = AnalysisParams(p_readout_click=p, readout_dark_click=d).invert_click_fraction(f)
                assert np.max(np.abs(back - q)) < 1e-12, (p, d)

    def test_works_on_composite_states(self):
        spin = basis_ket((SubsystemSpec("spin", SPIN_DIM),), (LVL_G0,))
        joint = tensor(spin, basis_ket((SubsystemSpec("pol", 2),), (0,)))
        p_bright = partial_trace(joint, ["spin"]).data[LVL_G0, LVL_G0].real
        p = readout_click_probability(np.array([p_bright, 0.0]), EmitterParams())
        assert np.allclose(p, [0.167, 0.0], atol=1e-12)


# real or complex matrices of 1 to 5 rows and columns, many of whose entries are
# +0 or -0; no product of two entries overflows
_ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e100, 1e100))
_MATRICES = st.one_of(
    arrays(np.float64, st.tuples(st.integers(1, 5), st.integers(1, 5)), elements=_ENTRY),
    arrays(np.complex128, st.tuples(st.integers(1, 5), st.integers(1, 5)), elements=st.builds(complex, _ENTRY, _ENTRY)),
)


class TestKron:
    @settings(max_examples=300, deadline=None, database=None)
    @example(a=np.array([[-0.0 + 1j, 2.0 - 0.0j]]), b=np.array([[-1.0, 0.0], [-0.0, 3.0]]))
    @given(a=_MATRICES, b=_MATRICES)
    def test_equals_numpy_kron_bit_for_bit(self, a, b):
        # the same single product per entry, signed zeros and mixed real and complex factors included
        expected = np.kron(a, b)
        got = kron(a, b)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
