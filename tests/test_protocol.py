"""Protocol engine tests: sequence shape, ideal algebra, noisy channels, chains."""
import numpy as np
import pytest

from tpcsim.emitter import LVL_G0, LVL_GM1, SPIN_DIM
from tpcsim.events import ERASED, DetectionParams, simulate_cycles
from tpcsim.optics import InterferometerConfig, POL_H, POL_V
from tpcsim.protocol import (
    ProtocolConfig,
    ProtocolError,
    _evolve,
    as_qubit_pair,
    build_sequence,
    chain_generators,
    format_sequence,
    pulse_times,
    run_ideal,
    run_noisy,
    stabilizer_check,
)
from tpcsim.qsim import QuantumState, SubsystemSpec, expectation, Operator

from conftest import apply, bell_target, fidelity_to, ideal_emitter


def make_sequence(n_photons=1, prep_sign="minus", chain_mode="cluster", period=2_000_000.0):
    cfg = ProtocolConfig(
        n_photons=n_photons, prep_sign=prep_sign, chain_mode=chain_mode, cycle_period_ns=period
    )
    return build_sequence(cfg, InterferometerConfig())


def brute_force_chain(n, prep_sign="minus", chain_mode="cluster"):
    """Independent construction of the ideal chain state at phase 0.

    Explicit matrix algebra: R_y rotations on the spin axis and the per-block
    isometry |0> -> |-1>|H>, |-1> -> -|0>|V> applied by hand, with the new
    photon axis moved behind the earlier ones. Ordering: (spin, photon1, ...).
    """
    c = 1 / np.sqrt(2)
    r_half = np.array([[c, -c], [c, c]])
    r_full = np.array([[0.0, -1.0], [1.0, 0.0]])
    block = np.zeros((4, 2))  # (spin x new photon) <- spin
    block[1 * 2 + POL_H, 0] = 1.0
    block[0 * 2 + POL_V, 1] = -1.0

    psi = np.array([0.0, 1.0])  # |-1>
    psi = (r_half if prep_sign == "minus" else r_half.T) @ psi
    inter = r_half if chain_mode == "cluster" else r_full
    for k in range(1, n + 1):
        if k > 1:
            psi = np.einsum("ab,b...->a...", inter, psi.reshape((2,) + (2,) * (k - 1)))
        psi = np.einsum("ab,b...->a...", block.reshape(2, 2, 2).reshape(4, 2), psi.reshape(2, -1).reshape((2,) + (2,) * (k - 1)))
        # new photon axis currently sits right behind the spin; move it last
        psi = psi.reshape((2, 2) + (2,) * (k - 1))
        psi = np.moveaxis(psi, 1, k)
    return psi.reshape(-1)


class TestBuildSequence:
    def test_single_photon_step_kinds(self):
        steps = make_sequence(1)
        kinds = [s.kind for s in steps]
        assert kinds == [
            "green_init",
            "pump_init",
            "mw_rotation",
            "optical_pulse",
            "mw_rotation",
            "optical_pulse",
            "tomography_rotation",
            "readout",
        ]

    def test_pulse_spacing_equals_delay(self):
        steps = make_sequence(3)
        times = pulse_times(steps)
        assert len(times) == 6
        gaps = np.diff(times)
        assert np.allclose(gaps, 262.0)

    def test_interleaved_rotations_for_two_photons(self):
        steps = make_sequence(2)
        thetas = [s.theta for s in steps if s.kind == "mw_rotation"]
        assert np.allclose(thetas, [np.pi / 2, np.pi, np.pi / 2, np.pi])

    def test_ghz_mode_uses_full_flip_between_blocks(self):
        steps = make_sequence(2, chain_mode="ghz")
        thetas = [s.theta for s in steps if s.kind == "mw_rotation"]
        assert np.allclose(thetas, [np.pi / 2, np.pi, np.pi, np.pi])

    def test_zero_basis_variant(self):
        cfg = ProtocolConfig(tomo_theta=0.0, cycle_period_ns=2_000_000.0)
        steps = build_sequence(cfg, InterferometerConfig())
        tomo = [s for s in steps if s.kind == "tomography_rotation"]
        assert tomo[0].theta == 0.0

    def test_step_times_never_decrease(self):
        # the comb and the stage durations order the steps by construction
        for n in (1, 2, 3, 4):
            for delay in (50.0, 262.0, 1000.0):
                for period in (1e6, 3e6):
                    steps = build_sequence(ProtocolConfig(n_photons=n, cycle_period_ns=period), InterferometerConfig(delay_ns=delay))
                    times = [s.time_ns for s in steps]
                    assert all(b >= a for a, b in zip(times, times[1:]))

    def test_period_too_short_rejected(self):
        cfg = ProtocolConfig(cycle_period_ns=100.0)
        with pytest.raises(ProtocolError):
            build_sequence(cfg, InterferometerConfig())

    def test_window_centers_match_second_pulse(self):
        # a path-erased photon arrives at the emission time of its second pulse
        cfg = ProtocolConfig(n_photons=2, cycle_period_ns=2_000_000.0)
        ifm = InterferometerConfig()
        times = pulse_times(build_sequence(cfg, ifm))
        det = DetectionParams(zpl_efficiency=1.0, seed=3, alternate_preps=False)
        recs = simulate_cycles(200, ideal_emitter(), ifm, cfg, det)
        erased = recs[recs["arrival_class"] == ERASED]
        offsets = erased["t_ns"] - erased["cycle_id"] * cfg.cycle_period_ns
        first, second = np.isclose(offsets, times[1]), np.isclose(offsets, times[3])
        assert first.any() and second.any()
        assert np.all(first | second)

    def test_format_sequence_prints_table(self):
        text = format_sequence(make_sequence(1))
        assert "optical_pulse" in text and "mw_rotation" in text


class TestRunIdeal:
    def test_checkpoints_reproduce_published_states(self):
        # the executor's states live on (spin, bin1, bin2): amplitude index spin * 4 + bin1 * 2 + bin2
        steps = make_sequence(1)
        named = {name: rho for name, rho, _ in _evolve(steps, ideal_emitter(), InterferometerConfig())}

        expected = np.zeros(SPIN_DIM * 4, dtype=complex)  # (|-1> - |0>)/sqrt2, bins empty
        expected[0 * 4] = -1 / np.sqrt(2)
        expected[1 * 4] = 1 / np.sqrt(2)
        assert abs(np.vdot(expected, named["prepared"] @ expected) - 1.0) < 1e-10

        expected = np.zeros(SPIN_DIM * 4, dtype=complex)  # (|-1,vac> - |0,photon>)/sqrt2
        expected[1 * 4 + 0 * 2] = 1 / np.sqrt(2)
        expected[0 * 4 + 1 * 2] = -1 / np.sqrt(2)
        assert abs(np.vdot(expected, named["after_pulse_1"] @ expected) - 1.0) < 1e-10

        expected = np.zeros(SPIN_DIM * 4, dtype=complex)  # (|0,vac> + |-1,photon>)/sqrt2
        expected[0 * 4 + 0 * 2] = 1 / np.sqrt(2)
        expected[1 * 4 + 1 * 2] = 1 / np.sqrt(2)
        assert abs(np.vdot(expected, named["after_flip_1"] @ expected) - 1.0) < 1e-10

        assert fidelity_to(run_ideal(steps, phi=0.0), bell_target(0.0)) > 1.0 - 1e-10

    def test_minus_prep_gives_bell_plus(self):
        final = run_ideal(make_sequence(1, "minus"), phi=0.0)
        assert fidelity_to(final, bell_target(0.0)) > 1.0 - 1e-10

    def test_plus_prep_gives_orthogonal_bell(self):
        # hand propagation of (|-1> + |0>)/sqrt2 gives (|0,V> - |-1,H>)/sqrt2
        final = run_ideal(make_sequence(1, "plus"), phi=0.0)
        minus_bell = bell_target(np.pi)  # (|0,V> - |-1,H>)/sqrt2
        assert fidelity_to(final, minus_bell) > 1.0 - 1e-10
        assert fidelity_to(final, bell_target(0.0)) < 1e-10

    def test_phase_appears_on_long_arm_component(self):
        for phi in (0.3, 1.2, np.pi):
            final = run_ideal(make_sequence(1), phi=phi)
            assert fidelity_to(final, bell_target(phi)) > 1.0 - 1e-10

    def test_phase_compensation_property(self):
        # rotating the photon phase of the phi output back reproduces phi = 0
        rng = np.random.default_rng(4)
        for phi in rng.uniform(0, 2 * np.pi, 5):
            out_phi = run_ideal(make_sequence(1), phi=float(phi))
            comp = Operator(np.diag([np.exp(-1j * phi), 1.0]), ("photon1",))
            rotated = apply(out_phi, comp)
            assert fidelity_to(rotated, bell_target(0.0)) > 1.0 - 1e-10

    def test_three_photon_chain_matches_brute_force(self):
        for n in (2, 3):
            final = run_ideal(make_sequence(n), phi=0.0)
            expected = brute_force_chain(n)
            got = final.data
            assert abs(abs(np.vdot(expected, got)) - 1.0) < 1e-10


class TestRunNoisy:
    def test_ideal_limit_matches_run_ideal(self):
        steps = make_sequence(1)
        ifm = InterferometerConfig()
        noisy = run_noisy(steps, ideal_emitter(), ifm)
        assert abs(noisy.trace() - 0.5) < 1e-10  # heralding probability
        normalized = noisy.normalized()
        target = run_ideal(steps, phi=0.0)
        pair = as_qubit_pair(normalized)
        fid = np.real(target.data.conj() @ pair.data @ target.data)
        assert fid > 1.0 - 1e-10
        # a two-level spin is already the qubit pair
        ideal_pair = as_qubit_pair(target)
        assert ideal_pair.labels == target.labels
        assert np.array_equal(ideal_pair.data, target.to_density().data)

    def test_init_mixture_oracle(self):
        # branch mixing by hand: |-1> (w=f) heralds into the target Bell state,
        # the |0> residual (w=(1-f)/2) heralds into the orthogonal one, and the
        # |+1> residual emits nothing. Heralded fidelity = f / (f + (1-f)/2).
        f = 0.5
        steps = make_sequence(1)
        noisy = run_noisy(steps, ideal_emitter(init_fidelity=f), InterferometerConfig())
        expected_trace = (f + (1 - f) / 2) * 0.5
        assert abs(noisy.trace() - expected_trace) < 1e-10
        pair = as_qubit_pair(noisy.normalized())
        fid = fidelity_to(pair, bell_target(0.0))
        assert abs(fid - f / (f + (1 - f) / 2)) < 1e-10

    def test_full_photon_dephasing_kills_only_coherence(self):
        steps = make_sequence(1)
        ifm = InterferometerConfig(erasure_visibility=0.0)
        pair = as_qubit_pair(run_noisy(steps, ideal_emitter(), ifm).normalized())
        diag = np.real(np.diag(pair.data))
        assert abs(diag[0 * 2 + POL_V] - 0.5) < 1e-10
        assert abs(diag[1 * 2 + POL_H] - 0.5) < 1e-10
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        assert abs(expectation(pair, Operator(np.kron(sx, sx), ("spin", "photon1")))) < 1e-10

    def test_fidelity_approaches_one_as_imperfections_vanish(self):
        steps = make_sequence(1)
        target = bell_target(0.0)
        fids = []
        for scale in (1.0, 0.5, 0.2, 0.0):
            params = ideal_emitter(
                init_fidelity=1.0 - 0.05 * scale,
                nuclear_pol=1.0 - 0.2 * scale,
                p_spin_flip=0.1 * scale,
                pi_pulse_error=0.05 * scale,
            )
            pair = as_qubit_pair(run_noisy(steps, params, InterferometerConfig()).normalized())
            fids.append(fidelity_to(pair, target))
        assert all(b >= a - 1e-12 for a, b in zip(fids, fids[1:]))
        assert fids[-1] > 1.0 - 1e-10

    @pytest.mark.parametrize(
        "knob,values",
        [
            ("p_shelve", [0.0, 0.2, 0.5, 0.9]),
            ("p_spin_flip", [0.0, 0.2, 0.5, 0.9]),
            ("pi_pulse_error", [0.0, 0.2, 0.5, 0.9]),
            ("zpl_fraction", [1.0, 0.7, 0.4, 0.1]),
        ],
    )
    def test_herald_probability_monotone_in_loss_knobs(self, knob, values):
        steps = make_sequence(1)
        ifm = InterferometerConfig()
        probs = []
        for v in values:
            params = ideal_emitter(**{knob: v})
            # shelving only acts through a populated branch; pair it with mixing
            if knob == "p_shelve":
                params = ideal_emitter(p_shelve=v, p_spin_flip=0.3)
            probs.append(run_noisy(steps, params, ifm).trace())
        assert all(b <= a + 1e-12 for a, b in zip(probs, probs[1:]))

    def test_trace_is_herald_probability_for_two_photons(self):
        steps = make_sequence(2)
        noisy = run_noisy(steps, ideal_emitter(), InterferometerConfig())
        assert abs(noisy.trace() - 0.25) < 1e-10

    def test_step_list_ending_between_pulses_rejected(self):
        steps = make_sequence(1)
        last_pulse = max(i for i, step in enumerate(steps) if step.kind == "optical_pulse")
        with pytest.raises(ProtocolError):
            run_noisy(steps[:last_pulse], ideal_emitter(), InterferometerConfig())

    def test_active_switch_heralds_deterministically(self):
        steps = make_sequence(2)
        noisy = run_noisy(steps, ideal_emitter(), InterferometerConfig(active_switch=True))
        assert abs(noisy.trace() - 1.0) < 1e-10


class TestQubitReduction:
    def test_dark_levels_lump_into_lower_row(self):
        spin7 = SubsystemSpec("spin", 7)
        pol = SubsystemSpec("photon1", 2)
        rho = np.zeros((14, 14), dtype=complex)
        rho[LVL_G0 * 2 + POL_V, LVL_G0 * 2 + POL_V] = 0.4
        rho[LVL_GM1 * 2 + POL_H, LVL_GM1 * 2 + POL_H] = 0.4
        rho[6 * 2 + POL_H, 6 * 2 + POL_H] = 0.2  # shelf population with an H photon
        state = QuantumState((spin7, pol), rho, "mixed")
        pair = as_qubit_pair(state)
        assert abs(pair.data[1 * 2 + POL_H, 1 * 2 + POL_H].real - 0.6) < 1e-12
        assert abs(pair.trace() - 1.0) < 1e-12

    def test_two_photon_state_refused(self):
        # the measured pair is the spin and the one photon of a single-photon run
        heralded = run_noisy(make_sequence(2), ideal_emitter(), InterferometerConfig()).normalized()
        with pytest.raises(ProtocolError, match="photon1"):
            as_qubit_pair(heralded)


class TestStabilizers:
    def test_single_photon_generators_are_bell_stabilizers(self):
        gens = chain_generators(1)
        assert (1, "X", ["X"]) in gens
        assert (-1, "Z", ["Z"]) in gens

    def test_ideal_outputs_stabilized(self):
        for n in (1, 2, 3):
            state = run_ideal(make_sequence(n), phi=0.0)
            values = stabilizer_check(state, n)
            assert len(values) == n + 1
            assert np.allclose(values, 1.0, atol=1e-9)

    def test_ghz_mode_outputs_stabilized_by_ghz_generators(self):
        for n in (2, 3):
            state = run_ideal(make_sequence(n, chain_mode="ghz"), phi=0.0)
            values = stabilizer_check(state, n, chain_mode="ghz")
            assert np.allclose(values, 1.0, atol=1e-9)

    def test_plus_prep_generators(self):
        state = run_ideal(make_sequence(1, prep_sign="plus"), phi=0.0)
        values = stabilizer_check(state, 1, prep_sign="plus")
        assert np.allclose(values, 1.0, atol=1e-9)

    @pytest.mark.parametrize("chain_mode,prep_sign", [("Cluster", "minus"), ("cluster", "Minus"), ("linear", "plus")])
    def test_unknown_mode_or_sign_refused(self, chain_mode, prep_sign):
        # the vocabulary of ProtocolConfig: a misspelt mode or sign is not read as ghz or plus
        state = run_ideal(make_sequence(2), phi=0.0)
        with pytest.raises(ProtocolError, match="must be"):
            stabilizer_check(state, 2, chain_mode, prep_sign)

    def test_spin_letters_are_x_or_z(self):
        # the only spin letters stabilizer_check embeds on the qubit block
        for n in range(1, 9):
            for chain_mode in ("cluster", "ghz"):
                for prep_sign in ("minus", "plus"):
                    letters = {spin for _, spin, _ in chain_generators(n, chain_mode, prep_sign)}
                    assert letters <= {"X", "Z"}, (n, chain_mode, prep_sign)

    def test_maximally_mixed_state_scores_zero(self):
        subs = (SubsystemSpec("spin", 2), SubsystemSpec("photon1", 2))
        mixed = QuantumState(subs, np.eye(4, dtype=complex) / 4.0, "mixed")
        values = stabilizer_check(mixed, 1)
        assert np.allclose(values, 0.0, atol=1e-12)

    def test_brute_force_states_are_plus_one_eigenstates(self):
        # oracle-level check: generators evaluated on the independently built states
        from tpcsim.protocol import _PAULI

        for n in (1, 2, 3):
            psi = brute_force_chain(n)
            for sign, spin_letter, photon_letters in chain_generators(n):
                mat = sign * _PAULI[spin_letter]
                for letter in photon_letters:
                    mat = np.kron(mat, _PAULI[letter])
                val = np.vdot(psi, mat @ psi).real
                assert abs(val - 1.0) < 1e-9
