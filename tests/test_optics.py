"""Interferometer model tests: routing, classification, conversion, phase."""
from dataclasses import replace

import numpy as np
import pytest

from tpcsim.emitter import EmitterParams
from tpcsim.events import DetectionParams, simulate_cycles
from tpcsim.optics import (
    EARLY,
    ERASED,
    INVALID,
    LATE,
    ArrivalClass,
    InterferometerConfig,
    OpticsModelError,
    POL_H,
    POL_V,
    classify_arrival,
    window_spans,
)
from tpcsim.protocol import ProtocolConfig, ProtocolError, as_qubit_pair, build_sequence, run_ideal, run_noisy

from conftest import hardware_port_states, port_projector, route

IDEAL_EMITTER = dict(
    p_cross=0.0, zpl_fraction=1.0, p_shelve=0.0, p_spin_flip=0.0,
    init_fidelity=1.0, nuclear_pol=1.0, pi_pulse_error=0.0,
)


def one_photon(prep=None, flip=None):
    """The single-photon step list, with the angle of its preparation or flip
    rotation replaced when given."""
    steps = build_sequence(ProtocolConfig(), InterferometerConfig())
    rotations = [i for i, step in enumerate(steps) if step.kind == "mw_rotation"]
    for i, theta in zip(rotations, (prep, flip)):
        if theta is not None:
            steps[i] = replace(steps[i], theta=theta)
    return steps


def herald_probability(ifm, steps=None, **emitter):
    return run_noisy(steps or one_photon(), EmitterParams(**dict(IDEAL_EMITTER, **emitter)), ifm).trace()


class TestRouting:
    def test_four_cases(self):
        cfg = InterferometerConfig()
        t1, t2 = 0.0, cfg.delay_ns
        cases = {
            ("first", "short"): (t1, "V"),
            ("first", "long"): (t1 + cfg.delay_ns, "H"),
            ("second", "short"): (t2, "V"),
            ("second", "long"): (t2 + cfg.delay_ns, "H"),
        }
        for (cycle, arm), expected in cases.items():
            assert route(cycle, arm, t1 if cycle == "first" else t2, cfg) == expected

    def test_first_short_is_earliest(self):
        cfg = InterferometerConfig()
        arrivals = [
            route("first", "short", 0.0, cfg)[0],
            route("first", "long", 0.0, cfg)[0],
            route("second", "short", cfg.delay_ns, cfg)[0],
            route("second", "long", cfg.delay_ns, cfg)[0],
        ]
        assert arrivals[0] == min(arrivals)
        assert arrivals[3] == max(arrivals)

    def test_middle_events_collide_when_spacing_matches_delay(self):
        cfg = InterferometerConfig(delay_ns=262.0)
        t_a, pol_a = route("first", "long", 0.0, cfg)
        t_b, pol_b = route("second", "short", 262.0, cfg)
        assert t_a == t_b
        assert (pol_a, pol_b) == ("H", "V")

    def test_bad_arguments(self):
        cfg = InterferometerConfig()
        with pytest.raises(OpticsModelError):
            route("third", "short", 0.0, cfg)
        with pytest.raises(OpticsModelError):
            route("first", "middle", 0.0, cfg)


class TestClassification:
    def test_window_centers(self):
        cfg = InterferometerConfig()
        t_ref = 500.0
        t = np.array([t_ref, t_ref - cfg.delay_ns, t_ref + cfg.delay_ns])
        assert classify_arrival(t, t_ref, cfg).tolist() == [ERASED, EARLY, LATE]

    def test_between_windows_is_invalid(self):
        cfg = InterferometerConfig(window_ns=20.0)
        t_ref = 500.0
        assert classify_arrival(np.array([t_ref + cfg.delay_ns / 2.0]), t_ref, cfg).tolist() == [INVALID]

    def test_window_edges_inclusive(self):
        cfg = InterferometerConfig(window_ns=20.0)
        assert classify_arrival(np.array([20.0, 20.5]), 0.0, cfg).tolist() == [ERASED, INVALID]

    def test_window_spans_tile_the_background_span(self):
        cfg = InterferometerConfig()
        width, between, span = window_spans(cfg)
        assert 3 * width + between == span
        # the span runs from the early window's start to the late window's end
        assert classify_arrival(np.array([-span / 2, span / 2]), 0.0, cfg).tolist() == [EARLY, LATE]

    def test_total_function_over_scan(self):
        cfg = InterferometerConfig()
        codes = classify_arrival(np.linspace(-600, 600, 241), 0.0, cfg)
        assert codes.shape == (241,)
        assert set(codes.tolist()) == set(range(len(ArrivalClass)))


class TestTpcTransform:
    """The time-to-polarization conversion of the executors: the early bin
    becomes H, the late bin V, and the phase rides on the long-arm H."""

    def test_ideal_bell_state_and_success(self):
        prob = herald_probability(InterferometerConfig(phase=0.0))
        heralded = run_ideal(one_photon(), phi=0.0)
        assert abs(prob - 0.5) < 1e-12
        assert heralded.labels == ("spin", "photon1")
        expected = np.zeros(4, dtype=complex)
        expected[0 * 2 + POL_V] = 1 / np.sqrt(2)
        expected[1 * 2 + POL_H] = 1 / np.sqrt(2)
        assert abs(abs(np.vdot(expected, heralded.data)) - 1.0) < 1e-10

    def test_phase_pi_flips_sign(self):
        heralded = run_ideal(one_photon(), phi=np.pi)
        expected = np.zeros(4, dtype=complex)
        expected[0 * 2 + POL_V] = 1 / np.sqrt(2)
        expected[1 * 2 + POL_H] = -1 / np.sqrt(2)
        assert abs(abs(np.vdot(expected, heralded.data)) - 1.0) < 1e-10

    def test_single_bin_occupation_gives_deterministic_polarization(self):
        # a full prep turn puts the spin on |0>: it emits into bin 1 only, then flips to |-1>
        steps = one_photon(prep=np.pi)
        prob = herald_probability(InterferometerConfig(), steps)
        heralded = run_ideal(steps)
        assert abs(prob - 0.5) < 1e-12
        assert abs(abs(heralded.data[1 * 2 + POL_H]) - 1.0) < 1e-10

    def test_double_occupation_rejected(self):
        # no flip between the pulses: |0> emits into both bins, which never heralds
        steps = one_photon(prep=np.pi, flip=0.0)
        assert abs(herald_probability(InterferometerConfig(), steps)) < 1e-12
        with pytest.raises(ProtocolError):
            run_ideal(steps)

    def test_active_switch_success_is_one(self):
        cfg = InterferometerConfig(active_switch=True)
        heralded = run_noisy(one_photon(), EmitterParams(**IDEAL_EMITTER), cfg)
        assert abs(heralded.trace() - 1.0) < 1e-12
        assert abs(heralded.normalized().trace() - 1.0) < 1e-10

    def test_phase_linearity(self):
        # output at phi equals diag(e^{i phi}, 1) applied to the output at 0
        out0 = run_ideal(one_photon(), phi=0.0)
        out1 = run_ideal(one_photon(), phi=0.8)
        rot = np.kron(np.eye(2), np.diag([np.exp(1j * 0.8), 1.0]))
        assert abs(abs(np.vdot(rot @ out0.data, out1.data)) - 1.0) < 1e-10

    def test_erasure_visibility_scales_coherence(self):
        cfg = InterferometerConfig(erasure_visibility=0.6)
        out = as_qubit_pair(run_noisy(one_photon(), EmitterParams(**IDEAL_EMITTER), cfg).normalized())
        # coherence between |0,V> and |-1,H>
        coh = out.data[0 * 2 + POL_V, 1 * 2 + POL_H]
        assert abs(abs(coh) - 0.3) < 1e-10

    def test_norm_preserved_after_renormalization(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            cfg = InterferometerConfig(split_ratio=rng.uniform(0.05, 0.95), phase=rng.uniform(0, 2 * np.pi))
            emitter = dict(pi_pulse_error=rng.uniform(), init_fidelity=rng.uniform(), p_spin_flip=rng.uniform())
            out = run_noisy(one_photon(), EmitterParams(**dict(IDEAL_EMITTER, **emitter)), cfg)
            prob = out.trace()
            assert abs(out.normalized().trace() - 1.0) < 1e-10
            assert 0.0 < prob <= 1.0


class TestPorts:
    def test_d_port_at_zero_phase(self):
        plus, minus = port_projector("D", InterferometerConfig(phase=0.0))
        v = np.array([1.0, 1.0]) / np.sqrt(2)
        assert np.allclose(plus.matrix, np.outer(v, v), atol=1e-12)
        assert np.allclose(plus.matrix @ minus.matrix, 0.0, atol=1e-12)

    def test_a_port_orthogonal_complement(self):
        plus, _ = port_projector("A", InterferometerConfig(phase=0.0))
        v = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(plus.matrix, np.outer(v, v), atol=1e-12)

    def test_r_port_quadrature_offset(self):
        plus, _ = port_projector("R", InterferometerConfig(phase=0.0))
        v = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        assert np.allclose(plus.matrix, np.outer(v, v.conj()), atol=1e-12)

    def test_z_port_has_no_projector(self):
        with pytest.raises(OpticsModelError):
            port_projector("Z", InterferometerConfig())

    def test_projector_pairs_resolve_identity_for_every_phase(self):
        for phi in np.linspace(0, 2 * np.pi, 9):
            cfg = InterferometerConfig(phase=float(phi))
            for port in ("D", "R"):
                plus, minus = port_projector(port, cfg)
                assert np.allclose(plus.matrix + minus.matrix, np.eye(2), atol=1e-12)

    def test_hardware_ports_ignore_instrument_phase(self):
        cfg_a = InterferometerConfig(phase=0.0)
        cfg_b = InterferometerConfig(phase=1.3)
        states_a = hardware_port_states(cfg_a)
        states_b = hardware_port_states(cfg_b)
        for name in ("D", "A", "R", "L"):
            assert np.allclose(states_a[name], states_b[name])


def simulated_phases(ifm, seed, n_cycles, **protocol):
    """Recorded phase of every cycle; the ideal emitter yields one record per cycle."""
    emitter = EmitterParams(**IDEAL_EMITTER)
    det = DetectionParams(zpl_efficiency=1.0, seed=seed)
    recs = simulate_cycles(n_cycles, emitter, ifm, ProtocolConfig(**protocol), det)
    assert len(recs) == n_cycles
    return recs["phase_rad"]


class TestPhaseWalk:
    def test_noise_free_walk_is_constant(self):
        cfg = InterferometerConfig(phase=0.3, phase_readout_sigma=0.0, phase_drift_var_per_ns=0.0)
        assert cfg.phase_mode == "walk"
        phases = simulated_phases(cfg, seed=0, n_cycles=100)
        assert np.all(phases == 0.3)

    def test_readout_sigma_recovered(self):
        cfg = InterferometerConfig(phase=0.0, phase_mode="static", phase_readout_sigma=0.18)
        errors = simulated_phases(cfg, seed=21, n_cycles=10_000)
        std = np.std(errors)
        assert abs(std - 0.18) < 0.05 * 0.18

    def test_same_seed_same_trajectory(self):
        cfg = InterferometerConfig()
        trajectories = [simulated_phases(cfg, seed=99, n_cycles=50, cycle_period_ns=333_000.0) for _ in range(2)]
        assert np.array_equal(trajectories[0], trajectories[1])
        assert np.ptp(trajectories[0]) > 0

    def test_negative_dt_rejected(self):
        # the walk steps once per cycle period
        with pytest.raises(ProtocolError):
            simulated_phases(InterferometerConfig(), seed=0, n_cycles=10, cycle_period_ns=-1.0)


class TestConfigValidation:
    def test_window_must_not_overlap(self):
        with pytest.raises(OpticsModelError):
            InterferometerConfig(window_ns=200.0).validate()

    def test_split_ratio_open_interval(self):
        with pytest.raises(OpticsModelError):
            InterferometerConfig(split_ratio=1.0).validate()

    def test_default_config_valid(self):
        InterferometerConfig().validate()
