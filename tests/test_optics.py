"""Interferometer model tests: routing, classification, conversion, phase."""
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
    hardware_port_states,
    port_projector,
    route,
    tpc_transform,
)
from tpcsim.protocol import ProtocolConfig, ProtocolError
from tpcsim.qsim import SubsystemSpec

from conftest import pure_state

SPIN2 = SubsystemSpec("spin", 2)
BIN1 = SubsystemSpec("bin1", 2)
BIN2 = SubsystemSpec("bin2", 2)


def protocol_input(phase_free_sign=1.0):
    """(|0>|vac,1> + sign |−1>|1,vac>)/sqrt2 on (spin, bin1, bin2)."""
    amps = np.zeros(8, dtype=complex)
    amps[0 * 4 + 0 * 2 + 1] = 1.0  # |0, vac, 1>
    amps[1 * 4 + 1 * 2 + 0] = phase_free_sign  # |-1, 1, vac>
    return pure_state((SPIN2, BIN1, BIN2), amps / np.sqrt(2.0))


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

    def test_total_function_over_scan(self):
        cfg = InterferometerConfig()
        codes = classify_arrival(np.linspace(-600, 600, 241), 0.0, cfg)
        assert codes.shape == (241,)
        assert set(codes.tolist()) == set(range(len(ArrivalClass)))


class TestTpcTransform:
    def test_ideal_bell_state_and_success(self):
        cfg = InterferometerConfig(phase=0.0)
        heralded, prob = tpc_transform(protocol_input(), cfg)
        assert abs(prob - 0.5) < 1e-12
        assert heralded.labels == ("spin", "pol")
        expected = np.zeros(4, dtype=complex)
        expected[0 * 2 + POL_V] = 1 / np.sqrt(2)
        expected[1 * 2 + POL_H] = 1 / np.sqrt(2)
        assert abs(abs(np.vdot(expected, heralded.data)) - 1.0) < 1e-10

    def test_phase_pi_flips_sign(self):
        cfg = InterferometerConfig(phase=np.pi)
        heralded, _ = tpc_transform(protocol_input(), cfg)
        expected = np.zeros(4, dtype=complex)
        expected[0 * 2 + POL_V] = 1 / np.sqrt(2)
        expected[1 * 2 + POL_H] = -1 / np.sqrt(2)
        assert abs(abs(np.vdot(expected, heralded.data)) - 1.0) < 1e-10

    def test_single_bin_occupation_gives_deterministic_polarization(self):
        amps = np.zeros(8, dtype=complex)
        amps[0 * 4 + 1 * 2 + 0] = 1.0  # |0, 1, vac>
        state = pure_state((SPIN2, BIN1, BIN2), amps)
        heralded, prob = tpc_transform(state, InterferometerConfig())
        assert abs(prob - 0.5) < 1e-12
        assert abs(abs(heralded.data[0 * 2 + POL_H]) - 1.0) < 1e-10

    def test_double_occupation_rejected(self):
        amps = np.zeros(8, dtype=complex)
        amps[0 * 4 + 1 * 2 + 1] = 1.0
        state = pure_state((SPIN2, BIN1, BIN2), amps)
        with pytest.raises(OpticsModelError):
            tpc_transform(state, InterferometerConfig())

    def test_active_switch_success_is_one(self):
        cfg = InterferometerConfig(active_switch=True)
        heralded, prob = tpc_transform(protocol_input(), cfg)
        assert abs(prob - 1.0) < 1e-12
        assert abs(heralded.trace() - 1.0) < 1e-10

    def test_phase_linearity(self):
        # output at phi equals diag(e^{i phi}, 1) applied to the output at 0
        cfg0 = InterferometerConfig(phase=0.0)
        cfg1 = InterferometerConfig(phase=0.8)
        out0, _ = tpc_transform(protocol_input(), cfg0)
        out1, _ = tpc_transform(protocol_input(), cfg1)
        rot = np.kron(np.eye(2), np.diag([np.exp(1j * 0.8), 1.0]))
        assert abs(abs(np.vdot(rot @ out0.data, out1.data)) - 1.0) < 1e-10

    def test_mixed_path_agrees_with_pure_path(self):
        cfg = InterferometerConfig(phase=0.4)
        pure_out, p1 = tpc_transform(protocol_input(), cfg)
        mixed_out, p2 = tpc_transform(protocol_input().to_density(), cfg)
        assert abs(p1 - p2) < 1e-12
        assert np.allclose(pure_out.to_density().data, mixed_out.data, atol=1e-10)

    def test_erasure_visibility_scales_coherence(self):
        cfg = InterferometerConfig(erasure_visibility=0.6)
        out, _ = tpc_transform(protocol_input().to_density(), cfg)
        # coherence between |0,V> and |-1,H>
        coh = out.data[0 * 2 + POL_V, 1 * 2 + POL_H]
        assert abs(abs(coh) - 0.3) < 1e-10

    def test_norm_preserved_after_renormalization(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            amps = np.zeros(8, dtype=complex)
            amps[0 * 4 + 0 * 2 + 1] = rng.standard_normal() + 1j * rng.standard_normal()
            amps[1 * 4 + 1 * 2 + 0] = rng.standard_normal() + 1j * rng.standard_normal()
            amps[1 * 4 + 0 * 2 + 0] = rng.standard_normal()  # vacuum component
            state = pure_state((SPIN2, BIN1, BIN2), amps / np.linalg.norm(amps))
            out, prob = tpc_transform(state, InterferometerConfig())
            assert abs(out.trace() - 1.0) < 1e-10
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
    emitter = EmitterParams(
        p_cross=0.0, zpl_fraction=1.0, p_shelve=0.0, p_spin_flip=0.0,
        init_fidelity=1.0, nuclear_pol=1.0, pi_pulse_error=0.0,
    )
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
