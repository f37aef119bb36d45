"""Event generator tests: determinism, routing statistics, Born consistency,
background uniformity, record I/O, and coincidence pairing."""
from hashlib import sha256

import numpy as np
import pytest

from tpcsim.cli import main
from tpcsim.emitter import EmitterParams
from tpcsim.events import (
    ARRIVAL_CLASSES,
    CODES,
    EARLY,
    ERASED,
    INVALID,
    LATE,
    RECORD_COLUMNS,
    DetectionParams,
    EventModelError,
    RecordFormatError,
    _ChainModel,
    _simulate_chain_block,
    pair_coincidences,
    read_records,
    simulate_cycles,
    summarize,
    write_records,
)
from tpcsim.optics import InterferometerConfig
from tpcsim.protocol import ProtocolConfig, build_sequence, pulse_times, run_noisy
from tpcsim.qsim import expectation, partial_trace

from conftest import apply, hardware_port_states, make_records, projector_onto, ry, write_fixture_ini

MINUS, PLUS = CODES["prep_sign"]["minus"], CODES["prep_sign"]["plus"]


def ideal_emitter(**overrides):
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


def noisy_emitter():
    return EmitterParams(
        p_cross=0.04,
        zpl_fraction=1.0,
        p_shelve=0.05,
        p_spin_flip=0.15,
        init_fidelity=0.979,
        nuclear_pol=0.9,
        pi_pulse_error=0.02,
        p_readout_click=1.0,
    )


class TestDeterminism:
    def test_same_seed_identical_records(self):
        params = ideal_emitter()
        ifm = InterferometerConfig(phase_mode="walk")
        det = DetectionParams(zpl_efficiency=1.0, seed=3, block_size=4096)
        a = simulate_cycles(10_000, params, ifm, ProtocolConfig(), det)
        b = simulate_cycles(10_000, params, ifm, ProtocolConfig(), det)
        assert np.array_equal(a, b)

    def test_worker_count_does_not_change_output(self):
        params = ideal_emitter()
        ifm = InterferometerConfig(phase_mode="walk")
        det = DetectionParams(zpl_efficiency=1.0, seed=3, block_size=2048)
        for pcfg in (ProtocolConfig(), ProtocolConfig(n_photons=2, cycle_period_ns=2_000_000.0)):
            serial = simulate_cycles(12_000, params, ifm, pcfg, det, workers=1)
            parallel = simulate_cycles(12_000, params, ifm, pcfg, det, workers=4)
            assert np.array_equal(serial, parallel)

    def test_different_seeds_differ(self):
        params = ideal_emitter()
        ifm = InterferometerConfig()
        a = simulate_cycles(5_000, params, ifm, ProtocolConfig(), DetectionParams(zpl_efficiency=1.0, seed=1))
        b = simulate_cycles(5_000, params, ifm, ProtocolConfig(), DetectionParams(zpl_efficiency=1.0, seed=2))
        assert not np.array_equal(a, b)


class TestRoutingStatistics:
    def test_erased_fraction_is_half(self):
        n = 40_000
        recs = simulate_cycles(
            n,
            ideal_emitter(),
            InterferometerConfig(phase_mode="scan"),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, seed=8),
        )
        frac = np.mean(recs["arrival_class"] == ERASED)
        assert abs(frac - 0.5) <= 3 * np.sqrt(0.25 / n)

    def test_negligible_efficiency_gives_no_records(self):
        recs = simulate_cycles(
            10_000,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1e-300, seed=4),
        )
        assert len(recs) == 0

    def test_prep_alternation_by_cycle_parity(self):
        recs = simulate_cycles(
            4_000,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, seed=5, alternate_preps=True),
        )
        even = recs[recs["cycle_id"] % 2 == 0]
        odd = recs[recs["cycle_id"] % 2 == 1]
        assert set(even["prep_sign"].tolist()) == {MINUS}
        assert set(odd["prep_sign"].tolist()) == {PLUS}

    def test_fixed_prep_when_alternation_off(self):
        recs = simulate_cycles(
            2_000,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(prep_sign="plus"),
            DetectionParams(zpl_efficiency=1.0, seed=5, alternate_preps=False),
        )
        assert set(recs["prep_sign"].tolist()) == {PLUS}

    def test_active_switch_heralds_every_photon(self):
        recs = simulate_cycles(
            5_000,
            ideal_emitter(),
            InterferometerConfig(active_switch=True),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, seed=6),
        )
        assert len(recs) == 5_000
        assert set(recs["arrival_class"].tolist()) == {ERASED}

    def test_arrival_times_follow_routing_table(self):
        ifm = InterferometerConfig()
        pcfg = ProtocolConfig()
        steps = build_sequence(pcfg, ifm)
        times = [s.time_ns for s in steps if s.kind == "optical_pulse"]
        recs = simulate_cycles(
            3_000, ideal_emitter(), ifm, pcfg, DetectionParams(zpl_efficiency=1.0, seed=7)
        )
        offsets = recs["t_ns"] - recs["cycle_id"].astype(float) * pcfg.cycle_period_ns
        early = offsets[recs["arrival_class"] == EARLY]
        erased = offsets[recs["arrival_class"] == ERASED]
        late = offsets[recs["arrival_class"] == LATE]
        assert min(len(early), len(erased), len(late)) > 0
        assert np.allclose(early, times[0])
        assert np.allclose(erased, times[1])
        assert np.allclose(late, times[1] + ifm.delay_ns)


class TestBornConsistency:
    """The trajectory sampler must reproduce the exact density-matrix path."""

    def test_port_and_readout_statistics_match_exact_state(self):
        phi = 0.9
        params = noisy_emitter()
        ifm = InterferometerConfig(phase=phi, phase_mode="static", phase_readout_sigma=0.0, erasure_visibility=0.8)
        pcfg = ProtocolConfig(prep_sign="minus")
        det = DetectionParams(zpl_efficiency=1.0, seed=12, alternate_preps=False)
        n = 210_000  # roughly 1e5 heralded events
        recs = simulate_cycles(n, params, ifm, pcfg, det)

        # analysis-side rejection of double-occupancy cycles mirrors the
        # protocol-subspace projection inside run_noisy
        ids, counts = np.unique(recs["cycle_id"], return_counts=True)
        bad = set(ids[counts > 1].tolist())
        keep = np.array([cid not in bad for cid in recs["cycle_id"]])
        clean = recs[keep]

        steps = build_sequence(pcfg, ifm)
        heralded = run_noisy(steps, params, ifm)
        herald_prob = heralded.trace()
        rho = heralded.normalized()

        erased = clean[clean["arrival_class"] == ERASED]
        n_erased = len(erased)
        # heralding rate
        sigma = np.sqrt(herald_prob * (1 - herald_prob) / n)
        assert abs(n_erased / n - herald_prob) <= 4 * sigma

        # port frequencies and conditional bright fractions against Born rule
        states = hardware_port_states(ifm)
        u_tomo = ry(pcfg.tomo_theta, "spin", 7, (0, 1))
        for port in ("D", "A", "R", "L"):
            proj = projector_onto(states[port], ("photon1",))
            p_port = expectation(rho, proj)
            sel = erased[erased["port"] == CODES["port"][port]]
            f = len(sel) / n_erased
            s3 = 3 * np.sqrt(p_port / 2 * (1 - p_port / 2) / n_erased)
            assert abs(f - p_port / 2) <= s3  # analyzer halves split D/A vs R/L

            collapsed = apply(rho, proj).normalized()
            rotated = apply(collapsed, u_tomo)
            spin = partial_trace(rotated, ["spin"])
            p_bright = float(np.real(spin.data[0, 0]))
            fb = sel["readout_click"].mean()
            s3b = 3 * np.sqrt(max(p_bright * (1 - p_bright), 0.01) / len(sel))
            assert abs(fb - p_bright) <= s3b

    def test_multiphoton_sampler_agrees_with_fast_path_statistics(self):
        params = noisy_emitter()
        ifm = InterferometerConfig(phase=0.4, phase_mode="static", phase_readout_sigma=0.0)
        pcfg = ProtocolConfig(prep_sign="minus")
        fast = simulate_cycles(
            40_000, params, ifm, pcfg, DetectionParams(zpl_efficiency=1.0, seed=21, alternate_preps=False)
        )
        det = DetectionParams(zpl_efficiency=1.0, seed=22, alternate_preps=False)
        slow = _simulate_chain_block(_ChainModel(params, pcfg, ifm, det), det, 0, 40_000, 0.0)
        for recs_a, recs_b in ((fast, slow),):
            fa = np.mean(recs_a["arrival_class"] == ERASED)
            fb = np.mean(recs_b["arrival_class"] == ERASED)
            assert fa > 0 and abs(fa - fb) < 0.02
            ca = recs_a["readout_click"].mean()
            cb = recs_b["readout_click"].mean()
            assert abs(ca - cb) < 0.02

    def test_two_photon_herald_probability(self):
        n = 20_000
        recs = simulate_cycles(
            n,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(n_photons=2, cycle_period_ns=2_000_000.0),
            DetectionParams(zpl_efficiency=1.0, seed=13, alternate_preps=False),
        )
        pairs, rejected = pair_coincidences(recs, n_photons=2)
        by_cycle = {}
        for rec, _ in pairs:
            by_cycle.setdefault(rec.cycle_id, []).append(rec.arrival_class)
        heralded = sum(1 for v in by_cycle.values() if len(v) == 2 and set(v) == {"Erased"})
        p = heralded / n
        assert abs(p - 0.25) <= 3 * np.sqrt(0.25 * 0.75 / n)

    def test_noisy_chain_heralding_and_readout_match_exact_state(self):
        # a cycle is heralded when each photon gives exactly one click, path-erased
        params = noisy_emitter()
        ifm = InterferometerConfig(phase=0.9, phase_mode="static", phase_readout_sigma=0.0, erasure_visibility=0.8)
        pcfg = ProtocolConfig(n_photons=2, cycle_period_ns=2_000_000.0)
        n = 40_000
        recs = simulate_cycles(n, params, ifm, pcfg, DetectionParams(zpl_efficiency=1.0, seed=31, alternate_preps=False))

        steps = build_sequence(pcfg, ifm)
        times = pulse_times(steps)
        offsets = recs["t_ns"] - recs["cycle_id"] * pcfg.cycle_period_ns
        erased = recs["arrival_class"] == ERASED
        _, first, counts = np.unique(recs["cycle_id"], return_index=True, return_counts=True)
        in_window = [np.add.reduceat((erased & np.isclose(offsets, times[j])).astype(int), first) for j in (1, 3)]
        heralded = first[(counts == 2) & (in_window[0] == 1) & (in_window[1] == 1)]

        exact = run_noisy(steps, params, ifm)
        p = exact.trace()
        assert abs(len(heralded) / n - p) <= 4 * np.sqrt(p * (1 - p) / n)

        rotated = apply(exact.normalized(), ry(pcfg.tomo_theta, "spin", 7, (0, 1)))
        q = float(np.real(partial_trace(rotated, ["spin"]).data[0, 0]))
        clicks = recs["readout_click"][heralded]
        assert abs(clicks.mean() - q) <= 4 * np.sqrt(q * (1 - q) / len(heralded))


class TestBackground:
    def test_uniform_over_ports_and_windows(self):
        # expected clicks = rate * 4 ports * span(564 ns) * cycles ~ 0.0045/cycle
        ifm = InterferometerConfig()
        recs = simulate_cycles(
            50_000,
            ideal_emitter(),
            ifm,
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1e-300, background_rate_hz=20_000.0, seed=14),
        )
        assert len(recs) > 1_500
        # ports uniform: chi-square over 4 cells
        ports, counts = np.unique(recs["port"], return_counts=True)
        assert set(ports.tolist()) == set(CODES["port"].values())
        n = counts.sum()
        chi2 = (((counts - n / 4.0) ** 2) / (n / 4.0)).sum()
        assert chi2 < 16.27  # 0.999 quantile, 3 dof

        # windows populated in proportion to their durations
        w, d = ifm.window_ns, ifm.delay_ns
        span = 2 * d + 2 * w
        expected = {
            "EarlyRevealing": 2 * w / span,
            "Erased": 2 * w / span,
            "LateRevealing": 2 * w / span,
            "Invalid": 2 * (d - 2 * w) / span,
        }
        classes, ccounts = np.unique(recs["arrival_class"], return_counts=True)
        obs = {ARRIVAL_CLASSES[c]: k for c, k in zip(classes, ccounts)}
        chi2 = sum(
            (obs.get(k, 0) - n * p) ** 2 / (n * p) for k, p in expected.items()
        )
        assert chi2 < 16.27

    def test_zero_rate_gives_no_invalid_clicks(self):
        recs = simulate_cycles(
            20_000,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, background_rate_hz=0.0, seed=15),
        )
        assert not np.any(recs["arrival_class"] == INVALID)
        assert set(recs["arrival_class"].tolist()) == {EARLY, ERASED, LATE}


class TestCoincidencePairing:
    def test_single_click_cycle_pairs_with_readout(self):
        recs = make_records(
            [
                (0, "D", "Erased", 100.0, 0.1, "minus", 1),
                (2, "A", "Erased", 300.0, 0.2, "plus", 0),
            ]
        )
        pairs, rejected = pair_coincidences(recs)
        assert rejected == 0
        assert len(pairs) == 2
        assert pairs[0][1] is True and pairs[1][1] is False

    def test_double_click_cycle_rejected_and_counted(self):
        recs = make_records(
            [
                (0, "D", "Erased", 100.0, 0.1, "minus", 1),
                (1, "D", "EarlyRevealing", 150.0, 0.1, "minus", 1),
                (1, "A", "Erased", 160.0, 0.1, "minus", 1),
                (2, "R", "LateRevealing", 400.0, 0.3, "plus", 0),
            ]
        )
        pairs, rejected = pair_coincidences(recs)
        assert rejected == 1
        assert [p[0].cycle_id for p in pairs] == [0, 2]

    def test_unsorted_records_rejected(self):
        recs = make_records(
            [
                (5, "D", "Erased", 100.0, 0.1, "minus", 1),
                (1, "D", "Erased", 150.0, 0.1, "minus", 1),
            ]
        )
        with pytest.raises(EventModelError):
            pair_coincidences(recs)

    def test_summary_counts(self):
        recs = make_records(
            [
                (0, "D", "Erased", 100.0, 0.1, "minus", 1),
                (1, "A", "EarlyRevealing", 120.0, 0.1, "plus", 0),
            ]
        )
        stats = summarize(recs)
        assert stats == {"records": 2, "heralded": 1, "coincidences": 1, "rejected_cycles": 0}


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        recs = simulate_cycles(
            3_000,
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, seed=16),
        )
        path = tmp_path / "records.csv"
        write_records(path, recs)
        back = read_records(path)
        assert len(back) == len(recs)
        assert np.array_equal(back["cycle_id"], recs["cycle_id"])
        assert np.array_equal(back["readout_click"], recs["readout_click"])
        assert np.allclose(back["phase_rad"], recs["phase_rad"], atol=1e-9)

    def test_byte_identical_files_for_same_seed(self, tmp_path):
        args = (
            ideal_emitter(),
            InterferometerConfig(),
            ProtocolConfig(),
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_records(p1, simulate_cycles(4_000, *args, DetectionParams(zpl_efficiency=1.0, seed=17)))
        write_records(p2, simulate_cycles(4_000, *args, DetectionParams(zpl_efficiency=1.0, seed=17)))
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("cycle_id,port,arrival_class,t_ns,phase_rad,prep_sign\n")
        with pytest.raises(RecordFormatError, match="readout_click"):
            read_records(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            ",".join(RECORD_COLUMNS) + "\n" + "0,D,Erased,1.0,0.5,minus,1\n" + "1,D,Erased,oops,0.5,minus,1\n"
        )
        with pytest.raises(RecordFormatError, match="line 3"):
            read_records(path)

    @pytest.mark.parametrize(
        "line",
        [
            "1,D,Erased,2.0,0.5,minusss,1",  # not cut to a known prep sign
            "1,D,ErasedErasedErasedEr,2.0,0.5,minus,1",  # not cut to 16 characters
            "1,D,Erased,2.0,0.5,minus,7",
            "1,Q,Erased,2.0,0.5,minus,1",
            "1,D,Erased,2.0,nan,minus,1",
            "1,D,Erased,inf,0.5,minus,1",
            "1.5,D,Erased,2.0,0.5,minus,1",
            "99999999999999999999,D,Erased,2.0,0.5,minus,1",
            "1,D,Er\udcffased,2.0,0.5,minus,1",  # byte 0xff, not UTF-8
        ],
    )
    def test_field_outside_its_vocabulary_or_range_names_line(self, tmp_path, line):
        path = tmp_path / "bad.csv"
        text = ",".join(RECORD_COLUMNS) + "\n0,D,Erased,1.0,0.5,minus,1\n\n" + line + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(RecordFormatError, match="line 4"):
            read_records(path)

    def test_criterion_4_fixture_bytes_pinned(self, tmp_path):
        # the n = 1 record bytes are the hardware ingestion contract
        ini = tmp_path / "fixture.ini"
        write_fixture_ini(ini)
        out = tmp_path / "fixture.csv"
        assert main(["simulate", "--config", str(ini), "--out", str(out), "--cycles", "5000"]) == 0
        assert sha256(out.read_bytes()).hexdigest() == (
            "951619daf302abf5ec02cf0d844bf08bc480781c98d4b5cd616d4d6d114af683"
        )

    def test_walk_background_bytes_pinned_for_any_worker_count(self, tmp_path):
        # doubles, singles and background clicks of every class, Invalid included
        args = (
            noisy_emitter(),
            InterferometerConfig(phase_mode="walk"),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, background_rate_hz=200_000.0, seed=61, block_size=1024),
        )
        for workers in (1, 2):
            recs = simulate_cycles(4_000, *args, workers=workers)
            assert set(recs["arrival_class"].tolist()) == {EARLY, ERASED, LATE, INVALID}
            path = tmp_path / f"w{workers}.csv"
            write_records(path, recs)
            assert sha256(path.read_bytes()).hexdigest() == (
                "3eb19d7e5f26bb85d9de28421e40c6c3745335b2e30d2fa77b64b77ea63e969e"
            )

    @pytest.mark.parametrize(
        "n_photons,cycles,digest",
        [
            (2, 40, "0eec6c486066753b027d534898b90f96ae6740734c67182b88e33b1e774a76a4"),
            (3, 24, "624d092257dd874505b842e80504dea94cb10b704d411de1954c1efc55b11ad5"),
        ],
    )
    def test_chain_bytes_pinned(self, tmp_path, n_photons, cycles, digest):
        # walk phase with readout noise, alternating preps, partial erasure
        # visibility and detection; the runs include double-occupation cycles
        recs = simulate_cycles(
            cycles,
            noisy_emitter(),
            InterferometerConfig(phase_mode="walk", erasure_visibility=0.8),
            ProtocolConfig(n_photons=n_photons),
            DetectionParams(zpl_efficiency=0.8, seed=73),
        )
        assert set(recs["arrival_class"].tolist()) == {EARLY, ERASED, LATE}
        assert set(recs["prep_sign"].tolist()) == {MINUS, PLUS}
        path = tmp_path / "chain.csv"
        write_records(path, recs)
        assert sha256(path.read_bytes()).hexdigest() == digest


class TestValidation:
    def test_bad_efficiency_rejected(self):
        with pytest.raises(EventModelError):
            DetectionParams(zpl_efficiency=0.0).validate()
        with pytest.raises(EventModelError):
            DetectionParams(zpl_efficiency=1.5).validate()

    def test_multiphoton_background_unsupported(self):
        with pytest.raises(EventModelError):
            simulate_cycles(
                10,
                ideal_emitter(),
                InterferometerConfig(),
                ProtocolConfig(n_photons=2, cycle_period_ns=2_000_000.0),
                DetectionParams(zpl_efficiency=1.0, background_rate_hz=10.0),
            )
