"""Event generator tests: determinism, routing statistics, Born consistency,
background uniformity, record I/O, and coincidence pairing."""
import warnings
from dataclasses import replace
from hashlib import sha256

import numpy as np
import pytest

from tpcsim import events
from tpcsim.cli import main
from tpcsim.emitter import EmitterParams
from tpcsim.events import (
    ARRIVAL_CLASSES,
    CODES,
    EARLY,
    ERASED,
    INVALID,
    LATE,
    PREP_NAMES,
    RECORD_COLUMNS,
    RECORD_DTYPE,
    _CHUNK,
    _PHASE_STREAM,
    DetectionParams,
    EventModelError,
    RecordFormatError,
    _CycleModel,
    _keyed_rng,
    _simulate_block,
    pair_coincidences,
    read_records,
    simulate_cycles,
    summarize,
    write_records,
)
from tpcsim.optics import InterferometerConfig
from tpcsim.protocol import ProtocolConfig, _evolve, build_sequence, pulse_times, run_noisy
from tpcsim.qsim import expectation, partial_trace

from conftest import FIXTURE, SerialPool, apply, hardware_port_states, ideal_emitter, make_records, projector_onto, ry, write_fixture_ini

MINUS, PLUS = CODES["prep_sign"]["minus"], CODES["prep_sign"]["plus"]


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


def _walk_block_offsets(ifm, n_blocks, block_size, n_cycles, seed, period_ns):
    """Starting phase of every block under the random-walk model, each block's
    steps drawn and summed in turn: the reference for the offsets that the
    block loop carries and that a later shard skips ahead to."""
    sigma = np.sqrt(ifm.phase_drift_var_per_ns * period_ns)
    offsets = np.empty(n_blocks)
    acc = ifm.phase
    for b in range(n_blocks):
        offsets[b] = acc
        m = min(block_size, n_cycles - b * block_size)
        if sigma > 0:
            acc += sigma * _keyed_rng(seed, _PHASE_STREAM, b).standard_normal(m).sum()
    return offsets


class TestDeterminism:
    def test_same_seed_identical_records(self, monkeypatch):
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 4096)
        params = ideal_emitter()
        ifm = InterferometerConfig(phase_mode="walk")
        det = DetectionParams(zpl_efficiency=1.0, seed=3)
        a = simulate_cycles(10_000, params, ifm, ProtocolConfig(), det)
        b = simulate_cycles(10_000, params, ifm, ProtocolConfig(), det)
        assert np.array_equal(a, b)

    def test_worker_count_does_not_change_output(self, monkeypatch):
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 2048)
        params = ideal_emitter()
        ifm = InterferometerConfig(phase_mode="walk")
        det = DetectionParams(zpl_efficiency=1.0, seed=3)
        for pcfg in (ProtocolConfig(), ProtocolConfig(n_photons=2, cycle_period_ns=2_000_000.0)):
            serial = simulate_cycles(12_000, params, ifm, pcfg, det, workers=1)
            parallel = simulate_cycles(12_000, params, ifm, pcfg, det, workers=4)
            assert np.array_equal(serial, parallel)

    def test_pool_holds_no_more_workers_than_blocks(self, monkeypatch):
        # a fork-started pool launches all of its workers at the first submit
        monkeypatch.setattr(SerialPool, "sizes", [])
        monkeypatch.setattr("tpcsim.events.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 1000)
        args = (
            ideal_emitter(),
            InterferometerConfig(phase_mode="walk"),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=0.5, seed=3),
        )
        pooled = simulate_cycles(2_500, *args, workers=64)
        assert SerialPool.sizes == [3]
        assert np.array_equal(pooled, simulate_cycles(2_500, *args, workers=1))

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

    @pytest.mark.parametrize("visibility", [1.0, 0.8])
    @pytest.mark.parametrize("prep", PREP_NAMES)
    @pytest.mark.parametrize("emitter", ["fixture", "noisy"])
    def test_leaf_table_reproduces_exact_block_state(self, emitter, prep, visibility):
        # sum_leaves w |psi><psi| is the state after the first block, with the
        # coherences of the late-bin occupation scaled by the erasure visibility
        params = EmitterParams(**FIXTURE) if emitter == "fixture" else noisy_emitter()
        ifm = InterferometerConfig(erasure_visibility=visibility)
        pcfg = ProtocolConfig(prep_sign=prep)
        model = _CycleModel(params, pcfg, ifm, DetectionParams())
        p = PREP_NAMES.index(prep)
        psi = model.leaves[model.prep_offset[p] : model.prep_offset[p + 1]].reshape(len(model.leaf_cum[p]), -1)
        w = np.diff(model.leaf_cum[p], prepend=0.0)
        rho = np.einsum("l,li,lj->ij", w, psi, psi.conj())

        exact = {name: r for name, r, _ in _evolve(build_sequence(pcfg, ifm), params, ifm)}["after_pulse_2"]
        late = np.arange(len(exact)) % 4 == 1  # (bin1, bin2) = (0, 1)
        exact = np.where(late[:, None] != late[None, :], visibility * exact, exact)
        assert np.abs(rho - exact).max() < 1e-9

    def test_chain_first_photon_is_the_single_photon_run(self):
        # photon 1 of a chain is drawn from the leaf table with the n = 1
        # draws; only its readout differs, because the readout follows the
        # last photon
        emitter, ifm = noisy_emitter(), InterferometerConfig(phase_mode="walk", erasure_visibility=0.8)
        det = DetectionParams(zpl_efficiency=0.8, seed=5)
        single = simulate_cycles(20_000, emitter, ifm, ProtocolConfig(cycle_period_ns=2e6), det)
        pcfg = ProtocolConfig(n_photons=2, cycle_period_ns=2e6)
        chain = simulate_cycles(20_000, emitter, ifm, pcfg, det)

        # select by class and time: photon 1's late click arrives with photon 2's early click
        t1, t2 = pulse_times(build_sequence(pcfg, ifm))[:2]
        offsets = chain["t_ns"] - chain["cycle_id"] * pcfg.cycle_period_ns
        first = np.zeros(len(chain), dtype=bool)
        for cls, t in ((EARLY, t1), (ERASED, t2), (LATE, t2 + ifm.delay_ns)):
            first |= (chain["arrival_class"] == cls) & np.isclose(offsets, t)
        assert first.sum() == len(single) > 10_000
        for name in RECORD_COLUMNS:
            if name != "readout_click":
                assert np.array_equal(chain[first][name], single[name]), name

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

    def test_summary_accepts_any_order(self):
        # the two clicks of cycle 5 are apart, and that cycle is still rejected whole
        recs = make_records(
            [
                (5, "D", "Erased", 100.0, 0.1, "minus", 1),
                (1, "D", "Erased", 150.0, 0.1, "minus", 1),
                (5, "A", "LateRevealing", 400.0, 0.1, "minus", 1),
            ]
        )
        assert summarize(recs) == {"records": 3, "heralded": 2, "coincidences": 1, "rejected_cycles": 1}


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

    @pytest.mark.parametrize("body", ["", "\n\n", "\n \n"])
    def test_header_only_or_blank_body_reads_empty_under_warnings_as_errors(self, tmp_path, body):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(RECORD_COLUMNS) + "\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = read_records(path)
        assert back.dtype == RECORD_DTYPE and len(back) == 0

    def test_bad_field_in_second_chunk_names_its_line(self, tmp_path):
        rows = [f"{k},D,Erased,{k}.5,0.25,plus,0\n" for k in range(_CHUNK + 10)]
        rows[_CHUNK + 3] = rows[_CHUNK + 3].replace("0.25", "0.2x5")  # line 1 is the header
        path = tmp_path / "bad.csv"
        path.write_text(",".join(RECORD_COLUMNS) + "\n" + "".join(rows))
        with pytest.raises(RecordFormatError, match=f"^line {_CHUNK + 5}: phase_rad '0.2x5' is not a finite number$"):
            read_records(path)

    def test_only_a_chunk_that_numpy_refuses_goes_to_the_line_parser(self, tmp_path, monkeypatch):
        recs = make_records([(k, "LRAD"[k % 4], ARRIVAL_CLASSES[k % 4], k / 8, -(k % 1000) / 1000, "plus", k % 2) for k in range(2 * _CHUNK + 5)])
        path = tmp_path / "records.csv"
        write_records(path, recs)
        lines = path.read_text().splitlines(keepends=True)
        k = _CHUNK + 6  # on line k + 2, in the second chunk: an id that only Python's int reads
        lines[k + 1] = "_".join(str(k)) + lines[k + 1][len(str(k)) :]
        path.write_text("".join(lines))
        firsts = []
        parse_lines = events._parse_lines
        monkeypatch.setattr(events, "_parse_lines", lambda lines, first: firsts.append(first) or parse_lines(lines, first))
        assert read_records(path).tobytes() == recs.tobytes()
        assert firsts == [_CHUNK + 2]

    @pytest.mark.parametrize(
        "line",
        [
            "1,D,EarlyRevealingX,2.0,0.5,minus,1",  # not cut to the longest label
            "1,D,Erased,2.0,0.5,minusss,1",  # not cut to a known prep sign
            "1,D,ErasedErasedErasedEr,2.0,0.5,minus,1",  # not cut to 16 characters
            "1,D,Erased,2.0,0.5,minus,7",
            "1,Q,Erased,2.0,0.5,minus,1",
            "1,D,Erased,2.0,nan,minus,1",
            "1,D,Erased,inf,0.5,minus,1",
            "1.5,D,Erased,2.0,0.5,minus,1",
            "99999999999999999999,D,Erased,2.0,0.5,minus,1",
            "1,D,Er\udcffased,2.0,0.5,minus,1",  # byte 0xff, not UTF-8
            "1,Q,Erased,2.0,0.5,minus,1\nx,D,Erased,2.0,0.5,minus,1",  # the first of two bad lines
            "1,Q,Erased,2.0,0.5,minus,1\n1,D,Erased,2.0,0.5,minus,1,9",
        ],
    )
    def test_field_outside_its_vocabulary_or_range_names_line(self, tmp_path, line):
        path = tmp_path / "bad.csv"
        text = ",".join(RECORD_COLUMNS) + "\n0,D,Erased,1.0,0.5,minus,1\n\n" + line + "\n"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(RecordFormatError, match="line 4"):
            read_records(path)

    @pytest.mark.parametrize(
        "name,value",
        [
            ("t_ns", np.nan),
            ("t_ns", np.inf),
            ("phase_rad", -np.inf),
            ("phase_rad", np.nan),
            ("port", 7),
            ("arrival_class", len(ARRIVAL_CLASSES)),
            ("prep_sign", len(PREP_NAMES)),
            ("readout_click", 2),
        ],
    )
    def test_unreadable_record_refused_before_writing(self, tmp_path, name, value):
        recs = make_records([(k, "D", "Erased", 1.0 + k, 0.5, "minus", 1) for k in range(3)])
        recs[name][1] = value
        path = tmp_path / "refused.csv"
        with pytest.raises(RecordFormatError, match=f"record 1: {name} "):
            write_records(path, recs)
        assert not path.exists()

    def test_criterion_4_fixture_bytes_pinned(self, tmp_path):
        # the n = 1 record bytes are the hardware ingestion contract
        ini = tmp_path / "fixture.ini"
        write_fixture_ini(ini)
        out = tmp_path / "fixture.csv"
        assert main(["simulate", "--config", str(ini), "--out", str(out), "--cycles", "5000"]) == 0
        assert sha256(out.read_bytes()).hexdigest() == (
            "951619daf302abf5ec02cf0d844bf08bc480781c98d4b5cd616d4d6d114af683"
        )

    def test_walk_background_bytes_pinned_for_any_worker_count(self, tmp_path, monkeypatch):
        # doubles, singles and background clicks of every class, Invalid included
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 1024)
        args = (
            noisy_emitter(),
            InterferometerConfig(phase_mode="walk"),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=1.0, background_rate_hz=200_000.0, seed=61),
        )
        for workers in (1, 2):
            recs = simulate_cycles(4_000, *args, workers=workers)
            assert set(recs["arrival_class"].tolist()) == {EARLY, ERASED, LATE, INVALID}
            path = tmp_path / f"w{workers}.csv"
            write_records(path, recs)
            assert sha256(path.read_bytes()).hexdigest() == (
                "3eb19d7e5f26bb85d9de28421e40c6c3745335b2e30d2fa77b64b77ea63e969e"
            )

    def test_thinned_walk_background_bytes_pinned_for_any_worker_count(self, tmp_path, monkeypatch):
        # detection thinning 1/15 drops most cycles before they are sampled;
        # 12 full blocks and a partial one, background clicks of every class
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 4096)
        args = (
            replace(noisy_emitter(), zpl_fraction=0.03),
            InterferometerConfig(phase_mode="walk"),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=2e-3, background_rate_hz=3e4, seed=83),
        )
        for workers in (1, 2):
            recs = simulate_cycles(50_000, *args, workers=workers)
            assert set(recs["arrival_class"].tolist()) == {EARLY, ERASED, LATE, INVALID}
            path = tmp_path / f"w{workers}.csv"
            write_records(path, recs)
            assert sha256(path.read_bytes()).hexdigest() == (
                "b0026897820298ae0012c2c28704df3a4c4c819d0652c34f8ad322b4194f7f02"
            )

    def test_thinned_double_clicks_bytes_pinned(self, tmp_path, monkeypatch):
        # at thinning 0.3 a double-occupation cycle often keeps only its
        # second photon's click, and such a cycle must still be sampled
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 2048)
        args = (
            noisy_emitter(),
            InterferometerConfig(phase_mode="walk", erasure_visibility=0.8),
            ProtocolConfig(),
            DetectionParams(zpl_efficiency=0.3, seed=97),
        )
        recs = simulate_cycles(20_000, *args)
        assert np.count_nonzero(np.unique(recs["cycle_id"], return_counts=True)[1] == 2) > 0
        path = tmp_path / "doubles.csv"
        write_records(path, recs)
        assert sha256(path.read_bytes()).hexdigest() == (
            "34c1af4872f7244a5a695aa2dbb74879e99b9012ecf4f4b9e3837eaacc293dc6"
        )

    def test_default_sparse_efficiency_bytes_pinned(self, tmp_path, monkeypatch):
        # the default config's efficiency: most of the 98 blocks have no
        # cycle that can leave a record, and the walk phase runs through them
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 1024)
        recs = simulate_cycles(100_000, EmitterParams(), InterferometerConfig(), ProtocolConfig(), DetectionParams())
        assert 0 < np.unique(recs["cycle_id"] // 1024).size < 10
        path = tmp_path / "sparse.csv"
        write_records(path, recs)
        assert sha256(path.read_bytes()).hexdigest() == (
            "bbf0dfb787eda2ca63b8b6512e8ccad107c806836df00664272ae380aa62ce27"
        )

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("drift", [2.4e-9, 0.0])
    def test_every_block_starts_from_the_drawn_walk_offset(self, monkeypatch, drift, workers):
        # five blocks, the last of 1,808 cycles: 2 workers cut them 2 + 3 and
        # 3 workers 1 + 2 + 2, so later shards skip ahead over 1 to 3 blocks
        ifm = InterferometerConfig(phase_mode="walk", phase=0.3, phase_drift_var_per_ns=drift)
        pcfg = ProtocolConfig()
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 2048)
        det = DetectionParams(zpl_efficiency=0.01, seed=19)
        n_cycles = 10_000
        drawn = _walk_block_offsets(ifm, 5, 2048, n_cycles, det.seed, pcfg.cycle_period_ns)
        starts, streams = {}, []

        def recording_block(model, detection, lo, hi, offset):
            starts[lo // model.block_size] = offset
            return _simulate_block(model, detection, lo, hi, offset)

        def recording_rng(seed, stream, block):
            streams.append(stream)
            return _keyed_rng(seed, stream, block)

        monkeypatch.setattr("tpcsim.events._simulate_block", recording_block)
        monkeypatch.setattr("tpcsim.events._keyed_rng", recording_rng)
        monkeypatch.setattr(SerialPool, "sizes", [])
        monkeypatch.setattr("tpcsim.events.ProcessPoolExecutor", SerialPool)
        simulate_cycles(n_cycles, ideal_emitter(), ifm, pcfg, det, workers=workers)
        assert sorted(starts) == list(range(5))
        for block, offset in starts.items():
            assert offset == drawn[block], block
        assert (len(set(drawn)) == 5) == (drift > 0)
        # a phase that does not walk draws no phase step, not even to skip ahead
        assert (_PHASE_STREAM in streams) == (drift > 0)

    @pytest.mark.parametrize(
        "n_photons,cycles,digest",
        [
            (2, 40, "00be89147456b6f704902b92c232fdfaff59ca1d596cc4fbcef9edbf044c1e18"),
            (3, 24, "facf7ba3ff5e5ffcab92b606ae048baa4e08e9972ac71c903acbeb15268cba7c"),
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

    @pytest.mark.parametrize(
        "n_photons,cycles,n_records,digest",
        [
            (2, 20_000, 1_865, "b45b98af68f89a714f5311b1d908305b7470fc69d30ed7d8f15a6db736a13071"),
            (3, 12_000, 1_642, "e43e8dbe53bc55a666ddbc4f8672282e02d4b1d7560a1b5bf1c1bde074247f53"),
        ],
    )
    def test_thinned_chain_bytes_pinned_for_any_worker_count(self, tmp_path, monkeypatch, n_photons, cycles, n_records, digest):
        # at thinning 0.05 most cycles are dropped before they are sampled; a
        # cycle whose only surviving click is a later photon's must be kept
        monkeypatch.setattr("tpcsim.events._BLOCK_SIZE", 2048)
        args = (
            noisy_emitter(),
            InterferometerConfig(phase_mode="walk", erasure_visibility=0.8),
            ProtocolConfig(n_photons=n_photons),
            DetectionParams(zpl_efficiency=0.05, seed=89),
        )
        for workers in (1, 2):
            recs = simulate_cycles(cycles, *args, workers=workers)
            assert len(recs) == n_records
            path = tmp_path / f"w{workers}.csv"
            write_records(path, recs)
            assert sha256(path.read_bytes()).hexdigest() == digest


class TestValidation:
    def test_bad_efficiency_rejected(self):
        with pytest.raises(EventModelError):
            DetectionParams(zpl_efficiency=0.0).validate()
        with pytest.raises(EventModelError):
            DetectionParams(zpl_efficiency=1.5).validate()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_64_bits_rejected(self, seed):
        # the Philox key holds 64 bits of seed; a wider one would alias another
        with pytest.raises(EventModelError, match="seed"):
            DetectionParams(seed=seed).validate()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_64_bit_ends_accepted(self, seed):
        det = DetectionParams(zpl_efficiency=1.0, seed=seed)
        assert len(simulate_cycles(20, ideal_emitter(), InterferometerConfig(), ProtocolConfig(), det)) > 0

    def test_multiphoton_background_unsupported(self):
        with pytest.raises(EventModelError):
            simulate_cycles(
                10,
                ideal_emitter(),
                InterferometerConfig(),
                ProtocolConfig(n_photons=2, cycle_period_ns=2_000_000.0),
                DetectionParams(zpl_efficiency=1.0, background_rate_hz=10.0),
            )
