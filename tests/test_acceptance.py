"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are fixed here, not tuned: exact algebraic checks use
1e-10/1e-9, statistical checks use three propagated standard deviations, and
the regression fixture pins the published correlation values through frozen
imperfection parameters (FIXTURE in conftest.py).
"""
import time

import numpy as np
import pytest

from tpcsim.analysis import AnalysisParams, analyze_records, fidelity_bound
from tpcsim.cli import main
from tpcsim.emitter import EmitterParams
from tpcsim.events import EARLY, ERASED, LATE, DetectionParams, pair_coincidences, read_records, simulate_cycles, summarize
from tpcsim.optics import InterferometerConfig, classify_arrival, ArrivalClass
from tpcsim.protocol import (
    ProtocolConfig,
    as_qubit_pair,
    build_sequence,
    run_ideal,
    run_noisy,
    stabilizer_check,
)
from tpcsim.qsim import Operator, expectation

from conftest import FIXTURE, bell_target, fidelity_to, ideal_emitter, route, write_fixture_ini
from test_protocol import brute_force_chain

FIXTURE_TARGETS = dict(c_zz=0.837, c_xx=0.407, f_bound=0.647)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _verdict(number: int, ok: bool, message: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {message}")
    assert ok, f"criterion {number}: {message}"


IDEAL_INI = """
[emitter]
p_cross = 0.0
zpl_fraction = 1.0
p_shelve = 0.0
p_spin_flip = 0.0
init_fidelity = 1.0
nuclear_pol = 1.0
pi_pulse_error = 0.0
p_readout_click = 1.0

[interferometer]
phase_mode = scan
phase_readout_sigma = 0.0

[detection]
zpl_efficiency = 1.0
seed = 20240

[analysis]
p_readout_click = 1.0
"""


def test_criterion_1_ideal_protocol_exactness():
    t0 = time.perf_counter()
    steps = build_sequence(ProtocolConfig(), InterferometerConfig())
    final, checkpoints = run_ideal(steps, phi=0.0, return_checkpoints=True)
    named = dict(checkpoints)
    tol = 1.0 - 1e-10

    ok = fidelity_to(final, bell_target(0.0)) >= tol

    # checkpoints live on (spin, bin1, bin2): amplitude index spin * 4 + bin1 * 2 + bin2
    prepared = named["prepared"]
    psi0 = np.zeros(8, dtype=complex)
    psi0[0 * 4] = -1 / np.sqrt(2)
    psi0[1 * 4] = 1 / np.sqrt(2)
    ok &= abs(np.vdot(psi0, prepared.data)) ** 2 >= tol

    after_a1 = named["after_pulse_1"]
    psi_a1 = np.zeros(8, dtype=complex)
    psi_a1[1 * 4 + 0 * 2] = 1 / np.sqrt(2)   # |-1, no photon>
    psi_a1[0 * 4 + 1 * 2] = -1 / np.sqrt(2)  # -|0, photon>
    ok &= abs(np.vdot(psi_a1, after_a1.data)) ** 2 >= tol

    after_flip = named["after_flip_1"]
    psi_flip = np.zeros(8, dtype=complex)
    psi_flip[0 * 4 + 0 * 2] = 1 / np.sqrt(2)
    psi_flip[1 * 4 + 1 * 2] = 1 / np.sqrt(2)
    ok &= abs(np.vdot(psi_flip, after_flip.data)) ** 2 >= tol

    for phi in (0.4, np.pi / 3):
        ok &= fidelity_to(run_ideal(steps, phi=phi), bell_target(phi)) >= tol

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    _verdict(1, bool(ok), f"ideal chain and intermediate states exact ({elapsed * 1e3:.0f} ms)")


def test_criterion_2_routing_table_and_heralded_fraction():
    cfg = InterferometerConfig(delay_ns=262.0)
    t1, t2 = 0.0, 262.0
    table = {
        ("first", "short"): (t1, "V"),
        ("first", "long"): (t1 + 262.0, "H"),
        ("second", "short"): (t2, "V"),
        ("second", "long"): (t2 + 262.0, "H"),
    }
    ok = all(route(c, a, t1 if c == "first" else t2, cfg) == exp for (c, a), exp in table.items())
    # events 2) and 3) collide when the pulse spacing equals the arm delay
    ok &= route("first", "long", t1, cfg)[0] == route("second", "short", t2, cfg)[0]
    ref = route("second", "short", t2, cfg)[0]
    ok &= classify_arrival(np.array([ref, t1, t2 + 262.0]), ref, cfg).tolist() == [ERASED, EARLY, LATE]

    n = 100_000
    recs = simulate_cycles(
        n,
        ideal_emitter(p_readout_click=1.0),
        InterferometerConfig(phase_mode="scan"),
        ProtocolConfig(),
        DetectionParams(zpl_efficiency=1.0, seed=201),
    )
    frac = float(np.mean(recs["arrival_class"] == ERASED))
    ok &= len(recs) == n
    ok &= abs(frac - 0.5) <= 0.005
    _verdict(2, bool(ok), f"routing table exact, erased fraction {frac:.4f} over {n} photons")


def test_criterion_3_fidelity_bound_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3003)
    psi = np.zeros(4, dtype=complex)
    psi[1] = psi[2] = 1 / np.sqrt(2)
    xx = np.kron(SX, SX)
    worst = np.inf
    for _ in range(10_000):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        bound = fidelity_bound(tuple(np.real(np.diag(rho))), float(np.real(np.trace(rho @ xx))))
        exact = float(np.real(psi.conj() @ rho @ psi))
        worst = min(worst, exact - bound)
    ok = worst >= -1e-10

    # equality family: rho14 = 0, rho11 rho44 = 0, real rho23 >= 0
    for _ in range(200):
        p = rng.uniform(0.05, 0.95)
        c = rng.uniform(0.0, 1.0) * np.sqrt(p * (1 - p))
        rho = np.zeros((4, 4), dtype=complex)
        rho[1, 1], rho[2, 2] = p, 1 - p
        rho[1, 2] = rho[2, 1] = c
        bound = fidelity_bound(tuple(np.real(np.diag(rho))), float(np.real(np.trace(rho @ xx))))
        exact = float(np.real(psi.conj() @ rho @ psi))
        ok &= abs(bound - exact) < 1e-9

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    _verdict(3, bool(ok), f"bound sound on 10^4 random states, worst slack {worst:.2e} ({elapsed:.1f} s)")


def test_criterion_4_pipeline_recovery_of_published_values(tmp_path):
    t0 = time.perf_counter()
    params = EmitterParams(**FIXTURE)
    ifm = InterferometerConfig(
        phase_mode="scan", phase_readout_sigma=0.0, erasure_visibility=0.695814665779
    )

    # fixture verification: the exact heralded state carries the targets
    diag_w, xx_w = [], []
    for prep in ("minus", "plus"):
        steps = build_sequence(ProtocolConfig(prep_sign=prep), ifm)
        heralded = run_noisy(steps, params, ifm)
        weight = heralded.trace()
        pair = as_qubit_pair(heralded.normalized())
        diag_w.append((weight, np.real(np.diag(pair.data))))
        xx_w.append(expectation(pair, Operator(np.kron(SX, SX), ("spin", "photon1"))))
    wsum = sum(w for w, _ in diag_w)
    diag = sum(w * d for w, d in diag_w) / wsum
    c_zz_exact = diag[1] + diag[2] - diag[0] - diag[3]
    c_xx_exact = 0.5 * (xx_w[0] - xx_w[1])
    f_exact = fidelity_bound(tuple(diag), c_xx_exact)
    ok = abs(c_zz_exact - FIXTURE_TARGETS["c_zz"]) < 2e-5
    ok &= abs(c_xx_exact - FIXTURE_TARGETS["c_xx"]) < 2e-5
    ok &= abs(f_exact - FIXTURE_TARGETS["f_bound"]) < 2e-5

    # simulate > 1e6 heralded events through the CLI and analyze the file
    fixture_ini = tmp_path / "fixture.ini"
    write_fixture_ini(fixture_ini)
    records_path = tmp_path / "fixture_records.csv"
    n_cycles = 2_200_000
    code = main(
        ["simulate", "--config", str(fixture_ini), "--out", str(records_path), "--cycles", str(n_cycles)]
    )
    ok &= code == 0

    records = read_records(records_path)
    heralded_events = int(np.sum(records["arrival_class"] == ERASED))
    ok &= heralded_events >= 1_000_000

    report = analyze_records(records, AnalysisParams(p_readout_click=0.167), ifm)
    dev_zz = abs(report.c_zz - FIXTURE_TARGETS["c_zz"])
    dev_xx = abs(report.c_xx - FIXTURE_TARGETS["c_xx"])
    dev_f = abs(report.f_bound_raw - FIXTURE_TARGETS["f_bound"])
    ok &= dev_zz <= 3.0 * report.c_zz_err
    ok &= dev_xx <= 3.0 * report.c_xx_err
    ok &= dev_f <= 3.0 * report.f_bound_raw_err + 1e-3
    ok &= report.significance_raw > 11.0

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    _verdict(
        4,
        bool(ok),
        (
            f"{heralded_events} heralded events: c_zz {report.c_zz:.4f}+-{report.c_zz_err:.4f}, "
            f"c_xx {report.c_xx:.4f}+-{report.c_xx_err:.4f}, F {report.f_bound_raw:.4f}"
            f"+-{report.f_bound_raw_err:.4f}, significance {report.significance_raw:.0f} sigma "
            f"({elapsed:.0f} s)"
        ),
    )


def test_criterion_5_background_subtraction_oracle():
    # uniform background injected through the detection model at a known
    # path-erased fraction b; auto estimation must recover full contrast
    ok = True
    message = []
    for b in (0.1, 0.3):
        sig_erased_per_cycle = 0.5 * 0.02
        bg_erased_per_cycle = b / (1.0 - b) * sig_erased_per_cycle
        span_ns = 2.0 * 262.0 + 2.0 * 20.0
        rate_hz = bg_erased_per_cycle / (4.0 * 2.0 * 20.0 * 1e-9)
        ifm = InterferometerConfig(phase_mode="scan", phase_readout_sigma=0.0)
        det = DetectionParams(
            zpl_efficiency=0.02, background_rate_hz=rate_hz, seed=int(1000 * b)
        )
        recs = simulate_cycles(6_000_000, ideal_emitter(p_readout_click=1.0), ifm, ProtocolConfig(), det)
        raw = analyze_records(recs, AnalysisParams(p_readout_click=1.0), ifm)
        corrected = analyze_records(
            recs, AnalysisParams(p_readout_click=1.0), ifm, auto_background=True
        )
        ok &= abs(raw.c_xx - (1.0 - b)) <= 3.0 * raw.c_xx_err + 0.01
        ok &= abs(corrected.c_xx_corrected - 1.0) <= 3.0 * corrected.c_xx_corrected_err + 0.01
        message.append(
            f"b={b}: raw {raw.c_xx:.3f} (expect {1 - b:.1f}), "
            f"corrected {corrected.c_xx_corrected:.3f} (b_hat {corrected.background_fraction:.3f})"
        )
    _verdict(5, bool(ok), "; ".join(message))


def test_criterion_6_chain_rates():
    from tpcsim.rates import RatesConfig, chain_rate

    r3 = chain_rate(RatesConfig(0.4, 10e-6), 3)
    r10 = chain_rate(RatesConfig(0.4, 10e-6), 10)
    ok = r3 == pytest.approx(6400.0, abs=1e-9)
    ok &= abs(r10 - 10.49) <= 0.01 + 0.005
    _verdict(6, bool(ok), f"3-photon rate {r3:.1f} Hz, 10-photon rate {r10:.3f} Hz")


def test_criterion_7_coincidence_rate_consistency():
    # back-derived default period: defaults reproduce the published hourly
    # coincidence count (a consistency check, not an independent prediction)
    pcfg = ProtocolConfig()
    n_cycles = int(3600e9 / pcfg.cycle_period_ns)
    recs = simulate_cycles(
        n_cycles, EmitterParams(), InterferometerConfig(), pcfg, DetectionParams(seed=707)
    )
    stats = summarize(recs)
    coincidences = stats["coincidences"]
    ok = abs(coincidences - 36) <= 3 * np.sqrt(36)
    _verdict(
        7,
        bool(ok),
        f"{coincidences} coincidences in one simulated hour ({n_cycles} cycles, expect 36 +- 18)",
    )


def test_criterion_8_multiphoton_stabilizers_and_heralding():
    ok = True
    details = []
    for n in (2, 3):
        pcfg = ProtocolConfig(n_photons=n, cycle_period_ns=2_000_000.0)
        steps = build_sequence(pcfg, InterferometerConfig())
        state = run_ideal(steps, phi=0.0)
        values = stabilizer_check(state, n)
        ok &= np.allclose(values, 1.0, atol=1e-9)

        psi = brute_force_chain(n)
        overlap = abs(np.vdot(psi, state.data)) ** 2
        ok &= overlap >= 1.0 - 1e-10
        details.append(f"n={n} generators {np.round(values, 6).tolist()}")

        n_cycles = 20_000
        recs = simulate_cycles(
            n_cycles,
            ideal_emitter(p_readout_click=1.0),
            InterferometerConfig(),
            pcfg,
            DetectionParams(zpl_efficiency=1.0, seed=800 + n, alternate_preps=False),
        )
        pairs, _ = pair_coincidences(recs, n_photons=n)
        by_cycle = {}
        for rec, _ in pairs:
            by_cycle.setdefault(rec.cycle_id, []).append(rec.arrival_class)
        heralded = sum(
            1 for v in by_cycle.values() if len(v) == n and set(v) == {ArrivalClass.ERASED.value}
        )
        p = heralded / n_cycles
        target = 2.0**-n
        ok &= abs(p - target) <= 3 * np.sqrt(target * (1 - target) / n_cycles)
        details.append(f"herald {p:.4f} (expect {target})")

        switch = simulate_cycles(
            5_000,
            ideal_emitter(p_readout_click=1.0),
            InterferometerConfig(active_switch=True),
            pcfg,
            DetectionParams(zpl_efficiency=1.0, seed=900 + n, alternate_preps=False),
        )
        all_erased = set(switch["arrival_class"].tolist()) == {ERASED}
        ok &= all_erased and len(switch) == 5_000 * n
    _verdict(8, bool(ok), "; ".join(details))


def test_criterion_9_worker_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(IDEAL_INI)
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    code1 = main(
        ["simulate", "--config", str(cfg), "--out", str(out1), "--cycles", "150000", "--seed", "33", "--workers", "1"]
    )
    code2 = main(
        ["simulate", "--config", str(cfg), "--out", str(out2), "--cycles", "150000", "--seed", "33", "--workers", "8"]
    )
    identical = out1.read_bytes() == out2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical
    _verdict(9, bool(ok), f"record files byte-identical across worker counts ({out1.stat().st_size} bytes)")
