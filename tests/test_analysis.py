"""Analysis tests: estimators against hand arithmetic, bound soundness,
background subtraction, and fit properties."""
import numpy as np
import pytest

from tpcsim.analysis import (
    CELL_SHAPE,
    AnalysisError,
    AnalysisParams,
    Tally,
    _bound_with_error,
    analyze_records,
    diagonal_tomography,
    estimate_background_fraction,
    fidelity_bound,
    fit_equatorial,
    significance,
    subtract_background,
    tally_records,
)
from tpcsim.emitter import EmitterParams
from tpcsim.events import EARLY, ERASED, INVALID, LATE, RECORD_DTYPE, DetectionParams, simulate_cycles
from tpcsim.optics import InterferometerConfig
from tpcsim.protocol import ProtocolConfig

from conftest import FIXTURE, fixture_exact, ideal_emitter, make_records


def ideal_records(n_cycles, seed=5, **ifm_overrides):
    ifm = InterferometerConfig(phase_mode="scan", phase_readout_sigma=0.0, **ifm_overrides)
    det = DetectionParams(zpl_efficiency=1.0, seed=seed)
    return simulate_cycles(n_cycles, ideal_emitter(p_readout_click=1.0), ifm, ProtocolConfig(), det), ifm


def tomography(records, params):
    """diagonal_tomography on the tally of ``records``."""
    return diagonal_tomography(tally_records(records, params, InterferometerConfig()), params)


def fringe_fit(records, params, ifm):
    """fit_equatorial on the tally of ``records``."""
    return fit_equatorial(tally_records(records, params, ifm), params)


def background_fraction(records, ifm):
    """estimate_background_fraction on the tally of ``records``."""
    return estimate_background_fraction(tally_records(records, AnalysisParams(), ifm), ifm)


def inject_uniform_background(records, b, ifm, rng):
    """Add spin-uncorrelated, time-uniform clicks so the path-erased class
    carries a background fraction ``b``. Injected clicks use fresh cycle ids."""
    n_sig_erased = int(np.sum(records["arrival_class"] == ERASED))
    n_bg_erased = b / (1.0 - b) * n_sig_erased
    w, d = ifm.window_ns, ifm.delay_ns
    span = 2.0 * d + 2.0 * w
    n_total = int(round(n_bg_erased * span / (2.0 * w)))
    t_rel = rng.uniform(-d - w, d + w, size=n_total)
    cls = np.full(n_total, INVALID)
    cls[np.abs(t_rel) <= w] = ERASED
    cls[np.abs(t_rel + d) <= w] = EARLY
    cls[np.abs(t_rel - d) <= w] = LATE
    injected = np.empty(n_total, dtype=RECORD_DTYPE)
    injected["cycle_id"] = int(records["cycle_id"].max()) + 1 + np.arange(n_total)
    injected["port"] = rng.integers(4, size=n_total)
    injected["arrival_class"] = cls
    injected["t_ns"] = t_rel
    injected["phase_rad"] = rng.uniform(0, 2 * np.pi, size=n_total)
    injected["prep_sign"] = rng.random(n_total) >= 0.5  # minus below one half
    injected["readout_click"] = rng.random(n_total) < 0.5
    merged = np.concatenate([records, injected])
    return merged[np.argsort(merged["cycle_id"], kind="stable")]


class TestDiagonalTomography:
    def test_hand_counted_populations(self):
        # 1000 early / 300 bright, 500 late / 400 bright at unit readout
        # calibration: w_H = 2/3, P(0|E) = 0.3, P(0|L) = 0.8
        rows = []
        for i in range(1000):
            rows.append((i, "D", "EarlyRevealing", 0.0, 0.0, "minus", 1 if i < 300 else 0))
        for i in range(500):
            rows.append((1000 + i, "D", "LateRevealing", 0.0, 0.0, "minus", 1 if i < 400 else 0))
        result = tomography(make_records(rows), AnalysisParams(p_readout_click=1.0))
        rho11, rho22, rho33, rho44 = result.diagonals
        assert abs(rho11 - 2 / 3 * 0.3) < 1e-12
        assert abs(rho33 - 2 / 3 * 0.7) < 1e-12
        assert abs(rho22 - 1 / 3 * 0.8) < 1e-12
        assert abs(rho44 - 1 / 3 * 0.2) < 1e-12
        assert abs(sum(result.diagonals) - 1.0) < 1e-12
        assert abs(result.c_zz - (rho22 + rho33 - rho11 - rho44)) < 1e-12

    def test_readout_calibration_inversion(self):
        # same populations observed through a 16.7% bright-click probability
        rng = np.random.default_rng(0)
        rows = []
        for i in range(40_000):
            bright = rng.random() < 0.3
            click = bright and (rng.random() < 0.167)
            rows.append((i, "D", "EarlyRevealing", 0.0, 0.0, "minus", int(click)))
        for i in range(40_000):
            bright = rng.random() < 0.8
            click = bright and (rng.random() < 0.167)
            rows.append((40_000 + i, "D", "LateRevealing", 0.0, 0.0, "minus", int(click)))
        result = tomography(make_records(rows), AnalysisParams(p_readout_click=0.167))
        assert abs(result.stats["p0_e"] - 0.3) < 3 * result.stats["s_e"]
        assert abs(result.stats["p0_l"] - 0.8) < 3 * result.stats["s_l"]

    def test_ideal_records_give_unit_correlation(self):
        recs, _ = ideal_records(40_000)
        result = tomography(recs, AnalysisParams(p_readout_click=1.0))
        assert abs(result.c_zz - 1.0) <= 3 * max(result.c_zz_err, 1e-4)

    def test_uniform_random_records_give_zero(self):
        rng = np.random.default_rng(11)
        rows = []
        for i in range(20_000):
            cls = ("EarlyRevealing", "LateRevealing")[rng.integers(2)]
            rows.append((i, "D", cls, 0.0, 0.0, "minus", int(rng.random() < 0.5)))
        result = tomography(make_records(rows), AnalysisParams(p_readout_click=1.0))
        assert abs(result.c_zz) <= 3 * result.c_zz_err

    def test_missing_class_rejected(self):
        rows = [(0, "D", "EarlyRevealing", 0.0, 0.0, "minus", 1)]
        with pytest.raises(AnalysisError):
            tomography(make_records(rows), AnalysisParams())

    def test_insufficient_statistics_flagged_not_fatal(self):
        rows = [
            (0, "D", "EarlyRevealing", 0.0, 0.0, "minus", 1),
            (1, "D", "LateRevealing", 0.0, 0.0, "minus", 0),
        ]
        result = tomography(make_records(rows), AnalysisParams(p_readout_click=1.0))
        assert "revealing_early" in result.insufficient


class TestEquatorialFit:
    def test_ideal_contrast_and_antiphase(self):
        recs, ifm = ideal_records(60_000)
        result = fringe_fit(recs, AnalysisParams(p_readout_click=1.0), ifm)
        assert abs(result.c_xx - 1.0) <= 3 * result.c_xx_err + 0.01
        rel = result.fits["minus"].phase0 - result.fits["plus"].phase0
        assert abs(abs(((rel + np.pi) % (2 * np.pi)) - np.pi) - np.pi) % np.pi < 0.05

    def test_dephased_photon_gives_zero_contrast(self):
        recs, ifm = ideal_records(40_000, erasure_visibility=0.0)
        result = fringe_fit(recs, AnalysisParams(p_readout_click=1.0), ifm)
        assert abs(result.c_xx) <= 3 * result.c_xx_err + 0.01

    def test_intermediate_coherence_recovered(self):
        recs, ifm = ideal_records(80_000, erasure_visibility=0.407, seed=9)
        result = fringe_fit(recs, AnalysisParams(p_readout_click=1.0), ifm)
        assert abs(result.c_xx - 0.407) <= 3 * result.c_xx_err + 0.01

    def test_exact_invariance_under_one_bin_shift(self):
        # shifting every phase by one bin width relabels the bins: the contrast
        # and the combined correlation are bit-identical
        recs, ifm = ideal_records(20_000, seed=13)
        params = AnalysisParams(p_readout_click=1.0)
        shifted = recs.copy()
        width = 2 * np.pi / params.n_phase_bins
        shifted["phase_rad"] = np.mod(shifted["phase_rad"] + width, 2 * np.pi)
        a = fringe_fit(recs, params, ifm)
        b = fringe_fit(shifted, params, ifm)
        assert abs(a.c_xx - b.c_xx) < 1e-9

    def test_approximate_invariance_under_any_shift(self):
        recs, ifm = ideal_records(40_000, seed=14)
        params = AnalysisParams(p_readout_click=1.0)
        shifted = recs.copy()
        shifted["phase_rad"] = np.mod(shifted["phase_rad"] + 0.613, 2 * np.pi)
        a = fringe_fit(recs, params, ifm)
        b = fringe_fit(shifted, params, ifm)
        assert abs(a.c_xx - b.c_xx) < 3 * np.hypot(a.c_xx_err, b.c_xx_err) + 0.005

    def test_phase_coverage_below_half_period_rejected(self):
        rng = np.random.default_rng(3)
        rows = []
        for i in range(2_000):
            for prep in ("minus", "plus"):
                rows.append(
                    (len(rows), "D", "Erased", 0.0, rng.uniform(0, 1.2), prep, int(rng.random() < 0.5))
                )
        with pytest.raises(AnalysisError, match="coverage"):
            fringe_fit(make_records(rows), AnalysisParams(p_readout_click=1.0), InterferometerConfig())

    def test_insufficient_statistics_flagged_not_fatal(self):
        recs, ifm = ideal_records(4_000)
        params = AnalysisParams(p_readout_click=1.0, min_cell_count=10_000)
        assert fringe_fit(recs, params, ifm).insufficient == ("erased_minus", "erased_plus")

    def test_prep_without_readout_clicks_keeps_an_amplitude_error(self):
        # a preparation with no readout click fits a harmonic of exactly 0,
        # where the amplitude has no gradient; its error is the rms error of
        # the two harmonic coefficients, not 0
        rng = np.random.default_rng(21)
        phases = rng.uniform(0, 2 * np.pi, 4_000)
        clicks = rng.random(4_000) < (1 + np.cos(phases)) / 2
        rows = [
            (2 * i + p, "D", "Erased", 0.0, phi, prep, int(click and prep == "minus"))
            for i, (phi, click) in enumerate(zip(phases, clicks))
            for p, prep in enumerate(("minus", "plus"))
        ]
        params = AnalysisParams(p_readout_click=1.0)
        result = fringe_fit(make_records(rows), params, InterferometerConfig())
        fit = result.fits["plus"]
        assert fit.amplitude == 0.0
        x, _, sigma, _ = result.curves["plus"].T
        design = np.stack([np.ones_like(x), np.cos(x), np.sin(x)], axis=1)
        cov = np.linalg.inv(design.T @ (design / sigma[:, None] ** 2))
        half = np.pi / params.n_phase_bins
        expected = 2.0 / (np.sin(half) / half) * np.sqrt((cov[1, 1] + cov[2, 2]) / 2)
        assert fit.amplitude_err == pytest.approx(expected, rel=1e-12) and expected > 1e-3
        assert result.c_xx_err > 0.5 * result.fits["minus"].amplitude_err
        # with no readout click at all, c_xx is 0 with an error, and never -0.0
        silent = make_records([(i, port, cls, t, phi, prep, 0) for i, port, cls, t, phi, prep, _ in rows])
        result = fringe_fit(silent, params, InterferometerConfig())
        assert result.c_xx == 0.0 and not np.signbit(result.c_xx) and result.c_xx_err > 1e-3

    def test_missing_prep_rejected(self):
        rows = [(i, "D", "Erased", 0.0, 0.1 * i, "minus", 0) for i in range(100)]
        with pytest.raises(AnalysisError, match="plus"):
            fringe_fit(make_records(rows), AnalysisParams(p_readout_click=1.0), InterferometerConfig())


class TestPhaseBins:
    def test_bins_partition_full_turn(self):
        recs, ifm = ideal_records(10_000, seed=31)
        params = AnalysisParams(p_readout_click=1.0)
        curves = fringe_fit(recs, params, ifm).curves
        assert set(curves) == {"minus", "plus"}
        width = 2 * np.pi / params.n_phase_bins
        for curve in curves.values():
            centers = curve[:, 0]
            assert len(centers) == params.n_phase_bins
            assert np.allclose(np.diff(centers), width)
            assert 0.0 < centers[0] < width
            assert centers[-1] < 2 * np.pi

    def test_counts_cover_all_erased_events(self):
        recs, ifm = ideal_records(10_000, seed=32)
        curves = fringe_fit(recs, AnalysisParams(p_readout_click=1.0), ifm).curves
        total = sum(curve[:, 3].sum() for curve in curves.values())
        assert total == int(np.sum(recs["arrival_class"] == ERASED)) > 0


class TestBackground:
    @pytest.mark.parametrize("background", [None, 0.0, -0.0])
    def test_zero_background_leaves_report(self, background):
        # the corrected half equals the raw half bit for bit
        recs, ifm = ideal_records(30_000)
        report = analyze_records(recs, AnalysisParams(p_readout_click=1.0), ifm, background=background)
        assert "background_fraction = 0.000000 +- 0.000000" in report.to_text()
        assert (report.background_fraction, report.background_fraction_err) == (0.0, 0.0)
        for raw, corrected in (
            ("c_zz", "c_zz_corrected"),
            ("c_zz_err", "c_zz_corrected_err"),
            ("c_xx", "c_xx_corrected"),
            ("c_xx_err", "c_xx_corrected_err"),
            ("f_bound_raw", "f_bound_corrected"),
            ("f_bound_raw_err", "f_bound_corrected_err"),
            ("significance_raw", "significance_corrected"),
        ):
            assert getattr(report, corrected) == getattr(report, raw), corrected

    def test_zero_estimate_keeps_its_error(self):
        # no inter-window click: the estimate is 0 with the error of one click
        recs, ifm = ideal_records(30_000)
        b, sigma = background_fraction(recs, ifm)
        report = analyze_records(recs, AnalysisParams(p_readout_click=1.0), ifm, auto_background=True)
        assert b == 0.0 < sigma
        assert (report.background_fraction, report.background_fraction_err) == (b, sigma)
        assert report.c_zz_corrected == report.c_zz
        assert report.c_zz_corrected_err > report.c_zz_err

    def test_uniform_mixture_algebra(self):
        # C_raw = (1 - b) C_true: at C_raw = 0.5, b = 0.5 the corrected value is 1
        recs, ifm = ideal_records(30_000)
        report = analyze_records(recs, AnalysisParams(p_readout_click=1.0), ifm)
        report = subtract_background(report, 0.5)
        c_zz_corr, c_xx_corr = report.c_zz / (1 - 0.5), report.c_xx / (1 - 0.5)
        assert abs(c_zz_corr - 2 * report.c_zz) < 1e-12
        assert report.f_bound_corrected > report.f_bound_raw

    def test_estimator_recovers_injected_fraction(self):
        rng = np.random.default_rng(7)
        for b in (0.1, 0.3, 0.5):
            recs, ifm = ideal_records(30_000, seed=int(100 * b))
            merged = inject_uniform_background(recs, b, ifm, rng)
            b_hat, sigma = background_fraction(merged, ifm)
            assert abs(b_hat - b) <= 4 * sigma + 0.01

    def test_subtract_undoes_injection(self):
        rng = np.random.default_rng(8)
        params = AnalysisParams(p_readout_click=1.0)
        for b in (0.1, 0.3, 0.5):
            recs, ifm = ideal_records(60_000, seed=int(17 + 100 * b))
            merged = inject_uniform_background(recs, b, ifm, rng)
            report = analyze_records(merged, params, ifm, auto_background=True)
            raw = analyze_records(merged, params, ifm)
            assert abs(raw.c_xx - (1 - b)) <= 3 * raw.c_xx_err + 0.02
            assert abs(report.c_xx_corrected - 1.0) <= 4 * report.c_xx_corrected_err + 0.03

    def test_reported_error_is_the_spread_of_the_estimate(self):
        # criterion 5's set-up at b = 0.3, injected through the detection
        # model: over 100 seeds the sd of b_hat is the mean reported error
        # within [0.8, 1.25] (the sd's own spread is about 1 / sqrt(200) = 0.07).
        # The ratio needs no target, so the kept fraction, a little below the
        # injected one (multi-click rejection drops some background), does
        # not enter it. An error that counts n_inv's noise alone reads about 2.
        b, eta = 0.3, 0.02
        rate_hz = b / (1.0 - b) * 0.5 * eta / (4.0 * 2.0 * 20.0 * 1e-9)
        ifm = InterferometerConfig(phase_mode="scan", phase_readout_sigma=0.0)
        params = AnalysisParams(p_readout_click=1.0)
        estimates = []
        for seed in range(1, 101):
            det = DetectionParams(zpl_efficiency=eta, background_rate_hz=rate_hz, seed=seed)
            recs = simulate_cycles(100_000, ideal_emitter(p_readout_click=1.0), ifm, ProtocolConfig(), det)
            estimates.append(estimate_background_fraction(tally_records(recs, params, ifm), ifm))
        b_hat, sigma = np.array(estimates).T
        assert 0.8 <= np.std(b_hat, ddof=1) / sigma.mean() <= 1.25

    @pytest.mark.parametrize(
        "n_inv,expected", [(11_000, 11_000 * 40.0 / 444.0 / 1000), (11_090, 0.999), (12_000, 0.999)], ids=["below", "above", "far-above"]
    )
    def test_estimate_is_capped_at_0_999(self, n_inv, expected):
        # 1000 erased clicks; the inter-window clicks predict n_inv * 40 / 444
        # under the erased window (w = 20 ns, d = 262 ns): 0.991 is kept,
        # 0.99919 and 1.081 read 0.999
        ifm = InterferometerConfig()
        cells = np.zeros(CELL_SHAPE, dtype=np.int64)
        cells[0, ERASED, 0, 0], cells[1, INVALID, 2, 1] = 1000, n_inv
        b, _ = estimate_background_fraction(Tally(cells, np.zeros((2, 4, 2), dtype=np.int64), 1000 + n_inv, 0), ifm)
        assert b == expected

    def test_invalid_fraction_rejected(self):
        recs, ifm = ideal_records(5_000)
        report = analyze_records(recs, AnalysisParams(p_readout_click=1.0), ifm)
        with pytest.raises(AnalysisError):
            subtract_background(report, 1.0)


class TestFidelityBound:
    def test_ideal_bell_diagonals(self):
        assert abs(fidelity_bound((0.0, 0.5, 0.5, 0.0), 1.0) - 1.0) < 1e-12

    def test_maximally_mixed(self):
        assert abs(fidelity_bound((0.25, 0.25, 0.25, 0.25), 0.0)) < 1e-12

    def test_no_clamping_of_negative_values(self):
        assert fidelity_bound((0.5, 0.0, 0.0, 0.5), -1.0) < -0.9

    def test_sound_on_ginibre_samples(self):
        # bound <= <psi+|rho|psi+> with exact diagonals and exact Cxx; the slack
        # is |rho14| - sqrt(rho11 rho44) <= 0 by positivity
        rng = np.random.default_rng(123)
        psi = np.zeros(4, dtype=complex)
        psi[1] = psi[2] = 1 / np.sqrt(2)
        sx = np.array([[0, 1], [1, 0]])
        xx = np.kron(sx, sx)
        worst = np.inf
        for _ in range(2_000):
            g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            diagonals = tuple(np.real(np.diag(rho)))
            c_xx = float(np.real(np.trace(rho @ xx)))
            bound = fidelity_bound(diagonals, c_xx)
            exact = float(np.real(psi.conj() @ rho @ psi))
            worst = min(worst, exact - bound)
        assert worst >= -1e-10

    def test_equality_cases(self):
        # rho14 = 0 and rho11 rho44 = 0 with real positive rho23 saturate the bound
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = rng.uniform(0.2, 0.8)
            c = rng.uniform(0.0, 1.0) * np.sqrt(p * (1 - p))
            rho = np.zeros((4, 4), dtype=complex)
            rho[1, 1], rho[2, 2] = p, 1 - p
            rho[1, 2] = rho[2, 1] = c
            eigs = np.linalg.eigvalsh(rho)
            assert eigs.min() > -1e-12
            diagonals = tuple(np.real(np.diag(rho)))
            sx = np.array([[0, 1], [1, 0]])
            c_xx = float(np.real(np.trace(rho @ np.kron(sx, sx))))
            psi = np.zeros(4, dtype=complex)
            psi[1] = psi[2] = 1 / np.sqrt(2)
            exact = float(np.real(psi.conj() @ rho @ psi))
            assert abs(fidelity_bound(diagonals, c_xx) - exact) < 1e-9


class TestErrors:
    def test_published_significances(self):
        assert abs(significance(0.647, 0.013) - 11.3) < 0.01
        assert abs(significance(0.560, 0.009) - 6.67) < 0.01

    @pytest.mark.parametrize("f_err", [0.0, -0.0, -0.01])
    def test_significance_refuses_a_non_positive_error(self, f_err):
        with pytest.raises(AnalysisError, match="non-positive error"):
            significance(0.6, f_err)

    def test_bound_error_keeps_the_sqrt_term_near_a_zero_diagonal(self):
        # rho11 rho44 = 1e-9 is small but nonzero: the bound is differentiable
        # there, and its error takes the sqrt term's slope, which a central
        # difference of fidelity_bound gives
        diagonals, c_xx, h = np.array([1e-4, 0.55, 0.44989, 1e-5]), 0.8, 1e-8
        components = np.diag([0.002, 0.01, 0.01, 0.003, 0.02])
        grad = [
            (fidelity_bound(diagonals + h * e, c_xx) - fidelity_bound(diagonals - h * e, c_xx)) / (2 * h) for e in np.eye(4)
        ] + [0.5]
        bound, err = _bound_with_error(tuple(diagonals), c_xx, components)
        assert bound == fidelity_bound(diagonals, c_xx)
        assert abs(err / np.linalg.norm(np.array(grad) @ components) - 1) < 1e-6

    def test_binomial_error_example(self):
        from tpcsim.analysis import binomial_sigma

        assert abs(binomial_sigma(0.5, 10_000) - 0.005) < 1e-12

    def test_zero_counts_rejected(self):
        from tpcsim.analysis import binomial_sigma

        with pytest.raises(AnalysisError):
            binomial_sigma(0.5, 0)


class TestPipeline:
    def test_full_report_fields(self):
        recs, ifm = ideal_records(40_000)
        report = analyze_records(recs, AnalysisParams(p_readout_click=1.0), ifm)
        text = report.to_text()
        for key in ("c_zz", "c_xx", "f_bound_raw", "f_bound_corrected", "significance_raw"):
            assert key in text
        assert abs(sum(report.diagonals) - 1.0) < 1e-9
        assert abs(report.c_zz) <= 1.0 + 1e-9
        assert report.f_bound_raw > 0.95

    def test_readout_dark_clicks_recover_the_exact_correlations(self):
        # the sampler's dark clicks and the analysis's inversion are one readout
        # rule, so the raw correlations and bound stay those of the exact state
        ifm = InterferometerConfig(phase_mode="scan", phase_readout_sigma=0.0, erasure_visibility=0.695814665779)
        det = DetectionParams(zpl_efficiency=1.0, readout_dark_click=0.03, seed=404)
        recs = simulate_cycles(400_000, EmitterParams(**FIXTURE), ifm, ProtocolConfig(), det)
        report = analyze_records(recs, AnalysisParams(p_readout_click=0.167, readout_dark_click=0.03), ifm)
        c_zz, c_xx, f_bound = fixture_exact(ifm)
        assert abs(report.c_zz - c_zz) <= 4.0 * report.c_zz_err
        assert abs(report.c_xx - c_xx) <= 4.0 * report.c_xx_err
        assert abs(report.f_bound_raw - f_bound) <= 4.0 * report.f_bound_raw_err

    def test_insufficient_cells_end_the_report_text(self):
        recs, ifm = ideal_records(4_000)
        report = analyze_records(recs, AnalysisParams(p_readout_click=1.0, min_cell_count=10_000), ifm)
        last = report.to_text().splitlines()[-1]
        assert last == "insufficient_statistics = revealing_early,revealing_late,erased_minus,erased_plus"

    def test_multiclick_cycles_rejected(self):
        rows = [
            (0, "D", "Erased", 0.0, 0.1, "minus", 1),
            (0, "A", "EarlyRevealing", 10.0, 0.1, "minus", 1),
        ]
        recs, ifm = ideal_records(20_000)
        merged = np.concatenate([make_records(rows), recs])
        merged["cycle_id"][:2] = -1  # keep sorted order with a shared leading cycle
        report = analyze_records(merged, AnalysisParams(p_readout_click=1.0), ifm)
        assert report.n_rejected_cycles == 1

    def test_all_multiclick_cycles_leave_no_usable_records(self):
        rows = [(c, "D", "Erased", 0.0, 0.1 * k, "minus", 1) for k, c in enumerate((0, 0, 1, 1, 1))]
        with pytest.raises(AnalysisError, match="no usable records"):
            analyze_records(make_records(rows), AnalysisParams(), InterferometerConfig())

    def test_revealing_records_only_have_no_fringe(self):
        rows = [(i, "D", ("EarlyRevealing", "LateRevealing")[i % 2], 0.0, 0.0, "minus", i % 3 == 0) for i in range(200)]
        with pytest.raises(AnalysisError, match="no path-erased events"):
            analyze_records(make_records(rows), AnalysisParams(), InterferometerConfig())

    @pytest.mark.parametrize("present,missing", [("minus", "plus"), ("plus", "minus")])
    def test_erased_records_of_one_prep_name_the_other(self, present, missing):
        rows = [(i, "D", ("EarlyRevealing", "LateRevealing")[i % 2], 0.0, 0.0, "minus", i % 3 == 0) for i in range(200)]
        rows += [(200 + i, "DARL"[i % 4], "Erased", 0.0, 0.05 * i, present, i % 2) for i in range(400)]
        with pytest.raises(AnalysisError, match=f"missing path-erased events for preparation '{missing}'"):
            analyze_records(make_records(rows), AnalysisParams(), InterferometerConfig())


# the criterion-4 fixture at 40,000 cycles: the records of perfbench's dense leg
# at its default seed, as `tpcsim simulate --config perfbench/configs/dense.ini` writes them
@pytest.fixture(scope="module")
def dense_fixture():
    ifm = InterferometerConfig(phase_mode="scan", phase_readout_sigma=0.0, erasure_visibility=0.695814665779)
    det = DetectionParams(zpl_efficiency=1.0, seed=404)
    recs = simulate_cycles(40_000, EmitterParams(**FIXTURE), ifm, ProtocolConfig(), det)
    return recs, ifm, AnalysisParams(p_readout_click=0.167)


def bound_of_inputs(w_h, p0_e, p0_l, c_xx, b=0.0):
    """The fidelity bound, background-corrected by ``b``, as a function of the
    independent inputs of the analysis."""
    diagonals = (w_h * p0_e, (1.0 - w_h) * p0_l, w_h * (1.0 - p0_e), (1.0 - w_h) * (1.0 - p0_l))
    return fidelity_bound(tuple((d - b / 4.0) / (1.0 - b) for d in diagonals), c_xx / (1.0 - b))


def propagated_error(f, x, sigmas, rel_step=1e-4):
    """First-order error of ``f`` at ``x``: central differences, one input at a
    time, each step a small fraction of that input's sigma."""
    var = 0.0
    for i, sigma in enumerate(sigmas):
        step = np.zeros(len(x))
        step[i] = rel_step * sigma
        var += ((f(*(np.asarray(x) + step)) - f(*(np.asarray(x) - step))) / (2.0 * rel_step)) ** 2
    return float(np.sqrt(var))


# every `name = value +- error` line of the dense report with background 0.2;
# the two f_bound errors count the inputs that the four diagonals share
DENSE_REPORT_PINS = {
    "rho11_0H": (0.004789, 0.001256),
    "rho22_0V": (0.436154, 0.011364),
    "rho33_m1H": (0.480227, 0.003825),
    "rho44_m1V": (0.078829, 0.010950),
    "c_zz": (0.832763, 0.022040),
    "c_xx": (0.368208, 0.032933),
    "fit_minus_amplitude": (0.349884, 0.045021),
    "fit_plus_amplitude": (0.386533, 0.048077),
    "background_fraction": (0.200000, 0.000000),
    "c_zz_corrected": (1.040954, 0.027550),
    "c_xx_corrected": (0.460260, 0.041166),
    "f_bound_raw": (0.622864, 0.018104),
    "f_bound_corrected": (0.740369, 0.021705),
}


class TestErrorPropagation:
    def test_bound_error_counts_shared_inputs(self, dense_fixture):
        # all four diagonals come from w_h, p0_e and p0_l, so the bound's error
        # is propagated through those inputs, not through the diagonals' errors
        recs, ifm, params = dense_fixture
        report = analyze_records(recs, params, ifm)
        stats = diagonal_tomography(tally_records(recs, params, ifm), params).stats
        inputs = [stats["w_h"], stats["p0_e"], stats["p0_l"], report.c_xx]
        sigmas = [stats["s_wh"], stats["s_e"], stats["s_l"], report.c_xx_err]
        expect = propagated_error(bound_of_inputs, inputs, sigmas)
        assert report.f_bound_raw_err == pytest.approx(expect, rel=1e-6)

        corrected = subtract_background(report, 0.2, 0.01)
        expect = propagated_error(bound_of_inputs, inputs + [0.2], sigmas + [0.01])
        assert corrected.f_bound_corrected_err == pytest.approx(expect, rel=1e-6)

    def test_dense_report_pins(self, dense_fixture):
        recs, ifm, params = dense_fixture
        got = {}
        for line in analyze_records(recs, params, ifm, background=0.2).to_text().splitlines():
            name, _, rest = line.partition(" = ")
            if " +- " in rest:
                value, err = rest.split(" +- ")
                got[name] = (float(value), float(err))
        assert got.keys() == DENSE_REPORT_PINS.keys()
        for name, pair in DENSE_REPORT_PINS.items():
            # two units of the last printed digit, as perfbench/pins.json
            assert got[name] == pytest.approx(pair, abs=2e-6), name
