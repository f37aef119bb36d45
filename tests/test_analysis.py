"""Analysis tests: estimators against hand arithmetic, bound soundness,
background subtraction, and fit properties."""
import numpy as np
import pytest

from tpcsim.analysis import (
    AnalysisError,
    AnalysisParams,
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
