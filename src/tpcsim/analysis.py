"""Correlation and fidelity-bound reconstruction from click records.

Path-revealing events identify the emission cycle (early -> first cycle -> H,
late -> second cycle -> V) and, combined with the polar-basis spin readout,
give the diagonal populations in the ordering

    rho11 = (|0>, H)   rho22 = (|0>, V)   rho33 = (|-1>, H)   rho44 = (|-1>, V)

with ZZ counted positive for the correlated pairs (|0>, V) and (|-1>, H).
Path-erased events carry the interferometer phase; the bright-state
probability against the effective analyzer phase (record phase + port offset)
falls on one sinusoid per preparation sign, whose contrasts combine into the
XX correlation. Readout clicks are inverted through the calibrated
bright-state click probability before any probability is formed.

The estimators read counts only: ``tally_records`` drops the multi-click
cycles and counts the rest once into the ``Tally`` that they all share.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import pi, sin

import numpy as np

from .events import ARRIVAL_CLASSES, EARLY, ERASED, INVALID, LATE, PREP_NAMES, multiclick_cycles
from .optics import PORT_NAMES, InterferometerConfig, port_offsets, window_spans

DIAGONAL_LABELS = ("rho11_0H", "rho22_0V", "rho33_m1H", "rho44_m1V")
CELL_SHAPE = (len(PREP_NAMES), len(ARRIVAL_CLASSES), len(PORT_NAMES), 2)  # [prep, class, port, click]


class AnalysisError(ValueError):
    pass


@dataclass
class AnalysisParams:
    """Calibration constants and estimator knobs for record analysis."""

    p_readout_click: float = 0.167
    readout_dark_click: float = 0.0
    n_phase_bins: int = 16
    min_cell_count: int = 25

    def validate(self) -> None:
        if not 0.0 < self.p_readout_click <= 1.0:
            raise AnalysisError("p_readout_click must lie in (0, 1]")
        if not 0.0 <= self.readout_dark_click < self.p_readout_click:
            raise AnalysisError("readout_dark_click must lie in [0, p_readout_click)")
        if self.n_phase_bins < 4:
            raise AnalysisError("n_phase_bins must be >= 4")
        if self.min_cell_count < 1:
            raise AnalysisError("min_cell_count must be >= 1")

    def invert_click_fraction(self, f):
        """Bright-state probability from a raw click fraction (scalar or array)."""
        span = self.p_readout_click - self.readout_dark_click
        return np.clip((f - self.readout_dark_click) / span, 0.0, 1.0)

    def click_fraction_sigma(self, k, n):
        """Binomial error of the inverted bright-state probability from ``k``
        clicks in ``n`` events (scalars or arrays; infinite where n = 0)."""
        n = np.asarray(n, dtype=float)
        f = (k + 0.5) / (n + 1.0)  # smoothing keeps the variance estimate off zero
        span = self.p_readout_click - self.readout_dark_click
        with np.errstate(divide="ignore"):
            return np.sqrt(f * (1.0 - f) / n) / span


@dataclass
class FitCurve:
    amplitude: float
    amplitude_err: float
    phase0: float
    baseline: float
    n_events: int


@dataclass
class CorrelationReport:
    n_records: int
    n_rejected_cycles: int
    diagonals: tuple[float, float, float, float]
    diagonal_errors: tuple[float, float, float, float]
    c_zz: float
    c_zz_err: float
    c_xx: float
    c_xx_err: float
    fits: dict[str, FitCurve]
    f_bound_raw: float
    f_bound_raw_err: float
    significance_raw: float
    insufficient_cells: tuple[str, ...] = ()
    curves: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    # the corrected half, set by subtract_background
    background_fraction: float = field(init=False)
    background_fraction_err: float = field(init=False)
    c_zz_corrected: float = field(init=False)
    c_zz_corrected_err: float = field(init=False)
    c_xx_corrected: float = field(init=False)
    c_xx_corrected_err: float = field(init=False)
    f_bound_corrected: float = field(init=False)
    f_bound_corrected_err: float = field(init=False)
    significance_corrected: float = field(init=False)

    def to_text(self) -> str:
        def pm(name, value=None, err=None):  # a field and its _err field unless given
            if value is None:
                value, err = getattr(self, name), getattr(self, name + "_err")
            return f"{name} = {value:.6f} +- {err:.6f}"

        lines = [f"n_records = {self.n_records}", f"rejected_cycles = {self.n_rejected_cycles}"]
        lines += map(pm, DIAGONAL_LABELS, self.diagonals, self.diagonal_errors)
        lines += [pm("c_zz"), pm("c_xx")]
        for prep in (p for p in PREP_NAMES if p in self.fits):
            fit = self.fits[prep]
            lines.append(pm(f"fit_{prep}_amplitude", fit.amplitude, fit.amplitude_err))
            lines += [f"fit_{prep}_phase = {fit.phase0:.6f}", f"fit_{prep}_baseline = {fit.baseline:.6f}"]
        lines += [pm("background_fraction"), pm("c_zz_corrected"), pm("c_xx_corrected"), pm("f_bound_raw")]
        lines.append(f"significance_raw = {self.significance_raw:.2f}")
        lines.append(pm("f_bound_corrected"))
        lines.append(f"significance_corrected = {self.significance_corrected:.2f}")
        if self.insufficient_cells:
            lines.append("insufficient_statistics = " + ",".join(self.insufficient_cells))
        return "\n".join(lines) + "\n"


# -- the count tally ----------------------------------------------------------------


@dataclass(frozen=True)
class Tally:
    """Record counts, multi-click cycles dropped: ``cells[prep, class, port,
    click]``, and ``fringe[prep, bin, click]`` of the path-erased records in
    ``n_phase_bins`` equal bins of effective phase (record phase + port offset)."""

    cells: np.ndarray
    fringe: np.ndarray
    n_records: int
    n_rejected_cycles: int


def tally_records(records: np.ndarray, params: AnalysisParams, ifm: InterferometerConfig) -> Tally:
    """The tally of single-photon records in any order; the only reader of record columns."""
    params.validate()
    drop, rejected = multiclick_cycles(records["cycle_id"], 1)
    keep = ~drop
    prep, cls, port, click = (records[c][keep] for c in ("prep_sign", "arrival_class", "port", "readout_click"))
    erased = cls == ERASED
    phases = np.mod(records["phase_rad"][keep][erased] + port_offsets(ifm.quadrature_offset)[port[erased]], 2.0 * pi)
    nb = params.n_phase_bins
    bins = np.minimum((phases / (2.0 * pi / nb)).astype(int), nb - 1)
    cells = _count((prep, cls, port, click), CELL_SHAPE)
    fringe = _count((prep[erased], bins, click[erased]), (len(PREP_NAMES), nb, 2))
    return Tally(cells, fringe, len(prep), rejected)


def _count(index, shape) -> np.ndarray:
    """How often each index tuple occurs, as an array of ``shape``."""
    return np.bincount(np.ravel_multi_index(index, shape), minlength=np.prod(shape)).reshape(shape)


# -- diagonal (polar-basis) tomography ------------------------------------------


@dataclass
class DiagonalResult:
    diagonals: tuple[float, float, float, float]
    errors: tuple[float, float, float, float]
    c_zz: float
    c_zz_err: float
    stats: dict[str, float]
    insufficient: tuple[str, ...]


def diagonal_tomography(tally: Tally, params: AnalysisParams) -> DiagonalResult:
    """Populations and ZZ correlation from path-revealing events."""
    params.validate()
    counts = tally.cells.sum(axis=(0, 2))  # [class, click]
    n_e, n_l = int(counts[EARLY].sum()), int(counts[LATE].sum())
    if n_e == 0 or n_l == 0:
        raise AnalysisError("diagonal tomography needs both path-revealing arrival classes")
    insufficient = []
    for name, n in (("early", n_e), ("late", n_l)):
        if n < params.min_cell_count:
            insufficient.append(f"revealing_{name}")

    k_e, k_l = int(counts[EARLY, 1]), int(counts[LATE, 1])
    p0_e = params.invert_click_fraction(k_e / n_e)
    p0_l = params.invert_click_fraction(k_l / n_l)
    s_e = params.click_fraction_sigma(k_e, n_e)
    s_l = params.click_fraction_sigma(k_l, n_l)

    w_h = n_e / (n_e + n_l)
    s_wh = binomial_sigma(w_h, n_e + n_l)

    rho11 = w_h * p0_e
    rho33 = w_h * (1.0 - p0_e)
    rho22 = (1.0 - w_h) * p0_l
    rho44 = (1.0 - w_h) * (1.0 - p0_l)

    e11 = np.hypot(p0_e * s_wh, w_h * s_e)
    e33 = np.hypot((1.0 - p0_e) * s_wh, w_h * s_e)
    e22 = np.hypot(p0_l * s_wh, (1.0 - w_h) * s_l)
    e44 = np.hypot((1.0 - p0_l) * s_wh, (1.0 - w_h) * s_l)

    c_zz = rho22 + rho33 - rho11 - rho44
    dc_dwh = -(2.0 * p0_l - 1.0) - (2.0 * p0_e - 1.0)
    c_err = float(
        np.sqrt((dc_dwh * s_wh) ** 2 + (2.0 * (1.0 - w_h) * s_l) ** 2 + (2.0 * w_h * s_e) ** 2)
    )
    stats = {"n_early": n_e, "n_late": n_l, "w_h": w_h, "s_wh": s_wh, "p0_e": p0_e, "p0_l": p0_l, "s_e": s_e, "s_l": s_l}
    return DiagonalResult(
        (rho11, rho22, rho33, rho44),
        (float(e11), float(e22), float(e33), float(e44)),
        float(c_zz),
        c_err,
        stats,
        tuple(insufficient),
    )


# -- equatorial fringe fit --------------------------------------------------------


@dataclass
class EquatorialResult:
    c_xx: float
    c_xx_err: float
    fits: dict[str, FitCurve]
    curves: dict[str, np.ndarray]
    insufficient: tuple[str, ...]


def _fit_one_prep(counts: np.ndarray, params: AnalysisParams):
    """Fringe fit of one preparation's counts[bin, click]."""
    nb = len(counts)
    width = 2.0 * pi / nb
    n_b = counts.sum(axis=1).astype(float)
    k_b = counts[:, 1].astype(float)

    filled = n_b > 0
    if filled.sum() * width <= pi:
        raise AnalysisError("phase coverage below half a period; cannot fit the fringe")

    x = ((np.arange(nb) + 0.5) * width)[filled]
    n_f, k_f = n_b[filled], k_b[filled]
    y = params.invert_click_fraction(k_f / n_f)
    sigma = params.click_fraction_sigma(k_f, n_f)

    design = np.stack([np.ones_like(x), np.cos(x), np.sin(x)], axis=1)
    w = 1.0 / sigma**2
    wx = design * w[:, None]
    normal = design.T @ wx
    rhs = wx.T @ y
    try:
        coef = np.linalg.solve(normal, rhs)
        cov = np.linalg.inv(normal)
    except np.linalg.LinAlgError as exc:
        raise AnalysisError("fringe fit did not converge (singular design)") from exc
    c0, a, b = coef

    # finite bin width attenuates the harmonic by sinc(width / 2)
    atten = sin(width / 2.0) / (width / 2.0)
    amplitude = 2.0 * float(np.hypot(a, b)) / atten
    phase0 = float(np.arctan2(b, a))
    denom = max(np.hypot(a, b), 1e-30)
    grad = np.array([0.0, 2.0 * a / denom, 2.0 * b / denom]) / atten
    amp_err = float(np.sqrt(grad @ cov @ grad))

    curve = np.stack([x, y, sigma, n_f], axis=1)
    return FitCurve(amplitude, amp_err, phase0, float(c0), int(n_b.sum())), curve


def fit_equatorial(tally: Tally, params: AnalysisParams) -> EquatorialResult:
    """Per-preparation fringe fits and the combined XX correlation.

    Events from all equatorial ports lie on a single fringe through the
    effective phase that the tally bins them by. The two preparation signs
    produce anti-phased fringes; the XX correlation is the averaged contrast
    with its sign fixed by the fitted relative phase, which makes the value
    invariant under any common shift of the phase origin.
    """
    params.validate()
    if not tally.fringe.any():
        raise AnalysisError("no path-erased events to fit")

    fits: dict[str, FitCurve] = {}
    curves: dict[str, np.ndarray] = {}
    insufficient = []
    for counts, prep in zip(tally.fringe, PREP_NAMES):
        n = int(counts.sum())
        if n == 0:
            raise AnalysisError(f"missing path-erased events for preparation {prep!r}")
        if n < params.min_cell_count * params.n_phase_bins / 4:
            insufficient.append(f"erased_{prep}")
        fit, curve = _fit_one_prep(counts, params)
        fits[prep] = fit
        curves[prep] = curve

    rel = fits["minus"].phase0 - fits["plus"].phase0
    sign = -np.sign(np.cos(rel)) if abs(np.cos(rel)) > 1e-12 else 1.0
    c_xx = float(sign * 0.5 * (fits["minus"].amplitude + fits["plus"].amplitude))
    c_xx_err = float(0.5 * np.hypot(fits["minus"].amplitude_err, fits["plus"].amplitude_err))
    return EquatorialResult(c_xx, c_xx_err, fits, curves, tuple(insufficient))


# -- background --------------------------------------------------------------------


def estimate_background_fraction(tally: Tally, ifm: InterferometerConfig):
    """Background fraction of path-erased clicks from inter-window click rates.

    Clicks between the arrival windows can only be background; their rate per
    nanosecond, scaled by the erased-window width, predicts the background
    count hiding under the erased window.
    """
    ifm.validate()
    n_inv = int(tally.cells[:, INVALID].sum())
    n_erased = int(tally.cells[:, ERASED].sum())
    if n_erased == 0:
        raise AnalysisError("no path-erased events; background fraction undefined")
    t_window, t_invalid, _ = window_spans(ifm)
    expected_bg = n_inv * t_window / t_invalid
    b = min(expected_bg / n_erased, 0.999)
    sigma = (np.sqrt(max(n_inv, 1)) * t_window / t_invalid) / n_erased
    return float(b), float(sigma)


def subtract_background(report: CorrelationReport, background_fraction: float, background_err: float = 0.0) -> CorrelationReport:
    """Corrected report under uniform, spin-uncorrelated background.

    Correlations divide by (1 - b); diagonals shed a uniform weight b/4 per
    cell and renormalize.
    """
    b = background_fraction + 0.0  # -0.0 reads as 0.0
    if not 0.0 <= b < 1.0:
        raise AnalysisError(f"background fraction must lie in [0, 1), got {b}")
    scale = 1.0 / (1.0 - b)

    def corr(c, s):
        err = np.hypot(s * scale, c * background_err * scale**2)
        return c * scale, float(err)

    out = replace(report)  # the init=False corrected half is set below
    out.background_fraction, out.background_fraction_err = b, background_err
    out.c_zz_corrected, out.c_zz_corrected_err = corr(report.c_zz, report.c_zz_err)
    out.c_xx_corrected, out.c_xx_corrected_err = corr(report.c_xx, report.c_xx_err)
    diag = tuple((d - b / 4.0) * scale for d in report.diagonals)
    diag_err = tuple(
        float(np.hypot(e * scale, abs(d - 0.25) * background_err * scale**2))
        for d, e in zip(report.diagonals, report.diagonal_errors)
    )
    f_corr, f_corr_err = _bound_with_error(diag, diag_err, out.c_xx_corrected, out.c_xx_corrected_err)
    out.f_bound_corrected, out.f_bound_corrected_err = f_corr, f_corr_err
    out.significance_corrected = significance(f_corr, f_corr_err)
    return out


# -- fidelity bound ----------------------------------------------------------------


def fidelity_bound(diagonals, c_xx: float) -> float:
    """Entanglement fidelity lower bound from diagonals and the XX correlation.

    Positivity bounds the Bell coherence by sqrt(rho11 rho44), which turns the
    measured correlations into 0.5 (rho22 + rho33 - 2 sqrt(rho11 rho44) + Cxx).
    Negative values are meaningful diagnostics and are not clamped.
    """
    rho11, rho22, rho33, rho44 = diagonals
    return 0.5 * (rho22 + rho33 - 2.0 * np.sqrt(max(rho11, 0.0) * max(rho44, 0.0)) + c_xx)


def _bound_with_error(diagonals, diagonal_errors, c_xx, c_xx_err):
    rho11, rho22, rho33, rho44 = (max(d, 0.0) for d in diagonals)
    f = fidelity_bound(diagonals, c_xx)
    product = rho11 * rho44
    if product > 1e-12:
        d11 = -0.5 * np.sqrt(rho44 / rho11)
        d44 = -0.5 * np.sqrt(rho11 / rho44)
    else:
        d11 = d44 = 0.0  # sqrt term is quadratically small in the populations
    e11, e22, e33, e44 = diagonal_errors
    var = (
        (0.5 * e22) ** 2
        + (0.5 * e33) ** 2
        + (d11 * e11) ** 2
        + (d44 * e44) ** 2
        + (0.5 * c_xx_err) ** 2
    )
    return float(f), float(np.sqrt(var))


def significance(f_bound: float, f_err: float) -> float:
    """Standard deviations above the classical fidelity bound 0.5."""
    if f_err <= 0:
        raise AnalysisError("cannot form a significance from non-positive error")
    return float((f_bound - 0.5) / f_err)


def binomial_sigma(p: float, n: int) -> float:
    if n <= 0:
        raise AnalysisError("zero total counts")
    return float(np.sqrt(p * (1.0 - p) / n))


# -- pipeline ----------------------------------------------------------------------


def analyze_records(
    records: np.ndarray,
    params: AnalysisParams,
    ifm: InterferometerConfig,
    background: float | None = None,
    auto_background: bool = False,
) -> CorrelationReport:
    """Full reconstruction: diagonals, fringe fits, bounds, uncertainties."""
    tally = tally_records(records, params, ifm)
    if tally.n_records == 0:
        raise AnalysisError("no usable records")
    diag = diagonal_tomography(tally, params)
    eq = fit_equatorial(tally, params)
    f_raw, f_raw_err = _bound_with_error(diag.diagonals, diag.errors, eq.c_xx, eq.c_xx_err)

    report = CorrelationReport(
        n_records=tally.n_records,
        n_rejected_cycles=tally.n_rejected_cycles,
        diagonals=diag.diagonals,
        diagonal_errors=diag.errors,
        c_zz=diag.c_zz,
        c_zz_err=diag.c_zz_err,
        c_xx=eq.c_xx,
        c_xx_err=eq.c_xx_err,
        fits=eq.fits,
        f_bound_raw=f_raw,
        f_bound_raw_err=f_raw_err,
        significance_raw=significance(f_raw, f_raw_err),
        insufficient_cells=tuple(diag.insufficient) + tuple(eq.insufficient),
        curves=eq.curves,
    )
    b, b_err = 0.0, 0.0
    if auto_background:
        b, b_err = estimate_background_fraction(tally, ifm)
    elif background is not None:
        b, b_err = float(background), 0.0
    # at b = 0 with no error on b the corrected half equals the raw half bit
    # for bit; an explicit value outside [0, 1), NaN included, is refused there
    return subtract_background(report, b, b_err)


def write_diagonals_csv(path, report: CorrelationReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("population,value,error\n")
        for label, value, err in zip(DIAGONAL_LABELS, report.diagonals, report.diagonal_errors):
            fh.write(f"{label},{value:.6f},{err:.6f}\n")


def write_curves_csv(path, report: CorrelationReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("prep_sign,phase_center,p_bright,error,n_events\n")
        for prep, curve in report.curves.items():
            for center, y, err, n in curve:
                fh.write(f"{prep},{center:.6f},{y:.6f},{err:.6f},{int(n)}\n")
