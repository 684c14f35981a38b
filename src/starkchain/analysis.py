"""Post-processing: wavefront fits, boundary peaks, line fits and length
estimates, from which the CLI's wsl_scan builds its P5max scan."""

from dataclasses import dataclass, field

import numpy as np

from .device import _POSITIVE, _real
from .errors import DomainError, FitDomainError, NoWavefrontError

GN_MAX_ITERATIONS = 200
GN_REL_TOL = 1e-8
WAVEFRONT_THRESHOLD = 0.1  # fraction of the smoothed rise from t = 0


@dataclass(frozen=True)
class FitResult:
    parameters: dict
    stderr: dict
    rss: float
    converged: bool
    iterations: int
    r_squared: float = field(default=float("nan"))

    def __post_init__(self):
        for name, v in self.stderr.items():
            if v < 0:
                raise DomainError(f"negative standard error for {name!r}")


def moving_average3(values):
    """3-point smoothing; the two edge points average their available pair."""
    y = np.asarray(values, dtype=float)
    if y.shape[0] < 3:
        return y.copy()
    s = y.copy()
    s[1:-1] = (y[:-2] + y[1:-1] + y[2:]) / 3.0
    s[0] = (y[0] + y[1]) / 2.0
    s[-1] = (y[-2] + y[-1]) / 2.0
    return s


def detect_first_wavefront(values):
    """Index of the first arrival peak of a boundary-site series.

    Rule: on the 3-point-smoothed series s, the first index k from which the
    series decreases for 2 consecutive samples, considered only once the
    series has reached s[0] + 10% of its rise (max s - s[0]). Arming above
    the t = 0 value keeps a noisy series' readout floor from counting as
    the front.
    """
    s = moving_average3(values)
    if s.shape[0] < 3:
        raise NoWavefrontError("series too short for wavefront detection")
    threshold = s[0] + WAVEFRONT_THRESHOLD * (s.max() - s[0])
    armed = False
    for k in range(s.shape[0] - 2):
        if s[k] >= threshold:
            armed = True
        if armed and s[k + 1] < s[k] and s[k + 2] < s[k + 1]:
            return k
    raise NoWavefrontError("no first-wavefront peak found (series never turns)")


def first_wavefront_peak(values):
    """Raw-series maximum up to and including the detected wavefront index."""
    k = detect_first_wavefront(values)
    return float(np.asarray(values, dtype=float)[: k + 1].max())


def _gaussian(params, t):
    a, t0, sigma = params
    return a * np.exp(-((t - t0) ** 2) / (2.0 * sigma ** 2))


def _jacobian(params, t):
    """(len(t), 3) derivatives of _gaussian by amplitude, center and width."""
    a, t0, sigma = params
    u = (t - t0) / sigma
    e = np.exp(-0.5 * u ** 2)
    return np.column_stack([e, a * e * u / sigma, a * e * u ** 2 / sigma])


def _fit_window(times, values):
    k = detect_first_wavefront(values)
    s = moving_average3(values)
    half = 0.5 * s[k]
    left = k
    while left > 0 and s[left] >= half:
        left -= 1
    margin = times[k] - times[left]  # left half-width of the peak
    t_end = times[k] + margin
    stop = int(np.searchsorted(times, t_end, side="right"))
    return min(max(stop, k + 1, 5), len(times))


def gaussian_fit_wavefront(times_ns, values):
    """Gauss-Newton fit of A exp(-(t-t0)^2 / 2 sigma^2) to the first wavefront.

    The window runs from t = 0 to the first smoothed local maximum plus one
    left-half-width margin, and holds at least 5 samples where the series
    has them.
    Damped step halving; non-convergence is flagged on the result rather than
    raised.
    """
    t = np.asarray(times_ns, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.shape != y.shape:
        raise DomainError("times and values must have matching shapes")
    if np.any((y < -1e-9) | (y > 1.0 + 1e-9)):
        raise DomainError("values must lie in [0, 1]")
    window_stop = _fit_window(t, y)
    tw = t[:window_stop]
    yw = y[:window_stop]
    if tw.shape[0] < 5:
        raise FitDomainError(f"window has {tw.shape[0]} points, need >= 5")
    k0 = int(np.argmax(yw))
    span = tw[-1] - tw[0]
    params = np.array([max(yw[k0], 1e-6), tw[k0], max(span / 6.0, 1e-3)])
    rss = float(np.sum((_gaussian(params, tw) - yw) ** 2))
    converged = False
    iters = 0
    for iters in range(1, GN_MAX_ITERATIONS + 1):
        jac = _jacobian(params, tw)
        resid = _gaussian(params, tw) - yw
        try:
            step = np.linalg.solve(jac.T @ jac, jac.T @ resid)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        improved = False
        for _ in range(25):
            trial = params - lam * step
            trial_rss = float(np.sum((_gaussian(trial, tw) - yw) ** 2))
            if trial_rss < rss:
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
        rel = np.max(np.abs(lam * step) / np.maximum(np.abs(params), 1e-12))
        params, rss = trial, trial_rss
        if rel < GN_REL_TOL:
            converged = True
            break
    a, t0, sigma = params
    sigma = abs(sigma)
    jac = _jacobian(np.array([a, t0, sigma]), tw)
    dof = max(tw.shape[0] - 3, 1)
    try:
        cov = rss / dof * np.linalg.inv(jac.T @ jac)
        err = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        err = np.full(3, np.nan)
    return FitResult(
        parameters={"amplitude": float(a), "center": float(t0),
                    "width": float(sigma)},
        stderr={"amplitude": float(err[0]), "center": float(err[1]),
                "width": float(err[2])},
        rss=rss,
        converged=converged,
        iterations=iters,
    )


def linear_fit(x, y):
    """OLS y = slope*x + intercept with standard errors and R^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DomainError("x and y must be 1-d with matching length")
    for name, values in (("x", x), ("y", y)):
        if not np.isfinite(values).all():
            raise DomainError(f"{name} must be finite")
    if np.unique(x).shape[0] < 2:
        raise FitDomainError("need at least 2 distinct x values")
    design = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    slope, intercept = coef
    resid = y - design @ coef
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if tss == 0 else 1.0 - rss / tss
    dof = x.shape[0] - 2
    if dof > 0:
        cov = rss / dof * np.linalg.inv(design.T @ design)
        err = np.sqrt(np.diag(cov))
    else:
        err = np.zeros(2)
    return FitResult(
        parameters={"slope": float(slope), "intercept": float(intercept)},
        stderr={"slope": float(err[0]), "intercept": float(err[1])},
        rss=rss,
        converged=True,
        iterations=0,
        r_squared=float(r_squared),
    )


def boundary_peak(times_ns, values, mode="wavefront"):
    """P5max of one boundary-site series.

    mode 'wavefront' takes the raw first-wavefront peak (theory-point
    convention). 'gaussian' fits the Gaussian to the series less its floor,
    the smoothed value at t = 0 (the readout floor of a noisy series, about 0
    for an exact one), clipped to [0, 1], and takes the fitted amplitude.
    """
    if mode == "wavefront":
        return first_wavefront_peak(values)
    if mode != "gaussian":
        raise DomainError(f"unknown extraction mode {mode!r}")
    floor = moving_average3(values)[0]
    above = np.clip(np.asarray(values, dtype=float) - floor, 0.0, 1.0)
    return gaussian_fit_wavefront(times_ns, above).parameters["amplitude"]


def wsl_length_from_boundary(p5max, distance):
    """-distance / ln(P5max); proportional to the true length, not equal to
    it."""
    if not 0.0 < p5max < 1.0:
        raise DomainError(f"P5max must lie strictly in (0, 1), got {p5max}")
    return -_real(distance, "distance", _POSITIVE) / np.log(p5max)
