"""Wavefront detection, Gaussian and linear fits, and the P5max scan the
CLI runs."""

import numpy as np
import pytest

from starkchain import (
    ConfigError,
    DomainError,
    FitDomainError,
    NoWavefrontError,
    PotentialSpec,
    boundary_peak,
    detect_first_wavefront,
    first_wavefront_peak,
    gaussian_fit_wavefront,
    linear_fit,
    moving_average3,
    paper_device,
    parse_config,
    propagate_single_particle,
    single_particle_matrix,
    wsl_length_from_boundary,
)
from starkchain.analysis import _fit_window, _jacobian
from starkchain.cli import run


def _gauss(t, a, t0, sigma):
    return a * np.exp(-((t - t0) ** 2) / (2 * sigma ** 2))


class TestSmoothing:
    def test_interior_average(self):
        y = np.array([0.0, 3.0, 6.0, 9.0, 3.0])
        s = moving_average3(y)
        np.testing.assert_allclose(s, [1.5, 3.0, 6.0, 6.0, 6.0])

    def test_short_series_passthrough(self):
        y = np.array([1.0, 2.0])
        np.testing.assert_allclose(moving_average3(y), y)


class TestWavefrontDetection:
    def test_picks_first_peak_not_global(self):
        t = np.arange(0, 200, 2.0)
        # first arrival at t = 60, larger revival at t = 150
        y = _gauss(t, 0.5, 60, 12) + _gauss(t, 0.9, 150, 12)
        k = detect_first_wavefront(y)
        assert abs(t[k] - 60) <= 4
        assert first_wavefront_peak(y) == pytest.approx(0.5, abs=0.01)

    def test_monotone_series_has_no_front(self):
        with pytest.raises(NoWavefrontError):
            detect_first_wavefront(np.linspace(0, 1, 50))

    def test_too_short(self):
        with pytest.raises(NoWavefrontError):
            detect_first_wavefront(np.array([0.1, 0.2]))

    def test_subthreshold_wiggles_ignored(self):
        t = np.arange(0, 200, 2.0)
        y = _gauss(t, 0.7, 150, 15)
        y[:20] += 0.02 * np.sin(t[:20])  # noise well below 10% of the max
        k = detect_first_wavefront(y)
        assert abs(t[k] - 150) <= 4

    def test_arms_above_the_floor(self):
        # a readout floor of 0.03 with a dip-and-rise before the front: 10%
        # of the maximum lies below the floor, so only arming at 10% of the
        # rise above t = 0 skips the wiggle
        t = np.arange(0, 200, 2.0)
        y = 0.03 + _gauss(t, 0.3, 120, 12)
        y[3:9] += [0.01, 0.02, 0.03, 0.02, 0.01, 0.0]
        k = detect_first_wavefront(y)
        assert abs(t[k] - 120) <= 4


class TestBoundaryPeak:
    def test_gaussian_mode_subtracts_the_floor(self):
        t = np.arange(0, 200, 2.0)
        floor = 0.04
        y = floor + _gauss(t, 0.2, 100, 15)
        assert boundary_peak(t, y, "gaussian") == pytest.approx(0.2, abs=1e-3)
        # the wavefront mode keeps the raw sample, floor included
        assert boundary_peak(t, y) == pytest.approx(0.2 + floor, abs=1e-3)

    def test_unknown_mode(self):
        t = np.arange(0, 200, 2.0)
        with pytest.raises(DomainError, match="unknown extraction mode"):
            boundary_peak(t, _gauss(t, 0.2, 100, 15), "spline")


class TestGaussianFit:
    def test_exact_recovery(self):
        t = np.arange(0, 241, 5.0)
        y = _gauss(t, 0.7, 120, 30)
        res = gaussian_fit_wavefront(t, y)
        assert res.converged
        assert res.parameters["amplitude"] == pytest.approx(0.7, abs=1e-6)
        assert res.parameters["center"] == pytest.approx(120, abs=1e-5)
        assert res.parameters["width"] == pytest.approx(30, abs=1e-5)
        assert res.rss < 1e-12

    def test_translation_covariance(self):
        t = np.arange(0, 301, 5.0)
        fits = []
        for t0 in (100.0, 140.0):
            y = _gauss(t, 0.4, t0, 25)
            res = gaussian_fit_wavefront(t, y)
            fits.append(res.parameters["center"])
        assert fits[1] - fits[0] == pytest.approx(40.0, abs=1e-8)

    def test_residual_orthogonality(self):
        # at the GN minimum the residual on the fit window is orthogonal to
        # the model tangent
        rng = np.random.default_rng(17)
        t = np.arange(0, 201, 2.0)
        y = np.clip(_gauss(t, 0.5, 90, 20) + 0.01 * rng.normal(size=t.shape), 0, 1)
        res = gaussian_fit_wavefront(t, y)
        assert res.converged
        stop = _fit_window(t, y)
        t, y = t[:stop], y[:stop]
        p = np.array([res.parameters["amplitude"], res.parameters["center"],
                      res.parameters["width"]])
        resid = _gauss(t, *p) - y
        jac = np.empty((t.shape[0], 3))
        for i in range(3):
            h = 1e-6 * max(abs(p[i]), 1e-3)
            hi, lo = p.copy(), p.copy()
            hi[i] += h
            lo[i] -= h
            jac[:, i] = (_gauss(t, *hi) - _gauss(t, *lo)) / (2 * h)
        grad = jac.T @ resid
        scale = np.linalg.norm(jac, axis=0) * np.linalg.norm(resid)
        assert np.all(np.abs(grad) < 1e-5 * np.maximum(scale, 1e-12))

    def test_window_margin(self):
        # points far past the first peak must not drag the fit: a revival
        # after the window leaves the fitted amplitude at the first peak
        t = np.arange(0, 301, 2.0)
        y = _gauss(t, 0.3, 80, 15) + _gauss(t, 0.9, 250, 10)
        res = gaussian_fit_wavefront(t, y)
        assert res.parameters["amplitude"] == pytest.approx(0.3, abs=0.02)

    @pytest.mark.parametrize("t0, sigma", [(2.0, 3.0), (2.5, 2.5)])
    def test_early_front_gets_five_points(self, t0, sigma):
        # a front detected at k <= 2 ends its margin before the fifth sample;
        # the window is floored at 5, as a noisy scan can need
        t = np.arange(0, 40, 2.0)
        y = _gauss(t, 0.5, t0, sigma)
        assert detect_first_wavefront(y) <= 2
        res = gaussian_fit_wavefront(t, y)
        assert res.converged
        assert res.parameters["amplitude"] == pytest.approx(0.5, abs=1e-9)
        assert res.parameters["center"] == pytest.approx(t0, abs=1e-9)
        # the floor is capped at the series: four samples still refuse
        with pytest.raises(FitDomainError, match="window has 4 points"):
            gaussian_fit_wavefront(t[:4], y[:4])

    @pytest.mark.parametrize("params", [(0.7, 120.0, 30.0), (0.05, 3.0, 0.4),
                                        (0.3, -5.0, 12.0), (1.0, 80.0, -15.0)])
    def test_jacobian_matches_central_differences(self, params):
        t = np.arange(0, 241, 1.0)
        p = np.array(params)
        num = np.empty((t.shape[0], 3))
        for i in range(3):
            h = 1e-6 * abs(p[i])
            hi, lo = p.copy(), p.copy()
            hi[i] += h
            lo[i] -= h
            num[:, i] = (_gauss(t, *hi) - _gauss(t, *lo)) / (2 * h)
        jac = _jacobian(p, t)
        scale = np.abs(num).max(axis=0)
        assert np.all(np.abs(jac - num) <= 1e-7 * scale)

    def test_validation(self):
        t = np.arange(0, 100, 2.0)
        with pytest.raises(DomainError):
            gaussian_fit_wavefront(t, np.full(t.shape, 1.5))
        with pytest.raises(DomainError):
            gaussian_fit_wavefront(t, np.zeros(10))


class TestLinearFit:
    def test_exact_line(self):
        x = np.arange(8.0)
        res = linear_fit(x, 2.5 * x - 1.0)
        assert res.parameters["slope"] == pytest.approx(2.5, abs=1e-12)
        assert res.parameters["intercept"] == pytest.approx(-1.0, abs=1e-12)
        assert res.r_squared == pytest.approx(1.0)
        assert res.stderr["slope"] == pytest.approx(0.0, abs=1e-10)

    def test_matches_polyfit(self):
        rng = np.random.default_rng(53)
        x = rng.uniform(0, 10, size=40)
        y = 1.3 * x + 0.7 + rng.normal(scale=0.3, size=40)
        res = linear_fit(x, y)
        ref = np.polyfit(x, y, 1)
        assert res.parameters["slope"] == pytest.approx(ref[0], abs=1e-12)
        assert res.parameters["intercept"] == pytest.approx(ref[1], abs=1e-12)

    def test_stderr_formula(self):
        rng = np.random.default_rng(59)
        x = np.arange(12.0)
        y = 0.5 * x + rng.normal(size=12)
        res = linear_fit(x, y)
        design = np.vstack([x, np.ones_like(x)]).T
        resid = y - design @ [res.parameters["slope"], res.parameters["intercept"]]
        cov = (resid @ resid) / 10.0 * np.linalg.inv(design.T @ design)
        assert res.stderr["slope"] == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(FitDomainError):
            linear_fit(np.ones(5), np.arange(5.0))
        with pytest.raises(DomainError):
            linear_fit(np.arange(4.0), np.arange(5.0))

    @pytest.mark.parametrize("x, y, name", [
        ([1.0, 2.0, 3.0], [1.0, np.inf, 3.0], "y"),
        ([1.0, 2.0, 3.0], [1.0, np.nan, 3.0], "y"),
        ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0], "x"),
        ([1.0, 2.0, -np.inf], [1.0, 2.0, 3.0], "x"),
    ])
    def test_non_finite_inputs(self, x, y, name):
        # an inf gave a nan slope after a RuntimeWarning
        with pytest.raises(DomainError, match=f"^{name} must be finite$"):
            linear_fit(x, y)


class TestP5maxScan:
    """The P5max scan as the CLI's wsl_scan runs it, and boundary_peak on
    exact P5 series of the paper device from 10000."""

    @staticmethod
    def _p5(f, times):
        h = single_particle_matrix(paper_device(), PotentialSpec.linear(-f))
        return propagate_single_particle(h, 1, times)[:, 4]

    def test_monotone_suppression(self, tmp_path):
        # the theory-mode scan on a finer and wider grid than the paper's
        run(parse_config({"experiment": "wsl_scan",
                          "F": [2.5 * k for k in range(1, 9)]}), out_dir=tmp_path)
        peaks = np.loadtxt(tmp_path / "wsl_scan.csv", delimiter=",",
                           skiprows=1)[:, 1]
        assert np.all((peaks > 0) & (peaks < 1))
        assert np.all(np.diff(peaks) < 0)

    def test_gaussian_mode_close_to_wavefront(self):
        times = np.arange(0.0, 301.0, 2.0)
        p5 = self._p5(10.0, times)
        wf = boundary_peak(times, p5, "wavefront")
        assert abs(boundary_peak(times, p5, "gaussian") - wf) < 0.05 * wf

    def test_validation(self):
        # the scan fits ln P5max against F, so it refuses F = 0 too
        with pytest.raises(ConfigError, match=r"^F\[0\]: .* must be >= 0"):
            parse_config({"experiment": "wsl_scan", "F": [-5, 15]})
        with pytest.raises(ConfigError, match=r"^F\[1\]: wsl_scan needs .* > 0"):
            parse_config({"experiment": "wsl_scan", "F": [5, 0]})

    def test_untilted_chain(self):
        # F = 0, off the scan's grid: the light cone reaches the boundary,
        # and the fitted amplitude tracks the true dense-time maximum
        times = np.arange(0.0, 301.0, 2.0)
        p5 = self._p5(0.0, times)
        assert boundary_peak(times, p5) > 0.5
        dense = self._p5(0.0, np.linspace(0, 300, 30001))
        assert abs(boundary_peak(times, p5, "gaussian") - dense.max()) < 0.05


class TestBoundaryLength:
    def test_value(self):
        p = np.exp(-4.0)
        assert wsl_length_from_boundary(p, 4.0) == pytest.approx(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            wsl_length_from_boundary(1.0, 4.0)
        with pytest.raises(DomainError):
            wsl_length_from_boundary(0.0, 4.0)
        with pytest.raises(DomainError):
            wsl_length_from_boundary(0.5, 0.0)

    @pytest.mark.parametrize("p5max, distance, match", [
        (0.5, np.nan, "^distance: must be finite, got nan$"),
        (0.5, np.inf, "^distance: must be finite, got inf$"),
    ])
    def test_every_input_is_named(self, p5max, distance, match):
        # a nan distance gave a nan length
        with pytest.raises(DomainError, match=match):
            wsl_length_from_boundary(p5max, distance)
