"""Point-process layer: Poisson sampling, ordered distance laws, and the
fading-weighted path-loss process."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import kstest

from secnet.fading import AlphaMuParams, sample_power_gain
from secnet.stochgeo import (
    NetworkGeometry,
    ordered_path_gains,
    pdf_kth_distance_pow,
    sample_hppp,
    window_radius,
)


def _geometry(d=2, upsilon=2.0, lambda_b=1.0, lambda_e=1.0, fading=None):
    fading = fading or AlphaMuParams.canonical(2.0, 3.0)
    return NetworkGeometry(
        d=d, upsilon=upsilon, lambda_b=lambda_b, lambda_e=lambda_e,
        fading_b=fading, fading_e=fading,
    )


class TestGeometry:
    def test_derived_constants(self):
        geo = _geometry(d=2, upsilon=4.0)
        assert geo.delta == pytest.approx(0.5)
        assert geo.unit_ball_volume == pytest.approx(math.pi)
        assert _geometry(d=3).unit_ball_volume == pytest.approx(4.0 * math.pi / 3.0)

    def test_pathloss_rate_scales_with_density(self):
        geo = _geometry(lambda_b=2.0, lambda_e=0.5)
        assert geo.pathloss_rate("legitimate") == pytest.approx(2.0 * math.pi)
        assert geo.pathloss_rate("eavesdropper") == pytest.approx(0.5 * math.pi)

    def test_composite_rate_ratio_tracks_densities(self):
        # identical fading both sides: the composite-rate ratio reduces to the
        # density ratio
        geo = _geometry(lambda_b=0.4, lambda_e=0.1)
        ratio = geo.composite_rate("legitimate") / geo.composite_rate("eavesdropper")
        assert ratio == pytest.approx(4.0, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            _geometry(d=0)
        with pytest.raises(ValueError):
            _geometry(upsilon=-1.0)
        with pytest.raises(ValueError):
            _geometry(lambda_b=0.0)
        with pytest.raises(ValueError):
            _geometry().fading("somewhere")


class TestHpppSampling:
    def test_mean_count_within_three_sigma(self):
        geo = _geometry()
        rng = np.random.default_rng(5)
        draws = 10**4
        counts = [sample_hppp(1.0, geo, 5.0, rng).shape[0] for _ in range(draws)]
        want = math.pi * 25.0
        sigma_mean = math.sqrt(want / draws)
        assert abs(np.mean(counts) - want) < 3.0 * sigma_mean

    def test_vanishing_density_gives_empty_sets(self):
        geo = _geometry()
        rng = np.random.default_rng(6)
        assert all(sample_hppp(1e-9, geo, 5.0, rng).shape[0] == 0 for _ in range(50))

    def test_points_fall_inside_ball(self):
        geo = _geometry(d=3)
        pts = sample_hppp(1.0, geo, 2.0, np.random.default_rng(7))
        assert np.all(np.linalg.norm(pts, axis=1) <= 2.0)
        assert pts.shape[1] == 3

    def test_fixed_seed_reproducible(self):
        geo = _geometry()
        a = sample_hppp(1.0, geo, 4.0, np.random.default_rng(11))
        b = sample_hppp(1.0, geo, 4.0, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_radius_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_hppp(1.0, _geometry(), 0.0, np.random.default_rng(0))


class TestKthDistanceLaw:
    def test_exponential_special_case(self):
        assert pdf_kth_distance_pow(1, 1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    @pytest.mark.parametrize("delta", [0.4, 0.5, 1.0, 2.0])
    def test_normalization(self, k, delta):
        total, _ = quad(
            lambda y: pdf_kth_distance_pow(k, math.pi, delta, y), 0, np.inf,
            epsabs=1e-12, epsrel=1e-10, limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_third_nearest_distance_pow_matches_simulation(self):
        # lambda=1, d=2, upsilon=2: simulate the 3rd nearest distance squared
        rng = np.random.default_rng(2718)
        k, lam, radius = 3, 1.0, 4.0
        trials = 10**5
        mean = lam * math.pi * radius**2
        counts = rng.poisson(mean, trials)
        width = counts.max()
        u = rng.random((trials, width))
        mask = np.arange(width)[None, :] < counts[:, None]
        r2 = np.where(mask, (radius * u ** 0.5) ** 2, np.inf)
        ok = counts >= k
        y = np.partition(r2, k - 1, axis=1)[:, k - 1][ok]
        cdf = lambda t: gammainc(k, lam * math.pi * t)
        assert kstest(y, cdf).pvalue > 0.01

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            pdf_kth_distance_pow(0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            pdf_kth_distance_pow(1, 1.0, 1.0, 0.0)


class TestFadingWeightedIntensity:
    def test_mean_measure_against_simulation(self):
        # count of weighted path losses below x should average rate * x^delta
        fading = AlphaMuParams.canonical(2.0, 3.0)
        geo = _geometry(d=2, upsilon=4.0, fading=fading)
        x = 2.0
        radius = window_radius(geo, "legitimate", 1)
        rng = np.random.default_rng(31415)
        trials = 10**5
        mean = geo.pathloss_rate("legitimate") * radius**geo.d
        counts = rng.poisson(mean, trials)
        width = counts.max()
        mask = np.arange(width)[None, :] < counts[:, None]
        r = radius * rng.random((trials, width)) ** (1.0 / geo.d)
        g = sample_power_gain(fading, rng, size=(trials, width))
        xi = np.where(mask, r**geo.upsilon / g, np.inf)
        hits = (xi <= x).sum(axis=1)
        want = geo.composite_rate("legitimate") * x**geo.delta
        sigma_mean = math.sqrt(want / trials)
        assert abs(hits.mean() - want) < 3.0 * sigma_mean


class TestOrderedPathGains:
    def test_single_point(self):
        geo = _geometry(d=2, upsilon=2.0)
        xi = ordered_path_gains(np.array([[3.0, 4.0]]), np.array([2.0]), geo)
        assert xi.shape == (1,)
        assert xi[0] == pytest.approx(25.0 / 2.0)

    def test_empty_input(self):
        assert ordered_path_gains(np.empty((0, 2)), np.empty(0), _geometry()).size == 0

    def test_sorted_output(self):
        geo = _geometry()
        rng = np.random.default_rng(8)
        pts = sample_hppp(2.0, geo, 5.0, rng)
        gains = sample_power_gain(geo.fading_b, rng, size=pts.shape[0])
        xi = ordered_path_gains(pts, gains, geo)
        assert np.all(np.diff(xi) >= 0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ordered_path_gains(np.zeros((3, 2)), np.ones(2), _geometry())

    def test_kth_best_weighted_loss_law(self):
        # empirical distribution of the k-th smallest weighted loss against
        # the regularized-gamma distribution of its mean measure
        fading = AlphaMuParams.canonical(2.0, 3.0)
        geo = _geometry(d=2, upsilon=2.0, fading=fading)
        k = 2
        radius = window_radius(geo, "legitimate", k)
        rng = np.random.default_rng(6021)
        trials = 10**5
        mean = geo.pathloss_rate("legitimate") * radius**geo.d
        counts = rng.poisson(mean, trials)
        width = counts.max()
        mask = np.arange(width)[None, :] < counts[:, None]
        r = radius * rng.random((trials, width)) ** (1.0 / geo.d)
        g = sample_power_gain(fading, rng, size=(trials, width))
        xi = np.where(mask, r**geo.upsilon / g, np.inf)
        ok = counts >= k
        xi_k = np.partition(xi, k - 1, axis=1)[:, k - 1][ok]
        rate = geo.composite_rate("legitimate")
        cdf = lambda t: gammainc(k, rate * t**geo.delta)
        assert kstest(xi_k, cdf).pvalue > 0.01


class TestMeanMeasureTheorems:
    def test_pathloss_mapping(self):
        # mean number of points with r^upsilon below x equals rate * x^delta
        geo = _geometry(d=2, upsilon=4.0)
        rng = np.random.default_rng(92)
        x = 3.0
        radius = max(x ** (1.0 / geo.upsilon) * 1.5, 3.0)
        trials = 10**4
        counts = []
        for _ in range(trials):
            pts = sample_hppp(geo.lambda_b, geo, radius, rng)
            if pts.shape[0] == 0:
                counts.append(0)
                continue
            counts.append(int(np.sum(np.linalg.norm(pts, axis=1) ** geo.upsilon <= x)))
        want = geo.pathloss_rate("legitimate") * x**geo.delta
        sigma_mean = math.sqrt(want / trials)
        assert abs(np.mean(counts) - want) < 3.0 * sigma_mean

    def test_fading_weighted_displacement(self):
        geo = _geometry(d=2, upsilon=2.0)
        rng = np.random.default_rng(93)
        x = 0.5
        radius = window_radius(geo, "legitimate", 1)
        trials = 10**4
        counts = []
        for _ in range(trials):
            pts = sample_hppp(geo.lambda_b, geo, radius, rng)
            gains = sample_power_gain(geo.fading_b, rng, size=pts.shape[0])
            xi = ordered_path_gains(pts, gains, geo)
            counts.append(int(np.searchsorted(xi, x, side="right")))
        want = geo.composite_rate("legitimate") * x**geo.delta
        sigma_mean = math.sqrt(want / trials)
        assert abs(np.mean(counts) - want) < 3.0 * sigma_mean


class TestWindowRadius:
    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            window_radius(_geometry(), "legitimate", 0)

    def test_larger_index_never_shrinks_window(self):
        geo = _geometry(lambda_b=0.2)
        radii = [window_radius(geo, "legitimate", k) for k in (1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(radii, radii[1:]))

    def test_nearest_only_window_is_cheaper(self):
        geo = _geometry(lambda_b=0.2, upsilon=4.0)
        full = window_radius(geo, "legitimate", 4)
        nearest_only = window_radius(geo, "legitimate", 4, orderings=("nearest",))
        assert nearest_only <= full
