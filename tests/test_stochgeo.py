"""Point-process layer: ordered distance laws, the fading-weighted
path-loss process, and the simulation window rule."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma, gammainc, gammaincc, pdtr
from scipy.stats import kstest

from secnet import stochgeo
from secnet.fading import AlphaMuParams, sample_power_gain
from secnet.stochgeo import NetworkGeometry, pdf_kth_distance_pow, window_radius


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

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_unit_ball_volume_is_worked_out_once(self, d, monkeypatch):
        geo = _geometry(d=d)
        monkeypatch.setattr(stochgeo, "_gamma", None)
        assert geo.unit_ball_volume == math.pi ** (d / 2.0) / gamma(1.0 + d / 2.0)
        assert geo.pathloss_rate("legitimate") == geo.unit_ball_volume
        assert geo.composite_rate("eavesdropper") > 0.0

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

    def test_vanishes_where_rate_term_overflows(self):
        # a product of two exp-sinh nodes that each sit 250 e-folds above
        # their scale: at delta = 1.5, coeff * y^delta overflows to inf
        y = np.exp(np.array([2 * 250.0, 250.0, 1.0]))
        out = pdf_kth_distance_pow(2, 1.0, 1.5, y)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[2] == pytest.approx(math.exp(-math.exp(1.5) + 3.0) * 1.5 / math.e, rel=1e-12)

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


def _ball_radii(rng, geo, radius, trials):
    """Distances of `trials` independent realizations of the legitimate
    receivers in the d-ball of `radius`, one row each, padded with inf."""
    counts = rng.poisson(geo.pathloss_rate("legitimate") * radius**geo.d, trials)
    width = counts.max()
    mask = np.arange(width)[None, :] < counts[:, None]
    return np.where(mask, radius * rng.random((trials, width)) ** (1.0 / geo.d), np.inf)


class TestMeanMeasureTheorems:
    def test_pathloss_mapping(self):
        # mean number of points with r^upsilon below x equals rate * x^delta
        geo = _geometry(d=2, upsilon=4.0)
        rng = np.random.default_rng(92)
        x = 3.0
        radius = max(x ** (1.0 / geo.upsilon) * 1.5, 3.0)
        trials = 10**4
        r = _ball_radii(rng, geo, radius, trials)
        hits = (r**geo.upsilon <= x).sum(axis=1)
        want = geo.pathloss_rate("legitimate") * x**geo.delta
        sigma_mean = math.sqrt(want / trials)
        assert abs(hits.mean() - want) < 3.0 * sigma_mean

    def test_fading_weighted_displacement(self):
        # weighting each path loss by 1/gain keeps a Poisson process whose
        # mean count below x is the composite rate times x^delta
        geo = _geometry(d=2, upsilon=2.0)
        rng = np.random.default_rng(93)
        x = 0.5
        radius = window_radius(geo, "legitimate", 1)
        trials = 10**4
        r = _ball_radii(rng, geo, radius, trials)
        g = sample_power_gain(geo.fading_b, rng, size=r.shape)
        hits = (r**geo.upsilon / g <= x).sum(axis=1)
        want = geo.composite_rate("legitimate") * x**geo.delta
        sigma_mean = math.sqrt(want / trials)
        assert abs(hits.mean() - want) < 3.0 * sigma_mean


class TestOrderedPathGains:
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

    @pytest.mark.parametrize("lam", [0.01, 5.0])
    @pytest.mark.parametrize("k", [1, 4])
    @pytest.mark.parametrize("mu", [1.0, 3.0])
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_window_meets_its_budgets(self, d, alpha, mu, k, lam):
        geo = _geometry(d=d, upsilon=3.0, lambda_b=lam, fading=AlphaMuParams.canonical(alpha, mu))
        fad, side = geo.fading_b, "legitimate"
        xi = stochgeo._far_cutoff(geo, side, k)

        def far_reference(radius):
            # the defining integral over r > radius of the point density times
            # the chance that a point at r has fading-weighted loss below xi
            integrand = lambda r: (lam * d * geo.unit_ball_volume * r ** (d - 1)
                                   * gammaincc(fad.mu, (r**geo.upsilon / (xi * fad.omega)) ** (0.5 * fad.alpha)))
            return quad(integrand, radius, np.inf, epsabs=0.0, epsrel=1e-10, limit=500)[0]

        # pdtri and pdtr round-trip to within a few ulps of the budget
        count_budget = stochgeo._REJECTION_BUDGET * (1.0 + 1e-12)
        far_budget = 0.9 * stochgeo._FAR_POINT_BUDGET

        def breaks_a_budget(radius, orderings):
            if pdtr(k - 1, geo.pathloss_rate(side) * radius**d) > count_budget:
                return True
            return "best" in orderings and stochgeo._far_count(geo, side, xi, radius) > far_budget

        for orderings in (("nearest",), ("nearest", "best")):
            radius = window_radius(geo, side, k, orderings=orderings)
            assert not breaks_a_budget(radius, orderings), orderings
            smaller = radius / 1.25
            assert smaller < 10.0 or breaks_a_budget(smaller, orderings), orderings
            for r in (10.0, smaller, radius):
                assert stochgeo._far_count(geo, side, xi, r) == pytest.approx(far_reference(r), rel=1e-6, abs=1e-300)
