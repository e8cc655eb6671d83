"""Alpha-mu power-gain family: analytic values, reductions, sampling, the
exact alpha = 2 branch sum, the moment fit for alpha != 2, and the deferred
import of its solver.

Frozen reference values come from 40-digit mpmath evaluation of the defining
formulas and integrals.
"""

import json
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import gamma as gamma_dist
from scipy.stats import kstest

import secnet
from secnet import metrics
from secnet.fading import (
    AlphaMuParams,
    MomentFitError,
    cdf_power_gain,
    fit_sum_params,
    moment_power_gain,
    pdf_power_gain,
    power_gain_of_shape,
    sample_power_gain,
)
from secnet.figures import describe_scenario
from secnet.metrics import ScenarioConfig

SRC = os.path.dirname(os.path.dirname(os.path.abspath(secnet.__file__)))
RAYLEIGH = AlphaMuParams(2.0, 1.0, 1.0)


class TestParams:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            AlphaMuParams(0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            AlphaMuParams(2.0, -1.0, 1.0)
        with pytest.raises(ValueError):
            AlphaMuParams.canonical(2.0, 0.0)

    @pytest.mark.parametrize("alpha,mu", [(2.0, 1.0), (3.0, 2.0), (1.5, 0.7), (4.0, 4.0)])
    def test_canonical_means_unit_power(self, alpha, mu):
        assert AlphaMuParams.canonical(alpha, mu).mean_power() == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("mu", [0.5, 3.0, 170.0, 200.0, 1e4])
    def test_canonical_scale_past_gamma_overflow(self, mu):
        # Gamma(mu) overflows past mu = 171.6; the scale is a ratio of two
        # such gammas and must stay finite and exact
        p = AlphaMuParams.canonical(2.0, mu)
        assert p.mean_power() == pytest.approx(1.0, rel=1e-12, abs=0)
        assert p.omega == pytest.approx(1.0 / mu, rel=1e-12)
        q = AlphaMuParams.canonical(1.3, mu)
        assert q.mean_power() == pytest.approx(1.0, rel=1e-12, abs=0)
        with mpmath.workdps(40):
            want = mpmath.exp(mpmath.loggamma(mu) - mpmath.loggamma(mpmath.mpf(mu) + 2 / mpmath.mpf(1.3)))
        assert q.omega == pytest.approx(float(want), rel=1e-12)

    def test_canonical_is_kept_per_float_pair(self):
        # An int pair keys the same entry as its float pair, so the kept
        # parameters hold floats whichever caller came first.
        first = AlphaMuParams.canonical(2, 3)
        assert AlphaMuParams.canonical(2.0, 3.0) is first
        assert (type(first.alpha), type(first.mu)) == (float, float)
        assert describe_scenario(ScenarioConfig.build(mu_b=3.0, alpha_b=2))["fading_b"] == {
            "alpha": 2.0, "mu": 3.0, "omega": first.omega}
        assert AlphaMuParams.canonical(2.0, 3.5) is not first

    def test_every_build_fits_both_sides_through_the_metrics_attribute(self, monkeypatch):
        # The kept links sit below the fit: a trace that wraps
        # metrics.fit_sum_params still sees one call per side and build.
        counts = []

        def recording(link, count):
            counts.append(count)
            return fit_sum_params(link, count)

        monkeypatch.setattr(metrics, "fit_sum_params", recording)
        for _ in range(2):
            ScenarioConfig.build(n_a=2, n_b=3, n_e=4)
        assert counts == [6, 8, 6, 8]

    @pytest.mark.parametrize("alpha, mu", [(10**400, 1), (1, 10**400)], ids=["alpha", "mu"])
    def test_canonical_rejects_an_int_past_the_float_range(self, alpha, mu):
        # no float holds it: the check's ValueError, not an OverflowError or a TypeError
        with pytest.raises(ValueError, match="must be positive and finite"):
            AlphaMuParams.canonical(alpha, mu)

    def test_canonical_still_rejects_each_bad_pair(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="finite"):
                AlphaMuParams.canonical(math.inf, 1.0)
            with pytest.raises(ValueError, match="positive"):
                AlphaMuParams.canonical(-2.0, 1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["alpha", "mu", "omega"])
    def test_non_finite_rejected(self, field, value):
        values = {"alpha": 2.0, "mu": 1.0, "omega": 1.0, field: value}
        with pytest.raises(ValueError, match="finite"):
            AlphaMuParams(**values)


class TestPdf:
    def test_rayleigh_power_is_unit_exponential(self):
        assert pdf_power_gain(RAYLEIGH, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_reference_value(self):
        # direct 40-digit evaluation at (alpha=2, mu=3, omega=1/3), x=1
        p = AlphaMuParams(2.0, 3.0, 1.0 / 3.0)
        assert pdf_power_gain(p, 1.0) == pytest.approx(0.67212542296616323, rel=1e-13)

    def test_vanishes_at_origin_for_heavy_clustering(self):
        p = AlphaMuParams.canonical(2.0, 3.0)
        assert pdf_power_gain(p, 1e-12) < 1e-20

    @pytest.mark.parametrize("x", [0.0, -0.0, [1.0, 0.0], [np.nan, -1.0]])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            pdf_power_gain(RAYLEIGH, x)

    def test_nan_and_empty_inputs_pass_the_domain_check(self):
        assert math.isnan(pdf_power_gain(RAYLEIGH, np.nan))
        assert pdf_power_gain(RAYLEIGH, np.empty((0, 3))).shape == (0, 3)


class TestCdf:
    def test_rayleigh_power_cdf(self):
        assert cdf_power_gain(RAYLEIGH, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)

    def test_zero_at_origin(self):
        assert cdf_power_gain(AlphaMuParams.canonical(3.0, 2.0), 0.0) == 0.0

    def test_reference_value(self):
        # 40-digit quadrature of the density over [0, 0.8], canonical omega
        p = AlphaMuParams.canonical(3.0, 2.0)
        assert cdf_power_gain(p, 0.8) == pytest.approx(0.38044121061141082, rel=1e-12)

    @pytest.mark.parametrize("x", [-0.1, [1.0, -0.1], [np.nan, -1.0]])
    def test_domain_error(self, x):
        with pytest.raises(ValueError):
            cdf_power_gain(RAYLEIGH, x)

    def test_nan_and_empty_inputs_pass_the_domain_check(self):
        assert math.isnan(cdf_power_gain(RAYLEIGH, np.nan))
        assert cdf_power_gain(RAYLEIGH, -0.0) == 0.0
        assert cdf_power_gain(RAYLEIGH, np.empty((0, 3))).shape == (0, 3)

    @pytest.mark.parametrize("alpha, mu", [(1.0, 3.0), (2.0, 4.0), (4.0, 0.5), (1.2, 1.0)])
    def test_in_place_evaluation_is_the_textbook_expression(self, alpha, mu):
        # exponents 1/2, 1 and 2 take numpy's fast power paths, on arrays as on the expression
        p = AlphaMuParams.canonical(alpha, mu)
        x = np.exp(np.random.default_rng(3).normal(size=(300, 7)) * 4.0)
        kept = x.copy()
        want = gammainc(p.mu, (x / p.omega) ** (0.5 * p.alpha))
        np.testing.assert_array_equal(cdf_power_gain(p, x).view(np.int64), want.view(np.int64))
        np.testing.assert_array_equal(x, kept)
        scalar = cdf_power_gain(p, 1.3)
        assert type(scalar) is float
        assert scalar == float(gammainc(p.mu, (np.float64(1.3) / p.omega) ** (0.5 * p.alpha)))


class TestMoments:
    @pytest.mark.parametrize("alpha,mu", [(2.0, 1.0), (3.0, 1.5), (1.0, 4.0)])
    def test_canonical_first_moment_is_one(self, alpha, mu):
        assert moment_power_gain(AlphaMuParams.canonical(alpha, mu), 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_exponential_second_moment(self):
        assert moment_power_gain(RAYLEIGH, 2.0) == pytest.approx(2.0, rel=1e-13)

    def test_reference_half_order(self):
        # 40-digit quadrature of sqrt(x) against the density
        p = AlphaMuParams(2.0, 3.0, 1.0 / 3.0)
        assert moment_power_gain(p, 0.5) == pytest.approx(0.959368788699832958, rel=1e-13)

    def test_live_quadrature_oracle(self):
        p = AlphaMuParams.canonical(2.6, 1.3)
        order = 1.4
        want, _ = quad(lambda x: x**order * pdf_power_gain(p, x), 0, np.inf)
        assert moment_power_gain(p, order) == pytest.approx(want, rel=1e-9)

    def test_divergence_error(self):
        with pytest.raises(ValueError):
            moment_power_gain(RAYLEIGH, -1.0)


class TestSampler:
    def test_unit_mean_within_three_sigma(self):
        rng = np.random.default_rng(7)
        n = 10**6
        samples = sample_power_gain(RAYLEIGH, rng, size=n)
        # exponential: std of the sample mean is 1/sqrt(n)
        assert abs(samples.mean() - 1.0) < 3.0 / math.sqrt(n)

    @pytest.mark.parametrize("alpha,mu", [(2.0, 1.0), (3.0, 2.0), (1.5, 0.8)])
    def test_kolmogorov_smirnov_at_one_percent(self, alpha, mu):
        p = AlphaMuParams.canonical(alpha, mu)
        rng = np.random.default_rng(123)
        samples = sample_power_gain(p, rng, size=10**5)
        result = kstest(samples, lambda x: cdf_power_gain(p, x))
        assert result.pvalue > 0.01

    def test_fixed_seed_reproducible(self):
        a = sample_power_gain(RAYLEIGH, np.random.default_rng(42), size=16)
        b = sample_power_gain(RAYLEIGH, np.random.default_rng(42), size=16)
        assert np.array_equal(a, b)

    def test_sampler_maps_shapes_through_the_gain_law(self):
        p = AlphaMuParams.canonical(1.3, 0.7)
        shapes = np.random.default_rng(42).standard_gamma(p.mu, size=16)
        assert np.array_equal(sample_power_gain(p, np.random.default_rng(42), size=16),
                              power_gain_of_shape(p, shapes))


class TestSumFit:
    def test_single_branch_identity(self):
        link = AlphaMuParams.canonical(2.7, 1.2)
        assert fit_sum_params(link, 1) is link

    def test_zero_branches_rejected(self):
        with pytest.raises(ValueError):
            fit_sum_params(RAYLEIGH, 0)

    def test_fit_is_memoised_on_link_and_count(self):
        link = AlphaMuParams.canonical(1.7, 0.8)
        first = fit_sum_params(link, 3)
        assert fit_sum_params(AlphaMuParams.canonical(1.7, 0.8), 3) is first
        assert fit_sum_params(link, 5) is not first

    def test_failed_fit_raises_on_every_call(self):
        # sixteen alpha = 0.8 branches: the solve stalls at residuals near 7e-3
        link = AlphaMuParams.canonical(0.8, 1.0)
        for _ in range(2):
            with pytest.raises(MomentFitError):
                fit_sum_params(link, 16)

    @pytest.mark.parametrize("count", [60, 64, 200, 1000])
    def test_many_exponential_branches_recover_gamma(self, count):
        # from 200 branches on, mu = count lies past 171, where Gamma(mu) overflows
        fitted = fit_sum_params(RAYLEIGH, count)
        assert fitted == AlphaMuParams(2.0, float(count), 1.0)
        assert fitted.mean_power() == pytest.approx(count, rel=1e-12)

    @pytest.mark.parametrize("link", [AlphaMuParams.canonical(2.0, 1.5), AlphaMuParams(2.0, 0.7, 3.25)],
                             ids=["canonical", "omega-3.25"])
    def test_alpha_two_sum_is_exact_for_every_count(self, link):
        # n gains omega * Gamma(mu) sum to omega * Gamma(n * mu): no solve, no rounding
        for count in range(2, 1001):
            assert fit_sum_params(link, count) == AlphaMuParams(2.0, count * link.mu, link.omega)

    def test_eight_by_eight_antennas_build(self):
        cfg = ScenarioConfig.build(n_a=8, n_b=8)
        assert cfg.geometry.fading_b.mu == 64.0

    def test_exponential_sum_recovers_gamma(self):
        # four unit exponentials sum to a shape-4 gamma, which the family
        # contains exactly at alpha=2
        fitted = fit_sum_params(RAYLEIGH, 4)
        assert fitted == AlphaMuParams(2.0, 4.0, 1.0)
        assert fitted.mean_power() == pytest.approx(4.0, rel=1e-12)

    # (1, 1, 64) and (2.5, 4, 32): the bounded solve stops at residuals 2.3e-10
    # and 3.1e-9, above the 1e-10 tolerance; Levenberg-Marquardt from there
    # reaches 1.6e-13 and 7.5e-12 inside the bounds
    @pytest.mark.parametrize("alpha,mu,count", [(2.0, 1.0, 4), (3.0, 2.0, 2), (1.6, 0.9, 6),
                                                (1.0, 1.0, 64), (2.5, 4.0, 32)])
    def test_moment_residuals(self, alpha, mu, count):
        link = AlphaMuParams.canonical(alpha, mu)
        fitted = fit_sum_params(link, count)
        m1 = moment_power_gain(link, 1.0)
        m2 = moment_power_gain(link, 2.0)
        m3 = moment_power_gain(link, 3.0)
        n = count
        sums = (
            n * m1,
            n * m2 + n * (n - 1) * m1**2,
            n * m3 + 3 * n * (n - 1) * m1 * m2 + n * (n - 1) * (n - 2) * m1**3,
        )
        for order, want in zip((1.0, 2.0, 3.0), sums):
            got = moment_power_gain(fitted, order)
            assert abs(got - want) / want < 1e-9

    @pytest.mark.parametrize("alpha,mu,count", [(1.5, 4.0, 64), (0.8, 1.0, 16), (0.5, 4.0, 4)])
    def test_polish_that_misses_still_raises(self, alpha, mu, count):
        # (1.5, 4, 64): the polish reaches only 1.7e-7.  (0.8, 1, 16): it
        # leaves the alpha bound, toward alpha = 0.017, mu = 2.8e4, at 5e-4.
        # (0.5, 4, 4): it reaches 2.8e-13, but at alpha = 0.074, past the bound.
        with pytest.raises(MomentFitError):
            fit_sum_params(AlphaMuParams.canonical(alpha, mu), count)

    def test_fitted_distribution_close_to_simulated_sum(self):
        link = AlphaMuParams.canonical(2.0, 2.0)
        fitted = fit_sum_params(link, 4)
        rng = np.random.default_rng(2024)
        sums = sample_power_gain(link, rng, size=(10**6, 4)).sum(axis=1)
        sums.sort()
        ecdf_hi = np.arange(1, sums.size + 1) / sums.size
        model = cdf_power_gain(fitted, sums)
        sup_dist = np.max(np.maximum(np.abs(ecdf_hi - model), np.abs(ecdf_hi - 1.0 / sums.size - model)))
        assert sup_dist <= 0.01


def _run_fresh(code: str) -> dict:
    """Run `code` in a new interpreter; it prints one JSON object, returned here."""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestDeferredSolverImport:
    """Only a multi-branch alpha != 2 fit imports scipy.optimize."""

    @pytest.mark.parametrize("code", [
        "import secnet, secnet.cli",
        "from secnet.metrics import ScenarioConfig\nScenarioConfig.build(n_a=8, n_b=8)",
        "from secnet import figures\nfigures.figure_table('fig9')",
    ], ids=["import", "build-8x8", "fig9"])
    def test_alpha_two_paths_leave_the_solver_unloaded(self, code):
        out = _run_fresh(code + "\nprint(json.dumps({'loaded': 'scipy.optimize' in sys.modules}))")
        assert out == {"loaded": False}

    def test_alpha_off_two_fit_loads_the_solver_and_keeps_its_result(self):
        out = _run_fresh(
            "from secnet.metrics import ScenarioConfig\n"
            "p = ScenarioConfig.build(alpha_b=1.7, mu_b=0.8, n_a=2, n_b=2).geometry.fading_b\n"
            "print(json.dumps({'loaded': 'scipy.optimize' in sys.modules,"
            " 'params': [p.alpha, p.mu, p.omega]}))"
        )
        assert out["loaded"]
        # the fit as it was while the solver was imported with the module
        assert out["params"] == pytest.approx([1.680012702684423, 3.2599289076593276, 0.948438058396397],
                                              rel=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 3.0, 4.0])
    def test_density_normalizes(self, alpha, mu):
        p = AlphaMuParams.canonical(alpha, mu)
        total, _ = quad(lambda x: pdf_power_gain(p, x), 0, np.inf, epsabs=1e-12, epsrel=1e-10)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha,mu", [(2.0, 1.0), (3.0, 2.0), (1.5, 0.6), (4.0, 3.0)])
    def test_cdf_derivative_matches_pdf(self, alpha, mu):
        p = AlphaMuParams.canonical(alpha, mu)
        xs = np.linspace(0.05, 3.0, 20)
        h = 1e-6
        for x in xs:
            fd = (cdf_power_gain(p, x + h) - cdf_power_gain(p, x - h)) / (2 * h)
            assert abs(fd - pdf_power_gain(p, x)) <= 1e-6 * max(1.0, pdf_power_gain(p, x))

    def test_rayleigh_reduction_pointwise(self):
        xs = np.linspace(0.01, 8.0, 50)
        assert np.allclose(pdf_power_gain(RAYLEIGH, xs), np.exp(-xs), rtol=1e-12, atol=0)
        assert np.allclose(cdf_power_gain(RAYLEIGH, xs), 1.0 - np.exp(-xs), rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.5])
    def test_nakagami_reduction_is_gamma_distribution(self, m):
        p = AlphaMuParams.canonical(2.0, m)
        xs = np.linspace(0.01, 5.0, 40)
        want = gamma_dist(a=m, scale=p.omega).cdf(xs)
        assert np.allclose(cdf_power_gain(p, xs), want, rtol=1e-10, atol=1e-14)
