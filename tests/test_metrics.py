"""Closed-form metric layer: spot values with forced parameters, equivalence
with the defining-integral oracles, and the analytic monotonicity properties."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from secnet import figures, metrics, montecarlo, quadrature, specfun
from secnet.fading import AlphaMuParams, moment_power_gain
from secnet.metrics import CASES, ScenarioConfig
from secnet.montecarlo import METRICS
from secnet.validation import QUAD_TOL_PROBABILITY


def _unit_rate_scenario(**over):
    """d = upsilon = 2 with lambda_b = 1/pi: both the path-loss rate and the
    fading-weighted rate equal one for canonical fading."""
    kwargs = dict(
        d=2, upsilon=2.0, lambda_b=1.0 / math.pi, lambda_e=1.0 / math.pi,
        alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=1.0,
        eta_k=1.0, eta_e=1.0, rate=1.0, user_index=1,
    )
    kwargs.update(over)
    return ScenarioConfig.build(**kwargs)


class TestScenarioConfig:
    def test_varpi_and_threshold(self):
        cfg = _unit_rate_scenario(eta_k=4.0, eta_e=2.0, rate=2.0)
        assert cfg.varpi == pytest.approx(2.0)
        assert cfg.varpi * cfg.eta_e == pytest.approx(cfg.eta_k, rel=1e-15)
        assert cfg.outage_threshold == pytest.approx(3.0 / 4.0)

    def test_zero_rate_means_zero_threshold(self):
        assert _unit_rate_scenario(rate=0.0).outage_threshold == 0.0

    @pytest.mark.parametrize("over", [{"rate": 2000.0}, {"rate": 2.0, "eta_k": 10.0**-307.9}],
                             ids=["two-to-the-rate", "quotient"])
    def test_overflowing_threshold_is_infinite(self, over):
        # 2^2000 raises OverflowError and 3 / 1.26e-308 rounds to inf: both
        # read +inf, where both orderings' outage is 1
        cfg = _unit_rate_scenario(**over)
        assert cfg.outage_threshold == math.inf
        assert metrics.cop_nearest(cfg) == 1.0
        assert metrics.cop_best(cfg) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            _unit_rate_scenario(user_index=0)
        with pytest.raises(ValueError):
            _unit_rate_scenario(eta_k=-1.0)
        with pytest.raises(ValueError):
            _unit_rate_scenario(ordering="middle")
        # past the float range: the value's own error (COP read 1.0 at eta_k = 10**400)
        for name, label in (("eta_k", "SNR scale eta_k"), ("lambda_b", "density lambda_b"), ("mu_e", "mu_e")):
            with pytest.raises(ValueError, match=f"^{label} must be positive and finite"):
                _unit_rate_scenario(**{name: 10**400})

    @pytest.mark.parametrize("value", [1.5, 2.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["n_a", "n_b", "n_e", "user_index"])
    def test_counts_and_user_index_must_be_integers(self, name, value, monkeypatch):
        fit, fitted = metrics.fit_sum_params, []
        monkeypatch.setattr(metrics, "fit_sum_params", lambda *args: fitted.append(args) or fit(*args))
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            _unit_rate_scenario(**{name: value})
        # a count is refused before the branch-sum fit reads it
        assert not fitted or name == "user_index"
        assert getattr(_unit_rate_scenario(**{name: np.int64(2)}), name) == 2

    def test_case_labels(self):
        cfg = _unit_rate_scenario(ordering="best", eavesdropper_policy="nearest")
        assert cfg.case == "BN"
        assert cfg.with_case("NB").ordering == "nearest"
        assert cfg.with_case("NB").eavesdropper_policy == "best"

    def test_branch_sums_are_fitted(self):
        cfg = ScenarioConfig.build(n_a=2, n_e=2, alpha_e=2.0, mu_e=4.0)
        # two and four summed unit-mean branches
        assert cfg.fading_b.mean_power() == pytest.approx(2.0, rel=1e-10)
        assert cfg.fading_e.mean_power() == pytest.approx(4.0, rel=1e-10)


class TestCompositeNearest:
    def test_double_exponential_ratio_density(self):
        # exponential gain over exponential distance-power: f(z) = 1/(1+z)^2
        cfg = _unit_rate_scenario()
        assert metrics.pdf_composite_nearest(cfg, 1.0) == pytest.approx(0.25, rel=1e-9)
        for z in (0.2, 2.0, 7.0):
            assert metrics.pdf_composite_nearest(cfg, z) == pytest.approx(1.0 / (1.0 + z) ** 2, rel=1e-8)
            assert metrics.cdf_composite_nearest(cfg, z) == pytest.approx(z / (1.0 + z), rel=1e-8)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_density_normalizes_on_reference_config(self, k):
        cfg = figures.scenario("fig2", k=k)
        total, _ = quad(
            lambda t: metrics.pdf_composite_nearest(cfg, t / (1.0 - t)) / (1.0 - t) ** 2,
            0.0, 1.0, epsabs=1e-10, epsrel=1e-8, limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_density_tail_vanishes(self):
        cfg = figures.scenario("fig2", k=2)
        assert metrics.pdf_composite_nearest(cfg, 1e4) < 1e-6

    def test_cdf_at_zero(self):
        assert metrics.cdf_composite_nearest(figures.scenario("fig2", k=1), 0.0) == 0.0

    def test_cdf_matches_integrated_density(self):
        cfg = figures.scenario("fig2", k=2)
        for z in np.linspace(0.15, 2.0, 10):
            want, _ = quad(lambda t: metrics.pdf_composite_nearest(cfg, t), 1e-12, z,
                           epsabs=1e-11, epsrel=1e-9, limit=200)
            assert metrics.cdf_composite_nearest(cfg, z) == pytest.approx(want, abs=1e-6)

    def test_cdf_matches_conditioning_integral(self):
        cfg = figures.scenario("fig2", k=3)
        for z in (0.1, 0.5, 1.5):
            closed = metrics.cdf_composite_nearest(cfg, z)
            oracle = quadrature._converged(lambda level: quadrature._NearestLaw(
                cfg.fading_b, cfg.geometry.pathloss_rate("legitimate"),
                cfg.geometry.delta, cfg.user_index,
            ).cdf(z, level))
            assert closed == pytest.approx(oracle, abs=1e-6)

    def test_domain_errors(self):
        cfg = figures.scenario("fig2", k=1)
        with pytest.raises(ValueError):
            metrics.pdf_composite_nearest(cfg, 0.0)
        with pytest.raises(ValueError):
            metrics.cdf_composite_nearest(cfg, -1.0)


class TestCompositeBest:
    def test_cdf_limits(self):
        cfg = _unit_rate_scenario(ordering="best")
        assert metrics.cdf_composite_best(cfg, 0.0) == 0.0
        assert metrics.cdf_composite_best(cfg, 1e9) == pytest.approx(1.0, abs=1e-8)

    def test_first_best_exponential_case(self):
        # unit fading-weighted rate, unit delta, k=1 at z=1
        cfg = _unit_rate_scenario(ordering="best")
        assert metrics.cdf_composite_best(cfg, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_density_normalizes(self):
        # fading-weighted rate 2 with delta = 1/2 and k = 3
        fad = AlphaMuParams.canonical(2.0, 3.0)
        lam = 2.0 / (math.pi * moment_power_gain(fad, 0.5))
        cfg = ScenarioConfig.build(
            d=2, upsilon=4.0, lambda_b=lam, lambda_e=lam,
            alpha_b=2.0, mu_b=3.0, user_index=3, ordering="best",
        )
        assert cfg.geometry.composite_rate("legitimate") == pytest.approx(2.0, rel=1e-12)
        total, _ = quad(
            lambda t: metrics.pdf_composite_best(cfg, t / (1.0 - t)) / (1.0 - t) ** 2,
            0.0, 1.0, epsabs=1e-12, epsrel=1e-10, limit=300,
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("z", [1e-250, np.float64(1e-300), 5e-324])
    def test_density_vanishes_where_rate_term_overflows(self, z):
        # u = rate * z^-delta overflows; the density is exp(-u) = 0 there
        cfg = figures.scenario("fig7", k=2, upsilon=2.0)
        assert cfg.geometry.delta == 1.5
        assert metrics.pdf_composite_best(cfg, z) == 0.0

    def test_cdf_vanishes_where_rate_term_overflows(self):
        # z^-delta overflows; the lower limit is inf and Q(k, inf) = 0
        cfg = ScenarioConfig.build(d=3, upsilon=2.0, eta_k=1e300, ordering="best")
        assert metrics.cdf_composite_best(cfg, 1e-300) == 0.0
        assert metrics.cop_best(cfg) == 0.0
        assert montecarlo.integrate_defining("cop", cfg).value == 0.0

    def test_density_vanishes_where_rate_term_underflows(self):
        # u = rate * z^-delta underflows to 0; log u = -inf must not warn
        cfg = figures.scenario("fig7", k=2, upsilon=2.0)
        assert metrics.pdf_composite_best(cfg, 1e300) == 0.0

    def test_pdf_is_cdf_derivative(self):
        cfg = figures.scenario("fig2", k=2, ordering="best")
        h = 1e-6
        for z in (0.3, 1.0, 2.5):
            fd = (metrics.cdf_composite_best(cfg, z + h) - metrics.cdf_composite_best(cfg, z - h)) / (2 * h)
            assert metrics.pdf_composite_best(cfg, z) == pytest.approx(fd, rel=1e-6)


_LAWS = (metrics.pdf_composite_nearest, metrics.cdf_composite_nearest,
         metrics.pdf_composite_best, metrics.cdf_composite_best)


@pytest.mark.parametrize("law, z", [(law, z) for law in _LAWS for z in (math.nan, math.inf)
                                     if law.__name__.startswith("pdf") or math.isnan(z)],
                         ids=lambda v: getattr(v, "__name__", str(v)))
def test_non_finite_gain_level_is_an_input_error(law, z, monkeypatch):
    # Raised on the input itself, before any Fox H instance is evaluated; a
    # CDF reads 1 at z = inf (TestHugeGainLevel).
    monkeypatch.setattr(metrics, "fox_h", None)
    with pytest.raises(ValueError, match="finite" if law.__name__.startswith("pdf") else r"\[0, inf\]"):
        law(figures.scenario("fig2", k=2), z)


class TestHugeGainLevel:
    """At a huge gain level, and at +inf, both CDFs read 1.  At 1e300 the
    nearest form's whole contour integrand underflows from a finite log, and
    Fox H returns 0 with a bound of the smallest normal float."""

    @pytest.mark.parametrize("z", [1e100, 1e200, 1e300, math.inf])
    def test_both_cdfs_read_one(self, z):
        cfg = figures.scenario("fig7", k=2, upsilon=2.0)
        assert metrics.cdf_composite_nearest(cfg, z) == 1.0
        assert metrics.cdf_composite_best(cfg, z) == 1.0

    def test_underflowed_integrand_is_zero_within_a_tiny_bound(self):
        cfg = figures.scenario("fig7", k=2, upsilon=2.0)
        build, side, *_ = metrics._FOX_H["cdf_nearest"]
        log_pref, params, scale = build(cfg, side, cfg.order_index(side))
        h = specfun.fox_h(params, scale * 1e300, log_prefactor=log_pref)
        assert h.value == 0.0 and h.imag_ratio == 0.0
        assert 0.0 < h.error < 1e-300

    def test_nearest_pdf_still_raises(self):
        cfg = figures.scenario("fig7", k=2, upsilon=2.0)
        with pytest.raises(specfun.ConvergenceError):
            metrics.pdf_composite_nearest(cfg, 1e300)


class TestCop:
    def test_zero_rate_never_in_outage(self):
        cfg = _unit_rate_scenario(rate=0.0)
        assert metrics.cop_nearest(cfg) == 0.0
        assert metrics.cop_best(cfg) == 0.0

    def test_best_spot_value(self):
        # unit fading-weighted rate, unit delta, unit threshold
        cfg = _unit_rate_scenario(ordering="best", rate=1.0, eta_k=1.0)
        assert cfg.outage_threshold == pytest.approx(1.0)
        assert metrics.cop_best(cfg) == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_nearest_matches_quadrature_on_fig3(self):
        for k in (1, 2, 4):
            cfg = figures.scenario("fig3", k=k, alpha=2.0, mu=2.0)
            closed = metrics.cop_nearest(cfg)
            oracle = montecarlo.integrate_defining("cop", cfg).value
            assert closed == pytest.approx(oracle, rel=1e-5)

    def test_nondecreasing_in_index_and_rate(self):
        cops = [metrics.cop_nearest(figures.scenario("fig3", k=k, alpha=2.0, mu=2.0))
                for k in range(1, 7)]
        assert all(b >= a for a, b in zip(cops, cops[1:]))
        by_rate = [
            metrics.cop_nearest(_unit_rate_scenario(rate=r)) for r in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b >= a for a, b in zip(by_rate, by_rate[1:]))
        best_by_rate = [
            metrics.cop_best(_unit_rate_scenario(ordering="best", rate=r))
            for r in (0.25, 0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b >= a for a, b in zip(best_by_rate, best_by_rate[1:]))

    def test_first_best_never_worse_than_first_nearest(self):
        # for k = 1 the best user holds the maximal composite gain, so the
        # ordering is almost sure; at k >= 2 it holds only above a
        # low-density crossover (the full-sweep claim is exercised, and
        # refuted, in the acceptance suite)
        for lam in (0.2, 0.6, 1.0, 1.6, 2.0):
            cfg = figures.scenario("fig4", k=1, lambda_b=lam)
            assert metrics.cop_best(cfg) <= metrics.cop_nearest(cfg)

    def test_best_beats_nearest_above_density_crossover(self):
        for k, lams in ((2, (0.6, 1.0, 1.6, 2.0)), (4, (1.2, 1.6, 2.0))):
            for lam in lams:
                cfg = figures.scenario("fig4", k=k, lambda_b=lam)
                assert metrics.cop_best(cfg) <= metrics.cop_nearest(cfg)


class TestPnz:
    def test_symmetric_best_best_is_half_power(self):
        for k in (1, 2, 5):
            cfg = _unit_rate_scenario(user_index=k, ordering="best", eavesdropper_policy="best")
            assert metrics.pnz_bb(cfg) == pytest.approx(0.5**k, rel=1e-14)

    def test_forced_two_thirds(self):
        cfg = _unit_rate_scenario(lambda_b=2.0 / math.pi, lambda_e=1.0 / math.pi,
                                  ordering="best", eavesdropper_policy="best")
        assert metrics.pnz_bb(cfg) == pytest.approx(2.0 / 3.0, rel=1e-14)

    @pytest.mark.parametrize("case", ["NN", "BB", "NB", "BN"])
    def test_matches_defining_integral_on_fig6(self, case):
        cfg = figures.scenario("fig6", k=2)
        closed = metrics.pnz(cfg, case)
        oracle = montecarlo.integrate_defining("pnz", cfg.with_case(case)).value
        assert closed == pytest.approx(oracle, rel=1e-5)

    @pytest.mark.parametrize("case", ["NN", "BB", "NB", "BN"])
    def test_matches_defining_integral_on_fig5(self, case):
        cfg = figures.scenario("fig5", k=2)
        closed = metrics.pnz(cfg, case)
        oracle = montecarlo.integrate_defining("pnz", cfg.with_case(case)).value
        assert closed == pytest.approx(oracle, rel=1e-5)

    def test_dominant_legitimate_snr(self):
        cfg = figures.scenario("fig6", k=1)
        from dataclasses import replace
        strong = replace(cfg, eta_k=1e6, eta_e=1.0)
        assert metrics.pnz_nn(strong) > 0.999
        assert metrics.pnz_nb(strong) > 0.999

    def test_vanishing_legitimate_snr(self):
        cfg = figures.scenario("fig6", k=1)
        from dataclasses import replace
        weak = replace(cfg, eta_k=1e-6, eta_e=1.0)
        assert metrics.pnz_bn(weak) < 1e-3
        assert metrics.pnz_nn(weak) < 1e-3

    def test_descending_case_order_at_high_index(self):
        cfg = figures.scenario("fig6", k=4)
        nn, nb = metrics.pnz_nn(cfg), metrics.pnz_nb(cfg)
        bn, bb = metrics.pnz_bn(cfg), metrics.pnz_bb(cfg)
        assert nn > nb > bn > bb

    def test_bb_montone_in_index_and_snr_ratio(self):
        from dataclasses import replace
        cfg = figures.scenario("fig6", k=1).with_case("BB")
        by_k = [metrics.pnz_bb(replace(cfg, user_index=k)) for k in range(1, 8)]
        assert all(b < a for a, b in zip(by_k, by_k[1:]))
        by_w = [metrics.pnz_bb(replace(cfg, eta_k=w)) for w in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(by_w, by_w[1:]))

    def test_all_cases_are_probabilities(self):
        for fig, kw in (("fig6", {"k": 3}), ("fig7", {"k": 2, "upsilon": 3.0})):
            cfg = figures.scenario(fig, **kw)
            for case in metrics.CASES:
                value = metrics.pnz(cfg, case)
                assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("eta_k, eta_e, want", [(1e300, 1e-300, 1.0), (1e-300, 1e300, 0.0)],
                             ids=["varpi-inf", "varpi-zero"])
    @pytest.mark.parametrize("pnz", [metrics.pnz_nn, metrics.pnz_nb, metrics.pnz_bn],
                             ids=lambda f: f.__name__)
    def test_fox_h_pairings_read_their_limit_where_varpi_leaves_float_range(
            self, pnz, eta_k, eta_e, want, monkeypatch):
        # eta_k / eta_e of two finite SNR scales rounds to inf or 0; the limit
        # is read before a Fox H argument is formed from it
        cfg = ScenarioConfig.build(d=3, eta_k=eta_k, eta_e=eta_e)
        assert cfg.varpi == (math.inf if want else 0.0)
        monkeypatch.setattr(metrics, "fox_h", None)
        assert pnz(cfg) == want

    @pytest.mark.parametrize("eta_k, eta_e, want", [(1e-250, 1.0, 0.0), (1e-300, 1e300, 0.0),
                                                    (1e300, 1e-300, 1.0), (1.0, 1.0, 0.5)],
                             ids=["eavesdropper-term-overflows", "varpi-zero", "varpi-inf", "symmetric"])
    def test_bb_is_a_float_at_both_ends_of_varpi(self, eta_k, eta_e, want):
        # d = 3, so delta = 1.5: 1e-250^-delta overflows and 0^-delta divides
        # by zero, and rate_e * varpi^-delta reads inf; at varpi = inf it is 0
        cfg = ScenarioConfig.build(d=3, eta_k=eta_k, eta_e=eta_e, ordering="best", eavesdropper_policy="best")
        value = metrics.pnz_bb(cfg)
        assert type(value) is float
        assert value == pytest.approx(want, rel=1e-14)


# Every Fox H instance by its ``metrics._FOX_H`` name, as the closed form a
# caller reads (a law of a gain level at z = 0.5).
_CLOSED_FORMS = {
    "pdf_nearest": lambda cfg: metrics.pdf_composite_nearest(cfg, 0.5),
    "cdf_nearest": lambda cfg: metrics.cdf_composite_nearest(cfg, 0.5),
    "pnz_nn": metrics.pnz_nn,
    "pnz_nb": metrics.pnz_nb,
    "pnz_bn": metrics.pnz_bn,
    "capacity_nearest": metrics.ergodic_capacity_nearest,
    "capacity_best": metrics.ergodic_capacity_best,
    "wiretap_nearest": lambda cfg: metrics.wiretap_capacity(replace(cfg, eavesdropper_policy="nearest")),
    "wiretap_best": lambda cfg: metrics.wiretap_capacity(replace(cfg, eavesdropper_policy="best")),
}


class TestClipsWithinError:
    """Every closed form keeps one accuracy rule: a reading that its Fox H
    error bound plus rounding reaches raises, whatever its sign; a reading
    past the upper end of its range by more than that raises, and by less
    is clipped to it."""

    @staticmethod
    def _evaluate_at(monkeypatch, name, reading, error):
        """The closed form with its Fox H evaluation forced so that it reads
        `reading` before clipping, with error bound `error`."""
        cfg = figures.scenario("fig6", k=2)
        build, side, _, complement, _ = metrics._FOX_H[name]
        log_pref = build(cfg, side, cfg.order_index(side))[0]

        def forced(params, z, log_prefactor):
            assert log_prefactor == log_pref
            return specfun.FoxHValue(value=1.0 - reading if complement else reading, error=error,
                                     imag_ratio=0.0, abscissa=0.0, truncation_height=1.0)

        monkeypatch.setattr(metrics, "fox_h", forced)
        return _CLOSED_FORMS[name](cfg)

    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    def test_clip_within_error_bound(self, monkeypatch, name):
        *_, hi = metrics._FOX_H[name]
        if hi == 1.0:
            assert self._evaluate_at(monkeypatch, name, 1.0 + 1e-9, 2e-9) == 1.0
        else:
            assert self._evaluate_at(monkeypatch, name, 1e9, 2e-9) == 1e9

    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    def test_beyond_error_bound_raises(self, monkeypatch, name):
        *_, hi = metrics._FOX_H[name]
        readings = (-1e-9, 1.0 + 1e-9) if hi == 1.0 else (-1e-9,)
        for reading in readings:
            with pytest.raises(specfun.ConvergenceError):
                self._evaluate_at(monkeypatch, name, reading, 1e-12)

    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    def test_every_raise_names_its_instance(self, monkeypatch, name):
        *_, hi = metrics._FOX_H[name]
        raises = [(1e-3, 2e-3, "has lost its relative accuracy")]
        if hi == 1.0:
            raises.append((1.0 + 1e-3, 1e-12, "lies above its upper end"))
        for reading, error, message in raises:
            with pytest.raises(specfun.ConvergenceError, match=f"^{name}: .* {message}"):
                self._evaluate_at(monkeypatch, name, reading, error)

    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    def test_small_value_without_relative_accuracy_raises(self, monkeypatch, name):
        *_, complement, _ = metrics._FOX_H[name]
        assert self._evaluate_at(monkeypatch, name, 1e-3, 1e-12) == pytest.approx(1e-3, rel=1e-9)
        # The bound reaches the value, above or below 0 (a reading of -1e-9
        # within a 2e-9 bound has no size to clip to 0).
        for reading, error in ((1e-3, 2e-3), (-1e-9, 2e-9)):
            with pytest.raises(specfun.ConvergenceError, match="lost its relative accuracy"):
                self._evaluate_at(monkeypatch, name, reading, error)
        # The rounding of 1 - H alone passes 1e-5 of the value; a form
        # without the subtraction keeps it.
        if complement:
            with pytest.raises(specfun.ConvergenceError, match="lost its relative accuracy"):
                self._evaluate_at(monkeypatch, name, 1e-12, 1e-20)
        else:
            assert self._evaluate_at(monkeypatch, name, 1e-12, 1e-20) == 1e-12


class TestArgumentOutsideFloatRange:
    """A Fox H argument outside (0, +inf) from finite inputs raises a
    ConvergenceError naming the instance, with no numpy warning; only a
    probability whose z or varpi is itself 0 or +inf reads a limit."""

    @pytest.mark.parametrize("scale", [0.0, math.inf], ids=["zero", "inf"])
    @pytest.mark.parametrize("name", _CLOSED_FORMS)
    def test_forced_argument_raises(self, monkeypatch, name, scale):
        build, *rest = metrics._FOX_H[name]

        def forced(cfg, side, k):
            log_pref, params, _ = build(cfg, side, k)
            return log_pref, params, scale

        monkeypatch.setitem(metrics._FOX_H, name, (forced, *rest))
        monkeypatch.setattr(metrics, "fox_h", None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(specfun.ConvergenceError, match=f"^{name}: Fox H argument"):
                _CLOSED_FORMS[name](figures.scenario("fig6", k=2))

    @pytest.mark.parametrize("evaluate, over", [
        pytest.param(metrics.cop_nearest, {"lambda_b": 1e-10, "eta_k": 1e-300}, id="cop_nearest"),
        pytest.param(metrics.pnz_nn, {"lambda_b": 10.0, "eta_k": 1e308}, id="pnz_nn"),
        pytest.param(metrics.pnz_nb, {"lambda_b": 10.0, "eta_k": 1e308}, id="pnz_nb"),
        pytest.param(metrics.pnz_bn, {"lambda_e": 10.0, "eta_e": 1e308}, id="pnz_bn"),
        pytest.param(metrics.ergodic_capacity_nearest, {"lambda_b": 10.0, "eta_k": 1e308},
                     id="capacity_nearest"),
        pytest.param(metrics.ergodic_capacity_best, {"lambda_b": 10.0, "eta_k": 1e308}, id="capacity_best"),
        pytest.param(lambda cfg: metrics.pdf_composite_nearest(cfg, 1e300), {"lambda_b": 1e-10},
                     id="pdf_nearest-inf"),
        pytest.param(lambda cfg: metrics.pdf_composite_nearest(cfg, 1e-320), {"lambda_b": 1e10},
                     id="pdf_nearest-zero"),
        # numpy scalars would warn where the product passes the float range
        pytest.param(metrics.pnz_nn, {"lambda_b": np.float64(10.0), "eta_k": 1e308}, id="pnz_nn-numpy"),
        pytest.param(lambda cfg: metrics.pnz_nn(replace(cfg, eta_k=np.float64(1e308))), {"lambda_b": 10.0},
                     id="pnz_nn-replaced-numpy"),
        pytest.param(lambda cfg: metrics.cdf_composite_nearest(cfg, np.float64(1e300)), {"lambda_b": 1e-10},
                     id="cdf_nearest-numpy-inf"),
        # lambda_b c_d underflows to a path-loss rate of 0
        pytest.param(metrics.cop_nearest, {"d": 20, "lambda_b": 5e-324}, id="cop_nearest-rate-zero"),
        # a density whose rate^(1/delta) = rate^4 passes the float range, up or down
        *(pytest.param(_CLOSED_FORMS[name], {lam: value, "upsilon": 8.0}, id=f"{name}-{lam}={value:g}")
          for lam, value, names in (
              ("lambda_b", 1e300, ("cdf_nearest", "pdf_nearest", "pnz_nn", "pnz_nb", "capacity_nearest")),
              ("lambda_b", 1e-300, ("cdf_nearest", "pdf_nearest", "pnz_nn", "pnz_nb", "pnz_bn")),
              ("lambda_e", 1e300, ("pnz_bn", "wiretap_nearest")),
              ("lambda_e", 1e-300, ("pnz_nn", "pnz_nb")))
          for name in names),
    ])
    def test_finite_inputs_past_float_range_raise(self, evaluate, over):
        cfg = ScenarioConfig.build(**over)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(specfun.ConvergenceError, match="lies outside the float range"):
                evaluate(cfg)

    # The oracles at the same densities: the quadrature's scale
    # (k / rate)^(1/delta) and the simulator's R^upsilon pass the float range
    # at lambda_b = 1e-300, and the best-ordering window's far-point cutoff
    # underflows at 1e300.  Each raises a ConvergenceError naming the
    # quantity, not a bare OverflowError or a numpy warning.
    @pytest.mark.parametrize("evaluate, over, message", [
        pytest.param(quadrature.pnz, {"lambda_b": 1e-300}, "exp-sinh scale inf lies outside",
                     id="quadrature-pnz"),
        pytest.param(quadrature.cop, {"lambda_b": 1e-300}, "exp-sinh scale inf lies outside",
                     id="quadrature-cop"),
        # the first exp-sinh level of log2(1 + eta Z) reads inf, and so would every finer one
        pytest.param(lambda cfg: quadrature.capacity(cfg, "legitimate"), {"lambda_b": 1e300, "ordering": "best"},
                     r"did not converge: step 2\^-3 reads inf, which lies outside the float range",
                     id="quadrature-capacity-best"),
        pytest.param(lambda cfg: montecarlo.simulate_pnz(cfg, None, montecarlo.MonteCarloConfig(100, 1)),
                     {"lambda_b": 1e-300}, r"R\^upsilon of the window of radius 2.56835e\+150 at upsilon = 8",
                     id="simulator-pnz"),
        pytest.param(lambda cfg: montecarlo.simulate_cop(cfg, montecarlo.MonteCarloConfig(100, 1)),
                     {"lambda_b": 1e300, "ordering": "best"}, "far-point cutoff 0 of the legitimate window",
                     id="simulator-cop-best"),
    ])
    def test_oracles_past_float_range_raise(self, evaluate, over, message):
        cfg = ScenarioConfig.build(upsilon=8.0, **over)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(specfun.ConvergenceError, match=message):
                evaluate(cfg)

    # The oracle's best-ordering density f_Y(1 / z) / z^2, where z^2 leaves
    # the float range: 0 where f_Y(1 / z) is, as the closed form reads, and
    # a ConvergenceError naming the float range where it is not.
    @pytest.mark.parametrize("z", [1e-200, 1e-300, 1e300])
    def test_oracle_density_reads_zero_where_z_squared_leaves_the_float_range(self, z):
        cfg = figures.scenario("fig2", k=2, ordering="best")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert quadrature.pdf(cfg, z) == metrics.pdf_composite_best(cfg, z) == 0.0

    def test_oracle_density_past_the_float_range_raises(self):
        # At k = 1, f_Y(1e-300) is the rate, 2 pi, and 1e300^2 overflows.
        cfg = figures.scenario("fig2", k=1, ordering="best")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(specfun.ConvergenceError,
                               match=r"z\^2 at z = 1e\+300 lies outside the float range"):
                quadrature.pdf(cfg, 1e300)

    @pytest.mark.parametrize("ordering", metrics.ORDERINGS)
    @pytest.mark.parametrize("z", [0.0, -1.0, math.inf, math.nan])
    def test_oracle_density_outside_its_domain_raises_the_closed_forms_error(self, z, ordering):
        cfg = figures.scenario("fig2", k=2, ordering=ordering)
        for density in (quadrature.pdf, metrics.pdf_composite_best, metrics.pdf_composite_nearest):
            with pytest.raises(ValueError, match="composite-gain density needs a finite z > 0"):
                density(cfg, z)

    def test_instance_list_leaves_out_the_limits_at_varpi_zero(self):
        # eta_k / eta_e rounds to 0: the pairings read PNZ 0 and evaluate no instance
        cfg = ScenarioConfig.build(eta_k=1e-200, eta_e=1e200)
        assert cfg.varpi == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            listed = metrics.fox_h_instances(cfg)
        assert set(listed) == set(metrics._FOX_H) - {"pnz_nn", "pnz_nb", "pnz_bn"}


# Extra arguments of the closed forms in metrics.__all__ that take more than
# the scenario: a gain level, or a secrecy level.
_CLOSED_FORM_ARGS = {
    "pdf_composite_nearest": 0.5, "cdf_composite_nearest": 0.5,
    "pdf_composite_best": 0.5, "cdf_composite_best": 0.5,
    "max_secure_best_users": 0.5,
}


def _assert_python_scalars(cfg: ScenarioConfig) -> None:
    geo = cfg.geometry
    held = {name: getattr(cfg, name) for name in ("n_a", "n_b", "n_e", "user_index", "eta_k", "eta_e", "rate")}
    held |= {name: getattr(geo, name) for name in ("d", "upsilon", "lambda_b", "lambda_e", "unit_ball_volume")}
    held |= {f"{side}.{name}": getattr(geo.fading(side), name)
             for side in ("legitimate", "eavesdropper") for name in ("alpha", "mu", "omega")}
    held["composite_rate"] = geo.composite_rate("legitimate")
    ints = {"n_a", "n_b", "n_e", "user_index", "d"}
    assert {name: type(v) for name, v in held.items()} == {name: int if name in ints else float for name in held}


def _readings(cfg: ScenarioConfig, as_level) -> str:
    """repr of every closed form of metrics.__all__ at each case of cfg, an
    error read as its type and message: equal reprs are bit-identical floats."""
    out = []
    for case in CASES:
        for name in metrics.__all__:
            form = getattr(metrics, name)
            if not callable(form) or form is ScenarioConfig:
                continue
            args = (as_level(_CLOSED_FORM_ARGS[name]),) if name in _CLOSED_FORM_ARGS else ()
            try:
                out.append((case, name, form(cfg.with_case(case), *args)))
            except (ArithmeticError, ValueError) as exc:
                out.append((case, name, type(exc).__name__, str(exc)))
    return repr(out)


class TestPythonScalars:
    """The scenario types hold Python ints and floats whatever numeric type
    they are given as, and the closed forms read the same bits."""

    @pytest.mark.parametrize("given", ["numpy", "int"])
    @pytest.mark.parametrize("fig_id", ["fig3", "fig6", "fig11"])
    def test_builder_scalars_are_python_floats(self, fig_id, given):
        kw, case = figures._resolve(figures._FIGURES[fig_id], {})
        if given == "numpy":
            convert, as_level = (lambda v: np.int64(v) if type(v) is int else np.float64(v)), np.float64
        else:
            convert, as_level = (lambda v: int(v) if type(v) is float and v.is_integer() else v), float
        other = {k: convert(v) for k, v in kw.items()}
        assert any(type(other[k]) is not type(v) for k, v in kw.items())
        cfg, cfg_other = figures._build(kw, case), figures._build(other, case)
        _assert_python_scalars(cfg)
        _assert_python_scalars(cfg_other)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _readings(cfg_other, as_level) == _readings(cfg, float)

    def test_fitted_and_replaced_fields_are_python_scalars(self):
        # alpha != 2 takes the moment fit; replace reruns the scenario's own conversion
        cfg = ScenarioConfig.build(alpha_b=np.float64(1.5), n_a=np.int64(2), d=np.int64(3))
        _assert_python_scalars(replace(cfg, eta_k=np.float32(2.0), user_index=np.int8(2), rate=1))
        assert type(AlphaMuParams.canonical(2, 1).omega) is float


class TestComplementRelativeAccuracy:
    """1 - H forms whose small side the subtraction cannot resolve raise."""

    def test_eight_by_eight_nearest_cop_raises(self):
        # The true outage is 3.17e-40 (quadrature oracle); 1 - H read 5.54e-14.
        cfg = ScenarioConfig.build(n_a=8, n_b=8)
        with pytest.raises(specfun.ConvergenceError, match="lost its relative accuracy"):
            metrics.cop(cfg)

    def test_small_pnz_bn_keeps_its_accuracy(self):
        cfg = ScenarioConfig.build(lambda_b=1e-4, user_index=2, eta_k=0.01).with_case("BN")
        closed = metrics.pnz_bn(cfg)
        assert closed == pytest.approx(1.0e-6, rel=0.05)
        assert closed == pytest.approx(montecarlo.integrate_defining("pnz", cfg).value, rel=1e-5)

    @pytest.mark.parametrize("n", [4, 10])
    def test_nearest_cdf_below_its_bound_raises_whatever_its_sign(self, n):
        # 1 - H reads 1.3e-10 on 4 x 4 and -1.5e-13 on 10 x 10, where the
        # truth is 1.92e-62; both lie within their bounds of 0.
        cfg = ScenarioConfig.build(n_a=n, n_b=n)
        with pytest.raises(specfun.ConvergenceError, match="lost its relative accuracy"):
            metrics.cdf_composite_nearest(cfg, 1.0)

    @pytest.mark.xfail(strict=True, reason=(
        "1 - H at the midpoint abscissa is 0.62% off while its bound is 0.84 of the value, "
        "which 'bound < value' lets through; ROADMAP direction 1 (the saddle abscissa) mends it"))
    def test_nearest_cop_at_30_db_returns_the_oracles_value_or_raises(self):
        # secrecy eval on [geometry] lambda_b = 2, [fading_b] mu = 3 and
        # [scenario] eta_k_db = 30, k = 3 prints a closed form of
        # 1.07939657e-09 against the oracle's 1.08615369e-09, and exits 0.
        cfg = ScenarioConfig.build(lambda_b=2.0, mu_b=3.0, eta_k=1e3, user_index=3)
        oracle = quadrature.cop(cfg)
        try:
            closed = metrics.cop(cfg)
        except specfun.ConvergenceError:
            return
        assert closed == pytest.approx(oracle, rel=QUAD_TOL_PROBABILITY)


# The closed forms with a defining-integral oracle, by (metric id, case); each
# takes the scenario the case sets.
_ORACLE_ROUTES = {
    ("cop", "nearest"): metrics.cop,
    ("pnz", "NN"): metrics.pnz,
    ("pnz", "NB"): metrics.pnz,
    ("pnz", "BN"): metrics.pnz,
    ("pnz", "BB"): metrics.pnz,
    ("capacity", "nearest"): metrics.ergodic_capacity_nearest,
    ("capacity", "best"): metrics.ergodic_capacity_best,
    ("esc", "NN"): metrics.ergodic_secrecy_capacity,
}
_ORACLE_KEYS = [key for key in _ORACLE_ROUTES if key[0] != "cop"]


class TestManyBranches:
    """Composite fading of many branches: the log-space prefactors keep
    Gamma(mu) from overflowing, and every route either matches its oracle or
    raises."""

    @pytest.mark.parametrize("name, case", _ORACLE_KEYS, ids=["-".join(key) for key in _ORACLE_KEYS])
    def test_mu_200_matches_the_oracle(self, name, case):
        cfg = METRICS[name].at(ScenarioConfig.build(n_a=10, n_b=20), case)
        assert cfg.fading_b.mu > 171.0
        closed = _ORACLE_ROUTES[name, case](cfg)
        oracle = montecarlo.integrate_defining(name, cfg).value
        assert closed == pytest.approx(oracle, rel=METRICS[name].quad_tol, abs=0.0)

    def test_mu_200_nearest_cop_raises(self):
        with pytest.raises(specfun.ConvergenceError):
            metrics.cop(ScenarioConfig.build(n_a=10, n_b=20))

    def test_nearest_pdf_is_checked(self):
        # 64 branches: at z = 64 the density reads -1.2e7 against a bound of
        # 1.1e9; at z = 16 it is 6.8283254e-6 (40-digit quadrature of the
        # conditioning integral).
        cfg = ScenarioConfig.build(n_a=8, n_b=8)
        with pytest.raises(specfun.ConvergenceError, match="lost its relative accuracy"):
            metrics.pdf_composite_nearest(cfg, 64.0)
        assert metrics.pdf_composite_nearest(cfg, 16.0) == pytest.approx(6.8283254e-6, rel=QUAD_TOL_PROBABILITY)

    @pytest.mark.parametrize("eta_k", [1.0, 100.0])
    @pytest.mark.parametrize("n_a, n_b", [(1, 1), (2, 2), (4, 4), (8, 8), (10, 20)],
                             ids=["1x1", "2x2", "4x4", "8x8", "10x20"])
    def test_branch_count_sweep_never_contradicts_the_oracle(self, n_a, n_b, eta_k):
        # A route may raise (nearest cop does where the outage is 1.4e-10
        # or less), but a value it returns must be the oracle's.
        base = ScenarioConfig.build(n_a=n_a, n_b=n_b, eta_k=eta_k)
        for (name, case), route in _ORACLE_ROUTES.items():
            cfg = METRICS[name].at(base, case)
            try:
                closed = route(cfg)
            except specfun.ConvergenceError:
                continue
            oracle = montecarlo.integrate_defining(name, cfg).value
            assert closed == pytest.approx(oracle, rel=METRICS[name].quad_tol, abs=0.0), (name, case)


class TestMaxSecureBestUsers:
    def _symmetric(self):
        return _unit_rate_scenario(ordering="best", eavesdropper_policy="best")

    def test_quarter_level_allows_two_users(self):
        assert metrics.max_secure_best_users(self._symmetric(), 0.25) == 2

    def test_point_three_level_allows_one(self):
        assert metrics.max_secure_best_users(self._symmetric(), 0.3) == 1

    def test_domain(self):
        with pytest.raises(ValueError):
            metrics.max_secure_best_users(self._symmetric(), 0.0)
        with pytest.raises(ValueError):
            metrics.max_secure_best_users(self._symmetric(), 1.0)

    def test_monotone_in_snr_ratio_and_density_ratio(self):
        tau = 0.1
        by_w = [
            metrics.max_secure_best_users(figures.scenario("fig8", varpi_db=w), tau)
            for w in np.linspace(-5, 15, 21)
        ]
        assert all(b >= a for a, b in zip(by_w, by_w[1:]))
        by_ratio = [
            metrics.max_secure_best_users(figures.scenario("fig8", ratio=r), tau)
            for r in (0.5, 1.0, 2.0, 4.0, 8.0)
        ]
        assert all(b >= a for a, b in zip(by_ratio, by_ratio[1:]))

    @pytest.mark.parametrize("varpi, users", [(1e8, 230258510), (1e10, 23025850931), (1e12, 2302585092995)])
    def test_high_snr_ratio_keeps_its_digits(self, varpi, users):
        # the base rate_b / (rate_b + rate_e varpi^-delta) rounds toward 1;
        # its log read 230258509, 23025849023 and 2302636031262
        cfg = ScenarioConfig.build(eta_k=varpi, ordering="best", eavesdropper_policy="best")
        assert metrics.max_secure_best_users(cfg, 0.1) == users

    def test_underflowing_ratio_is_a_named_overflow(self):
        # rate_e * varpi^-delta / rate_b underflows to 0, so log1p of it is 0
        # and the BB probability is 1 at every index
        cfg = ScenarioConfig.build(d=2, upsilon=1.0, lambda_b=0.2, lambda_e=0.1, eta_k=1e200,
                                   ordering="best", eavesdropper_policy="best")
        assert metrics.pnz_bb(cfg) == 1.0
        with pytest.raises(OverflowError, match="underflows to 0.*no index within float range bounds k"):
            metrics.max_secure_best_users(cfg, 0.3)

    @pytest.mark.parametrize("eta_k, eta_e", [(1e-250, 1.0), (1e-300, 1e300)],
                             ids=["eavesdropper-term-overflows", "varpi-zero"])
    def test_no_user_where_the_eavesdropper_term_is_infinite(self, eta_k, eta_e):
        # rate_e * varpi^-delta reads inf (d = 3): the BB probability is 0 at
        # every index, so no index meets any level
        cfg = ScenarioConfig.build(d=3, eta_k=eta_k, eta_e=eta_e, ordering="best", eavesdropper_policy="best")
        assert metrics.max_secure_best_users(cfg, 1e-300) == 0

    def test_consistent_with_bb_probability(self):
        # requesting exactly the secrecy level the k-th user achieves must
        # admit at least k users
        from dataclasses import replace
        cfg = figures.scenario("fig6", k=1).with_case("BB")
        for k in range(1, 7):
            level = metrics.pnz_bb(replace(cfg, user_index=k))
            assert metrics.max_secure_best_users(cfg, level) >= k


class TestErgodicCapacity:
    def test_vanishing_snr(self):
        cfg = figures.scenario("fig11", k=1)
        from dataclasses import replace
        faint = replace(cfg, eta_k=1e-9)
        assert metrics.ergodic_capacity_nearest(faint) < 1e-7
        assert metrics.ergodic_capacity_best(faint) < 1e-7

    def test_matches_quadrature_on_fig11(self):
        for k in (1, 2):
            cfg = figures.scenario("fig11", k=k)
            for ordering, closed_fn in (("nearest", metrics.ergodic_capacity_nearest),
                                        ("best", metrics.ergodic_capacity_best)):
                closed = closed_fn(cfg)
                oracle = montecarlo.integrate_defining("capacity", METRICS["capacity"].at(cfg, ordering)).value
                assert closed == pytest.approx(oracle, rel=1e-4)

    def test_wiretap_terms_match_quadrature(self):
        cfg = figures.scenario("fig11", k=2)
        for policy in ("nearest", "best"):
            at = replace(cfg, eavesdropper_policy=policy)
            closed = metrics.wiretap_capacity(at)
            oracle = montecarlo._quad_capacity(at, "eavesdropper")
            assert closed == pytest.approx(oracle, rel=1e-4)


class TestErgodicSecrecyCapacity:
    def test_identical_sides_yield_zero(self):
        cfg = _unit_rate_scenario(eta_k=5.0, eta_e=5.0)
        assert metrics.ergodic_secrecy_capacity(cfg.with_case("NN")) == 0.0
        assert metrics.ergodic_secrecy_capacity(cfg.with_case("BB")) == 0.0

    def test_never_negative(self):
        cfg = figures.scenario("fig11", k=6)
        from dataclasses import replace
        weak = replace(cfg, eta_k=0.01, eta_e=10.0)
        for case in metrics.CASES:
            assert metrics.ergodic_secrecy_capacity(weak.with_case(case)) >= 0.0

    def test_best_receiver_nearest_eavesdropper_dominates(self):
        for k in range(1, 7):
            cfg = figures.scenario("fig11", k=k)
            values = {case: metrics.ergodic_secrecy_capacity(cfg.with_case(case)) for case in metrics.CASES}
            assert values["BN"] > values["NN"]
            assert values["BN"] > values["BB"]
            assert values["BN"] > values["NB"]

    def test_matches_quadrature(self):
        cfg = figures.scenario("fig11", k=2)
        for case in metrics.CASES:
            closed = metrics.ergodic_secrecy_capacity(cfg.with_case(case))
            oracle = montecarlo.integrate_defining("esc", cfg.with_case(case)).value
            assert closed == pytest.approx(oracle, rel=1e-4)
