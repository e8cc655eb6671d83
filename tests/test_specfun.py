"""Special-function layer: gamma family and the Fox H contour evaluator.

Frozen reference values were produced with 40-digit mpmath arithmetic
(series/recurrence log-gamma, quadrature of the defining integrals, and an
independent Mellin-Barnes integration along a different contour abscissa).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as spgamma

from secnet import figures, metrics
from secnet.specfun import (
    ConvergenceError,
    FoxHParams,
    fox_h,
    fox_h_detailed,
    lower_incomplete_gamma,
    upper_incomplete_gamma,
)


class TestIncompleteGamma:
    def test_shape_one_is_exponential(self):
        assert lower_incomplete_gamma(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-14)
        assert upper_incomplete_gamma(1.0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)

    def test_empty_integral(self):
        assert lower_incomplete_gamma(3.0, 0.0) == 0.0

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_upper_at_zero_is_factorial(self, k):
        assert upper_incomplete_gamma(float(k), 0.0) == pytest.approx(math.factorial(k - 1), rel=1e-14)

    def test_lower_against_high_precision_reference(self):
        # 40-digit quadrature of the defining integral at (a, x) = (2.7, 1.3)
        assert lower_incomplete_gamma(2.7, 1.3) == pytest.approx(0.302511981120072391, rel=1e-13)

    def test_upper_against_high_precision_reference(self):
        assert upper_incomplete_gamma(4.0, 2.5) == pytest.approx(4.54545679879839578, rel=1e-13)

    def test_lower_against_live_quadrature(self):
        a, x = 1.9, 0.7
        want, _ = quad(lambda t: t ** (a - 1.0) * math.exp(-t), 0.0, x, epsrel=1e-12)
        assert lower_incomplete_gamma(a, x) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.5, 7.0])
    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_complement_identity(self, a, x):
        total = lower_incomplete_gamma(a, x) + upper_incomplete_gamma(a, x)
        assert total == pytest.approx(spgamma(a), rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            upper_incomplete_gamma(2.0, -0.5)


def _exp_reduction_params() -> FoxHParams:
    return FoxHParams(m=1, n=0, upper_coeffs=(), lower_coeffs=((0.0, 1.0),))


class TestFoxHConstruction:
    def test_order_bounds_checked(self):
        with pytest.raises(ValueError):
            FoxHParams(m=2, n=0, upper_coeffs=(), lower_coeffs=((0.0, 1.0),))
        with pytest.raises(ValueError):
            FoxHParams(m=0, n=1, upper_coeffs=(), lower_coeffs=())

    def test_positive_slopes_required(self):
        with pytest.raises(ValueError):
            FoxHParams(m=1, n=0, upper_coeffs=(), lower_coeffs=((0.0, -1.0),))

    def test_pole_overlap_rejected(self):
        # left poles start at 2, right poles end at 0: no admissible contour
        with pytest.raises(ValueError):
            FoxHParams(m=1, n=1, upper_coeffs=((1.0, 1.0),), lower_coeffs=((-2.0, 1.0),))

    def test_contour_interval(self):
        params = FoxHParams(
            m=1, n=1, upper_coeffs=((-1.0, 2.0),), lower_coeffs=((1.0, 1.0),)
        )
        lo, hi = params.contour_interval()
        assert lo == pytest.approx(-1.0)
        assert hi == pytest.approx(1.0)


class TestFoxHValues:
    def test_exponential_reduction_at_one(self):
        assert fox_h(_exp_reduction_params(), 1.0) == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_exponential_reduction_log_grid(self):
        params = _exp_reduction_params()
        for z in np.geomspace(1e-3, 50.0, 40):
            err = abs(fox_h(params, float(z)) - math.exp(-z))
            assert err <= 1e-8 * max(1.0, math.exp(-z))

    def test_incomplete_gamma_reduction(self):
        # the distribution-side instance with unit argument collapses to an
        # upper incomplete gamma of shape mu
        mu = 3.0
        params = FoxHParams(
            m=2, n=0,
            upper_coeffs=((1.0, 1.0),),
            lower_coeffs=((0.0, 1.0), (mu, 1.0)),
        )
        assert fox_h(params, 1.0) == pytest.approx(upper_incomplete_gamma(mu, 1.0), rel=1e-9)

    def test_composite_gain_instance_against_independent_contour(self):
        # k=2, delta=0.5 nearest-composite density instance at z=0.3; the
        # reference is a 40-digit Mellin-Barnes integration along the
        # abscissa -0.37 (the default here is the midpoint 0.0)
        params = FoxHParams(
            m=1, n=1,
            upper_coeffs=((-3.0, 2.0),),
            lower_coeffs=((2.0, 1.0),),
        )
        theta = 3.0
        arg = theta * 0.3 / math.pi**2
        want = 1.83792292996718602
        assert fox_h(params, arg) == pytest.approx(want, rel=1e-6)
        assert fox_h(params, arg, abscissa=0.8) == pytest.approx(want, rel=1e-6)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            fox_h(_exp_reduction_params(), 0.0)

    def test_rejects_abscissa_outside_interval(self):
        with pytest.raises(ValueError):
            fox_h(_exp_reduction_params(), 1.0, abscissa=-0.5)

    def test_convergence_screen_rejects_negative_exponent(self):
        params = FoxHParams(m=0, n=0, upper_coeffs=(), lower_coeffs=((0.0, 1.0),))
        assert params.convergence_exponent() < 0
        with pytest.raises(ConvergenceError):
            fox_h(params, 1.0)


def _inscope_instances():
    """Every Fox H instance the metric layer evaluates on two representative
    scenarios (one with integer delta, one with d=3 and fractional delta)."""
    out = []
    for fig, kwargs in (("fig6", {"k": 2}), ("fig7", {"k": 2, "upsilon": 4.0})):
        cfg = figures.scenario(fig, **kwargs)
        for name, (params, arg) in metrics.fox_h_instances(cfg).items():
            out.append(pytest.param(params, arg, id=f"{fig}-{name}"))
    return out


class TestFoxHInvariants:
    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_contour_independence(self, params, arg):
        lo, hi = params.contour_interval()
        width = (hi - lo) if math.isfinite(hi) and math.isfinite(lo) else 2.0
        shift = 0.2 * width
        base = params.default_abscissa()
        first = fox_h(params, arg, abscissa=base)
        second = fox_h(params, arg, abscissa=base + shift if base + shift < hi else base - shift)
        assert second == pytest.approx(first, rel=1e-6)

    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_imaginary_residue_negligible(self, params, arg):
        detail = fox_h_detailed(params, arg)
        assert detail.imag_ratio <= 1e-8
