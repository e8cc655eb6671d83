"""Special-function layer: gamma family and the Fox H contour evaluator.

Frozen reference values were produced with 40-digit mpmath arithmetic
(series/recurrence log-gamma, quadrature of the defining integrals, and an
independent Mellin-Barnes integration along a different contour abscissa).
"""

import math
import sys
from collections import OrderedDict
from dataclasses import astuple, replace

import mpmath
import numpy as np
import pytest
from scipy.special import gamma as spgamma
from scipy.special import gammaincc, loggamma

from secnet import figures, metrics, specfun
from secnet.specfun import ConvergenceError, FoxHParams, fox_h


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

    def test_equal_params_built_separately_hash_and_compare_equal(self):
        first = FoxHParams(m=2, n=1, upper_coeffs=((0, 1), (1.0, 1.0)), lower_coeffs=((0.0, 1), (3, 2.0)))
        second = FoxHParams(m=2, n=1, upper_coeffs=[(0.0, 1.0), (1, 1)], lower_coeffs=((0, 1.0), (3.0, 2)))
        assert first is not second
        assert first == second and hash(first) == hash(second)
        assert {first: "kept"}[second] == "kept"
        assert first.contour_interval() == (0.0, 1.0)
        # The interval and hash worked out at construction follow the fields.
        other = replace(first, lower_coeffs=((-0.5, 1.0), (3.0, 2.0)))
        assert other != first and other.contour_interval() == (0.5, 1.0)

    def test_contour_interval(self):
        params = FoxHParams(
            m=1, n=1, upper_coeffs=((-1.0, 2.0),), lower_coeffs=((1.0, 1.0),)
        )
        lo, hi = params.contour_interval()
        assert lo == pytest.approx(-1.0)
        assert hi == pytest.approx(1.0)


class TestFoxHValues:
    def test_exponential_reduction_at_one(self):
        assert fox_h(_exp_reduction_params(), 1.0).value == pytest.approx(math.exp(-1.0), rel=1e-10)

    def test_exponential_reduction_log_grid(self):
        params = _exp_reduction_params()
        for z in np.geomspace(1e-3, 50.0, 40):
            err = abs(fox_h(params, float(z)).value - math.exp(-z))
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
        assert fox_h(params, 1.0).value == pytest.approx(gammaincc(mu, 1.0) * spgamma(mu), rel=1e-9)

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
        assert fox_h(params, arg).value == pytest.approx(want, rel=1e-6)
        assert fox_h(params, arg, abscissa=0.8).value == pytest.approx(want, rel=1e-6)

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(ValueError):
            fox_h(_exp_reduction_params(), 0.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_argument_before_any_lattice(self, z, node_sets, cold_cache):
        with pytest.raises(ValueError, match="positive and finite"):
            fox_h(_exp_reduction_params(), z)
        assert not node_sets

    def test_rejects_abscissa_outside_interval(self):
        with pytest.raises(ValueError):
            fox_h(_exp_reduction_params(), 1.0, abscissa=-0.5)

    def test_convergence_screen_rejects_negative_exponent(self):
        params = FoxHParams(m=0, n=0, upper_coeffs=(), lower_coeffs=((0.0, 1.0),))
        assert params.convergence_exponent() < 0
        with pytest.raises(ConvergenceError):
            fox_h(params, 1.0)


# Two representative scenarios: one with integer delta, one with d=3 and
# fractional delta.
_INSCOPE_SCENARIOS = (("fig6", {"k": 2}), ("fig7", {"k": 2, "upsilon": 4.0}))


def _inscope_instances():
    """Every Fox H instance the metric layer evaluates on the representative scenarios."""
    out = []
    for fig, kwargs in _INSCOPE_SCENARIOS:
        cfg = figures.scenario(fig, **kwargs)
        for name, (params, arg) in metrics.fox_h_instances(cfg).items():
            out.append(pytest.param(params, arg, id=f"{fig}-{name}"))
    return out


@pytest.mark.parametrize("fig, kwargs", _INSCOPE_SCENARIOS, ids=[f for f, _ in _INSCOPE_SCENARIOS])
def test_instance_list_is_exactly_what_the_closed_forms_evaluate(fig, kwargs, monkeypatch):
    cfg = figures.scenario(fig, **kwargs)
    calls = []

    def recording_fox_h(params, arg, *args, **kw):
        calls.append((params, arg))
        return fox_h(params, arg, *args, **kw)

    monkeypatch.setattr(metrics, "fox_h", recording_fox_h)
    z_ref = max(cfg.outage_threshold, 0.25)
    metrics.pdf_composite_nearest(cfg, z_ref)
    metrics.cdf_composite_nearest(cfg, z_ref)
    for ordering in metrics.ORDERINGS:
        metrics.cop(replace(cfg, ordering=ordering))
        metrics.wiretap_capacity(cfg, ordering)
    for case in metrics.CASES:
        metrics.pnz(cfg, case)
        metrics.ergodic_secrecy_capacity(cfg, case)
    metrics.ergodic_capacity_nearest(cfg)
    metrics.ergodic_capacity_best(cfg)

    listed = metrics.fox_h_instances(cfg)
    unlisted = [call for call in calls if call not in listed.values()]
    assert not unlisted, f"{len(unlisted)} of {len(calls)} fox_h calls are not listed"
    unused = [name for name, inst in listed.items() if inst not in calls]
    assert not unused, f"listed but never evaluated: {unused}"


class TestFoxHInvariants:
    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_contour_independence(self, params, arg):
        lo, hi = params.contour_interval()
        width = (hi - lo) if math.isfinite(hi) and math.isfinite(lo) else 2.0
        shift = 0.2 * width
        base = params.default_abscissa()
        first = fox_h(params, arg, abscissa=base).value
        second = fox_h(params, arg, abscissa=base + shift if base + shift < hi else base - shift).value
        assert second == pytest.approx(first, rel=1e-6)

    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_imaginary_residue_negligible(self, params, arg):
        assert fox_h(params, arg).imag_ratio <= 1e-8


# With delta = 1 and alpha = 2 on both sides every gamma slope is 1, so these
# instances are Meijer G-functions, which mpmath evaluates from residue series.
# mu is non-integer: integer mu puts confluent poles in the series.
_UNIT_SLOPE_SCENARIOS = (
    {"mu_b": 1.5, "mu_e": 2.5, "user_index": 2, "lambda_b": 1.0},
    {"mu_b": 0.7, "mu_e": 1.3, "user_index": 3, "lambda_b": 3.0},
)
_UNIT_SLOPE_FORMS = {
    # instance -> (closed form at the listed argument, whether it is 1 - term)
    "pdf_nearest": (metrics.pdf_composite_nearest, False),
    "cdf_nearest": (metrics.cdf_composite_nearest, True),
    "pnz_nn": (lambda cfg, z: metrics.pnz_nn(cfg), True),
    "capacity_best": (lambda cfg, z: metrics.ergodic_capacity_best(cfg), False),
}


def _unit_slope_scenario(**kwargs):
    return metrics.ScenarioConfig.build(
        d=2, upsilon=2.0, alpha_b=2.0, alpha_e=2.0, lambda_e=0.5,
        eta_k=4.0, eta_e=1.0, rate=1.0, **kwargs,
    )


def _meijer_g(params: FoxHParams, z: float):
    assert all(slope == 1.0 for _, slope in params.upper_coeffs + params.lower_coeffs)
    a = [a for a, _ in params.upper_coeffs]
    b = [b for b, _ in params.lower_coeffs]
    with mpmath.workdps(30):
        value = mpmath.meijerg([a[: params.n], a[params.n:]], [b[: params.m], b[params.m:]], z)
        # confluent poles are resolved by perturbation, which leaves a tiny imaginary part
        assert abs(mpmath.im(value)) <= 1e-25 * abs(value)
        return mpmath.re(value)


class TestFoxHErrorEstimate:
    @pytest.mark.parametrize("name", sorted(_UNIT_SLOPE_FORMS))
    @pytest.mark.parametrize("kwargs", _UNIT_SLOPE_SCENARIOS, ids=["k2", "k3"])
    def test_unit_slope_instance_against_meijer_g(self, name, kwargs):
        cfg = _unit_slope_scenario(**kwargs)
        params, arg = metrics.fox_h_instances(cfg)[name]
        want = _meijer_g(params, arg)
        got = fox_h(params, arg)
        actual = abs(mpmath.mpf(got.value) - want)
        assert actual <= 1e-10 * abs(want)
        assert actual <= got.error

        closed_form, complement = _UNIT_SLOPE_FORMS[name]
        build, side, *_ = metrics._FOX_H[name]
        log_pref, _, scale = build(cfg, side, cfg.order_index(side))
        term = mpmath.exp(log_pref) * want
        expected = 1 - term if complement else term
        assert abs(closed_form(cfg, arg / scale) - expected) <= 1e-10 * abs(expected)

    @pytest.mark.parametrize("gap", [1e-6, 1e-7])
    def test_abscissa_next_to_a_pole_raises(self, gap):
        # the exponential instance has its poles at s = 0, -1, -2, ...
        with pytest.raises(ConvergenceError):
            fox_h(_exp_reduction_params(), 1.0, abscissa=gap)

    def test_instance_abscissa_next_to_a_pole_raises(self):
        params, arg = metrics.fox_h_instances(figures.scenario("fig6", k=2))["pnz_nn"]
        lo, _ = params.contour_interval()
        with pytest.raises(ConvergenceError):
            fox_h(params, arg, abscissa=lo + 1e-6)


@pytest.fixture
def cold_cache(monkeypatch):
    """An empty log-gamma cache and no kept values for the test; calling the
    fixture's value empties both again."""
    def clear():
        monkeypatch.setattr(specfun, "_CACHE", OrderedDict())
        monkeypatch.setattr(specfun, "_cache_bytes", 0)
        monkeypatch.setattr(specfun, "_VALUES", OrderedDict())
    clear()
    return clear


def _shifted_abscissa(params: FoxHParams) -> float:
    """An admissible abscissa away from the default one, as the
    contour-independence test uses."""
    lo, hi = params.contour_interval()
    width = (hi - lo) if math.isfinite(hi) and math.isfinite(lo) else 2.0
    base = params.default_abscissa()
    return base + 0.2 * width if base + 0.2 * width < hi else base - 0.2 * width


# Arguments over six decades about each instance's own argument.
_DECADES = np.geomspace(1e-3, 1e3, 7)


class TestContourCache:
    """The log-gamma sums kept across calls change no evaluation."""

    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_warm_cache_gives_cold_values(self, params, arg, cold_cache):
        shifted = _shifted_abscissa(params)
        calls = [(arg * float(z), c) for z in _DECADES for c in (None, shifted)]
        cold = []
        for z, c in calls:
            cold_cache()
            cold.append(astuple(fox_h(params, z, abscissa=c)))
        # Every call now reads the sums the calls before it left, at both
        # abscissas in turn.
        warm = [astuple(fox_h(params, z, abscissa=c)) for z, c in calls]
        assert warm == cold
        assert cold[0] != cold[1], "the shifted contour must differ in its lattice"

    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_truncation_height_independent_of_argument(self, params, arg, cold_cache):
        heights = {fox_h(params, arg * float(z)).truncation_height for z in _DECADES}
        assert len(heights) == 1

    def test_warm_cache_raises_the_same_errors(self, cold_cache):
        params, arg = metrics.fox_h_instances(figures.scenario("fig6", k=2))["pnz_nn"]
        lo, _ = params.contour_interval()
        for _ in range(2):
            fox_h(params, arg)
            with pytest.raises(ValueError):
                fox_h(params, 0.0)
            with pytest.raises(ValueError):
                fox_h(params, -arg)
            with pytest.raises(ConvergenceError):
                fox_h(params, arg, abscissa=lo + 1e-6)
        assert specfun._CACHE

    def test_cache_stays_within_budget(self, cold_cache):
        # z^b exp(-z) for many shifts b, each with its own lattice, until
        # far more entries were made than the budget holds.
        evaluated = 0
        for b in np.linspace(0.5, 3.0, 60):
            params = FoxHParams(m=1, n=0, upper_coeffs=(), lower_coeffs=((float(b), 1.0),))
            assert fox_h(params, 2.0).value == pytest.approx(2.0**b * math.exp(-2.0), rel=1e-8)
            evaluated += sum(key[0] == params for key in specfun._CACHE)
            assert specfun._cache_bytes <= specfun._CACHE_BUDGET
        assert evaluated > len(specfun._CACHE)
        entries = specfun._CACHE.items()
        assert specfun._cache_bytes == sum(nbytes for _, (_, _, nbytes) in entries)
        # The charge per entry covers the objects it holds.
        held = sum(sys.getsizeof(key) + sys.getsizeof(key[2]) + sys.getsizeof(value)
                   + sys.getsizeof(value[0]) + sys.getsizeof(value[1]) for key, value in entries)
        assert held <= specfun._cache_bytes

    def test_node_set_larger_than_budget_is_not_kept(self, cold_cache):
        params = _exp_reduction_params()
        fox_h(params, 1.0)
        kept = list(specfun._CACHE)
        nodes = np.arange(float(specfun._CACHE_BUDGET // 8))
        total, size = specfun._gamma_sums(params, 0.5, nodes)
        assert total.shape == size.shape == nodes.shape
        # Neither kept nor allowed to push out what the cache held.
        assert list(specfun._CACHE) == kept


@pytest.fixture
def node_sets(monkeypatch):
    """Every node array `fox_h` hands to the log-gamma sums, in call order.

    An array past the node budget fails the test before it is evaluated, so
    an oversized lattice shows as an assertion and not as the process
    running out of memory.
    """
    seen = []
    original = specfun._gamma_sums

    def recording(params, c, t):
        assert t.size <= specfun._MAX_NODES, f"node array of {t.size} past the budget"
        seen.append(t.copy())
        return original(params, c, t)

    monkeypatch.setattr(specfun, "_gamma_sums", recording)
    return seen


class TestHalfContour:
    """The integrand is evaluated on the half contour t >= 0, plus one
    mirrored node that checks the conjugate symmetry it rests on."""

    @pytest.mark.parametrize("fig", list(figures._FIGURES))
    def test_cold_call_evaluates_each_lattice_node_once(self, fig, node_sets, cold_cache):
        for name, (params, arg) in metrics.fox_h_instances(figures.scenario(fig)).items():
            cold_cache()
            node_sets.clear()
            got = fox_h(params, arg)
            # Exactly one negative node over all arrays, evaluated once: the
            # mirror of a lattice node.  It has no array of its own.
            nodes = np.concatenate(node_sets)
            mirrored = nodes[nodes < 0.0]
            assert mirrored.size == 1, name
            assert all((t >= 0.0).any() for t in node_sets), name
            # The level lattices, and nothing else, make up the finest
            # lattice from 0 to the truncation height, each node evaluated once.
            lattice = np.sort(nodes[nodes >= 0.0])
            step = lattice[1]
            np.testing.assert_array_equal(lattice, step * np.arange(lattice.size), err_msg=name)
            assert lattice[-1] == got.truncation_height
            assert -mirrored[0] in lattice
            # Reference: the trapezoid sum over the whole symmetric lattice.
            both = step * np.arange(1 - lattice.size, lattice.size)
            log_f, _ = specfun._log_integrand(params, got.abscissa, both, math.log(arg), 0.0)
            full = step * complex(np.exp(log_f).sum()) / (2.0 * math.pi)
            assert full.real == pytest.approx(got.value, rel=1e-12), name

    @pytest.mark.parametrize("gap", [2e-3, 1e-6, 1e-7])
    def test_abscissa_next_to_a_pole_stays_within_the_node_budget(self, gap, node_sets, cold_cache):
        # At 2e-3 level 0 fits and the halvings reach the budget; nearer the
        # pole level 0 alone would pass it and no node is evaluated.
        with pytest.raises(ConvergenceError, match="node budget"):
            fox_h(_exp_reduction_params(), 1.0, abscissa=gap)
        assert bool(node_sets) == (gap > 1e-3)
        assert sum(t.size for t in node_sets) <= specfun._MAX_NODES

    def test_instance_abscissa_next_to_a_pole_evaluates_no_node(self, node_sets, cold_cache):
        params, arg = metrics.fox_h_instances(figures.scenario("fig6", k=2))["pnz_nn"]
        lo, _ = params.contour_interval()
        with pytest.raises(ConvergenceError, match="node budget"):
            fox_h(params, arg, abscissa=lo + 1e-6)
        assert not node_sets

    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_imaginary_residue_flags_an_asymmetric_integrand(self, params, arg, monkeypatch,
                                                            cold_cache):
        # A real term odd in t breaks f(c - it) = conj f(c + it), which the
        # half contour takes for granted.
        original = specfun._log_integrand

        def skewed(params, c, t, ln_z, log_prefactor):
            log_f, size = original(params, c, t, ln_z, log_prefactor)
            return log_f + 1e-5 * t, size

        assert fox_h(params, arg).imag_ratio <= 1e-8
        monkeypatch.setattr(specfun, "_log_integrand", skewed)
        # The same call again, evaluated and not read back.
        cold_cache()
        assert fox_h(params, arg).imag_ratio > 1e-8


class TestOneLogGammaCallPerNodeArray:
    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_sums_equal_the_term_by_term_loop(self, params, arg, cold_cache):
        c = params.default_abscissa()
        t = np.linspace(-40.0, 40.0, 801)
        s = c + 1j * t
        terms = [
            *(loggamma(b + big_b * s) if j < params.m else -loggamma(1.0 - b - big_b * s)
              for j, (b, big_b) in enumerate(params.lower_coeffs)),
            *(loggamma(1.0 - a - big_a * s) if j < params.n else -loggamma(a + big_a * s)
              for j, (a, big_a) in enumerate(params.upper_coeffs)),
        ]
        total, size = specfun._gamma_sums(params, c, t)
        np.testing.assert_array_equal(total, sum(terms))
        np.testing.assert_array_equal(size, sum(np.abs(term) for term in terms))

    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_each_node_array_that_misses_takes_one_call(self, params, arg, node_sets, cold_cache,
                                                        monkeypatch):
        shapes = []

        def counting(x):
            shapes.append(x.shape)
            return loggamma(x)

        monkeypatch.setattr(specfun, "loggamma", counting)
        fox_h(params, arg)
        # Cold, every node array misses, and one call takes all p + q terms.
        assert shapes == [(params.p + params.q, t.size) for t in node_sets]
        # At another argument the same node arrays are read back: no call.
        shapes.clear()
        node_sets.clear()
        fox_h(params, 2.0 * arg)
        assert node_sets and not shapes


@pytest.fixture
def evaluations(monkeypatch):
    """The argument of every contour evaluation `fox_h` makes, in call order."""
    seen = []
    original = specfun._evaluate

    def recording(params, z, *rest):
        seen.append(z)
        return original(params, z, *rest)

    monkeypatch.setattr(specfun, "_evaluate", recording)
    return seen


class TestValueReuse:
    """A repeated instance is evaluated once; the value read back is the
    one a cold evaluation gives."""

    def test_fig11_evaluates_each_distinct_instance_once(self, evaluations, cold_cache, monkeypatch):
        calls = []

        def recording_fox_h(params, arg, *args, **kw):
            value = fox_h(params, arg, *args, **kw)
            calls.append((params, arg, args, kw, value))
            return value

        monkeypatch.setattr(metrics, "fox_h", recording_fox_h)
        figures.figure_table("fig11")
        assert (len(calls), len(evaluations)) == (64, 18)
        for params, arg, args, kw, value in calls:
            cold_cache()
            assert astuple(fox_h(params, arg, *args, **kw)) == astuple(value)

    @pytest.mark.parametrize("others", [63, 64])
    def test_instance_is_evaluated_again_after_64_distinct_others(self, others, evaluations,
                                                                 cold_cache):
        params = _exp_reduction_params()
        first = fox_h(params, 1.0)
        for z in np.linspace(2.0, 3.0, others):
            fox_h(params, float(z))
        again = fox_h(params, 1.0)
        assert evaluations.count(1.0) == (1 if others < 64 else 2)
        assert astuple(again) == astuple(first)
        assert len(specfun._VALUES) == 64

    def test_a_second_round_of_the_tables_evaluates_as_many_instances(self, evaluations,
                                                                       cold_cache):
        # No value outlives the round of figure tables that repeats it.
        counts = []
        for _ in range(2):
            evaluations.clear()
            for fig in figures.FIGURE_IDS:
                figures.figure_table(fig)
            counts.append(len(evaluations))
        assert counts[0] == counts[1]

    def test_a_call_that_raises_keeps_no_value(self, cold_cache):
        params, arg = metrics.fox_h_instances(figures.scenario("fig6", k=2))["pnz_nn"]
        lo, _ = params.contour_interval()
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                fox_h(params, arg, abscissa=lo + 1e-6)
        assert not specfun._VALUES
