"""Special-function layer: gamma family and the Fox H contour evaluator.

Frozen reference values were produced with 40-digit mpmath arithmetic
(series/recurrence log-gamma, quadrature of the defining integrals, and an
independent Mellin-Barnes integration along a different contour abscissa).
"""

import functools
import math
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
        metrics.wiretap_capacity(replace(cfg, eavesdropper_policy=ordering))
    for case in metrics.CASES:
        metrics.pnz(cfg, case)
        metrics.ergodic_secrecy_capacity(cfg.with_case(case))
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
def cold_cache():
    """An empty node-set cache, an empty row cache and no kept values for
    the test; calling the fixture's value empties all three again."""
    def clear():
        specfun._kept_node_set.cache_clear()
        specfun._kept_row.cache_clear()
        specfun._evaluate.cache_clear()
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
    """The node sets kept across calls change no evaluation."""

    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_warm_cache_gives_cold_values(self, params, arg, cold_cache):
        shifted = _shifted_abscissa(params)
        calls = [(arg * float(z), c) for z in _DECADES for c in (None, shifted)]
        cold = []
        for z, c in calls:
            cold_cache()
            cold.append(astuple(fox_h(params, z, abscissa=c)))
        # Every call now reads the node sets the calls before it left, at
        # both abscissas in turn.
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
        assert specfun._kept_node_set.cache_info().currsize

    def test_cache_keeps_the_last_64_node_sets(self, cold_cache):
        # z^b exp(-z) for many shifts b, each with its own lattice, until
        # far more node sets were seen than the cache keeps.
        for b in np.linspace(0.5, 3.0, 60):
            params = FoxHParams(m=1, n=0, upper_coeffs=(), lower_coeffs=((float(b), 1.0),))
            assert fox_h(params, 2.0).value == pytest.approx(2.0**b * math.exp(-2.0), rel=1e-8)
        info = specfun._kept_node_set.cache_info()
        assert info.maxsize == info.currsize == 64 < info.misses

    @pytest.mark.parametrize("size, kept", [(512, 1), (513, 0)])
    def test_node_sets_of_at_most_512_nodes_are_kept(self, size, kept, cold_cache):
        # 64 sets of 512 nodes, at 24 bytes a node, hold the cache under 1 MiB.
        params = _exp_reduction_params()
        fox_h(params, 1.0)
        before = specfun._kept_node_set.cache_info()
        nodes = specfun._node_set(params, 0.5, 0.01, 0, size, 1)
        assert nodes.t.shape == nodes.phase.shape == nodes.scaled.shape == (size,)
        assert sum(array.nbytes for array in nodes[:3]) == 24 * size
        # A larger set is neither kept nor allowed to push out what the cache held.
        after = specfun._kept_node_set.cache_info()
        assert (after.misses - before.misses, after.currsize - before.currsize) == (kept, kept)

    def test_kept_arrays_are_read_only(self, cold_cache):
        nodes = specfun._node_set(_exp_reduction_params(), 0.5, 0.25, -1, 40, 1)
        for array in nodes[:3]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


@pytest.fixture
def node_sets(monkeypatch):
    """The lattice of every node set `fox_h` asks for, in call order.

    A lattice past the node budget fails the test before it is built, so an
    oversized lattice shows as an assertion and not as the process running
    out of memory.
    """
    seen = []
    original = specfun._node_set

    def recording(params, c, step, first, stop, stride):
        size = len(range(first, stop, stride))
        assert size <= specfun._MAX_NODES, f"node set of {size} past the budget"
        seen.append(step * np.arange(first, stop, stride))
        return original(params, c, step, first, stop, stride)

    monkeypatch.setattr(specfun, "_node_set", recording)
    return seen


def _gamma_terms(params: FoxHParams, s: np.ndarray) -> list[np.ndarray]:
    """The signed log-gamma terms of the integrand at s, one array per term,
    in the order the evaluator adds them."""
    return [
        *(loggamma(b + big_b * s) if j < params.m else -loggamma(1.0 - b - big_b * s)
          for j, (b, big_b) in enumerate(params.lower_coeffs)),
        *(loggamma(1.0 - a - big_a * s) if j < params.n else -loggamma(a + big_a * s)
          for j, (a, big_a) in enumerate(params.upper_coeffs)),
    ]


def _direct_log_integrand(params: FoxHParams, c: float, t: np.ndarray, ln_z: float,
                          log_prefactor: float) -> tuple[np.ndarray, np.ndarray]:
    """log f at c + i t, with z and the prefactor in it, and the summed
    magnitude of its terms."""
    terms = _gamma_terms(params, c + 1j * t)
    last = log_prefactor - (c + 1j * t) * ln_z
    return sum(terms) + last, sum(np.abs(term) for term in terms) + np.abs(last)


def _direct_fox_h(params: FoxHParams, z: float) -> tuple[float, float, float, float]:
    """(value, error, imag_ratio, truncation_height) of H(z) at the default
    abscissa, by the same lattices and checks as `fox_h`, but with each
    level summed as exp of the complex log-integrand at every node: no part
    of a level is kept apart from z.  Budgets and underflow are left out;
    the instances it is used on reach neither."""
    lo, hi = params.contour_interval()
    c, ln_z, exponent = params.default_abscissa(), math.log(z), params.convergence_exponent()
    step = specfun._STEP_PER_HALF_WIDTH * min(c - lo, hi - c, specfun._MAX_HALF_WIDTH)
    height = max(4.0 / exponent * math.log(1.0 / specfun._TAIL_FRACTION) / math.pi, 8.0)

    def level(t):
        log_f, size = _direct_log_integrand(params, c, t, ln_z, 0.0)
        f = np.exp(log_f)
        half = t >= 0.0
        weight = np.where(t[half] > 0.0, 2.0, 1.0)
        rounding = specfun._ROUNDING * float(weight @ (np.abs(f[half]) * (1.0 + size[half])))
        return f, float(weight @ f[half].real), rounding

    with np.errstate(over="ignore", under="ignore"):
        half, total, rounding, peak = -2, 0.0, 0.0, 0.0
        while True:
            top = math.ceil(height / step)
            f, level_sum, level_rounding = level(step * np.arange(half + 1, top + 1))
            if half < 0:
                residue = float(abs(f[0] - f[2].conjugate()))
            half, total, rounding = top, total + step * level_sum, rounding + step * level_rounding
            modulus = np.abs(f)
            peak = float(modulus.max(initial=peak))
            assert 0.0 < peak < math.inf
            if modulus[-1] <= specfun._TAIL_FRACTION * peak:
                break
            height *= 2.0
        tail = 2.0 * float(modulus[-1]) / (0.5 * math.pi * exponent)
        for _ in range(specfun._MAX_HALVINGS):
            step, half = 0.5 * step, 2 * half
            _, level_sum, level_rounding = level(step * np.arange(1, half + 1, 2))
            previous = total
            total, rounding = 0.5 * total + step * level_sum, 0.5 * rounding + step * level_rounding
            change = abs(total - previous)
            if change <= max(specfun._REL_TOL * abs(total), specfun._ABS_TOL * peak):
                return (total / (2.0 * math.pi), (change + tail + rounding) / (2.0 * math.pi),
                        residue / peak, half * step)
    raise AssertionError("the direct level sums did not converge")


class TestDirectLevelSums:
    """The node sets against each level summed directly at every node."""

    @pytest.mark.parametrize("fig", list(figures._FIGURES))
    def test_figure_instances_match_the_direct_sums(self, fig, cold_cache):
        for name, (params, arg) in metrics.fox_h_instances(figures.scenario(fig)).items():
            for scale in (1e-3, 1.0, 1e3):
                z = arg * scale
                got = fox_h(params, z)
                value, error, imag_ratio, height = _direct_fox_h(params, z)
                where = f"{name} at {scale:g} times its argument"
                assert (got.truncation_height, got.imag_ratio) == (height, imag_ratio), where
                assert abs(got.value - value) <= got.error, where
                if got.error < 1e-12 * abs(got.value):
                    assert got.value == pytest.approx(value, rel=1e-12), where

    @pytest.mark.parametrize("params,arg", _inscope_instances())
    @pytest.mark.parametrize("log_prefactor", [0.0, -30.0])
    def test_level_sum_and_rounding_bound_of_one_node_set(self, params, arg, log_prefactor,
                                                          cold_cache):
        c = params.default_abscissa()
        nodes = specfun._node_set(params, c, 0.05, -1, 400, 1)
        t = 0.05 * np.arange(-1, 400)
        for z in arg * _DECADES:
            ln_z = math.log(z)
            shift = log_prefactor - c * ln_z
            level_sum, rounding = specfun._level_sums(nodes, ln_z, shift, nodes.top)
            log_f, size = _direct_log_integrand(params, c, t, ln_z, log_prefactor)
            f, weight = np.exp(log_f), np.sign(t) + 1.0
            bound = specfun._ROUNDING * (weight @ (np.abs(f) * (1.0 + size)))
            peak = math.exp(nodes.top + shift)
            assert peak * rounding == pytest.approx(bound, rel=1e-12)
            # Both sums are within their rounding bound of the exact one.
            assert peak * level_sum == pytest.approx(weight @ f.real, rel=0.0, abs=2.0 * bound)


class TestHalfContour:
    """The integrand is evaluated on the half contour t >= 0, plus one
    mirrored node that checks the conjugate symmetry it rests on."""

    @pytest.mark.parametrize("fig", list(figures._FIGURES))
    def test_cold_call_evaluates_each_lattice_node_once(self, fig, node_sets, cold_cache):
        for name, (params, arg) in metrics.fox_h_instances(figures.scenario(fig)).items():
            cold_cache()
            node_sets.clear()
            got = fox_h(params, arg)
            # Exactly one negative node over all sets, evaluated once:
            # -step, at the head of level 0's first set, the mirror of its
            # node step.  It has no set of its own.
            nodes = np.concatenate(node_sets)
            mirrored = nodes[nodes < 0.0]
            assert mirrored.size == 1, name
            assert node_sets[0][0] == mirrored[0] == -node_sets[0][2], name
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
            log_f, _ = _direct_log_integrand(params, got.abscissa, both, math.log(arg), 0.0)
            with np.errstate(under="ignore"):
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
        # A real term odd in t, on the first gamma term's row, breaks
        # f(c - it) = conj f(c + it), which the half contour takes for granted.
        pair, row = _gamma_pairs(params)[0], specfun._kept_row.__wrapped__

        def skewed(constant, slope, c, step, first, stop, stride):
            terms = row(constant, slope, c, step, first, stop, stride)
            if (constant, slope) == pair:
                terms = terms + 1e-5 * slope * step * np.arange(first, stop, stride)
            return terms

        assert fox_h(params, arg).imag_ratio <= 1e-8
        monkeypatch.setattr(specfun, "_kept_row",
                            functools.lru_cache(maxsize=specfun._CACHE_SIZE)(skewed))
        # The same call again, evaluated and not read back.
        cold_cache()
        assert fox_h(params, arg).imag_ratio > 1e-8


class TestOneLogGammaCallPerNodeArray:
    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_sums_equal_the_term_by_term_loop(self, params, arg, cold_cache):
        c = params.default_abscissa()
        t = 0.1 * np.arange(-1, 401)
        terms = _gamma_terms(params, c + 1j * t)
        log_gamma = sum(terms)
        top = log_gamma.real.max()
        with np.errstate(under="ignore"):
            scaled = np.where(t > 0.0, 2.0, np.where(t == 0.0, 1.0, 0.0)) * np.exp(log_gamma.real - top)
            residue = abs(np.exp(log_gamma[0] - top) - np.exp(log_gamma[2] - top).conjugate())
        keep = scaled > 0.0
        nodes = specfun._node_set(params, c, 0.1, -1, 401, 1)
        np.testing.assert_array_equal(nodes.t, t[keep])
        np.testing.assert_array_equal(nodes.phase, log_gamma.imag[keep])
        np.testing.assert_array_equal(nodes.scaled, scaled[keep])
        size = sum(np.abs(term) for term in terms)
        assert nodes.rounding == float(scaled[keep] @ (1.0 + size[keep]))
        assert (nodes.top, nodes.edge, nodes.residue) == (top, log_gamma.real[-1], residue)

    @pytest.mark.parametrize("params,arg", _inscope_instances())
    def test_each_node_set_that_misses_takes_one_call_per_row_not_held(self, params, arg,
                                                                      node_sets, cold_cache,
                                                                      monkeypatch):
        shapes = []

        def counting(x):
            shapes.append(x.shape)
            return loggamma(x)

        monkeypatch.setattr(specfun, "loggamma", counting)
        fox_h(params, arg)
        # Cold, every node set misses and makes one call per distinct gamma
        # term, on its row: the lattices of one evaluation share no row.
        distinct = len(set(_gamma_pairs(params)))
        assert shapes == [(t.size,) for t in node_sets for _ in range(distinct)]
        # At another argument the same node sets are read back: no call.
        shapes.clear()
        node_sets.clear()
        fox_h(params, 2.0 * arg)
        assert node_sets and not shapes


def _gamma_pairs(params: FoxHParams) -> list[tuple[float, float]]:
    """The (constant, slope) of each gamma term, in the order of
    :func:`_gamma_terms`: the term is +-loggamma(constant + slope * s)."""
    return [*((b, big_b) if j < params.m else (1.0 - b, -big_b)
              for j, (b, big_b) in enumerate(params.lower_coeffs)),
            *((1.0 - a, -big_a) if j < params.n else (a, big_a)
              for j, (a, big_a) in enumerate(params.upper_coeffs))]


def _bits(nodes: specfun._NodeSet) -> tuple:
    """A node set's arrays and scalars as bytes and hex: equal only bit for bit."""
    return tuple(x.tobytes() if isinstance(x, np.ndarray) else float(x).hex() for x in nodes)


class TestRowStore:
    """A node set that misses reads the log-gamma rows of its terms from a
    bounded cache and evaluates only the rows the cache does not hold."""

    # Log-gamma values per figure table from cold caches: the count before
    # the row cache, and with it.  A curve over k or the antenna count changes
    # one or two gamma terms of an instance and keeps its lattice.
    @pytest.mark.parametrize("fig, without_store, with_store", [
        ("fig5", 28044, 5068), ("fig6", 18822, 6696), ("fig7", 20832, 5498),
        ("fig9", 4640, 3336), ("fig10", 20408, 6236), ("fig11", 16304, 4330),
    ])
    def test_figure_tables_evaluate_fewer_log_gamma_values(self, fig, without_store, with_store,
                                                           cold_cache, monkeypatch):
        evaluated = []

        def counting(x):
            evaluated.append(x.size)
            return loggamma(x)

        monkeypatch.setattr(specfun, "loggamma", counting)
        figures.figure_table(fig)
        assert sum(evaluated) == with_store < without_store

    @pytest.mark.parametrize("fig", ["fig5", "fig6", "fig7", "fig10", "fig11"])
    def test_node_sets_from_held_rows_equal_cold_ones(self, fig, cold_cache, monkeypatch):
        built = []
        original = specfun._kept_node_set.__wrapped__

        def recording(*args):
            nodes = original(*args)
            built.append((args, nodes))
            return nodes

        monkeypatch.setattr(specfun, "_kept_node_set",
                            functools.lru_cache(maxsize=specfun._CACHE_SIZE)(recording))
        figures.figure_table(fig)
        assert built
        for args, nodes in built:
            specfun._kept_row.cache_clear()
            assert _bits(original(*args)) == _bits(nodes), args[1:]

    def test_a_warm_figures_scan_cycle_evaluates_50824_log_gamma_values(self, cold_cache,
                                                                       monkeypatch):
        # The figures of the benchmark's figures_scan workload, whose cycle
        # repeats them: after a cold round, each round evaluates as many values.
        scan = ("fig3", "fig5", "fig6", "fig7", "fig10", "fig11")
        for fig in scan:
            figures.figure_table(fig)
        evaluated = []

        def counting(x):
            evaluated.append(x.size)
            return loggamma(x)

        monkeypatch.setattr(specfun, "loggamma", counting)
        for fig in scan:
            figures.figure_table(fig)
        assert sum(evaluated) == 50824

    def test_the_next_k_on_a_lattice_evaluates_its_changed_term_alone(self, cold_cache,
                                                                      monkeypatch):
        # fig6's curves run over k: pnz_nn at k = 3 keeps the abscissa of
        # k = 2 and every gamma term but one.
        first, then = (metrics.fox_h_instances(figures.scenario("fig6", k=k))["pnz_nn"][0]
                       for k in (2, 3))
        c = first.default_abscissa()
        assert then.default_abscissa() == c
        lattice = (c, 0.05, -1, 200, 1)
        arguments = []

        def recording(x):
            arguments.append(x.copy())
            return loggamma(x)

        monkeypatch.setattr(specfun, "loggamma", recording)
        specfun._node_set(first, *lattice)
        assert len(arguments) == len(set(_gamma_pairs(first)))
        arguments.clear()
        warm = specfun._node_set(then, *lattice)
        changed = [pair for pair in _gamma_pairs(then) if pair not in _gamma_pairs(first)]
        assert len(changed) == 1
        constant, slope = changed[0]
        assert len(arguments) == 1
        np.testing.assert_array_equal(arguments[0],
                                      constant + slope * (c + 1j * (0.05 * np.arange(-1, 200))))
        # The set built from held rows is the cold one, bit for bit.
        cold_cache()
        assert _bits(specfun._node_set(then, *lattice)) == _bits(warm)

    def test_cache_keeps_the_last_64_rows_of_at_most_512_nodes(self, cold_cache):
        for fig in ("fig6", "fig11"):
            figures.figure_table(fig)
        info = specfun._kept_row.cache_info()
        assert info.currsize == info.maxsize == specfun._CACHE_SIZE == 64 < info.misses
        # A row is read-only and owns its nodes: 64 rows of 512 complex
        # nodes are 0.5 MiB.
        row = specfun._kept_row(0.0, 1.0, 0.5, 0.01, 0, 512, 1)
        assert not row.flags.writeable and row.base is None and row.nbytes == 512 * 16
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0
        # A set of more than 512 nodes leaves no row behind.
        cold_cache()
        specfun._node_set(_exp_reduction_params(), 0.5, 0.01, 0, 513, 1)
        assert specfun._kept_row.cache_info().currsize == 0
        specfun._node_set(_exp_reduction_params(), 0.5, 0.01, 0, 512, 1)
        assert specfun._kept_row.cache_info().currsize == 1


class TestFiniteValues:
    """The level sums are kept in units of the integrand peak, so a value
    near the top of the float range comes back with a finite bound, and a
    value or bound past it raises."""

    @pytest.mark.parametrize("log_prefactor", [705.0, 708.0])
    def test_value_near_the_top_of_the_float_range(self, log_prefactor):
        got = fox_h(_exp_reduction_params(), 1.0, log_prefactor=log_prefactor)
        assert got.value == pytest.approx(math.exp(log_prefactor - 1.0), rel=1e-12)
        assert 0.0 < got.error <= 1e-9 * got.value

    def test_integrand_peak_past_the_float_range_raises(self):
        # e^709 is a float, but the integrand peak e^710 and the bound are not.
        with pytest.raises(ConvergenceError, match="peak not finite"):
            fox_h(_exp_reduction_params(), 1.0, log_prefactor=710.0)

    def test_value_past_the_float_range_raises(self):
        # On its contour Re s = 10 the integrand at z = 1 is
        # |Gamma(1/2 + i t / 20)|^2 = pi / cosh(pi t / 20), and H(1) = 10 is
        # over three times its peak: at a prefactor e^708 the peak is a
        # float and the value is not.
        wide = FoxHParams(m=1, n=1, upper_coeffs=((0.0, 0.05),), lower_coeffs=((0.0, 0.05),))
        assert fox_h(wide, 1.0).value == pytest.approx(10.0, rel=1e-12)
        with pytest.raises(ConvergenceError, match="not finite"):
            fox_h(wide, 1.0, log_prefactor=708.0)

    def test_bound_past_the_float_range_raises(self, monkeypatch, cold_cache):
        # A rounding floor this coarse takes the bound past the float range
        # while the value stays finite.
        monkeypatch.setattr(specfun, "_ROUNDING", 1e300)
        with pytest.raises(ConvergenceError, match="bound .* is not finite"):
            fox_h(_exp_reduction_params(), 1.0, log_prefactor=700.0)


@pytest.fixture
def evaluations(cold_cache):
    """The count of contour evaluations `fox_h` has made since the test
    began from a cold cache: the value cache's misses."""
    start = specfun._evaluate.cache_info().misses
    return lambda: specfun._evaluate.cache_info().misses - start


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
        assert (len(calls), evaluations()) == (64, 18)
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
        assert evaluations() == 1 + others + (others >= 64)
        assert astuple(again) == astuple(first)
        assert specfun._evaluate.cache_info().currsize == 64

    def test_a_second_round_of_the_tables_evaluates_as_many_instances(self, evaluations,
                                                                       cold_cache):
        # No value outlives the round of figure tables that repeats it.
        counts = []
        for _ in range(2):
            before = evaluations()
            for fig in figures.FIGURE_IDS:
                figures.figure_table(fig)
            counts.append(evaluations() - before)
        assert counts[0] == counts[1]

    def test_a_call_that_raises_keeps_no_value(self, cold_cache):
        params, arg = metrics.fox_h_instances(figures.scenario("fig6", k=2))["pnz_nn"]
        lo, _ = params.contour_interval()
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                fox_h(params, arg, abscissa=lo + 1e-6)
        assert specfun._evaluate.cache_info().currsize == 0
