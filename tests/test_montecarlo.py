"""Simulation and quadrature oracle layer: agreement with the closed forms,
confidence-interval behavior, reproducibility, and window-truncation
insensitivity."""

import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaincc, pdtr
from scipy.stats import kstest, ks_2samp

from secnet import fading, figures, metrics, montecarlo, quadrature, specfun, stochgeo
from secnet.fading import AlphaMuParams
from secnet.metrics import ScenarioConfig
from secnet.montecarlo import (
    _SAMPLERS,
    METRICS,
    MonteCarloConfig,
    _far_ring,
    _sample_best_batch,
    _sample_nearest_batch,
    integrate_defining,
    simulate_cop,
    simulate_ergodic_capacity,
    simulate_ergodic_secrecy,
    simulate_pnz,
    simulate_pnz_all,
)
from secnet.stochgeo import NetworkGeometry
from secnet.validation import QUAD_TOL_CAPACITY, QUAD_TOL_PROBABILITY


def _mc(trials=10**5, seed=1234, workers=4, **kw):
    return MonteCarloConfig(trials=trials, master_seed=seed, worker_hint=workers, **kw)


def _dense_cfg(d, upsilon):
    """A dense, high-SNR legitimate side against a sparse eavesdropper with
    heavy fading: the k-th nearest gain sits near 40, far from 1."""
    return ScenarioConfig.build(
        d=d, upsilon=upsilon, alpha_b=2, mu_b=4, alpha_e=1.2, mu_e=1,
        lambda_b=2, lambda_e=0.05, eta_k=20, eta_e=1, rate=3,
    )


def _symmetric_cfg(k=1):
    return ScenarioConfig.build(
        d=2, upsilon=2.0, lambda_b=0.5, lambda_e=0.5,
        alpha_b=2.0, mu_b=2.0, alpha_e=2.0, mu_e=2.0,
        eta_k=1.0, eta_e=1.0, user_index=k,
        ordering="best", eavesdropper_policy="best",
    )


class TestConfigs:
    def test_validation(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(trials=0, master_seed=1)
        with pytest.raises(ValueError):
            MonteCarloConfig(trials=10, master_seed=1, ci_level=1.0)
        # every window is sized from its side law: there is no radius to set
        assert [f.name for f in fields(MonteCarloConfig)] == [
            "trials", "master_seed", "worker_hint", "ci_level"]
        with pytest.raises(TypeError, match="window_radius"):
            MonteCarloConfig(trials=10, master_seed=1, window_radius=10.0)

    @pytest.mark.parametrize("value", [1000.5, 1000.0, math.nan, math.inf])
    @pytest.mark.parametrize("name", ["trials", "master_seed", "worker_hint"])
    def test_counts_and_seed_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer"):
            MonteCarloConfig(**{"trials": 10, "master_seed": 1, name: value})
        assert getattr(MonteCarloConfig(**{"trials": 10, "master_seed": 1, name: np.int64(7)}), name) == 7

    def test_z_score_tracks_ci_level(self):
        assert MonteCarloConfig(trials=10, master_seed=1, ci_level=0.9973).z_score == pytest.approx(3.0, abs=2e-3)


class TestSimulateCop:
    def test_zero_rate_is_exactly_zero(self):
        cfg = figures.scenario("fig3", k=2, alpha=2.0, mu=2.0)
        est = simulate_cop(replace(cfg, rate=0.0), _mc())
        assert est.value == 0.0
        assert est.half_width == 0.0
        # an exact zero carries no sampling interval, so it is not labelled
        # as a simulation result
        assert est.provenance == "closed-form"

    @pytest.mark.parametrize("ordering", ["nearest", "best"])
    def test_matches_closed_form_within_interval(self, ordering):
        cfg = figures.scenario("fig4", k=2, lambda_b=1.0, ordering=ordering)
        est = simulate_cop(cfg, _mc(trials=2 * 10**5))
        closed = metrics.cop(cfg)
        assert abs(est.value - closed) <= est.half_width
        assert est.provenance == "monte-carlo"
        assert est.half_width > 0.0

    @pytest.mark.parametrize("ordering", ["nearest", "best"])
    def test_window_doubling_within_one_interval(self, ordering):
        # Truncation check: the window the side law sizes and one of twice its
        # radius give the same outage frequency.
        cfg = figures.scenario("fig4", k=2, lambda_b=1.0, ordering=ordering)
        geo, k = cfg.geometry, cfg.order_index("legitimate")
        sized = stochgeo.window_radius(geo, "legitimate", k, orderings=(ordering,))
        trials = 2 * 10**5
        estimates = []
        for scale in (1, 2):
            z = np.concatenate([_SAMPLERS[ordering](_gen(scale, j), geo, "legitimate", k, scale * sized, 8000)
                                for j in range(trials // 8000)])
            valid = z[~np.isnan(z)]
            estimates.append(montecarlo._binomial_estimate(
                int(np.count_nonzero(valid < cfg.outage_threshold)), valid.size, trials, _mc(trials=trials)))
        base, wide = estimates
        assert base.rejection_rate == wide.rejection_rate == 0.0
        assert abs(base.value - wide.value) <= max(base.half_width, wide.half_width)

    @pytest.mark.parametrize("simulate", [simulate_cop, simulate_ergodic_capacity])
    def test_rejected_realizations_are_reported(self, simulate, monkeypatch):
        # a quarter of the stream's realizations held fewer than k points
        stream = montecarlo._stream

        def thinned(cfg, mc, side):
            z = stream(cfg, mc, side).copy()
            z[::4] = np.nan
            return z

        monkeypatch.setattr(montecarlo, "_stream", thinned)
        cfg = figures.scenario("fig3", k=3, alpha=2.0, mu=2.0)
        est = simulate(cfg, _mc(trials=10**4))
        assert est.rejection_rate == 0.25
        assert est.trials_used == 7500


class TestSimulatePnz:
    def test_dominant_ratio_saturates(self):
        cfg = replace(figures.scenario("fig6", k=1), eta_k=10**6)
        est = simulate_pnz(cfg, "NN", _mc(trials=10**4))
        assert est.value >= 0.999

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_symmetric_best_best(self, k):
        est = simulate_pnz(_symmetric_cfg(k), "BB", _mc(trials=2 * 10**5))
        assert abs(est.value - 0.5**k) <= est.half_width

    def test_case_defaults_to_config(self):
        cfg = _symmetric_cfg(1)
        mc = _mc(trials=10**4)
        assert simulate_pnz(cfg, None, mc).value == simulate_pnz(cfg, "BB", mc).value

    def test_all_cases_match_closed_forms(self):
        cfg = figures.scenario("fig6", k=2)
        ests = simulate_pnz_all(cfg, _mc(trials=2 * 10**5))
        for case, est in ests.items():
            assert abs(est.value - metrics.pnz(cfg, case)) <= est.half_width

    @pytest.mark.parametrize("upsilon", [2.0, 3.0, 4.0])
    def test_decreasing_in_index_across_pathloss_exponents(self, upsilon):
        mc = _mc(trials=10**5)
        first = simulate_pnz(figures.scenario("fig7", k=1, upsilon=upsilon), "NN", mc)
        fourth = simulate_pnz(figures.scenario("fig7", k=4, upsilon=upsilon), "NN", mc)
        assert fourth.value + fourth.half_width < first.value - first.half_width

    def test_unknown_case_rejected(self):
        with pytest.raises(ValueError):
            simulate_pnz(_symmetric_cfg(), "XX", _mc(trials=10))

    def test_ratio_past_float_range_compares_as_inf(self):
        # zb * varpi overflows to inf on most realizations, which beats every ze
        cfg = ScenarioConfig.build(lambda_b=10.0, eta_k=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = simulate_pnz(cfg, "NN", _mc(trials=10**4))
        assert est.value >= 0.999


class TestSimulateErgodic:
    def test_capacity_matches_closed_form(self):
        cfg = figures.scenario("fig11", k=1)
        est = simulate_ergodic_capacity(cfg, _mc(trials=10**5))
        assert abs(est.value - metrics.ergodic_capacity_nearest(cfg)) <= est.half_width

    def test_identical_sides_clip_to_zero(self):
        cfg = ScenarioConfig.build(
            d=2, upsilon=2.0, lambda_b=1.0, lambda_e=1.0,
            alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=1.0,
            eta_k=5.0, eta_e=5.0, user_index=1,
        )
        est = simulate_ergodic_secrecy(cfg.with_case("NN"), _mc(trials=10**5))
        assert est.clipped_difference.value <= est.clipped_difference.half_width

    def test_secrecy_estimators_reported_separately(self):
        cfg = figures.scenario("fig11", k=1)
        est = simulate_ergodic_secrecy(cfg.with_case("NN"), _mc(trials=5 * 10**4))
        closed = metrics.ergodic_secrecy_capacity(cfg.with_case("NN"))
        assert abs(est.clipped_difference.value - closed) <= est.clipped_difference.half_width
        # averaging the clipped difference can only exceed clipping the mean
        assert est.mean_clipped.value >= est.clipped_difference.value

    def test_interval_shrinks_with_trials(self):
        cfg = figures.scenario("fig11", k=1)
        small = simulate_ergodic_capacity(cfg, _mc(trials=10**4))
        large = simulate_ergodic_capacity(cfg, _mc(trials=10**6))
        ratio = small.half_width / large.half_width
        assert 6.0 < ratio < 14.0

    def test_capacity_past_float_range_raises(self):
        # eta_k * Z overflows on some realization: the sample mean is inf or
        # nan (inf - inf), not a capacity
        cfg = ScenarioConfig.build(lambda_b=10.0, lambda_e=10.0, eta_k=1e305, eta_e=1e305)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(specfun.ConvergenceError, match="sample mean .* is not finite"):
                simulate_ergodic_capacity(cfg, _mc(trials=10**4))
            with pytest.raises(specfun.ConvergenceError, match="sample mean .* is not finite"):
                simulate_ergodic_secrecy(cfg.with_case("NN"), _mc(trials=10**4))


class TestDeterminism:
    def test_worker_count_never_changes_results(self):
        cfg = figures.scenario("fig6", k=2)
        results = []
        for workers in (1, 4, 8):
            mc = MonteCarloConfig(trials=3 * 10**4, master_seed=777, worker_hint=workers)
            ests = simulate_pnz_all(cfg, mc)
            results.append(tuple((c, e.value, e.half_width, e.trials_used) for c, e in sorted(ests.items())))
        assert results[0] == results[1] == results[2]

    def test_same_seed_bitwise_identical(self):
        cfg = figures.scenario("fig3", k=2, alpha=2.0, mu=2.0)
        a = simulate_cop(cfg, _mc(trials=2 * 10**4, workers=2))
        b = simulate_cop(cfg, _mc(trials=2 * 10**4, workers=2))
        assert a == b

    def test_different_seed_differs(self):
        cfg = figures.scenario("fig3", k=2, alpha=2.0, mu=2.0)
        a = simulate_cop(cfg, _mc(trials=2 * 10**4, seed=1))
        b = simulate_cop(cfg, _mc(trials=2 * 10**4, seed=2))
        assert a.value != b.value


def _map_then_select(gen, geometry, side, k, radius, size, ordering):
    """Reference for the simulator kernel: map every point of the whole
    window to its path loss and composite gain, then select the k-th one.
    Draws counts, then one uniform per point, row after row, then one gamma
    shape per point (best ordering, the kernel's order) or per realization
    (nearest ordering)."""
    fad = geometry.fading(side)
    d, ups = geometry.d, geometry.upsilon
    counts = gen.poisson(geometry.density(side) * geometry.unit_ball_volume * radius**d, size)
    loss = _padded(counts, (radius * gen.random(int(counts.sum())) ** (1.0 / d)) ** ups, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        if ordering == "best":
            gains = _padded(counts, fad.omega * gen.standard_gamma(fad.mu, int(counts.sum())) ** (2.0 / fad.alpha), k)
            z = 1.0 / _kth(loss / gains, k)
        else:
            z = fad.omega * gen.standard_gamma(fad.mu, size) ** (2.0 / fad.alpha) / _kth(loss, k)
    z[counts < k] = np.nan
    return z


def _padded(counts, values, k):
    """Values stored row after row as rows of width max(counts.max(), k), padded with +inf."""
    counts = np.asarray(counts)
    width = max(int(counts.max(initial=0)), k)
    out = np.full((counts.size, width), np.inf)
    out[np.arange(width) < counts[:, None]] = values
    return out


def _kth(values, k):
    return np.partition(values, k - 1, axis=1)[:, k - 1]


def _gen(*key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=2024, spawn_key=key)))


def _reference(ordering):
    return lambda *args: _map_then_select(*args, ordering)


class _PlantedDraws:
    """Generator stand-in that returns fixed draws, so edge values can be
    planted; it keeps the parameters of every Beta draw."""

    def __init__(self, counts, uniforms=(), shapes=(), betas=()):
        self.counts, self.uniforms, self.shapes, self.betas = counts, uniforms, shapes, betas
        self.beta_params = []

    def poisson(self, lam, size):
        return np.array(self.counts)

    @staticmethod
    def _planted(values, size):
        values = np.array(values, dtype=float)
        assert values.size == size
        return values

    def random(self, size):
        return self._planted(self.uniforms, size)

    def standard_gamma(self, mu, size):
        return self._planted(self.shapes, size)

    def beta(self, a, b):
        self.beta_params.append((a, np.copy(b)))
        return self._planted(self.betas, np.size(b))


_KERNEL_FADING = {
    "rayleigh": AlphaMuParams.canonical(2.0, 1.0),
    "alpha1.3": AlphaMuParams.canonical(1.3, 0.7),
}


class TestSelectionKernel:
    """Windows of about four points, which the best ordering draws whole:
    on the same stream it must pick the point the reference picks after
    mapping every point.  The nearest ordering draws one order statistic
    instead of the points, so only its counts share the stream."""

    @pytest.mark.parametrize("orderings", [("nearest",), ("best",), ("nearest", "best")])
    @pytest.mark.parametrize("d,upsilon", [(2, 2.0), (2, 3.0), (2, 4.0), (3, 2.0), (3, 3.0), (3, 4.0)])
    def test_matches_map_then_select(self, orderings, d, upsilon):
        size, mean = 3000, 4.0
        for name, fad in _KERNEL_FADING.items():
            geo = NetworkGeometry(d, upsilon, 0.5, 0.5, fad, fad)
            radius = (mean / (0.5 * geo.unit_ball_volume)) ** (1.0 / d)
            for k in (1, 2, 3, 4):
                nan_prob = pdtr(k - 1, mean)
                for ordering in orderings:
                    seed = np.random.SeedSequence(entropy=99, spawn_key=(d, int(upsilon), k, len(orderings)))
                    got = _SAMPLERS[ordering](np.random.Generator(np.random.PCG64(seed)),
                                              geo, "legitimate", k, radius, size)
                    want = _map_then_select(np.random.Generator(np.random.PCG64(seed)),
                                            geo, "legitimate", k, radius, size, ordering)
                    empty = np.isnan(want)
                    np.testing.assert_array_equal(np.isnan(got), empty)
                    assert abs(empty.mean() - nan_prob) <= 4.0 * np.sqrt(nan_prob * (1 - nan_prob) / size)
                    if ordering == "best":
                        np.testing.assert_allclose(got, want, rtol=1e-12, err_msg=f"{name} k={k}")

    @pytest.mark.parametrize("orderings", [("nearest",), ("best",), ("nearest", "best")])
    def test_planted_edge_draws_match_map_then_select(self, orderings):
        fad = _KERNEL_FADING["alpha1.3"]
        geo = NetworkGeometry(2, 3.0, 0.5, 0.5, fad, fad)
        counts = [3, 3, 2, 1]
        # row 0: a point at the origin; row 1: a point with zero gamma shape;
        # row 2: both at once on different points; row 3: fewer than k points
        uniforms = [[0.0, 0.5, 0.7], [0.1, 0.5, 0.7], [0.0, 0.2], [0.4]]
        shapes = [[1.0, 2.0, 0.5], [0.0, 1.0, 2.0], [1.5, 0.0], [1.0]]
        flat_u, flat_g = np.concatenate(uniforms), np.concatenate(shapes)
        row_shapes = [1.0, 0.0, 1.5, 1.0]
        for k in (1, 2):
            got, want = {}, {}
            if "best" in orderings:
                got["best"] = _sample_best_batch(_PlantedDraws(counts, flat_u, flat_g),
                                                 geo, "legitimate", k, 2.0, 4)
                want["best"] = _map_then_select(_PlantedDraws(counts, flat_u, flat_g),
                                                geo, "legitimate", k, 2.0, 4, "best")
            if "nearest" in orderings:
                # the order statistic the kernel draws, planted as the k-th
                # smallest of the row's planted uniforms
                betas = [sorted(row)[k - 1] if len(row) >= k else 0.5 for row in uniforms]
                got["nearest"] = _sample_nearest_batch(_PlantedDraws(counts, shapes=row_shapes, betas=betas),
                                                       geo, "legitimate", k, 2.0, 4)
                want["nearest"] = _map_then_select(_PlantedDraws(counts, flat_u, row_shapes),
                                                   geo, "legitimate", k, 2.0, 4, "nearest")
            for ordering in orderings:
                np.testing.assert_allclose(got[ordering], want[ordering], rtol=1e-12)
                assert np.isnan(got[ordering][3]) == (k > 1)
                if k == 1:
                    # a point at the origin has infinite gain under either ordering
                    assert got[ordering][0] == np.inf
        if "best" in orderings:
            # a zero shape is never the strongest point
            gains = fad.omega * np.array([1.0, 2.0]) ** (2.0 / fad.alpha)
            loss = (2.0 * np.array([0.5, 0.7]) ** 0.5) ** 3.0
            best = _sample_best_batch(_PlantedDraws(counts, flat_u, flat_g), geo, "legitimate", 1, 2.0, 4)
            assert best[1] == pytest.approx(max(gains / loss), rel=1e-12)

    def test_planted_order_statistic_gives_the_exact_gain(self):
        fad = _KERNEL_FADING["alpha1.3"]
        geo = NetworkGeometry(3, 4.0, 0.5, 0.5, fad, fad)
        k, radius = 2, 3.0
        counts, betas, shapes = [5, 2, 9, 1], [0.25, 0.5, 0.1, 0.3], [2.0, 0.5, 1.0, 3.0]
        draws = _PlantedDraws(counts, shapes=shapes, betas=betas)
        z = _sample_nearest_batch(draws, geo, "legitimate", k, radius, 4)
        # the k-th smallest of N uniforms is Beta(k, N + 1 - k); Beta(k, 1)
        # stands in for a row with fewer than k points
        (a, b), = draws.beta_params
        assert a == k
        np.testing.assert_array_equal(b, [4, 1, 8, 1])
        # gain omega G^(2/alpha) over path loss (R U^(1/d))^upsilon
        want = fad.omega * np.array(shapes) ** (2.0 / fad.alpha) / (radius * np.array(betas) ** (1.0 / 3.0)) ** 4.0
        np.testing.assert_allclose(z[:3], want[:3], rtol=1e-14)
        assert np.isnan(z[3])


class _CountingDraws:
    """Generator stand-in that forwards to a real generator, keeps every
    draw and counts the variates each method returns."""

    def __init__(self, gen):
        self.gen = gen
        self.drawn = {"poisson": 0, "random": 0, "standard_gamma": 0, "beta": 0}
        self.draws = {name: [] for name in self.drawn}

    def _count(self, name, draws):
        self.drawn[name] += np.size(draws)
        self.draws[name].append(np.copy(draws))  # the kernel writes into its draws
        return draws

    def poisson(self, lam, size=None):
        return self._count("poisson", self.gen.poisson(lam, size))

    def random(self, size=None):
        return self._count("random", self.gen.random(size))

    def standard_gamma(self, shape, size=None):
        return self._count("standard_gamma", self.gen.standard_gamma(shape, size))

    def beta(self, a, b, size=None):
        return self._count("beta", self.gen.beta(a, b, size))


class TestThinnedKernel:
    """Best-ordering windows holding more points than the inner ball: the
    far ring is drawn as a Poisson layer thinned to the points that can
    reach the top k.  The nearest ordering draws neither, whatever the
    window."""

    @pytest.mark.parametrize("mu,c", [(1.0, 1.0), (0.7, 0.65), (4.0, 2.0 / 3.0)])
    def test_inner_points_and_survivors_hold_the_top_k(self, mu, c):
        # Full-window draws of 200 points; the inner ball U < 0.02 holds
        # four on average, so many rows hold fewer than k of them.
        gen = _gen(int(100 * mu), int(100 * c))
        size, n, u0 = 4000, 200, 0.02
        u = gen.random((size, n))
        g = gen.standard_gamma(mu, (size, n))
        inner = u < u0
        for k in (1, 2, 3, 4):
            key = u**c / g
            k_in = _kth(np.where(inner, key, np.inf), k)
            survive = inner | (g > u0**c / k_in[:, None])
            # a good share of the far points is thinned away, also at k = 4
            assert np.count_nonzero(~survive) > 0.25 * np.count_nonzero(~inner)
            assert 0 < np.count_nonzero(np.count_nonzero(inner, axis=1) < k) < size
            np.testing.assert_array_equal(_kth(np.where(survive, key, np.inf), k), _kth(key, k),
                                          err_msg=f"k={k}")

    @pytest.mark.parametrize("orderings", [("nearest",), ("best",), ("nearest", "best")])
    def test_far_ring_is_thinned_at_the_inner_kth_key(self, orderings, monkeypatch):
        # A threshold off by a factor changes too few realizations for a
        # test in law to see, so the kernel's own threshold is checked here.
        fad = _KERNEL_FADING["alpha1.3"]
        geo = NetworkGeometry(2, 4.0, 0.5, 0.5, fad, fad)
        c = 0.5 * fad.alpha * 4.0 / 2
        radius, k, size = 12.0, 3, 2000
        mean = 0.5 * geo.unit_ball_volume * radius**2
        far_ring = montecarlo._far_ring
        for ordering in orderings:
            rings = []
            monkeypatch.setattr(montecarlo, "_far_ring",
                                lambda gen, *args: rings.append(args) or far_ring(gen, *args))
            draws = _CountingDraws(_gen(11))
            _SAMPLERS[ordering](draws, geo, "legitimate", k, radius, size)
            if ordering == "nearest":
                assert rings == []
                continue
            (ring_mean, u0, q, mu), = rings
            assert u0 == stochgeo.min_count_mean(k) / mean
            assert ring_mean == pytest.approx(mean * (1.0 - u0), rel=1e-15)
            assert mu == fad.mu
            counts = draws.draws["poisson"][0]
            keys = (draws.draws["random"][0] * u0) ** c / draws.draws["standard_gamma"][0]
            k_in = _kth(_padded(counts, keys, k), k)
            np.testing.assert_allclose(q, gammaincc(fad.mu, u0**c / k_in), rtol=1e-14, atol=0)
            assert 0.0 < np.median(q) < 1.0

    @pytest.mark.parametrize("mu", [0.7, 4.0, 16.0])
    def test_survivors_follow_the_truncated_gamma_law(self, mu):
        # thresholds from 0 (q = 1, the whole ring) up to the upper tail
        t = np.repeat([0.0, 0.5 * mu, mu, 2.0 * mu, 3.0 * mu + 5.0], 4000)
        q = gammaincc(mu, t)
        u0, mean = 0.1, 60.0
        counts, u, g = _far_ring(_gen(int(10 * mu)), mean, u0, q, mu)
        assert counts.shape == t.shape and u.shape == g.shape == (counts.sum(),)
        t_each = np.repeat(t, counts)
        q_each = np.repeat(q, counts)
        assert np.all(g > t_each)
        assert np.all((u > u0) & (u <= 1.0))
        assert kstest(gammaincc(mu, g) / q_each, "uniform").pvalue > 1e-3
        assert kstest((u - u0) / (1.0 - u0), "uniform").pvalue > 1e-3
        for level in np.unique(t):
            rows = t == level
            want = mean * gammaincc(mu, level) * np.count_nonzero(rows)
            assert abs(counts[rows].sum() - want) <= 5.0 * np.sqrt(want) + 1.0, level

    @pytest.mark.parametrize("orderings", [("nearest",), ("best",), ("nearest", "best")])
    @pytest.mark.parametrize("d,upsilon", [(2, 2.0), (2, 4.0), (3, 3.0)])
    def test_matches_map_then_select_in_law(self, orderings, d, upsilon):
        fad = _KERNEL_FADING["alpha1.3"] if d == 2 else _KERNEL_FADING["rayleigh"]
        geo = NetworkGeometry(d, upsilon, 0.5, 0.5, fad, fad)
        # 150 points per window against an inner ball of 24-30
        radius = (150.0 / (0.5 * geo.unit_ball_volume)) ** (1.0 / d)
        for k in (1, 2, 4):
            assert stochgeo.min_count_mean(k) < 150.0
            for ordering in orderings:
                got = self._batches(_SAMPLERS[ordering], geo, k, radius, (d, k, len(orderings), 1))
                want = self._batches(_reference(ordering), geo, k, radius, (d, k, len(orderings), 2))
                assert not np.isnan(got).any()
                p = ks_2samp(got, want).pvalue
                assert p > 1e-3, (k, ordering, p)

    @pytest.mark.parametrize("orderings", [("nearest",), ("best",), ("nearest", "best")])
    def test_fallback_rows_match_map_then_select(self, orderings, monkeypatch):
        # A budget of 0.5 shrinks the inner ball to 3.7 points for k = 4, so
        # half the rows hold fewer than k inner points and draw the whole far
        # ring; 4.2% of the windows (mean 8 points) hold fewer than k points.
        monkeypatch.setattr(stochgeo, "_REJECTION_BUDGET", 0.5)
        fad = _KERNEL_FADING["alpha1.3"]
        geo = NetworkGeometry(2, 3.0, 0.5, 0.5, fad, fad)
        k, mean = 4, 8.0
        radius = (mean / (0.5 * geo.unit_ball_volume)) ** 0.5
        assert stochgeo.min_count_mean(k) < 0.5 * mean
        nan_prob = pdtr(k - 1, mean)
        for ordering in orderings:
            counting = _CountingDraws(_gen(7, len(orderings), 1))
            got = self._batches(_SAMPLERS[ordering], geo, k, radius, (7, 1), counting)
            want = self._batches(_reference(ordering), geo, k, radius, (7, len(orderings), 2))
            for z in (got, want):
                assert abs(np.isnan(z).mean() - nan_prob) <= 4.0 * np.sqrt(nan_prob * (1 - nan_prob) / 20000)
            assert ks_2samp(got[~np.isnan(got)], want[~np.isnan(want)]).pvalue > 1e-3, ordering
            if ordering == "best":
                # the far ring was drawn: more uniforms than the inner ball holds
                assert counting.drawn["random"] > 20000 * stochgeo.min_count_mean(k) * 1.5

    @staticmethod
    def _batches(sampler, geo, k, radius, key, gen=None):
        """20,000 realizations in four batches of 5000."""
        return np.concatenate([sampler(gen or _gen(*key, j), geo, "legitimate", k, radius, 5000)
                               for j in range(4)])

    def test_far_ring_work_stays_small(self, monkeypatch):
        # fig7 at upsilon = 2, legitimate side: 838 points per window
        cfg = figures.scenario("fig7", k=2, upsilon=2.0)
        geo, k = cfg.geometry, cfg.order_index("legitimate")
        radius = stochgeo.window_radius(geo, "legitimate", k, orderings=("best",))
        mean = geo.density("legitimate") * geo.unit_ball_volume * radius**geo.d
        inverted = []
        inverse = montecarlo.gammainccinv
        monkeypatch.setattr(montecarlo, "gammainccinv",
                            lambda a, y: inverted.append(np.size(y)) or inverse(a, y))
        counting = _CountingDraws(_gen(8))
        size = 8192
        z = _sample_best_batch(counting, geo, "legitimate", k, radius, size)
        assert not np.isnan(z).any()
        shapes = counting.drawn["standard_gamma"] + sum(inverted)
        assert mean > 800
        assert shapes / size <= 0.1 * mean
        assert counting.drawn["random"] / size <= 0.1 * mean

    @pytest.mark.parametrize("k", [1, 3])
    def test_nearest_draws_a_few_variates_per_realization(self, k):
        # fig3: 314 points per window on either side
        cfg = figures.scenario("fig3", k=k, alpha=2.0, mu=2.0)
        geo = cfg.geometry
        radius = stochgeo.window_radius(geo, "legitimate", k, orderings=("nearest",))
        assert geo.density("legitimate") * geo.unit_ball_volume * radius**geo.d > 300
        counting = _CountingDraws(_gen(9, k))
        size = 8192
        z = _sample_nearest_batch(counting, geo, "legitimate", k, radius, size)
        assert not np.isnan(z).any()
        assert sum(counting.drawn.values()) <= 4 * size


def _padded_best_batch(gen, geometry, side, k, radius, size):
    """Reference for the best-ordering kernel at every k: the same draws,
    with each part's k smallest keys selected from a +inf-padded (rows,
    largest count) array and the k-th of their union by np.partition."""
    fad = geometry.fading(side)
    c = 0.5 * fad.alpha * geometry.upsilon / geometry.d
    mean_count = geometry.density(side) * geometry.unit_ball_volume * radius**geometry.d
    u0 = min(1.0, stochgeo.min_count_mean(k) / mean_count)
    counts = gen.poisson(mean_count * u0, size)
    n = int(counts.sum())
    u = gen.random(n)
    u *= u0
    with np.errstate(divide="ignore", invalid="ignore"):
        key = _padded(counts, u**c / gen.standard_gamma(fad.mu, n), k)
        if u0 < 1.0:
            key.partition(k - 1, axis=1)
            q = gammaincc(fad.mu, u0**c / key[:, k - 1])
            far_counts, far_u, far_shapes = _far_ring(gen, mean_count * (1.0 - u0), u0, q, fad.mu)
            counts = counts + far_counts
            key = np.concatenate((key[:, :k], _padded(far_counts, far_u**c / far_shapes, k)), axis=1)
        z = fading.power_gain_of_shape(fad, 1.0 / _kth(key, k)) / radius**geometry.upsilon
    z[counts < k] = np.nan
    return z


class _ScriptedDraws:
    """Generator stand-in that returns planted draws in call order: one
    list of arrays per method."""

    def __init__(self, poisson, random, standard_gamma):
        self.script = {"poisson": list(poisson), "random": list(random), "standard_gamma": list(standard_gamma)}

    def _next(self, name, shape):
        values = np.array(self.script[name].pop(0))
        assert values.shape == shape
        return values

    def poisson(self, lam, size=None):
        return self._next("poisson", np.shape(lam) if size is None else (size,))

    def random(self, size):
        return self._next("random", (size,)).astype(float)

    def standard_gamma(self, shape, size):
        return self._next("standard_gamma", (size,)).astype(float)


class TestRowMinimum:
    """At k = 1 the best-ordering kernel takes each part's smallest key as a
    row minimum: on the same draws it must equal the padded selection bit
    for bit."""

    @pytest.mark.parametrize("mean", [4.0, 12.0, 150.0, 900.0])
    @pytest.mark.parametrize("fad", list(_KERNEL_FADING.values()), ids=list(_KERNEL_FADING))
    def test_matches_padded_selection_on_one_stream(self, mean, fad):
        # windows of 4 and 12 points have u0 = 1 at k = 1, the others a far ring
        geo = NetworkGeometry(2, 3.0, 0.5, 0.5, fad, fad)
        radius = (mean / (0.5 * geo.unit_ball_volume)) ** 0.5
        assert (stochgeo.min_count_mean(1) < mean) == (mean > 100.0)
        for k in (1, 2):
            seed = np.random.SeedSequence(entropy=5, spawn_key=(int(mean), k))
            got = _sample_best_batch(np.random.Generator(np.random.PCG64(seed)), geo, "legitimate", k, radius, 3000)
            want = _padded_best_batch(np.random.Generator(np.random.PCG64(seed)), geo, "legitimate", k, radius, 3000)
            np.testing.assert_array_equal(got, want, err_msg=f"k={k}")

    @pytest.mark.parametrize("far_ring", [False, True])
    def test_planted_edge_rows_match_padded_selection(self, far_ring):
        fad = _KERNEL_FADING["alpha1.3"]
        geo = NetworkGeometry(2, 3.0, 0.5, 0.5, fad, fad)
        radius = 12.0 if far_ring else 2.0
        assert (stochgeo.min_count_mean(1) < 0.5 * geo.unit_ball_volume * radius**2) == far_ring
        # row 0: a NaN key (U = 0, G = 0) beside two finite ones; row 1: no
        # inner point; row 2: a NaN key alone; row 3: a +inf key (G = 0)
        # beside a finite one; row 4: a +inf key alone; rows 5-6: no inner
        # point, trailing
        counts = [3, 0, 1, 2, 1, 0, 0]
        uniforms = [0.3, 0.0, 0.6, 0.0, 0.2, 0.5, 0.4]
        shapes = [1.0, 0.0, 2.0, 0.0, 0.0, 1.5, 0.0]
        # far survivors, the last row empty: counts, raw uniforms, then the
        # uniforms V of the truncated-gamma inversion
        far = [[1, 2, 0, 1, 0, 1, 0], [0.9, 0.1, 0.5, 0.7, 0.3], [0.2, 0.8, 0.5, 0.6, 0.4]]

        def run(sampler):
            draws = _ScriptedDraws([counts, far[0]] if far_ring else [counts],
                                   [uniforms, *far[1:]] if far_ring else [uniforms], [shapes])
            z = sampler(draws, geo, "legitimate", 1, radius, len(counts))
            assert not any(draws.script.values())
            return z

        got = run(_sample_best_batch)
        np.testing.assert_array_equal(got, run(_padded_best_batch))
        # a row of a NaN or +inf key alone holds a point of gain 0
        assert got[2] == got[4] == 0.0
        assert np.isnan(got[6]) and np.isnan(got[1]) != far_ring
        assert np.all(np.isfinite(got[[0, 3]]) & (got[[0, 3]] > 0.0))

    def test_eavesdropper_draws_match_padded_selection(self):
        # the eavesdropper's order index is 1 whatever the user index
        cfg = figures.scenario("fig6", k=4)
        geo, k = cfg.geometry, cfg.order_index("eavesdropper")
        assert k == 1
        radius = stochgeo.window_radius(geo, "eavesdropper", k, orderings=("best",))
        np.testing.assert_array_equal(_sample_best_batch(_gen(3), geo, "eavesdropper", k, radius, 8192),
                                      _padded_best_batch(_gen(3), geo, "eavesdropper", k, radius, 8192))


class TestStreams:
    """Each (batch, side, ordering) draws from its own stream, in a window
    sized for that ordering alone."""

    def test_single_case_matches_all_cases_bitwise(self):
        cfg = figures.scenario("fig6", k=2)
        mc = _mc(trials=2 * 8192 + 1000, seed=31, workers=1)
        every = simulate_pnz_all(cfg, mc)
        for case in metrics.CASES:
            assert simulate_pnz(cfg, case, mc) == every[case], case

    def test_gains_do_not_depend_on_the_other_orderings_requested(self):
        mc = _mc(trials=5000, seed=5, workers=1)
        for case in metrics.CASES:
            cfg = figures.scenario("fig7", k=2, upsilon=3.0).with_case(case)
            both = montecarlo._gains(cfg, mc, stochgeo.SIDES)
            for side, z in zip(stochgeo.SIDES, both):
                alone, = montecarlo._gains(cfg, mc, (side,))
                np.testing.assert_array_equal(alone, z)

    @pytest.mark.parametrize("cores,trials,want", [(3, 5 * 8192, [3]), (3, 2 * 8192, [2]),
                                                   (None, 5 * 8192, []), (3, 8192, [])])
    def test_threads_capped_at_batches_and_cores(self, cores, trials, want, monkeypatch):
        started = []

        class SerialPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(montecarlo, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cores)
        cfg = figures.scenario("fig4", k=2, lambda_b=1.0)
        mc = _mc(trials=trials, seed=3, workers=10**6)
        est = simulate_cop(cfg, mc)
        assert started == want
        # outputs do not depend on the worker count
        assert est == simulate_cop(cfg, replace(mc, worker_hint=1))


class TestSharedDraws:
    """Inside ``shared_draws`` a stream is drawn once and a capacity
    integrated once, and each is kept only while its side law is in the set
    the scope's owner keeps."""

    def test_keep_holds_only_the_streams_a_later_row_reads(self, monkeypatch):
        drawn = []
        for ordering, sampler in list(_SAMPLERS.items()):
            monkeypatch.setitem(_SAMPLERS, ordering, lambda *a, _s=sampler: drawn.append(a[1:4]) or _s(*a))
        mc = _mc(trials=8192 + 100, seed=7, workers=1)
        first, second = figures.scenario("fig6", k=1), figures.scenario("fig6", k=4)

        def laws(cfg):
            return set().union(*(METRICS["pnz"].side_laws(cfg.with_case(case)) for case in metrics.CASES))

        with montecarlo.shared_draws() as shared:
            alone = {case: simulate_pnz(first, case, mc) for case in metrics.CASES}
            assert len(drawn) == 8
            assert {case: simulate_pnz(first, case, mc) for case in metrics.CASES} == alone
            assert len(drawn) == 8
            shared.keep(laws(second))
            assert {key[0][4] for key in shared} == {"eavesdropper"}
            assert len(shared) == 2
            assert all(not z.flags.writeable for z in shared.values())
            for case in metrics.CASES:
                simulate_pnz(second, case, mc)
            assert [side for _, side, _ in drawn[8:]] == ["legitimate"] * 4
            shared.keep(laws(replace(second, eta_e=2.0)))
            assert len(shared) == 4
            shared.keep(laws(figures.scenario("fig5", k=4)))
            assert not shared
        assert montecarlo._SHARED.get() is None
        assert simulate_pnz_all(first, mc) == alone
        assert len(drawn) == 20

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_sampler_that_raises_leaves_no_stream(self, workers, monkeypatch):
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        cfg = figures.scenario("fig4", k=2, lambda_b=1.0)
        mc = _mc(trials=3 * 8192, seed=7, workers=workers)
        sampler, calls = _SAMPLERS["nearest"], []

        def fail_second_call(*args):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("planted failure")
            return sampler(*args)

        monkeypatch.setitem(_SAMPLERS, "nearest", fail_second_call)
        with montecarlo.shared_draws() as shared:
            with pytest.raises(RuntimeError, match="planted"):
                montecarlo._gains(cfg, mc, ("legitimate",))
            assert not shared
            before = len(calls)
            again, = montecarlo._gains(cfg, mc, ("legitimate",))
            assert len(calls) - before == 3
            assert len(shared) == 1
        np.testing.assert_array_equal(again, montecarlo._gains(cfg, mc, ("legitimate",))[0])

    def test_capacity_integrated_once_per_law(self, monkeypatch):
        calls = []
        converged = quadrature._converged
        monkeypatch.setattr(quadrature, "_converged", lambda f: calls.append(1) or converged(f))
        cfg = figures.scenario("fig11", k=1)
        with montecarlo.shared_draws():
            values = {case: integrate_defining("esc", cfg.with_case(case)).value for case in metrics.CASES}
            assert len(calls) == 4
            # eta_k is not part of the eavesdropper's law
            integrate_defining("esc", replace(cfg, eta_k=2.0 * cfg.eta_k))
            assert len(calls) == 5
        assert values == {case: integrate_defining("esc", cfg.with_case(case)).value for case in metrics.CASES}
        assert len(calls) == 13

    def test_capacity_shared_between_scenarios_of_one_side_law(self, monkeypatch):
        # the legitimate capacity reads neither the eavesdropper density nor its fading
        cfg = figures.scenario("fig11", k=2)
        others = (replace(cfg, geometry=replace(cfg.geometry, lambda_e=3.0 * cfg.geometry.lambda_e)),
                  replace(cfg, geometry=replace(cfg.geometry, fading_e=AlphaMuParams.canonical(3.0, 2.0))))
        alone = [integrate_defining("capacity", c).value for c in (cfg, *others)]
        calls = []
        converged = quadrature._converged
        monkeypatch.setattr(quadrature, "_converged", lambda f: calls.append(1) or converged(f))
        with montecarlo.shared_draws():
            shared = [integrate_defining("capacity", c).value for c in (cfg, *others)]
        assert len(calls) == 1
        assert [repr(v) for v in shared] == [repr(v) for v in alone]


class TestOracleGivesUp:
    """A quadrature that does not settle, or a sample with no valid
    realization, raises instead of returning a number."""

    @pytest.mark.parametrize("integral", [lambda level: 1.0 + 2.0**-level, lambda level: math.nan],
                             ids=["keeps-moving", "nan"])
    def test_quadrature_that_never_settles_raises(self, integral):
        with pytest.raises(specfun.ConvergenceError, match="quadrature did not converge"):
            quadrature._converged(integral)

    def test_infinite_first_level_raises_without_warning(self):
        # eta_k * z overflows on the first level already: inf - inf is no agreement
        cfg = ScenarioConfig.build(eta_k=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(specfun.ConvergenceError, match="quadrature did not converge"):
                quadrature.capacity(cfg, "legitimate")

    def test_empty_sample_raises(self):
        with pytest.raises(specfun.ConvergenceError, match="no valid realizations"):
            montecarlo._mean_estimate(np.array([]), 100, _mc())
        with pytest.raises(specfun.ConvergenceError, match="no valid realizations"):
            montecarlo._binomial_estimate(0, 0, 100, _mc())


class TestIntegrateDefining:
    def test_best_best_closed_form_agreement(self):
        for cfg in (figures.scenario("fig6", k=3), figures.scenario("fig7", k=2, upsilon=3.0)):
            est = integrate_defining("pnz", cfg.with_case("BB"))
            assert est.value == pytest.approx(metrics.pnz_bb(cfg), rel=1e-7)
            assert est.provenance == "quadrature"
            assert est.half_width == 0.0

    def test_cop_agreement_on_fig3(self):
        cfg = figures.scenario("fig3", k=3, alpha=2.0, mu=2.0)
        assert integrate_defining("cop", cfg).value == pytest.approx(metrics.cop_nearest(cfg), rel=1e-5)

    def test_capacity_agreement_on_fig11(self):
        cfg = figures.scenario("fig11", k=1)
        est = integrate_defining("capacity", replace(cfg, ordering="nearest"))
        assert est.value == pytest.approx(metrics.ergodic_capacity_nearest(cfg), rel=1e-4)

    def test_esc_clips_at_zero(self):
        cfg = ScenarioConfig.build(
            d=2, upsilon=2.0, lambda_b=1.0, lambda_e=1.0,
            alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=1.0,
            eta_k=1.0, eta_e=1.0, user_index=1,
        )
        assert integrate_defining("esc", cfg.with_case("NN")).value == 0.0

    @pytest.mark.parametrize(
        "metric", ["pnz-BB", "PNZ_bb", "cop-nearest", "capacity-NN", "pnz-nearest", "esc-XX", "sop", "PNZ", ""])
    def test_unknown_metric_rejected(self, metric):
        # The case is read from the scenario, so a metric id names no case.
        with pytest.raises(ValueError, match="unknown metric") as info:
            integrate_defining(metric, figures.scenario("fig6", k=1))
        assert str(info.value).endswith("expected one of cop, pnz, capacity, esc")

    @pytest.mark.parametrize("d, upsilon", [(2, 4.0), (3, 4.0)])
    def test_nearest_capacity_keeps_mass_far_from_unit_gain(self, d, upsilon):
        # a quadrature map scaled to gains near 1 dropped 12% (d = 2) and
        # 2.1% (d = 3) of this capacity; simulation agrees with the closed form
        cfg = _dense_cfg(d, upsilon)
        value = integrate_defining("capacity", cfg).value
        assert value == pytest.approx(metrics.ergodic_capacity_nearest(cfg), rel=QUAD_TOL_CAPACITY)

    def test_nearest_pnz_keeps_mass_far_from_unit_gain(self):
        cfg = _dense_cfg(3, 4.0)
        value = integrate_defining("pnz", cfg.with_case("NN")).value
        assert value == pytest.approx(metrics.pnz_nn(cfg), rel=QUAD_TOL_PROBABILITY)

    @pytest.mark.parametrize("fig", ["fig6", "fig11"])
    def test_oracle_never_reaches_the_closed_forms(self, fig, monkeypatch):
        cfg = figures.scenario(fig, k=2)
        rows = [(name, at, metric.closed_form(at), metric.quad_tol)
                for name, metric in montecarlo.METRICS.items()
                for at in (metric.at(cfg, case) for case in metric.cases)]

        def forbidden(name):
            def stub(*args, **kwargs):
                raise AssertionError(f"the quadrature oracle called {name}")
            return stub

        monkeypatch.setattr(specfun, "fox_h", forbidden("specfun.fox_h"))
        monkeypatch.setattr(metrics, "fox_h", forbidden("metrics.fox_h"))
        for name in metrics.__all__:
            if name not in ("CASES", "ScenarioConfig"):
                monkeypatch.setattr(metrics, name, forbidden(f"metrics.{name}"))
        for name, at, closed, tol in rows:
            assert montecarlo.integrate_defining(name, at).value == pytest.approx(closed, rel=tol)

    def test_simulator_never_reaches_the_closed_forms(self, monkeypatch):
        cfg, mc = figures.scenario("fig6", k=2), _mc(trials=4096)
        calls = [(metric, metric.at(cfg, case)) for metric in montecarlo.METRICS.values() for case in metric.cases]
        want = [metric.simulate(at, mc) for metric, at in calls]

        def forbidden(name):
            def stub(*args, **kwargs):
                raise AssertionError(f"the simulator called {name}")
            return stub

        monkeypatch.setattr(specfun, "fox_h", forbidden("specfun.fox_h"))
        monkeypatch.setattr(metrics, "fox_h", forbidden("metrics.fox_h"))
        for name in metrics.__all__:
            if name not in ("CASES", "ScenarioConfig"):
                monkeypatch.setattr(metrics, name, forbidden(f"metrics.{name}"))
        assert len(calls) == 12
        assert [metric.simulate(at, mc) for metric, at in calls] == want

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        delta=st.floats(0.5, 1.5),
        alpha_b=st.floats(0.8, 3.0), mu_b=st.floats(0.5, 4.0),
        alpha_e=st.floats(0.8, 3.0), mu_e=st.floats(0.5, 4.0),
        lambda_b=st.floats(0.05, 2.0), lambda_e=st.floats(0.05, 2.0),
        k=st.integers(1, 5),
        eta_k_db=st.floats(-10.0, 15.0),
        rate=st.floats(0.1, 3.0),
    )
    def test_best_ordering_matches_elementary_forms(
        self, d, delta, alpha_b, mu_b, alpha_e, mu_e, lambda_b, lambda_e, k, eta_k_db, rate,
    ):
        cfg = ScenarioConfig.build(
            d=d, upsilon=d / delta, alpha_b=alpha_b, mu_b=mu_b, alpha_e=alpha_e, mu_e=mu_e,
            lambda_b=lambda_b, lambda_e=lambda_e, user_index=k, eta_k=10 ** (eta_k_db / 10),
            rate=rate, ordering="best",
        )
        for metric, at, elementary in (("cop", cfg, metrics.cop_best),
                                       ("pnz", cfg.with_case("BB"), metrics.pnz_bb)):
            value = integrate_defining(metric, at).value
            assert abs(value - elementary(at)) <= 1e-8, metric


def _unpruned_nearest_cdf(law, z, level):
    y, wy = quadrature._exp_sinh(level, (law.k / law.rate) ** (1.0 / law.delta))
    pdf_y = stochgeo.pdf_kth_distance_pow(law.k, law.rate, law.delta, y)
    return fading.cdf_power_gain(law.fad, np.multiply.outer(z, y)) @ (pdf_y * wy)


def _unpruned_nearest_expect(law, h, level):
    mean_gain = law.fad.mean_power()
    w, ww = quadrature._exp_sinh(level, (law.k / law.rate) ** (1.0 / law.delta) / mean_gain)
    g, wg = quadrature._exp_sinh(level, mean_gain)
    pdf_y = stochgeo.pdf_kth_distance_pow(law.k, law.rate, law.delta, np.multiply.outer(w, g))
    pdf_w = pdf_y @ (g * fading.pdf_power_gain(law.fad, g) * wg)
    return np.sum(h(1.0 / w) * pdf_w * ww)


def _unpruned_best_cdf(law, z, level):
    lo = np.minimum(law.rate * np.asarray(z, dtype=float) ** -law.delta, 1e300)
    x, wx = quadrature._exp_sinh(level, law.k)
    return np.sum(stochgeo.pdf_kth_distance_pow(law.k, 1.0, 1.0, lo[..., None] + x) * wx, axis=-1)


def _unpruned_best_expect(law, h, level):
    v, wv = quadrature._exp_sinh(level, law.k)
    pdf_v = stochgeo.pdf_kth_distance_pow(law.k, 1.0, 1.0, v)
    return np.sum(h((law.rate / v) ** (1.0 / law.delta)) * pdf_v * wv)


_UNPRUNED = {
    (quadrature._NearestLaw, "cdf"): _unpruned_nearest_cdf,
    (quadrature._NearestLaw, "expect"): _unpruned_nearest_expect,
    (quadrature._BestLaw, "cdf"): _unpruned_best_cdf,
    (quadrature._BestLaw, "expect"): _unpruned_best_expect,
}


class _Recorder:
    """Wraps a function and keeps a copy of the first argument of each call."""

    def __init__(self, fn, arg=0):
        self.fn, self.arg, self.seen = fn, arg, []

    def __call__(self, *args):
        self.seen.append(np.copy(args[self.arg]))
        return self.fn(*args)


class TestQuadratureNodes:
    """The oracle's sums pass over the nodes of zero weight, so the
    primitives and h never see them, and each sum equals the unpruned one
    up to rounding."""

    LEVEL = 5

    def test_nearest_law_evaluates_no_zero_weight_node(self, monkeypatch):
        law = quadrature._law(figures.scenario("fig6", k=1).with_case("BN"), "eavesdropper")
        assert isinstance(law, quadrature._NearestLaw)
        pdf_y = stochgeo.pdf_kth_distance_pow
        y, wy = quadrature._exp_sinh(self.LEVEL, (law.k / law.rate) ** (1.0 / law.delta))
        y_keep = pdf_y(law.k, law.rate, law.delta, y) * wy != 0.0
        w, ww = quadrature._exp_sinh(self.LEVEL, (law.k / law.rate) ** (1.0 / law.delta) / law.fad.mean_power())
        g, wg = quadrature._exp_sinh(self.LEVEL, law.fad.mean_power())
        g_weight = g * fading.pdf_power_gain(law.fad, g) * wg
        g_keep = g_weight != 0.0
        w_keep = (pdf_y(law.k, law.rate, law.delta, np.multiply.outer(w, g)) @ g_weight) * ww != 0.0
        for keep in (y_keep, g_keep, w_keep):
            assert 0 < np.count_nonzero(~keep) < keep.size

        cdf = _Recorder(fading.cdf_power_gain, 1)
        monkeypatch.setattr(fading, "cdf_power_gain", cdf)
        z = np.array([0.5, 2.0, 30.0])
        law.cdf(z, self.LEVEL)
        (arg,) = cdf.seen
        np.testing.assert_array_equal(arg, np.multiply.outer(z, y[y_keep]))

        pdf = _Recorder(pdf_y, 3)
        monkeypatch.setattr(stochgeo, "pdf_kth_distance_pow", pdf)
        h = _Recorder(np.log1p)
        law.expect(h, self.LEVEL)
        (arg,) = [seen for seen in pdf.seen if seen.ndim == 2]
        np.testing.assert_array_equal(arg, np.multiply.outer(w, g[g_keep]))
        np.testing.assert_array_equal(h.seen[0], 1.0 / w[w_keep])

    def test_best_law_evaluates_no_zero_weight_node(self, monkeypatch):
        law = quadrature._law(figures.scenario("fig6", k=2).with_case("BN"), "legitimate")
        assert isinstance(law, quadrature._BestLaw)
        pdf_v = stochgeo.pdf_kth_distance_pow
        x, wx = quadrature._exp_sinh(self.LEVEL, law.k)
        v_keep = pdf_v(law.k, 1.0, 1.0, x) * wx != 0.0
        assert 0 < np.count_nonzero(~v_keep) < v_keep.size

        pdf = _Recorder(pdf_v, 3)
        monkeypatch.setattr(stochgeo, "pdf_kth_distance_pow", pdf)
        h = _Recorder(np.log1p)
        law.expect(h, self.LEVEL)
        np.testing.assert_array_equal(h.seen[0], (law.rate / x[v_keep]) ** (1.0 / law.delta))

        # the limit lo differs per z and no rule weight wx is 0, so the
        # cdf's one density call takes every offset x on every limit
        assert np.all(wx != 0.0)
        z = np.array([0.05, 1.0, 20.0])
        lo = law.rate * z**-law.delta
        pdf.seen.clear()
        law.cdf(z, self.LEVEL)
        (arg,) = pdf.seen
        np.testing.assert_array_equal(arg, lo[:, None] + x)

    @pytest.mark.parametrize("k", [1, 3])
    def test_infinite_lower_limit_reads_zero(self, k):
        # at z = 0 the limit rate * z^-delta is inf, where the density reads 0
        law = quadrature._BestLaw(rate=0.7, delta=0.8, k=k)
        with np.errstate(divide="ignore"):
            assert law.cdf(0.0, self.LEVEL) == 0.0
            both = law.cdf(np.array([0.0, 1.0]), self.LEVEL)
        assert both[0] == 0.0
        # no gain node at all: an empty sum per z, as the unpruned rule gives
        assert law.cdf(np.array([]), self.LEVEL).shape == (0,)
        assert both[1] == pytest.approx(_unpruned_best_cdf(law, 1.0, self.LEVEL), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("cfg", [
        figures.scenario("fig4", k=2, lambda_b=1.0), figures.scenario("fig6", k=1),
        figures.scenario("fig6", k=4), figures.scenario("fig11", k=1), _dense_cfg(3, 4.0),
    ], ids=["fig4", "fig6-k1", "fig6-k4", "fig11", "dense"])
    def test_every_key_matches_the_unpruned_sums(self, cfg, monkeypatch):
        calls = [(key, metric.at(cfg, case))
                 for key, metric in montecarlo.METRICS.items() for case in metric.cases]
        pruned = [integrate_defining(key, c).value for key, c in calls]
        for (cls, name), fn in _UNPRUNED.items():
            monkeypatch.setattr(cls, name, fn)
        unpruned = [integrate_defining(key, c).value for key, c in calls]
        assert len(calls) == 12
        for (key, c), got, want in zip(calls, pruned, unpruned):
            assert got == pytest.approx(want, rel=1e-14, abs=0.0), (key, c.ordering, c.eavesdropper_policy)


class _FreshLaw:
    """Stands in for ``quadrature._law`` and builds a new law for every
    ``cdf`` or ``expect`` call, so that no level reuses another's values."""

    def __init__(self, law):
        self.law = law

    def cdf(self, z, level):
        return replace(self.law).cdf(z, level)

    def expect(self, h, level):
        return replace(self.law).expect(h, level)


def _level_values(calls, monkeypatch):
    """Each call's quadrature value and the value of each level ``_converged`` saw."""
    converged = quadrature._converged
    seen = []

    def recording(integral):
        levels = []
        seen.append(levels)

        def recorded(level):
            levels.append(float(integral(level)))
            return levels[-1]

        return converged(recorded)

    with monkeypatch.context() as patch:
        patch.setattr(quadrature, "_converged", recording)
        values = [integrate_defining(key, c).value for key, c in calls]
    return values, seen


class TestNestedLevels:
    """A law keeps its 2D primitives' values from their last call, so a
    finer level evaluates only the pairs the coarser one did not hold; every
    level value is the one a fresh law gives, bit for bit."""

    @pytest.mark.parametrize("cfg", [
        figures.scenario("fig4", k=2, lambda_b=1.0), figures.scenario("fig6", k=1),
        figures.scenario("fig6", k=4), figures.scenario("fig11", k=1), _dense_cfg(3, 4.0),
    ], ids=["fig4", "fig6-k1", "fig6-k4", "fig11", "dense"])
    def test_every_level_equals_a_fresh_evaluation(self, cfg, monkeypatch):
        calls = [(key, metric.at(cfg, case))
                 for key, metric in montecarlo.METRICS.items() for case in metric.cases]
        nested, nested_levels = _level_values(calls, monkeypatch)
        law = quadrature._law
        monkeypatch.setattr(quadrature, "_law", lambda c, side: _FreshLaw(law(c, side)))
        fresh, fresh_levels = _level_values(calls, monkeypatch)
        assert len(calls) == 12
        # every integral walks at least one level that reuses a coarser one
        assert min(map(len, nested_levels)) >= 2
        assert [repr(v) for v in nested] == [repr(v) for v in fresh]
        assert [list(map(repr, v)) for v in nested_levels] == [list(map(repr, v)) for v in fresh_levels]

    def test_one_law_serves_two_integrals_at_different_z(self):
        law = quadrature._law(figures.scenario("fig6", k=1).with_case("NN"), "eavesdropper")
        best = quadrature._law(figures.scenario("fig6", k=1).with_case("NB"), "eavesdropper")
        z1 = np.geomspace(0.01, 100.0, 40)
        # shares some values with z1, and walks the levels down as well as up
        z2 = np.concatenate((z1[::3], np.geomspace(0.02, 50.0, 17)))
        with np.errstate(over="ignore", divide="ignore"):
            for served in (law, best):
                for z, levels in ((z1, (3, 4, 5)), (z2, (6, 4, 7)), (z1[5], (3, 5)), (z1, (5,))):
                    for level in levels:
                        got = served.cdf(z, level)
                        want = replace(served).cdf(z, level)
                        np.testing.assert_array_equal(got, want)
            for h in (np.log1p, np.sqrt):
                for level in (3, 5, 5, 4, 6):
                    assert repr(law.expect(h, level)) == repr(replace(law).expect(h, level))
            # the law keeps its own copy of each key, and hands out values it owns
            z = z1.copy()
            law.cdf(z, 5)
            z *= 3.0
            np.testing.assert_array_equal(law.cdf(z, 5), replace(law).cdf(z, 5))
            assert not law.cdf_table.values.flags.writeable

    def test_an_integral_that_raises_midway_leaves_the_next_equal_to_a_fresh_one(self, monkeypatch):
        cfg = figures.scenario("fig6", k=1).with_case("BN")
        bob, eve = quadrature._law(cfg, "legitimate"), quadrature._law(cfg, "eavesdropper")

        def pnz(level):
            return bob.expect(lambda z: eve.cdf(cfg.varpi * z, level), level)

        def failing(level):
            def h(z):
                value = eve.cdf(cfg.varpi * z, level)
                if level == 5:
                    raise ArithmeticError("planted")
                return value
            return bob.expect(h, level)

        want = integrate_defining("pnz", cfg).value
        # an h that raises once the eavesdropper law holds the grid of level 5
        with pytest.raises(ArithmeticError):
            quadrature._converged(failing)
        assert repr(quadrature._converged(pnz)) == repr(want)
        # a primitive that raises on its third call
        cdf, calls = fading.cdf_power_gain, []

        def flaky(*args):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("planted")
            return cdf(*args)

        with monkeypatch.context() as patch:
            patch.setattr(fading, "cdf_power_gain", flaky)
            with pytest.raises(FloatingPointError):
                quadrature._converged(pnz)
        assert repr(quadrature._converged(pnz)) == repr(want)


class _Counting:
    """Wraps a primitive and counts its calls and the elements of its argument."""

    def __init__(self, fn):
        self.fn, self.calls, self.elements = fn, 0, 0

    def __call__(self, *args):
        self.calls += 1
        self.elements += np.size(args[-1])
        return self.fn(*args)


class TestElementCount:
    """A 2D primitive sees each (row, column) pair of an integral once: the
    union of its levels' kept pairs, not each level's full grid.  1D
    primitives see every level's nodes."""

    PRIMITIVES = ((fading, "cdf_power_gain"), (fading, "pdf_power_gain"), (stochgeo, "pdf_kth_distance_pow"))

    def _count(self, monkeypatch, law):
        counters = {}
        with monkeypatch.context() as patch:
            # installed as module attributes, where the callers look them up
            for module, name in self.PRIMITIVES:
                counters[name] = _Counting(getattr(module, name))
                patch.setattr(module, name, counters[name])
            patch.setattr(quadrature, "_law", law)
            for case in ("NN", "BN"):
                integrate_defining("pnz", figures.scenario("fig6", k=1).with_case(case))
        return counters

    def test_fig6_pnz_elements(self, monkeypatch):
        law = quadrature._law
        nested = self._count(monkeypatch, law)
        fresh = self._count(monkeypatch, lambda c, side: _FreshLaw(law(c, side)))
        total = sum(c.elements for c in nested.values())
        # NN 635,821 and BN 227,204, against 844,547 and 301,134 level by level
        assert total == 863_025
        assert sum(c.elements for c in fresh.values()) == 1_145_681
        assert total <= 0.8 * sum(c.elements for c in fresh.values())
        # one call per matrix and level, as from scratch: NN converges at
        # level 6 (4 levels x 4 calls), BN at level 6 (4 levels x 3 calls)
        assert {name: c.calls for name, c in nested.items()} == {name: c.calls for name, c in fresh.items()}
        assert sum(c.calls for c in nested.values()) == 28
