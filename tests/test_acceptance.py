"""Acceptance gate.

Each criterion of the delivery contract runs as one test (plus lettered
sub-criteria), printing a pass/fail line and enforcing its runtime budget.
Run with ``pytest -v tests/test_acceptance.py`` to see one line per
criterion, or ``-s`` for the detailed evidence rows.

The trend sub-criteria assert what the model proves.  Connection outage is
strictly decreasing in the legitimate density (6a).  The k-th best
receiver's outage is at most the k-th nearest one's everywhere for k = 1;
for k >= 2 the nearest receiver wins at low density by the Lyapunov moment
ratio, and the best receiver wins at the top of the density sweep (6b).
The derivations are in the docstrings of those tests.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc
from scipy.stats import kstest

from secnet import figures, metrics, montecarlo, quadrature, validation
from secnet.fading import (
    AlphaMuParams,
    cdf_power_gain,
    moment_power_gain,
    pdf_power_gain,
    sample_power_gain,
)
from secnet.metrics import ScenarioConfig
from secnet.montecarlo import MonteCarloConfig
from secnet.specfun import FoxHParams, fox_h

SEED = 20260810
WORKERS = 2


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"[{tag}] {criterion}" + (f" — {detail}" if detail else ""))


def _validation_scenarios():
    yield figures.scenario("fig3", k=1, alpha=2.0, mu=2.0)
    yield figures.scenario("fig3", k=3, alpha=2.0, mu=2.0)
    yield figures.scenario("fig4", k=2, lambda_b=1.0)
    yield figures.scenario("fig4", k=4, lambda_b=1.0)
    yield figures.scenario("fig5", k=2)
    yield figures.scenario("fig6", k=1)
    yield figures.scenario("fig6", k=4)
    for upsilon in (2.0, 3.0, 4.0):
        yield figures.scenario("fig7", k=2, upsilon=upsilon)
    yield figures.scenario("fig11", k=1)
    yield figures.scenario("fig11", k=2)


def test_criterion_1_special_function_suite():
    started = time.time()
    exp_params = FoxHParams(m=1, n=0, upper_coeffs=(), lower_coeffs=((0.0, 1.0),))
    for z in np.geomspace(1e-3, 50.0, 40):
        assert abs(fox_h(exp_params, float(z)).value - math.exp(-z)) <= 1e-8 * max(1.0, math.exp(-z))

    checked = 0
    for cfg in _validation_scenarios():
        for name, (params, arg) in metrics.fox_h_instances(cfg).items():
            lo, hi = params.contour_interval()
            width = (hi - lo) if math.isfinite(hi) and math.isfinite(lo) else 2.0
            base = params.default_abscissa()
            shifted = base + 0.2 * width
            if not shifted < hi:
                shifted = base - 0.2 * width
            first = fox_h(params, arg, abscissa=base)
            second = fox_h(params, arg, abscissa=shifted).value
            assert abs(first.value - second) <= 1e-6 * abs(first.value), (name, arg)
            assert first.imag_ratio <= 1e-8, (name, arg)
            checked += 1

    elapsed = time.time() - started
    _report("criterion 1: special-function suite",
            True, f"{checked} contour-independence checks, {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_2_distribution_suite():
    started = time.time()
    for alpha in (1.0, 2.0, 3.0, 4.0):
        for mu in (0.5, 1.0, 2.0, 3.0, 4.0):
            p = AlphaMuParams.canonical(alpha, mu)
            total, _ = quad(lambda x: pdf_power_gain(p, x), 0, np.inf, epsabs=1e-12, epsrel=1e-10)
            assert abs(total - 1.0) <= 1e-8, (alpha, mu)

    xs = np.linspace(0.01, 8.0, 60)
    rayleigh = AlphaMuParams(2.0, 1.0, 1.0)
    assert np.max(np.abs(pdf_power_gain(rayleigh, xs) - np.exp(-xs))) <= 1e-10
    assert np.max(np.abs(cdf_power_gain(rayleigh, xs) - (1.0 - np.exp(-xs)))) <= 1e-10
    for m in (1.0, 2.0, 3.5):
        p = AlphaMuParams.canonical(2.0, m)
        want = gammainc(m, xs / p.omega)
        assert np.max(np.abs(cdf_power_gain(p, xs) - want)) <= 1e-10

    for seed, (alpha, mu) in ((1, (2.0, 1.0)), (2, (3.0, 2.0)), (3, (1.5, 0.8))):
        p = AlphaMuParams.canonical(alpha, mu)
        samples = sample_power_gain(p, np.random.default_rng(seed), size=10**5)
        assert kstest(samples, lambda x: cdf_power_gain(p, x)).pvalue > 0.01

    elapsed = time.time() - started
    _report("criterion 2: distribution suite", True, f"{elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_3_ordered_law_oracle_suite():
    started = time.time()

    # ordered-composite CDF against the conditioning integral over the
    # distance law
    for k in (1, 2, 3):
        cfg = figures.scenario("fig2", k=k)
        for z in (0.1, 0.4, 1.0, 2.5):
            closed = metrics.cdf_composite_nearest(cfg, z)
            oracle = quadrature._converged(lambda level: quadrature._NearestLaw(
                cfg.fading_b, cfg.geometry.pathloss_rate("legitimate"),
                cfg.geometry.delta, k,
            ).cdf(z, level))
            assert abs(closed - oracle) <= 1e-6, (k, z)

    # k-th smallest fading-weighted loss against its regularized-gamma law
    fading = AlphaMuParams.canonical(2.0, 3.0)
    from secnet.stochgeo import NetworkGeometry, window_radius
    geo = NetworkGeometry(d=2, upsilon=2.0, lambda_b=1.0, lambda_e=1.0,
                          fading_b=fading, fading_e=fading)
    rate = geo.composite_rate("legitimate")
    rng = np.random.default_rng(SEED)
    for k in (1, 2, 4):
        radius = window_radius(geo, "legitimate", k)
        trials = 10**5
        counts = rng.poisson(geo.pathloss_rate("legitimate") * radius**2, trials)
        width = counts.max()
        mask = np.arange(width)[None, :] < counts[:, None]
        r = radius * rng.random((trials, width)) ** 0.5
        g = sample_power_gain(fading, rng, size=(trials, width))
        xi = np.where(mask, r**geo.upsilon / g, np.inf)
        xi_k = np.partition(xi, k - 1, axis=1)[:, k - 1][counts >= k]
        pvalue = kstest(xi_k, lambda t: gammainc(k, rate * t**geo.delta)).pvalue
        assert pvalue > 0.01, (k, pvalue)

    # fading-weighted mean measure within three sigma over 1e4 realizations
    geo4 = NetworkGeometry(d=2, upsilon=4.0, lambda_b=1.0, lambda_e=1.0,
                           fading_b=fading, fading_e=fading)
    x = 2.0
    radius = window_radius(geo4, "legitimate", 1)
    trials = 10**4
    counts = rng.poisson(geo4.pathloss_rate("legitimate") * radius**2, trials)
    width = counts.max()
    mask = np.arange(width)[None, :] < counts[:, None]
    r = radius * rng.random((trials, width)) ** 0.5
    g = sample_power_gain(fading, rng, size=(trials, width))
    xi = np.where(mask, r**geo4.upsilon / g, np.inf)
    hits = (xi <= x).sum(axis=1)
    want = geo4.composite_rate("legitimate") * x**geo4.delta
    assert abs(hits.mean() - want) <= 3.0 * math.sqrt(want / trials)

    elapsed = time.time() - started
    _report("criterion 3: ordered-law oracle suite", True, f"{elapsed:.1f}s")
    assert elapsed < 300.0


def test_criterion_4_closed_form_validation_suite():
    started = time.time()
    rows = validation.run_validation(
        trials=10**6, capacity_trials=10**5, seed=SEED, workers=WORKERS,
    )
    gate = rows[0]
    assert all(row.mc_family_size == len(rows) for row in rows)
    print(f"  simulation gate: family-wise level {validation.GATE_LEVEL} over "
          f"m={gate.mc_family_size} rows, |z| <= {gate.mc_gate_z:.3f} per row")
    failures = []
    for row in rows:
        status = "pass" if row.passed else "FAIL"
        print(
            f"  [{status}] {row.figure} {row.metric} {row.case} k={row.k}: "
            f"closed={row.closed_form:.6g} quad={row.quadrature:.6g} "
            f"(rel {row.quad_rel_err:.1e} tol {row.quad_tol:.0e}) "
            f"mc={row.mc_value:.6g}±{row.mc_half_width:.1e} (z {row.mc_z:+.2f})"
        )
        if not row.passed:
            failures.append(row)
    elapsed = time.time() - started
    _report("criterion 4: closed-form validation on figure configurations",
            not failures, f"{len(rows)} checks, family-wise level {validation.GATE_LEVEL}, "
            f"m={gate.mc_family_size}, {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 1800.0


def test_criterion_5_exact_spot_checks():
    symmetric = ScenarioConfig.build(
        d=2, upsilon=2.0, lambda_b=1.0 / math.pi, lambda_e=1.0 / math.pi,
        alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=1.0,
        ordering="best", eavesdropper_policy="best",
    )
    for k in (1, 2, 5):
        assert metrics.pnz_bb(replace(symmetric, user_index=k)) == pytest.approx(0.5**k, rel=1e-14)

    unit = ScenarioConfig.build(
        d=2, upsilon=2.0, lambda_b=1.0 / math.pi, lambda_e=1.0 / math.pi,
        alpha_b=2.0, mu_b=1.0, eta_k=1.0, rate=1.0, ordering="best",
    )
    assert unit.geometry.composite_rate("legitimate") == pytest.approx(1.0, rel=1e-14)
    assert metrics.cop_best(unit) == pytest.approx(math.exp(-1.0), abs=1e-12)

    assert metrics.max_secure_best_users(symmetric, 0.25) == 2
    _report("criterion 5: exact closed-form spot checks", True)


def test_criterion_6a_cop_monotone_in_index():
    for alpha, mu in ((2.0, 2.0), (2.0, 3.0), (3.0, 2.0)):
        values = [metrics.cop_nearest(figures.scenario("fig3", k=k, alpha=alpha, mu=mu))
                  for k in range(1, 8)]
        assert all(b >= a for a, b in zip(values, values[1:])), (alpha, mu, values)
    best = [metrics.cop_best(figures.scenario("fig4", k=k, lambda_b=1.0)) for k in (1, 2, 3, 4, 5)]
    assert all(b >= a for a, b in zip(best, best[1:]))
    _report("criterion 6a (index): outage non-decreasing in user index", True)


def test_criterion_6a_cop_monotone_in_density():
    """Connection outage is strictly decreasing in the legitimate density.

    Nearest ordering: with s ~ Gamma(k, 1) fixed, the k-th nearest distance
    is r_k = (s / (lambda_b c_d))^(1/d), which shrinks pathwise as lambda_b
    grows, so cop_nearest = E[F_g(theta r_k^upsilon)] strictly decreases.
    Best ordering: cop_best = Q(k, composite_rate * theta^(-delta)) with
    composite_rate proportional to lambda_b, and the regularized upper
    gamma Q(k, x) strictly decreases in x.
    """
    grid = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    violations = []
    for k in (2, 4):
        near = [metrics.cop_nearest(figures.scenario("fig4", k=k, lambda_b=lam)) for lam in grid]
        best = [metrics.cop_best(figures.scenario("fig4", k=k, lambda_b=lam)) for lam in grid]
        for name, series in (("nearest", near), ("best", best)):
            if not all(b < a for a, b in zip(series, series[1:])):
                violations.append((k, name, series))
    passed = not violations
    _report("criterion 6a (density): outage strictly decreasing in legitimate density", passed,
            f"k in (2, 4), both orderings, lambda_b {grid[0]}..{grid[-1]}")
    assert passed, violations


def test_criterion_6b_best_cop_dominance_on_sweep():
    """Best-versus-nearest outage ordering on the density sweep.

    k = 1: the best receiver's composite gain is at least the nearest one's
    in every realization, so cop_best <= cop_nearest everywhere.

    k >= 2 at low density: with x = lambda_b c_d theta^(-delta),
    1 - cop_nearest ~ x^k E[g^(k delta)] / k! while
    1 - cop_best ~ x^k E[g^delta]^k / k!, so the success ratio tends to
    E[g^(k delta)] / E[g^delta]^k, which exceeds 1 by Lyapunov's inequality
    for any non-degenerate fading: the nearest receiver wins.  At the top of
    the sweep the best receiver wins, so the ordering crosses over inside it.
    """
    grid = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0]
    low_density, ratio_rtol = 1e-3, 1e-2

    gaps = [metrics.cop_best(cfg) - metrics.cop_nearest(cfg)
            for cfg in (figures.scenario("fig4", k=1, lambda_b=lam) for lam in grid)]
    assert max(gaps) <= 0.0, ("k=1", gaps)

    evidence = []
    for k in (2, 4):
        cfg = figures.scenario("fig4", k=k, lambda_b=low_density)
        delta = cfg.geometry.delta
        limit = moment_power_gain(cfg.fading_b, k * delta) / moment_power_gain(cfg.fading_b, delta)**k
        ratio = (1.0 - metrics.cop_nearest(cfg)) / (1.0 - metrics.cop_best(cfg))
        assert limit > 1.0, (k, limit)
        assert ratio == pytest.approx(limit, rel=ratio_rtol), (k, ratio, limit)

        top = figures.scenario("fig4", k=k, lambda_b=grid[-1])
        top_gap = metrics.cop_best(top) - metrics.cop_nearest(top)
        assert top_gap < 0.0, (k, grid[-1], top_gap)
        evidence.append(f"k={k}: ratio {ratio:.4f} vs {limit:.4f}, gap {top_gap:+.3f} "
                        f"at lambda_b={grid[-1]}")
    _report("criterion 6b: best/nearest outage ordering on the density sweep", True,
            f"k=1 max gap {max(gaps):+.2e}; " + "; ".join(evidence))


def test_criterion_6c_pnz_case_ordering_at_high_index():
    cfg = figures.scenario("fig6", k=4)
    nn, nb = metrics.pnz_nn(cfg), metrics.pnz_nb(cfg)
    bn, bb = metrics.pnz_bn(cfg), metrics.pnz_bb(cfg)
    passed = nn > nb > bn > bb
    _report("criterion 6c: case ordering NN > NB > BN > BB at k=4", passed,
            f"{nn:.4f} > {nb:.4f} > {bn:.4f} > {bb:.4f}")
    assert passed


def test_criterion_6d_max_secure_users_monotone():
    for tau in (0.1, 0.3):
        by_ratio = [metrics.max_secure_best_users(figures.scenario("fig8", ratio=r), tau)
                    for r in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(b >= a for a, b in zip(by_ratio, by_ratio[1:])), (tau, by_ratio)
        by_w = [metrics.max_secure_best_users(figures.scenario("fig8", varpi_db=w), tau)
                for w in np.linspace(-5.0, 15.0, 21)]
        assert all(b >= a for a, b in zip(by_w, by_w[1:])), (tau, by_w)
    _report("criterion 6d: secure best-user count monotone in SNR and density ratios", True)


def test_criterion_6e_secrecy_capacity_case_dominance():
    for k in range(1, 7):
        cfg = figures.scenario("fig11", k=k)
        values = {case: metrics.ergodic_secrecy_capacity(cfg.with_case(case)) for case in metrics.CASES}
        others = [values[c] for c in ("NN", "BB", "NB")]
        assert all(values["BN"] > v for v in others), (k, values)
    _report("criterion 6e: best-receiver/nearest-eavesdropper case dominates", True)


def test_criterion_7_determinism_across_workers():
    cop_cfg = figures.scenario("fig4", k=2, lambda_b=1.0)
    pnz_cfg = figures.scenario("fig6", k=2)
    esc_cfg = figures.scenario("fig11", k=1)
    outcomes = []
    for workers in (1, 4, 8):
        mc = MonteCarloConfig(trials=4 * 10**4, master_seed=SEED, worker_hint=workers)
        cop_est = montecarlo.simulate_cop(cop_cfg, mc)
        pnz_est = montecarlo.simulate_pnz_all(pnz_cfg, mc)
        esc_est = montecarlo.simulate_ergodic_secrecy(esc_cfg.with_case("NN"), mc)
        outcomes.append((
            cop_est,
            tuple(sorted((c, e) for c, e in pnz_est.items())),
            esc_est,
        ))
    passed = outcomes[0] == outcomes[1] == outcomes[2]
    _report("criterion 7: bit-identical estimates at 1, 4, and 8 workers", passed)
    assert passed
