#!/usr/bin/env python3
"""Walk through the alpha-mu power-gain family.

Shows how the two shape parameters bend the distribution between the
classical special cases, that the sampler reproduces the analytic law, and
how a sum of antenna branch gains collapses to a single alpha-mu variable:
exactly at alpha = 2, by a three-moment fit otherwise.
"""

import numpy as np

from secnet import AlphaMuParams, cdf_power_gain, fit_sum_params, pdf_power_gain, sample_power_gain

print("=== special cases contained in the family ===")
rayleigh = AlphaMuParams.canonical(2.0, 1.0)
nakagami3 = AlphaMuParams.canonical(2.0, 3.0)
weibullish = AlphaMuParams.canonical(3.4, 1.0)
for name, p in (("Rayleigh power", rayleigh),
                ("Nakagami-3 power", nakagami3),
                ("Weibull-like", weibullish)):
    xs = np.array([0.25, 1.0, 2.5])
    print(f"{name:18s} alpha={p.alpha:.1f} mu={p.mu:.1f} omega={p.omega:.4f} "
          f"pdf@1={pdf_power_gain(p, 1.0):.4f}")
print()

print("=== sampler vs analytic distribution ===")
rng = np.random.default_rng(7)
samples = sample_power_gain(nakagami3, rng, size=200_000)
for q in (0.1, 0.5, 0.9):
    empirical = np.quantile(samples, q)
    analytic = cdf_power_gain(nakagami3, empirical)
    print(f"empirical {q:.0%} quantile = {empirical:.4f}; model CDF there = {analytic:.4f}")
print()

print("=== reduction of a branch sum ===")
for link in (AlphaMuParams.canonical(2.0, 2.0), AlphaMuParams.canonical(1.5, 2.0)):
    kind = "exact" if link.alpha == 2.0 else "moment fit"
    for count in (2, 4, 8):
        fitted = fit_sum_params(link, count)
        print(f"alpha={link.alpha:.1f}, {count} branches ({kind}) -> alpha={fitted.alpha:.4f} "
              f"mu={fitted.mu:.4f} omega={fitted.omega:.4f} mean={fitted.mean_power():.4f}")
    sums = sample_power_gain(link, rng, size=(200_000, 4)).sum(axis=1)
    fitted = fit_sum_params(link, 4)
    sums.sort()
    ecdf = np.arange(1, sums.size + 1) / sums.size
    sup = np.abs(ecdf - cdf_power_gain(fitted, sums)).max()
    print(f"sup distance between 4-branch sum and its law: {sup:.4f} (200k samples)")
