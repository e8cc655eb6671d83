#!/usr/bin/env python3
"""Ordered receivers in a Poisson network.

Draws a network, orders the receivers by distance and by fading-weighted
path loss, and checks the two mean-measure laws that drive every metric:
counts of {r^upsilon <= x} grow like rate * x^delta, and so do counts of
{r^upsilon / g <= x} with the fading-boosted rate.
"""

import numpy as np

from secnet import AlphaMuParams, NetworkGeometry, sample_power_gain
from secnet.fading import moment_power_gain

fading = AlphaMuParams.canonical(2.0, 3.0)
geo = NetworkGeometry(d=2, upsilon=3.0, lambda_b=0.5, lambda_e=0.2,
                      fading_b=fading, fading_e=fading)
radius = 12.0
print(f"delta = d/upsilon = {geo.delta:.4f}")
print(f"path-loss rate   = {geo.pathloss_rate('legitimate'):.4f}")
print(f"weighted rate    = {geo.composite_rate('legitimate'):.4f} "
      f"(= path-loss rate * E[g^delta] = {geo.pathloss_rate('legitimate') * moment_power_gain(fading, geo.delta):.4f})")
print()


def draw_network(rng: np.random.Generator) -> np.ndarray:
    """Receiver positions of one realization in the ball of the given
    radius: a Poisson count, then uniform radii and directions."""
    count = rng.poisson(geo.pathloss_rate("legitimate") * radius**geo.d)
    radii = radius * rng.random(count) ** (1.0 / geo.d)
    directions = rng.standard_normal((count, geo.d))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return radii[:, None] * directions


rng = np.random.default_rng(42)
points = draw_network(rng)
r = np.linalg.norm(points, axis=1)
gains = sample_power_gain(fading, rng, size=r.size)
xi = np.sort(r**geo.upsilon / gains)
print(f"one realization: {r.size} receivers in radius {radius:g}")
print(f"three nearest distances: {np.sort(r)[:3].round(3)}")
print(f"three best weighted losses: {xi[:3].round(3)}")
print()

print("=== mean-measure laws over 20k realizations ===")
trials = 20_000
x = 5.0
count_dist = np.zeros(trials)
count_weighted = np.zeros(trials)
for i in range(trials):
    r = np.linalg.norm(draw_network(rng), axis=1)
    g = sample_power_gain(fading, rng, size=r.size)
    count_dist[i] = np.sum(r**geo.upsilon <= x)
    count_weighted[i] = np.sum(r**geo.upsilon / g <= x)
print(f"mean #(r^ups <= {x}): {count_dist.mean():.4f}  "
      f"law: {geo.pathloss_rate('legitimate') * x**geo.delta:.4f}")
print(f"mean #(r^ups/g <= {x}): {count_weighted.mean():.4f}  "
      f"law: {geo.composite_rate('legitimate') * x**geo.delta:.4f}")
