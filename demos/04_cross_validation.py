#!/usr/bin/env python3
"""Three routes to every number: closed form, defining integral, simulation.

Runs one scenario through the full cross-validation machinery at a desk
trial count and prints the agreement, including the reproducibility of the
simulation under different worker counts.
"""

from secnet import (
    MonteCarloConfig,
    ScenarioConfig,
    integrate_defining,
    pnz,
    simulate_pnz_all,
)

cfg = ScenarioConfig.build(
    d=2, upsilon=2.0, lambda_b=0.2, lambda_e=0.1,
    alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=4.0,
    n_a=2, n_b=1, n_e=2, user_index=2,
)
mc = MonteCarloConfig(trials=200_000, master_seed=11, worker_hint=2)

print("case   closed     quadrature   simulation (3-sigma interval)")
estimates = simulate_pnz_all(cfg, mc)
for case in ("NN", "BB", "NB", "BN"):
    closed = pnz(cfg, case)
    quadr = integrate_defining("pnz", cfg.with_case(case)).value
    sim = estimates[case]
    print(f"{case}   {closed:.6f}   {quadr:.6f}   {sim.value:.6f} ± {sim.half_width:.6f}")
print()

print("same seed, different worker counts:")
for workers in (1, 2, 8):
    mc_w = MonteCarloConfig(trials=50_000, master_seed=37, worker_hint=workers)
    values = [simulate_pnz_all(cfg, mc_w)[c].value for c in ("NN", "BB", "NB", "BN")]
    print(f"  workers={workers}: {values}")
print("(bit-identical by construction: one SeedSequence-keyed PCG64 stream per batch and side)")
