#!/usr/bin/env python3
"""Closed-form secrecy metrics across user index, densities, and SNR ratio.

Reproduces the headline behaviors: outage grows with the user index, the
four receiver/eavesdropper pairings reorder as the index grows, a secrecy
level caps the number of securely served best users, and the best-receiver/
nearest-eavesdropper pairing carries the highest ergodic secrecy capacity.
"""

from dataclasses import replace

from secnet import ScenarioConfig, cop_best, cop_nearest, ergodic_secrecy_capacity, max_secure_best_users, pnz

cfg = ScenarioConfig.build(
    d=2, upsilon=2.0, lambda_b=0.2, lambda_e=0.1,
    alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=4.0,
    n_a=2, n_b=1, n_e=2, eta_k=1.0, eta_e=1.0, rate=1.0,
)

print("=== connection outage vs user index (eta_k = 0 dB) ===")
print("  k   nearest     best")
for k in range(1, 7):
    c = replace(cfg, user_index=k)
    print(f"  {k}   {cop_nearest(c):.5f}   {cop_best(c):.5f}")
print()

print("=== probability of non-zero secrecy capacity, four pairings ===")
print("  k      NN       BB       NB       BN")
for k in (1, 2, 4, 6):
    c = replace(cfg, user_index=k)
    row = "   ".join(f"{pnz(c, case):.5f}" for case in ("NN", "BB", "NB", "BN"))
    print(f"  {k}   {row}")
print("(the best/nearest pairing leads at small k; the ordering flips by k=4)")
print()

print("=== largest securely served best-user index ===")
bb = replace(cfg, ordering="best", eavesdropper_policy="best")
for tau in (0.05, 0.1, 0.3):
    ks = [max_secure_best_users(replace(bb, eta_k=10 ** (w / 10.0)), tau) for w in (0, 5, 10, 15)]
    print(f"  secrecy level {tau:.2f}: k* over 0/5/10/15 dB SNR ratio = {ks}")
print()

print("=== ergodic secrecy capacity (eta_k = 15 dB, eta_e = 0 dB) ===")
rich = ScenarioConfig.build(
    d=2, upsilon=2.0, lambda_b=1.0, lambda_e=1.0,
    alpha_b=2.0, mu_b=1.0, alpha_e=2.0, mu_e=1.0,
    eta_k=10**1.5, eta_e=1.0,
)
print("  k      NN      BB      NB      BN")
for k in (1, 2, 4):
    c = replace(rich, user_index=k)
    row = "   ".join(f"{ergodic_secrecy_capacity(c.with_case(case)):.4f}" for case in ("NN", "BB", "NB", "BN"))
    print(f"  {k}   {row}")
