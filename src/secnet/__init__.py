"""Secrecy metrics of Poisson-distributed MIMO networks over alpha-mu fading.

The package computes, in closed form, the connection outage probability, the
probability of non-zero secrecy capacity, the largest securely served
best-user index, and the ergodic secrecy capacity of the k-th nearest or
k-th best receiver in a random network, and cross-validates every closed
form against direct numerical integration and full network simulation.
"""

from .fading import AlphaMuParams, MomentFitError, cdf_power_gain, fit_sum_params, moment_power_gain, pdf_power_gain, sample_power_gain
from .metrics import (
    CASES,
    ScenarioConfig,
    cdf_composite_best,
    cdf_composite_nearest,
    cop,
    cop_best,
    cop_nearest,
    ergodic_capacity_best,
    ergodic_capacity_nearest,
    ergodic_secrecy_capacity,
    max_secure_best_users,
    pdf_composite_best,
    pdf_composite_nearest,
    pnz,
    pnz_bb,
    pnz_bn,
    pnz_nb,
    pnz_nn,
    wiretap_capacity,
)
from .montecarlo import (
    ErgodicSecrecyEstimate,
    MetricEstimate,
    MonteCarloConfig,
    integrate_defining,
    simulate_cop,
    simulate_ergodic_capacity,
    simulate_ergodic_secrecy,
    simulate_pnz,
    simulate_pnz_all,
)
from .specfun import ConvergenceError, FoxHParams, fox_h, fox_h_detailed, lower_incomplete_gamma, upper_incomplete_gamma
from .stochgeo import NetworkGeometry, ordered_path_gains, pdf_kth_distance_pow, sample_hppp, window_radius

__version__ = "0.1.0"
