"""Closed-form secrecy metrics for the k-th nearest / k-th best receiver.

Every quantity here is an exact expression built from gamma-family functions
and Fox H-function instances: the composite-gain laws of both orderings, the
connection outage probability, the probability of non-zero secrecy capacity
for the four receiver/eavesdropper pairings, the largest securely served
best-user index, and the ergodic (secrecy) capacities.  Independent
validation routes (direct quadrature of the defining integrals and full
network simulation) live in :mod:`secnet.montecarlo`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaincc, gammaln

from .fading import AlphaMuParams, fit_sum_params
from .specfun import ConvergenceError, FoxHParams, fox_h
from .stochgeo import NetworkGeometry

__all__ = [
    "CASES",
    "ScenarioConfig",
    "cdf_composite_best",
    "cdf_composite_nearest",
    "cop",
    "cop_best",
    "cop_nearest",
    "ergodic_capacity_best",
    "ergodic_capacity_nearest",
    "ergodic_secrecy_capacity",
    "fox_h_instances",
    "max_secure_best_users",
    "pdf_composite_best",
    "pdf_composite_nearest",
    "pnz",
    "pnz_bb",
    "pnz_bn",
    "pnz_nb",
    "pnz_nn",
    "wiretap_capacity",
]

ORDERINGS = ("nearest", "best")
# Case labels: first letter is the legitimate ordering, second the
# eavesdropper policy (N = nearest, B = best).
CASES = ("NN", "BB", "NB", "BN")
# Rounding allowance of a closed form's final arithmetic, relative to its
# value (and to 1 for the 1 - H forms).
_ROUNDING = 8.0 * np.finfo(float).eps
_LOG_LN2 = math.log(math.log(2.0))
# Relative accuracy of a probability: the quadrature oracle is held to it
# (``validation.QUAD_TOL_PROBABILITY`` is this constant), and a 1 - H form
# whose rounding alone passes it raises.
QUAD_TOL_PROBABILITY = 1e-5


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully resolved network scenario.

    The geometry embeds the composite (post branch-sum fit) fading of both
    sides.  SNR scale factors are linear; dB conversion happens at config
    parse time, never here.
    """

    geometry: NetworkGeometry
    n_a: int = 1
    n_b: int = 1
    n_e: int = 1
    eta_k: float = 1.0
    eta_e: float = 1.0
    rate: float = 1.0
    user_index: int = 1
    ordering: str = "nearest"
    eavesdropper_policy: str = "nearest"

    def __post_init__(self) -> None:
        # Each message names the offending field, which is also its keyword in build.
        for name in ("n_a", "n_b", "n_e", "user_index"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("eta_k", "eta_e"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"SNR scale {name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.rate < math.inf:
            raise ValueError(f"transmission rate must be non-negative and finite, got rate={self.rate}")
        for name in ("ordering", "eavesdropper_policy"):
            if getattr(self, name) not in ORDERINGS:
                raise ValueError(f"{name} must be one of {ORDERINGS}, got {getattr(self, name)!r}")

    @classmethod
    def build(
        cls,
        *,
        d: int = 2,
        upsilon: float = 2.0,
        lambda_b: float = 1.0,
        lambda_e: float = 1.0,
        alpha_b: float = 2.0,
        mu_b: float = 1.0,
        alpha_e: float = 2.0,
        mu_e: float = 1.0,
        n_a: int = 1,
        n_b: int = 1,
        n_e: int = 1,
        eta_k: float = 1.0,
        eta_e: float = 1.0,
        rate: float = 1.0,
        user_index: int = 1,
        ordering: str = "nearest",
        eavesdropper_policy: str = "nearest",
    ) -> "ScenarioConfig":
        """Assemble a scenario from per-link fading and antenna counts.

        Each antenna pair contributes one unit-mean alpha-mu branch gain; the
        summed gain of the n_a * n_b (or n_a * n_e) branches is reduced to a
        single alpha-mu variable by the three-moment fit.
        """
        # Named here, before the branch-sum fit sees them as one link or one count.
        for name, value in (("alpha_b", alpha_b), ("mu_b", mu_b), ("alpha_e", alpha_e),
                            ("mu_e", mu_e), ("n_a", n_a), ("n_b", n_b), ("n_e", n_e)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        comp_b = fit_sum_params(AlphaMuParams.canonical(alpha_b, mu_b), n_a * n_b)
        comp_e = fit_sum_params(AlphaMuParams.canonical(alpha_e, mu_e), n_a * n_e)
        geometry = NetworkGeometry(
            d=d, upsilon=upsilon, lambda_b=lambda_b, lambda_e=lambda_e,
            fading_b=comp_b, fading_e=comp_e,
        )
        return cls(
            geometry=geometry, n_a=n_a, n_b=n_b, n_e=n_e,
            eta_k=eta_k, eta_e=eta_e, rate=rate, user_index=user_index,
            ordering=ordering, eavesdropper_policy=eavesdropper_policy,
        )

    @property
    def fading_b(self) -> AlphaMuParams:
        return self.geometry.fading_b

    @property
    def fading_e(self) -> AlphaMuParams:
        return self.geometry.fading_e

    @property
    def varpi(self) -> float:
        """Ratio of the legitimate to the eavesdropper SNR scale."""
        return self.eta_k / self.eta_e

    @property
    def outage_threshold(self) -> float:
        """Composite-gain level below which decoding at the configured rate fails."""
        return (2.0**self.rate - 1.0) / self.eta_k

    @property
    def case(self) -> str:
        return ("N" if self.ordering == "nearest" else "B") + (
            "N" if self.eavesdropper_policy == "nearest" else "B"
        )

    def order_index(self, side: str) -> int:
        """Index of the order statistic the secrecy metrics read on one side:
        the k-th legitimate receiver, the first eavesdropper."""
        return self.user_index if side == "legitimate" else 1

    def snr_scale(self, side: str) -> float:
        """eta_k on the legitimate side, eta_e on the eavesdropper side."""
        return self.eta_k if side == "legitimate" else self.eta_e

    def with_case(self, case: str) -> "ScenarioConfig":
        """The scenario with the ordering and eavesdropper policy a case label names."""
        if case not in CASES:
            raise ValueError(f"case must be one of {CASES}, got {case!r}")
        return replace(
            self,
            ordering="nearest" if case[0] == "N" else "best",
            eavesdropper_policy="nearest" if case[1] == "N" else "best",
        )


# ---------------------------------------------------------------------------
# Fox H instances.  Each builder takes (cfg, side, k), where side and k name
# the order statistic the instance is indexed by, and returns (log prefactor,
# params, scale) such that the quantity is exp(log prefactor) * H(scale * z),
# or one minus that; z = 1 unless the instance is a law evaluated at a gain
# level z.  Prefactors are taken in logs, so that Gamma(mu) may overflow.
# The PNZ instances pair the k-th legitimate receiver with the first
# eavesdropper and read only k.
# ---------------------------------------------------------------------------


def _pdf_nearest(cfg: ScenarioConfig, side: str, k: int):
    geo = cfg.geometry
    fad, rate, inv_delta = geo.fading(side), geo.pathloss_rate(side), 1.0 / geo.delta
    params = FoxHParams(
        m=1, n=1,
        upper_coeffs=((1.0 - k - inv_delta, inv_delta),),
        lower_coeffs=((fad.mu - 2.0 / fad.alpha, 2.0 / fad.alpha),),
    )
    log_pref = math.log(fad.theta) - inv_delta * math.log(rate) - gammaln(fad.mu) - gammaln(k)
    return log_pref, params, fad.theta / rate**inv_delta


def _cdf_nearest(cfg: ScenarioConfig, side: str, k: int):
    geo = cfg.geometry
    fad, rate, inv_delta = geo.fading(side), geo.pathloss_rate(side), 1.0 / geo.delta
    params = FoxHParams(
        m=2, n=1,
        upper_coeffs=((1.0 - k, inv_delta), (1.0, 1.0)),
        lower_coeffs=((0.0, 1.0), (fad.mu, 2.0 / fad.alpha)),
    )
    return -gammaln(fad.mu) - gammaln(k), params, fad.theta / rate**inv_delta


def _pnz_nn(cfg: ScenarioConfig, side: str, k: int):
    geo = cfg.geometry
    fb, fe = cfg.fading_b, cfg.fading_e
    inv_delta = 1.0 / geo.delta
    params = FoxHParams(
        m=3, n=2,
        upper_coeffs=((1.0 - fb.mu, 2.0 / fb.alpha), (0.0, inv_delta), (1.0, 1.0)),
        lower_coeffs=((0.0, 1.0), (fe.mu, 2.0 / fe.alpha), (float(k), inv_delta)),
    )
    arg = (fe.theta * cfg.varpi / fb.theta) * (
        geo.pathloss_rate("legitimate") / geo.pathloss_rate("eavesdropper")
    ) ** inv_delta
    return -gammaln(fb.mu) - gammaln(fe.mu) - gammaln(k), params, arg


def _pnz_nb(cfg: ScenarioConfig, side: str, k: int):
    geo = cfg.geometry
    fb = cfg.fading_b
    inv_delta = 1.0 / geo.delta
    params = FoxHParams(
        m=1, n=3,
        upper_coeffs=((1.0, 1.0), (1.0 - fb.mu, 2.0 / fb.alpha), (0.0, inv_delta)),
        lower_coeffs=((float(k), inv_delta), (0.0, 1.0)),
    )
    arg = (cfg.varpi / fb.theta) * (
        geo.pathloss_rate("legitimate") / geo.composite_rate("eavesdropper")
    ) ** inv_delta
    return -gammaln(fb.mu) - gammaln(k), params, arg


def _pnz_bn(cfg: ScenarioConfig, side: str, k: int):
    geo = cfg.geometry
    fe = cfg.fading_e
    inv_delta = 1.0 / geo.delta
    params = FoxHParams(
        m=1, n=3,
        upper_coeffs=((1.0, 1.0), (1.0 - fe.mu, 2.0 / fe.alpha), (1.0 - k, inv_delta)),
        lower_coeffs=((1.0, inv_delta), (0.0, 1.0)),
    )
    arg = (1.0 / (fe.theta * cfg.varpi)) * (
        geo.pathloss_rate("eavesdropper") / geo.composite_rate("legitimate")
    ) ** inv_delta
    return -gammaln(fe.mu) - gammaln(k), params, arg


def _capacity_nearest(cfg: ScenarioConfig, side: str, k: int):
    geo = cfg.geometry
    fad, inv_delta = geo.fading(side), 1.0 / geo.delta
    params = FoxHParams(
        m=2, n=3,
        upper_coeffs=((1.0, 1.0), (1.0, 1.0), (1.0 - fad.mu, 2.0 / fad.alpha)),
        lower_coeffs=((1.0, 1.0), (float(k), inv_delta), (0.0, 1.0)),
    )
    arg = cfg.snr_scale(side) * geo.pathloss_rate(side)**inv_delta / fad.theta
    return -gammaln(fad.mu) - gammaln(k) - _LOG_LN2, params, arg


def _capacity_best(cfg: ScenarioConfig, side: str, k: int):
    delta = cfg.geometry.delta
    params = FoxHParams(
        m=2, n=2,
        upper_coeffs=((1.0, delta), (1.0, delta)),
        lower_coeffs=((float(k), 1.0), (1.0, delta), (0.0, delta)),
    )
    arg = cfg.geometry.composite_rate(side) * cfg.snr_scale(side)**delta
    return math.log(delta) - gammaln(k) - _LOG_LN2, params, arg


# Every Fox H instance the closed forms evaluate: name -> (builder, side,
# whether it is a law evaluated at a gain level z, whether the closed form
# is 1 - term, the upper end of its range).
_FOX_H = {
    "pdf_nearest": (_pdf_nearest, "legitimate", True, False, math.inf),
    "cdf_nearest": (_cdf_nearest, "legitimate", True, True, 1.0),
    "pnz_nn": (_pnz_nn, "legitimate", False, True, 1.0),
    "pnz_nb": (_pnz_nb, "legitimate", False, False, 1.0),
    "pnz_bn": (_pnz_bn, "legitimate", False, True, 1.0),
    "capacity_nearest": (_capacity_nearest, "legitimate", False, False, math.inf),
    "capacity_best": (_capacity_best, "legitimate", False, False, math.inf),
    "wiretap_nearest": (_capacity_nearest, "eavesdropper", False, False, math.inf),
    "wiretap_best": (_capacity_best, "eavesdropper", False, False, math.inf),
}


def _closed_form(cfg: ScenarioConfig, name: str, z: float = 1.0) -> float:
    """One listed instance's closed form at the side's order index:
    exp(log prefactor) * H(scale * z), or one minus that.

    Every closed form is positive.  A value that the Fox H error bound plus
    rounding reaches, whatever its sign, has lost its relative accuracy, as
    has a 1 - H value whose rounding alone (the subtraction keeps only H's
    absolute accuracy) passes the probability tolerance; both raise.  The
    bound itself is not held to that tolerance: as the last level
    difference it overstates the error 30 to 130 times on the 1 - H forms
    checked against the quadrature oracle.  A value past its upper end by
    less than bound plus rounding is clipped to it; farther out it raises.
    """
    build, side, _, complement, hi = _FOX_H[name]
    log_pref, params, scale = build(cfg, side, cfg.order_index(side))
    h = fox_h(params, scale * z, log_prefactor=log_pref)
    value = 1.0 - h.value if complement else h.value
    rounding = _ROUNDING * max(abs(value), 1.0 if complement else 0.0)
    label = "1 - H" if complement else "prefactor * H"
    if value <= h.error + rounding or rounding > QUAD_TOL_PROBABILITY * value:
        raise ConvergenceError(
            f"{label} = {value:.6g} has lost its relative accuracy "
            f"(error bound {h.error:.3g}, rounding {rounding:.3g})")
    if value > hi + h.error + rounding:
        raise ConvergenceError(
            f"{label} = {value:.12g} (error bound {h.error:.3g}) lies above its upper end {hi}")
    return min(value, hi)


def fox_h_instances(cfg: ScenarioConfig) -> dict[str, tuple[FoxHParams, float]]:
    """All Fox H instances a scenario's closed forms evaluate, with arguments.

    Exposed so that numerical invariants (contour independence, imaginary
    residue) can be checked on exactly the in-scope instance set.  Laws of
    a gain level are listed at the reference level max(outage threshold,
    0.25); the eavesdropper capacities at the first eavesdropper.
    """
    z_ref = max(cfg.outage_threshold, 0.25)
    out: dict[str, tuple[FoxHParams, float]] = {}
    for name, (build, side, per_z, _, _) in _FOX_H.items():
        _, params, scale = build(cfg, side, cfg.order_index(side))
        out[name] = (params, scale * z_ref if per_z else scale)
    return out


# ---------------------------------------------------------------------------
# Composite channel gain laws
# ---------------------------------------------------------------------------


def pdf_composite_nearest(cfg: ScenarioConfig, z: float) -> float:
    """Density of the k-th nearest receiver's composite gain g / r^upsilon."""
    if not 0 < z < math.inf:
        raise ValueError(f"composite-gain density needs a finite z > 0, got {z}")
    return _closed_form(cfg, "pdf_nearest", z)


def cdf_composite_nearest(cfg: ScenarioConfig, z: float) -> float:
    """Distribution of the k-th nearest receiver's composite gain."""
    if not 0 <= z < math.inf:
        raise ValueError(f"composite-gain distribution needs a finite z >= 0, got {z}")
    if z == 0:
        return 0.0
    return _closed_form(cfg, "cdf_nearest", z)


def pdf_composite_best(cfg: ScenarioConfig, z: float) -> float:
    """Density of the k-th best receiver's composite gain.

    The k-th best receiver holds the k-th smallest fading-weighted path loss
    xi; its composite gain is 1/xi with density
    exp(-rate * z^-delta) * delta * (rate * z^-delta)^k / (z * Gamma(k)).
    """
    if not 0 < z < math.inf:
        raise ValueError(f"composite-gain density needs a finite z > 0, got {z}")
    geo = cfg.geometry
    k = cfg.user_index
    with np.errstate(over="ignore"):
        # Where u overflows the density is exp(-u) = 0; the cap keeps
        # -u + k log u from becoming -inf + inf.
        u = np.minimum(geo.composite_rate("legitimate") * np.float64(z) ** (-geo.delta), 1e300)
    return float(np.exp(-u + k * np.log(u) - gammaln(k)) * geo.delta / z)


def cdf_composite_best(cfg: ScenarioConfig, z: float) -> float:
    """Distribution of the k-th best receiver's composite gain; 0 at z = 0."""
    if not 0 <= z < math.inf:
        raise ValueError(f"composite-gain distribution needs a finite z >= 0, got {z}")
    if z == 0:
        return 0.0
    geo = cfg.geometry
    return float(gammaincc(cfg.user_index, geo.composite_rate("legitimate") * z ** (-geo.delta)))


# ---------------------------------------------------------------------------
# Connection outage probability
# ---------------------------------------------------------------------------


def cop_nearest(cfg: ScenarioConfig) -> float:
    """Probability that the k-th nearest receiver cannot decode at the rate."""
    return cdf_composite_nearest(cfg, cfg.outage_threshold)


def cop_best(cfg: ScenarioConfig) -> float:
    """Probability that the k-th best receiver cannot decode at the rate."""
    return cdf_composite_best(cfg, cfg.outage_threshold)


def cop(cfg: ScenarioConfig) -> float:
    """Connection outage probability under the scenario's ordering policy."""
    return cop_nearest(cfg) if cfg.ordering == "nearest" else cop_best(cfg)


# ---------------------------------------------------------------------------
# Probability of non-zero secrecy capacity (four pairings, strongest
# eavesdropper of the respective policy)
# ---------------------------------------------------------------------------


def pnz_nn(cfg: ScenarioConfig) -> float:
    """k-th nearest receiver against the first nearest eavesdropper."""
    return _closed_form(cfg, "pnz_nn")


def _best_pnz_base(cfg: ScenarioConfig) -> float:
    """rate_b / (rate_b + rate_e * varpi^-delta), the base in which the
    best/best non-zero-secrecy probability decays with the user index."""
    geo = cfg.geometry
    rb = geo.composite_rate("legitimate")
    re = geo.composite_rate("eavesdropper")
    return rb / (rb + re * cfg.varpi ** (-geo.delta))


def pnz_bb(cfg: ScenarioConfig) -> float:
    """k-th best receiver against the first best eavesdropper."""
    return _best_pnz_base(cfg) ** cfg.user_index


def pnz_nb(cfg: ScenarioConfig) -> float:
    """k-th nearest receiver against the first best eavesdropper."""
    return _closed_form(cfg, "pnz_nb")


def pnz_bn(cfg: ScenarioConfig) -> float:
    """k-th best receiver against the first nearest eavesdropper."""
    return _closed_form(cfg, "pnz_bn")


_PNZ_DISPATCH = {"NN": pnz_nn, "BB": pnz_bb, "NB": pnz_nb, "BN": pnz_bn}


def pnz(cfg: ScenarioConfig, case: str | None = None) -> float:
    """Probability of non-zero secrecy capacity for the given pairing."""
    cfg = cfg.with_case(cfg.case if case is None else case)
    return _PNZ_DISPATCH[cfg.case](cfg)


def max_secure_best_users(cfg: ScenarioConfig, tau: float) -> int:
    """Largest best-user index still meeting the secrecy level tau.

    The non-zero-secrecy probability against the best eavesdropper decays
    geometrically in the user index with base
    rate_b / (rate_b + rate_e * varpi^-delta); the largest index keeping it
    at or above tau is the floor of log_base(tau).
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"secrecy level must lie in (0, 1), got {tau}")
    exact = math.log(tau) / math.log(_best_pnz_base(cfg))
    nearest = round(exact)
    if abs(exact - nearest) < 1e-9:
        return max(int(nearest), 0)
    return max(int(math.floor(exact)), 0)


# ---------------------------------------------------------------------------
# Ergodic capacity and ergodic secrecy capacity
# ---------------------------------------------------------------------------


def ergodic_capacity_nearest(cfg: ScenarioConfig) -> float:
    """Mean link capacity (bits/s/Hz) of the k-th nearest receiver."""
    return _closed_form(cfg, "capacity_nearest")


def ergodic_capacity_best(cfg: ScenarioConfig) -> float:
    """Mean link capacity (bits/s/Hz) of the k-th best receiver."""
    return _closed_form(cfg, "capacity_best")


def wiretap_capacity(cfg: ScenarioConfig, policy: str) -> float:
    """Mean capacity of the strongest eavesdropper link under the nearest or
    best policy."""
    if policy not in ORDERINGS:
        raise ValueError(f"policy must be one of {ORDERINGS}, got {policy!r}")
    return _closed_form(cfg, f"wiretap_{policy}")


def ergodic_secrecy_capacity(cfg: ScenarioConfig, case: str | None = None) -> float:
    """Clipped difference of legitimate and strongest-eavesdropper capacities."""
    cfg = cfg.with_case(cfg.case if case is None else case)
    main = ergodic_capacity_nearest(cfg) if cfg.ordering == "nearest" else ergodic_capacity_best(cfg)
    tap = wiretap_capacity(cfg, cfg.eavesdropper_policy)
    return max(main - tap, 0.0)
