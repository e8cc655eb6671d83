"""Closed-form secrecy metrics for the k-th nearest / k-th best receiver.

Every quantity here is an exact expression built from gamma-family functions
and Fox H-function instances: the composite-gain laws of both orderings, the
connection outage probability, the probability of non-zero secrecy capacity
for the four receiver/eavesdropper pairings, the largest securely served
best-user index, and the ergodic (secrecy) capacities.  The independent
validation routes live in :mod:`secnet.quadrature` (direct quadrature of the
defining integrals) and :mod:`secnet.montecarlo` (full network simulation).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import gammaincc, gammaln

from .fading import AlphaMuParams, fit_sum_params, hold_python_scalar, python_scalar
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
    parse time, never here.  Counts and the user index are held as Python
    ints, the other scalars as Python floats (:func:`fading.python_scalar`).
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
        # The type is tested before any call: every figure point builds scenarios,
        # and a call per field cost figures_grid 2% of its rows/s.
        for name in ("n_a", "n_b", "n_e", "user_index"):
            value = getattr(self, name)
            if not (value if type(value) is int else hold_python_scalar(self, name, int)) >= 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value}")
        for name in ("eta_k", "eta_e"):
            value = getattr(self, name)
            if not 0 < (value if type(value) is float else hold_python_scalar(self, name)) < math.inf:
                raise ValueError(f"SNR scale {name} must be positive and finite, got {value}")
        if not 0 <= (self.rate if type(self.rate) is float else hold_python_scalar(self, "rate")) < math.inf:
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
        for name, value in (("alpha_b", alpha_b), ("mu_b", mu_b), ("alpha_e", alpha_e), ("mu_e", mu_e)):
            if not 0 < (value if type(value) is float else python_scalar(value)) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name, value in (("n_a", n_a), ("n_b", n_b), ("n_e", n_e)):
            if not (isinstance(value, int) or isinstance(value, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value}")
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
        """Composite-gain level below which decoding at the configured rate
        fails; +inf where it overflows, so that every route reads COP 1."""
        try:
            return (2.0**self.rate - 1.0) / self.eta_k
        except OverflowError:
            return math.inf

    @property
    def case(self) -> str:
        return ("N" if self.ordering == "nearest" else "B") + (
            "N" if self.eavesdropper_policy == "nearest" else "B"
        )

    def order_index(self, side: str) -> int:
        """Index of the order statistic the secrecy metrics read on one side:
        the k-th legitimate receiver, the first eavesdropper."""
        return self.user_index if side == "legitimate" else 1

    def ordering_of(self, side: str) -> str:
        """Ordering of the order statistic the secrecy metrics read on one
        side: cfg.ordering, the eavesdropper policy."""
        return self.ordering if side == "legitimate" else self.eavesdropper_policy

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
# Fox H instances, composed from Mellin transforms (Mathai, Saxena & Haubold,
# *The H-Function*, 2010, ch. 1-2).  A _Law, exp(log_const + s log_scale)
# prod Gamma(b + B s)^e over its factors (rank, b, B, e), is E[Z^s] of a
# variable Z > 0 or a kernel's transform; products multiply them.  The k-th
# nearest gain is G / Y: E[G^s] = omega^s Gamma(mu + 2s/alpha) / Gamma(mu),
# and Y is the k-th point of mean measure rate * y^delta, E[Y^-s] =
# rate^(s/delta) Gamma(k - s/delta) / Gamma(k).  The k-th best gain is 1 / Y
# at the composite rate.  The kernels: 1 / s = Gamma(s) / Gamma(1 + s) for a
# survival function, -1 / s for a distribution function, pi / (s sin(pi s))
# / ln 2 over E[Z^-s] for E[log2(1 + x Z)]; a density is E[Z^(s-1)].  Each
# builder takes (cfg, side, k), the order statistic indexing the instance,
# and returns (log prefactor, params, scale): the quantity is exp(log
# prefactor) * H(scale * z), or one minus that, with z = 1 unless it is a
# law at a gain level z.
# ---------------------------------------------------------------------------

_Law = namedtuple("_Law", "log_const log_scale factors")
# Factor ranks: the order of the factors within a FoxHParams group.
_KERNEL, _GAIN, _POINT = range(3)
_SURVIVAL = _Law(0.0, 0.0, ((_KERNEL, 0.0, 1.0, 1), (_KERNEL, 1.0, 1.0, -1)))
_CDF = _Law(0.0, 0.0, ((_KERNEL, 0.0, -1.0, 1), (_KERNEL, 1.0, -1.0, -1)))


def _product(x: _Law, y: _Law, sign: int = 1) -> _Law:
    """The transform of X Y^sign, for independent X and Y."""
    return _Law(x.log_const + y.log_const, x.log_scale + sign * y.log_scale,
                x.factors + tuple((r, b, sign * B, e) for r, b, B, e in y.factors))


def _point(rate: float, k: int, delta: float, power: float = 1.0) -> _Law:
    """The law of Y^-power, Y the k-th point of mean measure rate * y^delta."""
    slope = power / delta
    return _Law(-gammaln(k), slope * (math.log(rate) if rate > 0.0 else -math.inf), ((_POINT, k, -slope, 1),))


def _nearest(cfg: ScenarioConfig, side: str = "eavesdropper", k: int = 1) -> _Law:
    geo, fad = cfg.geometry, cfg.geometry.fading(side)
    gain = _Law(-gammaln(fad.mu), math.log(fad.omega), ((_GAIN, fad.mu, 2.0 / fad.alpha, 1),))
    return _product(gain, _point(geo.pathloss_rate(side), k, geo.delta))


def _best(cfg: ScenarioConfig, side: str = "eavesdropper", k: int = 1, power: float = 1.0) -> _Law:
    return _point(cfg.geometry.composite_rate(side), k, cfg.geometry.delta, power)


def _density(x: _Law) -> _Law:
    return _Law(x.log_const - x.log_scale, x.log_scale, tuple((r, b - B, B, e) for r, b, B, e in x.factors))


@lru_cache(maxsize=256)
def _params(factors: tuple) -> FoxHParams:
    """The H function of kernel prod Gamma(b + B s)^e.  A factor's pair is
    (b, B) where B > 0, else (1 - b, -B); it is a lower pair where B and e
    share their sign, one of the first m (n) where e = 1; sorted, so by rank."""
    lower, upper = ([], []), ([], [])
    for _, b, B, e in sorted(factors):
        (lower if (B > 0) == (e > 0) else upper)[e < 0].append((b, B) if B > 0 else (1.0 - b, -B))
    return FoxHParams(m=len(lower[0]), n=len(upper[0]),
                      upper_coeffs=tuple(upper[0] + upper[1]), lower_coeffs=tuple(lower[0] + lower[1]))


def _at(transform: _Law, log_x: float = 0.0):
    """The instance at the variable exp(log_x); a scale past the float range reads +inf or 0."""
    try:
        scale = math.exp(log_x - transform.log_scale)
    except OverflowError:
        scale = math.inf
    return transform.log_const, _params(transform.factors), scale


def _capacity(x: _Law, eta: float, power: float = 1.0):
    """E[log2(1 + eta Z)] from the law x of Z^power, as an H function of eta^power."""
    kernel = _Law(math.log(power), 0.0, ((_KERNEL, 1.0, power, 1), (_KERNEL, 0.0, -power, 1),
                                         (_KERNEL, 0.0, -power, 1), (_KERNEL, 1.0, -power, -1)))
    log_pref, params, scale = _at(_product(kernel, x, -1), power * math.log(eta))
    return log_pref - _LOG_LN2, params, scale


# Every Fox H instance the closed forms evaluate: name -> (builder, side,
# whether it is a law evaluated at a gain level z, whether the closed form
# is 1 - term, the upper end of its range).  _nearest(cfg) and _best(cfg)
# are the first eavesdropper's laws, and 1 - PNZ is P(Z_e / Z_b >= varpi)
# = P(Z_b / Z_e <= 1 / varpi).
_FOX_H = {
    "pdf_nearest": (lambda cfg, side, k: _at(_density(_nearest(cfg, side, k))),
                    "legitimate", True, False, math.inf),
    "cdf_nearest": (lambda cfg, side, k: _at(_product(_SURVIVAL, _nearest(cfg, side, k))),
                    "legitimate", True, True, 1.0),
    "pnz_nn": (lambda cfg, side, k: _at(_product(_SURVIVAL, _product(_nearest(cfg), _nearest(cfg, side, k), -1)),
                                        math.log(cfg.varpi)), "legitimate", False, True, 1.0),
    "pnz_nb": (lambda cfg, side, k: _at(_product(_CDF, _product(_best(cfg), _nearest(cfg, side, k), -1)),
                                        math.log(cfg.varpi)), "legitimate", False, False, 1.0),
    "pnz_bn": (lambda cfg, side, k: _at(_product(_CDF, _product(_best(cfg, side, k), _nearest(cfg), -1)),
                                        -math.log(cfg.varpi)), "legitimate", False, True, 1.0),
    "capacity_nearest": (lambda cfg, side, k: _capacity(_nearest(cfg, side, k), cfg.snr_scale(side)),
                         "legitimate", False, False, math.inf),
    # Z^delta, whose point factor has unit slope
    "capacity_best": (lambda cfg, side, k: _capacity(_best(cfg, side, k, cfg.geometry.delta),
                                                     cfg.snr_scale(side), cfg.geometry.delta),
                      "legitimate", False, False, math.inf),
}
_FOX_H["wiretap_nearest"] = (_FOX_H["capacity_nearest"][0], "eavesdropper", False, False, math.inf)
_FOX_H["wiretap_best"] = (_FOX_H["capacity_best"][0], "eavesdropper", False, False, math.inf)


def _end_value(cfg: ScenarioConfig, name: str, z: float) -> float | None:
    """A probability's limit, 0 or 1, where z (a law) or varpi (a pairing) is 0 or +inf; else None."""
    _, _, per_z, _, hi = _FOX_H[name]
    drive = z if per_z else cfg.varpi
    return float(drive > 0) if hi == 1.0 and not 0 < drive < math.inf else None


def _closed_form(cfg: ScenarioConfig, name: str, z: float = 1.0) -> float:
    """One listed instance's closed form at the side's order index:
    exp(log prefactor) * H(scale * z), or one minus that.  An argument
    outside (0, +inf) raises, unless ``_end_value`` reads a limit first.

    Every closed form is positive.  A value that the Fox H error bound plus
    rounding reaches, whatever its sign, has lost its relative accuracy, as
    has a 1 - H value whose rounding alone (the subtraction keeps only H's
    absolute accuracy) passes the probability tolerance; both raise.  The
    bound itself is not held to that tolerance: as the last level
    difference it overstates the error 30 to 130 times on the 1 - H forms
    checked against the quadrature oracle.  A value past its upper end by
    less than bound plus rounding is clipped to it; farther out it raises.
    """
    if (end := _end_value(cfg, name, z)) is not None:
        return end
    build, side, _, complement, hi = _FOX_H[name]
    log_pref, params, scale = build(cfg, side, cfg.order_index(side))
    if not 0 < (arg := scale * z) < math.inf:
        raise ConvergenceError(f"{name}: Fox H argument {arg:g} lies outside the float range")
    h = fox_h(params, arg, log_prefactor=log_pref)
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
        if _end_value(cfg, name, z_ref) is None:
            _, params, scale = build(cfg, side, cfg.order_index(side))
            out[name] = (params, scale * z_ref if per_z else scale)
    return out


# ---------------------------------------------------------------------------
# Composite channel gain laws
# ---------------------------------------------------------------------------


def pdf_composite_nearest(cfg: ScenarioConfig, z: float) -> float:
    """Density of the k-th nearest receiver's composite gain g / r^upsilon."""
    if not 0 < (z := python_scalar(z)) < math.inf:
        raise ValueError(f"composite-gain density needs a finite z > 0, got {z}")
    return _closed_form(cfg, "pdf_nearest", z)


def cdf_composite_nearest(cfg: ScenarioConfig, z: float) -> float:
    """Distribution of the k-th nearest receiver's composite gain; 0 at z = 0, 1 at z = inf."""
    if not 0 <= (z := python_scalar(z)) <= math.inf:
        raise ValueError(f"composite-gain distribution needs z in [0, inf], got {z}")
    return _closed_form(cfg, "cdf_nearest", z)


def _mean_measure(cfg: ScenarioConfig, side: str, v: float) -> float:
    """rate * v^-delta: the mean number of the side's points whose
    fading-weighted path loss lies below 1/v, in Python floats.  +inf where
    v^-delta overflows, v = 0 included; 0 at v = inf."""
    geo = cfg.geometry
    try:
        return geo.composite_rate(side) * v ** -geo.delta
    except (OverflowError, ZeroDivisionError):
        return math.inf


def pdf_composite_best(cfg: ScenarioConfig, z: float) -> float:
    """Density of the k-th best receiver's composite gain.

    The k-th best receiver holds the k-th smallest fading-weighted path loss
    xi; its composite gain is 1/xi with density
    exp(-u) * delta * u^k / (z * Gamma(k)), u = rate * z^-delta.
    """
    if not 0 < (z := python_scalar(z)) < math.inf:
        raise ValueError(f"composite-gain density needs a finite z > 0, got {z}")
    k = cfg.user_index
    u = _mean_measure(cfg, "legitimate", z)
    if not 0 < u < math.inf:
        return 0.0
    return float(np.exp(-u + k * np.log(u) - gammaln(k)) * cfg.geometry.delta / z)


def cdf_composite_best(cfg: ScenarioConfig, z: float) -> float:
    """Distribution of the k-th best receiver's composite gain: Q(k, rate * z^-delta)."""
    if not 0 <= (z := python_scalar(z)) <= math.inf:
        raise ValueError(f"composite-gain distribution needs z in [0, inf], got {z}")
    return float(gammaincc(cfg.user_index, _mean_measure(cfg, "legitimate", z)))


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


def pnz_bb(cfg: ScenarioConfig) -> float:
    """k-th best receiver against the first best eavesdropper:
    (rate_b / (rate_b + rate_e * varpi^-delta))^k."""
    rb = cfg.geometry.composite_rate("legitimate")
    return (rb / (rb + _mean_measure(cfg, "eavesdropper", cfg.varpi))) ** cfg.user_index


def pnz_nb(cfg: ScenarioConfig) -> float:
    """k-th nearest receiver against the first best eavesdropper."""
    return _closed_form(cfg, "pnz_nb")


def pnz_bn(cfg: ScenarioConfig) -> float:
    """k-th best receiver against the first nearest eavesdropper."""
    return _closed_form(cfg, "pnz_bn")


_PNZ_DISPATCH = {"NN": pnz_nn, "BB": pnz_bb, "NB": pnz_nb, "BN": pnz_bn}


def pnz(cfg: ScenarioConfig, case: str | None = None) -> float:
    """Probability of non-zero secrecy capacity for ``case`` or else cfg's pairing."""
    cfg = cfg if case is None else cfg.with_case(case)
    return _PNZ_DISPATCH[cfg.case](cfg)


def max_secure_best_users(cfg: ScenarioConfig, tau: float) -> int:
    """Largest best-user index still meeting the secrecy level tau.

    The non-zero-secrecy probability against the best eavesdropper decays
    geometrically in the user index with base
    rate_b / (rate_b + rate_e * varpi^-delta); the largest index keeping it
    at or above tau is the floor of log_base(tau).  The log of the base is
    taken as -log1p(rate_e * varpi^-delta / rate_b), which keeps its digits
    where the base rounds toward 1.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError(f"secrecy level must lie in (0, 1), got {tau}")
    ratio = _mean_measure(cfg, "eavesdropper", cfg.varpi) / cfg.geometry.composite_rate("legitimate")
    if ratio == 0.0:
        raise OverflowError(
            "rate_e * varpi^-delta / rate_b underflows to 0: the non-zero-secrecy probability "
            "rounds to 1 at every index, and no index within float range bounds k*")
    exact = math.log(tau) / -math.log1p(ratio)
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


def wiretap_capacity(cfg: ScenarioConfig) -> float:
    """Mean capacity of the strongest eavesdropper link under cfg's eavesdropper policy."""
    return _closed_form(cfg, f"wiretap_{cfg.eavesdropper_policy}")


def ergodic_secrecy_capacity(cfg: ScenarioConfig) -> float:
    """Clipped difference of cfg's legitimate and strongest-eavesdropper capacities."""
    main = ergodic_capacity_nearest(cfg) if cfg.ordering == "nearest" else ergodic_capacity_best(cfg)
    tap = wiretap_capacity(cfg)
    return max(main - tap, 0.0)
