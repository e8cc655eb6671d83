"""Each Fox H instance of the closed forms (``metrics._FOX_H``) against the
Mellin transform of the law it stands for.

An H function is defined by its Mellin-Barnes kernel: inside the contour
strip, the integral of x^(s-1) H(c x) over (0, inf) is c^-s Theta(s).  An
instance whose quantity is exp(log prefactor) * H(scale * x) therefore has
the transform log prefactor - s log scale + log Theta(s), which must equal,
modulo 2 pi i, the log of the transform of that quantity built here from
the laws alone:

    E[G^t]  = omega^t Gamma(mu + 2t/alpha) / Gamma(mu)        (power gain)
    E[Y^-t] = rate^(t/delta) Gamma(k - t/delta) / Gamma(k)     (k-th point)

where Y is the k-th point of a process of mean measure rate * y^delta: the
path-loss rate lambda c_d for the nearest ordering, the composite rate
lambda c_d E[G^delta] for the best.  The nearest gain is G / Y and the best
one 1 / Y.  That side reads neither the Fox H evaluator, the fitted fading
objects nor the mean-measure layer: the gain law is built from the drawn
link parameters, and branch counts above 1 are drawn at alpha = 2 only,
where the sum of Gamma(mu) gains is exactly Gamma(count * mu).

Each instance's transform is over its own variable v, of which its argument
is a power v^p: the gain level z for the laws, varpi for PNZ, eta for the
capacities.  The one-sided quantities take their usual transforms:
E[Z^s] / s for a survival function, -E[Z^s] / s for a distribution
function and E[Z^-s] pi / (s sin(pi s)) / ln 2 for E[log2(1 + eta Z)].
"""

import cmath
import math
from dataclasses import dataclass, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, loggamma

from secnet import metrics, specfun
from secnet.metrics import ScenarioConfig


@dataclass(frozen=True)
class _Link:
    """One side's composite power gain: ``count`` i.i.d. canonical
    alpha-mu link gains, at alpha = 2 wherever count > 1."""

    alpha: float
    mu: float
    count: int
    density: float

    @property
    def log_omega(self) -> float:
        # canonical: unit mean per link, and a sum at alpha = 2 keeps omega
        return gammaln(self.mu) - gammaln(self.mu + 2.0 / self.alpha)

    def log_gain_moment(self, t):
        """log E[G^t] of the composite gain."""
        mu = self.count * self.mu
        return t * self.log_omega + loggamma(mu + 2.0 * t / self.alpha) - gammaln(mu)


@dataclass(frozen=True)
class _Draw:
    d: int
    delta: float
    links: dict
    k: int
    eta: dict

    def build(self) -> ScenarioConfig:
        b, e = self.links["legitimate"], self.links["eavesdropper"]
        # any split of the two counts as n_a * n_b and n_a * n_e builds the same laws
        n_a = math.gcd(b.count, e.count)
        return ScenarioConfig.build(
            d=self.d, upsilon=self.d / self.delta, lambda_b=b.density, lambda_e=e.density,
            alpha_b=b.alpha, mu_b=b.mu, alpha_e=e.alpha, mu_e=e.mu,
            n_a=n_a, n_b=b.count // n_a, n_e=e.count // n_a,
            eta_k=self.eta["legitimate"], eta_e=self.eta["eavesdropper"], user_index=self.k,
        )

    def log_rate(self, side: str, ordering: str) -> float:
        link = self.links[side]
        log_rate = math.log(link.density) + 0.5 * self.d * math.log(math.pi) - gammaln(1.0 + 0.5 * self.d)
        return log_rate + (link.log_gain_moment(self.delta).real if ordering == "best" else 0.0)

    def log_moment(self, side: str, ordering: str, t):
        """log E[Z^t] of the side's ordered gain: the k-th legitimate
        receiver, the first eavesdropper."""
        k = self.k if side == "legitimate" else 1
        out = t / self.delta * self.log_rate(side, ordering) + loggamma(k - t / self.delta) - gammaln(k)
        return out + self.links[side].log_gain_moment(t) if ordering == "nearest" else out


def _log_ratio(w: _Draw, legitimate: str, eavesdropper: str, s):
    """log E[(Z_e / Z_b)^s]: the PNZ at varpi is P(Z_e / Z_b < varpi)."""
    return w.log_moment("eavesdropper", eavesdropper, s) + w.log_moment("legitimate", legitimate, -s)


def _log_capacity(w: _Draw, side: str, ordering: str, s):
    return (w.log_moment(side, ordering, -s) + math.log(math.pi) - cmath.log(s)
            - cmath.log(cmath.sin(math.pi * s)) - math.log(math.log(2.0)))


# name -> (the variable v at the builder's scale, the power p of v in the
# argument, the log transform over v)
_TRANSFORMS = {
    "pdf_nearest": (lambda w: 1.0, lambda w: 1.0,
                    lambda w, s: w.log_moment("legitimate", "nearest", s - 1.0)),
    # the survival function, 1 - cdf
    "cdf_nearest": (lambda w: 1.0, lambda w: 1.0,
                    lambda w, s: w.log_moment("legitimate", "nearest", s) - cmath.log(s)),
    # 1 - PNZ = P(Z_e / Z_b >= varpi)
    "pnz_nn": (lambda w: w.eta["legitimate"] / w.eta["eavesdropper"], lambda w: 1.0,
               lambda w, s: _log_ratio(w, "nearest", "nearest", s) - cmath.log(s)),
    # PNZ itself, a distribution function of varpi
    "pnz_nb": (lambda w: w.eta["legitimate"] / w.eta["eavesdropper"], lambda w: 1.0,
               lambda w, s: _log_ratio(w, "nearest", "best", s) - cmath.log(-s)),
    # 1 - PNZ, with an argument that falls as 1 / varpi
    "pnz_bn": (lambda w: w.eta["legitimate"] / w.eta["eavesdropper"], lambda w: -1.0,
               lambda w, s: _log_ratio(w, "best", "nearest", s) - cmath.log(s)),
    "capacity_nearest": (lambda w: w.eta["legitimate"], lambda w: 1.0,
                         lambda w, s: _log_capacity(w, "legitimate", "nearest", s)),
    "capacity_best": (lambda w: w.eta["legitimate"], lambda w: w.delta,
                      lambda w, s: _log_capacity(w, "legitimate", "best", s)),
    "wiretap_nearest": (lambda w: w.eta["eavesdropper"], lambda w: 1.0,
                        lambda w, s: _log_capacity(w, "eavesdropper", "nearest", s)),
    "wiretap_best": (lambda w: w.eta["eavesdropper"], lambda w: w.delta,
                     lambda w, s: _log_capacity(w, "eavesdropper", "best", s)),
}


def _elementary(name: str, w: _Draw, s):
    """log of the transform over x of the quantity at v = v0 x^(1/p), from
    its transform M over v: |p| v0^(-p s) M(p s)."""
    variable, power, log_transform = _TRANSFORMS[name]
    v0, p = variable(w), power(w)
    return math.log(abs(p)) - p * s * math.log(v0) + log_transform(w, p * s)


def _log_theta(params: specfun.FoxHParams, s):
    """log Theta(s), the Mellin-Barnes kernel, from its definition."""
    out = 0.0
    for j, (b, B) in enumerate(params.lower_coeffs):
        out += loggamma(b + B * s) if j < params.m else -loggamma(1.0 - b - B * s)
    for j, (a, A) in enumerate(params.upper_coeffs):
        out += loggamma(1.0 - a - A * s) if j < params.n else -loggamma(a + A * s)
    return out


def _instance(name: str, cfg: ScenarioConfig):
    build, side, *_ = metrics._FOX_H[name]
    return build(cfg, side, cfg.order_index(side))


def _mismatch(name: str, w: _Draw, instance, s) -> float:
    """|Fox H side - elementary side|, modulo 2 pi i."""
    log_pref, params, scale = instance
    gap = log_pref - s * math.log(scale) + _log_theta(params, s) - _elementary(name, w, s)
    return abs(gap - 2j * math.pi * round(gap.imag / (2.0 * math.pi)))


def _inside(params: specfun.FoxHParams, at: float, imag: float) -> complex:
    lo, hi = params.contour_interval()
    return complex(lo + at * (hi - lo), imag)


_SPOT = _Draw(d=2, delta=0.5, k=2, eta={"legitimate": 5.0, "eavesdropper": 2.0}, links={
    "legitimate": _Link(alpha=2.5, mu=1.5, count=1, density=0.3),
    "eavesdropper": _Link(alpha=1.8, mu=2.0, count=1, density=0.2),
})


def test_elementary_transforms_match_a_direct_quadrature():
    # At one real s, integrate x^(s-1) exp(log prefactor) H(scale x) over
    # (0, inf) in u = log(scale x), with H from the contour evaluator: the
    # transforms above are those of the quantities the instances compute.
    cfg = _SPOT.build()
    for name in metrics._FOX_H:
        log_pref, params, scale = _instance(name, cfg)
        s = _inside(params, 0.5, 0.0).real
        lo, hi = params.contour_interval()
        # the integrand decays as exp(-(s - lo) |u|) and exp(-(hi - s) u)
        reach = 40.0 / min(s - lo, hi - s)

        def integrand(u):
            return math.exp(s * u + log_pref) * specfun.fox_h(params, math.exp(u)).value

        direct, _ = quad(integrand, -reach, reach, epsabs=0.0, epsrel=1e-10, limit=400)
        want = _elementary(name, _SPOT, s)
        assert direct > 0.0 and abs(math.remainder(want.imag, 2.0 * math.pi)) < 1e-12, name
        assert math.log(direct) - s * math.log(scale) == pytest.approx(want.real, abs=1e-7), name


_links = st.tuples(st.floats(0.8, 4.0), st.floats(0.5, 4.0), st.floats(0.05, 3.0))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    d=st.sampled_from([1, 2, 3]), delta=st.floats(0.3, 1.5), k=st.integers(1, 6),
    legitimate=_links, eavesdropper=_links,
    counts=st.one_of(st.none(), st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))),
    eta_db=st.tuples(st.floats(-20.0, 30.0), st.floats(-20.0, 30.0)),
    at=st.floats(0.02, 0.98), imag=st.floats(-4.0, 4.0),
)
def test_every_instance_matches_its_law_transform(d, delta, k, legitimate, eavesdropper, counts, eta_db, at, imag):
    # branch counts are drawn at alpha = 2 only, where their sum is exact
    n_a, n_b, n_e = counts or (1, 1, 1)
    links = {side: _Link(alpha=2.0 if counts else alpha, mu=mu, count=n_a * n, density=density)
             for side, (alpha, mu, density), n in (("legitimate", legitimate, n_b),
                                                    ("eavesdropper", eavesdropper, n_e))}
    w = _Draw(d=d, delta=delta, k=k, links=links,
              eta={"legitimate": 10.0 ** (eta_db[0] / 10.0), "eavesdropper": 10.0 ** (eta_db[1] / 10.0)})
    cfg = w.build()
    for name in metrics._FOX_H:
        instance = _instance(name, cfg)
        s = _inside(instance[1], at, imag)
        assert _mismatch(name, w, instance, s) <= 1e-10, (name, s)


@pytest.mark.parametrize("name", list(metrics._FOX_H))
@pytest.mark.parametrize("pair", ["upper", "lower"])
def test_a_shifted_coefficient_is_caught(name, pair):
    # a 1e-6 shift of the first coefficient pair's constant moves the kernel
    # by about 1e-6 times a digamma value: far above the 1e-10 the test allows
    log_pref, params, scale = _instance(name, _SPOT.build())
    s = _inside(params, 0.5, 1.0)
    assert _mismatch(name, _SPOT, (log_pref, params, scale), s) <= 1e-10
    coeffs = list(getattr(params, f"{pair}_coeffs"))
    coeffs[0] = (coeffs[0][0] + 1e-6, coeffs[0][1])
    shifted = replace(params, **{f"{pair}_coeffs": tuple(coeffs)})
    assert _mismatch(name, _SPOT, (log_pref, shifted, scale), s) > 1e-8
