"""Defining-integral quadrature: the oracle that integrates each metric's
probability/expectation integral from gamma-family primitives only,
deliberately bypassing the Fox H route the closed forms take.

By the mapping theorem the k-th nearest receiver is the k-th point Y of
{r^upsilon}, with gain G / Y, and the k-th best one the k-th point Y of
{r^upsilon / g}, with gain 1 / Y; both processes have mean measure
rate * y^delta.  One law per side law (``_law``) gives the density, the
CDF and the expectations of that gain at each rule level, and each metric
is a functional of the two sides' laws (``cop``, ``pnz``, ``capacity``);
``pdf`` is the legitimate law's density, which the figures plot.  The
exp-sinh nodes whose weight underflows to exactly 0 are passed over before
any 2D primitive is evaluated on them, which changes a sum by rounding
alone.  The rule's levels are nested (level L's nodes hold level L - 1's,
as the even ones), and each law keeps its 2D primitives' values from their
last call (``_Table``).  So a finer level evaluates a 2D primitive only on
the pairs of nodes the coarser one did not hold, about 3/4 of its grid;
values are matched bit for bit and every sum is formed as on a fresh law,
so each level value is unchanged.  The primitives are looked up as
``fading.*``/``stochgeo.*`` attributes at call time, never imported by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import fading, stochgeo
from .metrics import ScenarioConfig
from .specfun import ConvergenceError

__all__ = ["capacity", "cop", "pdf", "pnz"]

# Successive exp-sinh levels must agree to _QUAD_REL.  Nodes lie within 150
# e-folds of their scale: no gain law here holds mass beyond, and powers of
# such nodes stay finite for delta < 2.3.
_QUAD_REL = 1e-9
_LEVELS = (3, 4, 5, 6, 7)
_T_MAX = math.asinh(150.0 / (0.5 * math.pi))


def _exp_sinh(level: int, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the exp-sinh rule for an integral over (0, inf).

    x = scale * exp(pi/2 sinh t) on t-steps of 2^-level, so that
    log(x / scale) spans [-150, 150]: mass decades away from ``scale`` is
    still sampled, and the trapezoid sum converges exponentially in the
    level for analytic integrands.
    """
    if not 0.0 < scale < math.inf:
        raise ConvergenceError(f"exp-sinh scale {scale:g} lies outside the float range")
    step = 2.0**-level
    n = int(_T_MAX / step)
    t = step * np.arange(-n, n + 1)
    x = scale * np.exp(0.5 * math.pi * np.sinh(t))
    return x, step * 0.5 * math.pi * np.cosh(t) * x


def _converged(integral) -> float:
    """integral(level) at increasing levels until two successive values
    agree.  Level L's nodes t = 2^-L j hold level L - 1's as the even j, so
    a law from ``_law`` evaluates its 2D primitives at level L only on the
    pairs of nodes level L - 1 did not hold (``_Table``), bit for bit."""
    # Far-tail powers overflow to inf where a density factor is 0, and a
    # gain that underflows to 0 divides by zero in V's lower limit.
    with np.errstate(over="ignore", divide="ignore"):
        previous = float(integral(_LEVELS[0]))
        for level in _LEVELS[1:]:
            value = float(integral(level))
            if abs(value - previous) <= _QUAD_REL * abs(value):
                return value
            previous = value
    raise ConvergenceError(
        f"defining-integral quadrature did not converge: {previous:.12g} at step 2^-{_LEVELS[-1]}")


def _bits(x) -> np.ndarray:
    """A flat copy of x, as the bit patterns of its floats: a key that the
    caller's later writes to x cannot change."""
    return np.array(x, dtype=float).reshape(-1).view(np.int64)


class _Table:
    """One elementwise primitive's values on the grid of its last call, so
    that the next call evaluates it only on the pairs the last did not.

    The argument at (i, j) is ``op(a_i, b_j)`` of a row key a_i and a
    column key b_j.  Keys are matched bit for bit, so a value taken over is
    the one the primitive would return again, whatever the levels or z of
    the two calls: a rule node recurs unchanged at every finer level, and
    so do the rows a caller derives from such nodes.  The fresh arguments
    go to the primitive in one call, and a first call, or one that shares
    no row or no column, passes the full grid as it is.  The table is
    replaced only after the primitive returns, and the values it returns
    are its own, read-only.

    1D primitives are called in full: a level holds at most 1,345 nodes,
    and halving such a call saves less than matching its nodes costs.
    """

    def __init__(self) -> None:
        self.keys: tuple[np.ndarray, ...] = ()
        self.values: np.ndarray | None = None

    def _held(self, axis: int, bits: np.ndarray):
        """The positions of ``bits`` the last call did not hold, those it
        held and where it held them; None where it held none."""
        if self.values is None or not self.keys[axis].size:
            return None
        last = self.keys[axis]
        order = last.argsort()
        at = order.take(last.searchsorted(bits, sorter=order), mode="clip")
        hit = last[at] == bits
        old = hit.nonzero()[0]
        return ((~hit).nonzero()[0], old, at[old]) if old.size else None

    def outer(self, fn, op: np.ufunc, a, b: np.ndarray) -> np.ndarray:
        """fn(op.outer(a, b)) for a key array a of any shape and 1D b; fn
        returns a new array.

        The grid is filled in three blocks: the rows not held, then the
        columns not held on the rows held, then the pairs held.
        """
        a_bits, b_bits = _bits(a), _bits(b)
        rows, cols = self._held(0, a_bits), self._held(1, b_bits)
        if rows is None or cols is None:
            out = fn(op.outer(a, b)).reshape(a_bits.size, b.size)
        else:
            a_flat = a_bits.view(float)
            a_new, a_old, a_at = map(_stepped, rows)
            b_new, b_old, b_at = map(_stepped, cols)
            fresh_rows, held_rows, fresh_cols = a_flat[a_new], a_flat[a_old], b[b_new]
            split = fresh_rows.size * b.size
            out = np.empty((a_flat.size, b.size))
            # the fresh arguments borrow the grid's leading memory until fn returns
            args = out.reshape(-1)[:split + held_rows.size * fresh_cols.size]
            op.outer(fresh_rows, b, out=args[:split].reshape(fresh_rows.size, b.size))
            op.outer(held_rows, fresh_cols, out=args[split:].reshape(held_rows.size, fresh_cols.size))
            fresh = fn(args)
            out[a_new] = fresh[:split].reshape(fresh_rows.size, b.size)
            out[_block(a_old, b_new)] = fresh[split:].reshape(held_rows.size, fresh_cols.size)
            out[_block(a_old, b_old)] = self.values[_block(a_at, b_at)]
        out.flags.writeable = False
        self.keys, self.values = (a_bits, b_bits), out
        return out.reshape(np.shape(a) + b.shape)


def _stepped(index: np.ndarray):
    """An index array as a slice where its positions step evenly, which
    numpy copies faster than an index array; else the array.  Nested
    levels hold every second node, so the positions a ``_Table`` copies
    almost always step evenly."""
    if index.size > 1:
        start, step = index[0], index[1] - index[0]
        stop = start + step * index.size
        if step > 0 and (index == np.arange(start, stop, step)).all():
            return slice(start, stop, step)
    return index


def _block(rows, cols):
    """The index of the block rows x cols, each a slice or an index array."""
    return np.ix_(rows, cols) if isinstance(rows, np.ndarray) and isinstance(cols, np.ndarray) else (rows, cols)


@dataclass(frozen=True)
class _NearestLaw:
    """Gain Z = G / Y of the k-th nearest receiver.

    Each sum passes over the nodes whose 1D weight (density times rule
    weight) is exactly 0, before the 2D primitive or ``h`` is called on
    them: such a node adds 0 times a finite value, an exact 0, so the sum
    changes only by the order in which the other terms are added.  The
    exp-sinh rule spans 150 e-folds, so about a third of the nodes of a
    typical law carry a density that underflows to 0.  Only exact zeros
    are passed over: a relative cutoff would lose values as small as the
    8x8 nearest COP (3e-40).

    ``cdf_table`` and ``expect_table`` keep the 2D primitive's values from
    the last ``cdf`` and ``expect`` call (``_Table``), with the rule nodes as
    columns and the caller's z or the nodes w as rows, so a sum reads the
    values a fresh law would, in the same order.
    """

    fad: fading.AlphaMuParams
    rate: float
    delta: float
    k: int
    cdf_table: _Table = field(default_factory=_Table, init=False, repr=False, compare=False)
    expect_table: _Table = field(default_factory=_Table, init=False, repr=False, compare=False)

    @property
    def scale(self) -> float:
        """(k / rate)^(1/delta), the scale of Y; +inf where it passes the
        float range, a scale that ``_exp_sinh`` rejects."""
        try:
            return (self.k / self.rate) ** (1.0 / self.delta)
        except OverflowError:
            return math.inf

    def cdf(self, z, level: int):
        """P(Z <= z) by the conditioning integral over the distance law."""
        y, wy = _exp_sinh(level, self.scale)
        weight = stochgeo.pdf_kth_distance_pow(self.k, self.rate, self.delta, y) * wy
        keep = weight != 0.0
        return self.cdf_table.outer(
            partial(fading.cdf_power_gain, self.fad), np.multiply, z, y[keep]) @ weight[keep]

    def pdf(self, z: float, level: int):
        """Density of Z at z by the conditioning integral of y f_G(z y) f_Y(y)."""
        y, wy = _exp_sinh(level, self.scale)
        weight = y * stochgeo.pdf_kth_distance_pow(self.k, self.rate, self.delta, y) * wy
        keep = weight != 0.0
        return fading.pdf_power_gain(self.fad, z * y[keep]) @ weight[keep]

    def expect(self, h, level: int):
        """E[h(Z)] over W = 1 / Z = Y / G, whose density is the integral
        over g of g f_G(g) f_Y(w g)."""
        mean_gain = self.fad.mean_power()
        w, ww = _exp_sinh(level, self.scale / mean_gain)
        g, wg = _exp_sinh(level, mean_gain)
        g_weight = g * fading.pdf_power_gain(self.fad, g) * wg
        g_keep = g_weight != 0.0
        pdf_y = self.expect_table.outer(
            partial(stochgeo.pdf_kth_distance_pow, self.k, self.rate, self.delta), np.multiply, w, g[g_keep])
        weight = (pdf_y @ g_weight[g_keep]) * ww
        keep = weight != 0.0
        return np.sum(h(1.0 / w[keep]) * weight[keep])


@dataclass(frozen=True)
class _BestLaw:
    """Gain Z = 1 / Y of the k-th best receiver; V = rate * Y^delta is
    Gamma(k, 1) in every scenario.

    ``expect`` passes over the nodes whose weight is exactly 0, as
    ``_NearestLaw`` does.  ``cdf`` shifts one set of offsets x by a lower
    limit lo per z, and no rule weight is 0, so it sums over every offset.
    ``cdf_table`` keeps ``cdf``'s 2D density values as ``_NearestLaw``'s
    does: the grid's rows are the limits lo, its columns the offsets x.
    """

    rate: float
    delta: float
    k: int
    cdf_table: _Table = field(default_factory=_Table, init=False, repr=False, compare=False)

    def cdf(self, z, level: int):
        """P(Z <= z) = P(V >= rate * z^-delta); at z = 0 the limit is inf, where the density is 0."""
        lo = self.rate * np.asarray(z, dtype=float) ** -self.delta
        x, wx = _exp_sinh(level, self.k)
        pdf_v = partial(stochgeo.pdf_kth_distance_pow, self.k, 1.0, 1.0)
        return self.cdf_table.outer(pdf_v, np.add, lo, x) @ wx

    def pdf(self, z: float, level: int):
        """Density of Z at z, f_Y(1 / z) / z^2: no rule, so every level agrees."""
        return stochgeo.pdf_kth_distance_pow(self.k, self.rate, self.delta, 1.0 / z) / z**2

    def expect(self, h, level: int):
        v, wv = _exp_sinh(level, self.k)
        weight = stochgeo.pdf_kth_distance_pow(self.k, 1.0, 1.0, v) * wv
        keep = weight != 0.0
        return np.sum(h((self.rate / v[keep]) ** (1.0 / self.delta)) * weight[keep])


def _law(cfg: ScenarioConfig, side: str):
    """The composite-gain law of cfg's side law (the side, its order index
    and its ordering, with the geometry and fading they read), whose ``cdf``
    and ``expect`` take the rule level: one law serves every level of an
    integral, and keeps its 2D primitives' values between levels (``_Table``)."""
    geo, k = cfg.geometry, cfg.order_index(side)
    if cfg.ordering_of(side) == "nearest":
        return _NearestLaw(geo.fading(side), geo.pathloss_rate(side), geo.delta, k)
    return _BestLaw(geo.composite_rate(side), geo.delta, k)


def pdf(cfg: ScenarioConfig, z: float) -> float:
    """Density of the legitimate side law's composite gain at z > 0."""
    return _converged(partial(_law(cfg, "legitimate").pdf, z))


def cop(cfg: ScenarioConfig) -> float:
    """P(Z_b <= outage threshold) of the legitimate side law."""
    return _converged(partial(_law(cfg, "legitimate").cdf, cfg.outage_threshold))


def pnz(cfg: ScenarioConfig) -> float:
    """P(varpi Z_b > Z_e) = E_b[F_e(varpi Z_b)]."""
    bob, eve = _law(cfg, "legitimate"), _law(cfg, "eavesdropper")
    return _converged(lambda level: bob.expect(lambda z: eve.cdf(cfg.varpi * z, level), level))


def capacity(cfg: ScenarioConfig, side: str) -> float:
    """Mean capacity E[log2(1 + eta Z)] of the side's ordered receiver."""
    eta = cfg.snr_scale(side)
    return _converged(partial(_law(cfg, side).expect, lambda z: np.log2(1.0 + eta * z)))
