"""Weight constants over the dyadic lattice, dual weights, and a 1-D
analytic power-weight engine.

Tabulated weights are StepFunctions; every constant is the exact maximum of
its per-cube expression over the lattice cubes, with the attaining cube
returned as witness.  The multiplier classes replace the L^1 average of w
(or w^q) on a cube by its weak-L^1 quasi-norm restricted to the cube.

The power engine evaluates w(x) = |x - center|^exponent on an interval with
closed-form cube integrals, essential suprema and weak-L^1 norms, so weights
like |x|^(-1) can be probed without discretization: divergent integrals,
and closed forms past the float range, produce +inf as a first-class value,
never an exception.  Both backends evaluate a constant on per-level arrays;
a tabulated star class takes the weak scan only on the cubes that a bound
by the L^1 norm leaves able to attain its maximum.  For power weights each
power and log is still taken per element as a Python float, because
numpy's vectorized ``**`` and ``log`` round some results differently, and
the values must match the one-cube closed forms bit for bit.  Throughout,
the 0 * inf = 0 convention applies to degenerate products.  Three input
rules live here alone: w > 0 (``dual_weight``), 1/p - 1/q = alpha/n
(``check_exponent_relation``) and the scale rule (``_unit_scale``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Union

import numpy as np

from .cuberows import _SELECT_MARGIN, _TINY
from .grid import (DyadicCube, GridSpec, StepFunction, _level_starts, cube_blocks,
                   level_value_sums)
from .lorentz import weak_scan

INF = math.inf


def conjugate(p: float) -> float:
    """Hoelder conjugate p' = p/(p-1)."""
    if not 1 < p < INF:
        raise ValueError(f"conjugate exponent needs 1 < p < inf, got {p}")
    return p / (p - 1.0)


# --------------------------------------------------------------------------
# analytic power weights
# --------------------------------------------------------------------------

def _power(base: float, exponent: float) -> float:
    """base ** exponent, +inf where the Python float power overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


def _pow(base: np.ndarray, e: float) -> np.ndarray:
    """_power on each element of ``base``, taken as a Python float.

    Every power of the power engine goes through here, and every log, log1p
    and expm1 through _each.  numpy's vectorized ``**`` and ``log`` round
    some results differently from the C library's functions behind Python's
    float ``**`` and ``math``, and the engine's values are pinned bit for
    bit to those Python-float closed forms.  Callers pass only the entries
    that need the power, since 0.0 ** e raises for e < 0."""
    vals = base.tolist()
    try:
        return np.fromiter(map(pow, vals, repeat(e)), dtype=float, count=len(vals))
    except OverflowError:
        return np.array([_power(v, e) for v in vals], dtype=float)


def _each(fn, x: np.ndarray) -> np.ndarray:
    """The math function ``fn`` on each element of ``x`` (see _pow)."""
    return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


def _distance_integral(a: float, d1: np.ndarray, d2: np.ndarray,
                       length: np.ndarray) -> np.ndarray:
    """int_{d1}^{d2} u^a du per entry, for 0 <= d1 < d2 = d1 + length; +inf
    when divergent at 0 or past the float range.

    Far from the center, d1 and d2 round together and (d2^b - d1^b) / b,
    b = a + 1, loses about log2(d1 / length) bits.  So where length / d1 <
    2^-8 / max(1, |b|), the entry reads the cube length instead: d1^a (d1
    expm1(b log1p(length / d1)) / b), or log1p(length / d1) at b = 0, with
    d1^a split from d1^b, which can overflow where the integral does not.
    The switch was measured on lattice cubes against 40-digit decimals:
    below length / d1 = 2^-8 the difference form's error doubles with each
    halving (5e-14 at 2^-8, 2.5e-11 at 2^-17, for a = -1.5), while the
    expm1 form stays within 3 ulp.  Above it both are within 1e-13, so the
    difference form keeps its bits there, among them every cube of a
    depth-8 lattice whose root holds c.  The division by |b| > 1 keeps
    |b log1p(length / d1)| below 2^-8, where expm1 cannot overflow."""
    b = a + 1.0
    out = np.empty(d2.shape)
    at0 = d1 == 0.0
    out[at0] = INF if a <= -1.0 else _pow(d2[at0], b) / b
    far = ~at0 & (length * max(1.0, abs(b)) < d1 * 2.0 ** -8)
    if far.any():
        lp = _each(math.log1p, length[far] / d1[far])
        with np.errstate(over="ignore"):  # past the float range: +inf
            out[far] = lp if a == -1.0 else (
                _pow(d1[far], a) * (d1[far] * _each(math.expm1, b * lp) / b))
    off = ~(at0 | far)
    if a == -1.0:
        out[off] = _each(math.log, d2[off] / d1[off])
    else:
        top, bottom = _pow(d2[off], b), _pow(d1[off], b)
        with np.errstate(invalid="ignore"):
            # inf - inf: both ends overflow, and the integral with them
            out[off] = np.where(np.isinf(top) & np.isinf(bottom), INF, (top - bottom) / b)
    return out


def _rounded_away(c: float, los: np.ndarray, his: np.ndarray, dlo: np.ndarray,
                  dhi: np.ndarray) -> np.ndarray:
    """Where c -+ |lo - c| and c -+ |hi - c|, for a cube off c, miss the
    cube's ends by more than 2^-26 of its length.  The overlaps of
    ``PowerWeight._split_weak`` are read from c -+ t and lose that share of
    the cube to the miss.  A miss is a few ulps of the largest of |c|, |lo|
    and |hi| (0 where c and the ends are dyadic, as for |x|^-1), at most
    2^-49 where they lie within 4 of 0, so on a root of side 1 no cube of a
    lattice of depth <= 22 takes the switch, and a centre near the root
    keeps its values.  Where 8 ulps of the largest of |c|, |lo| and |hi|
    are below the switch for the shortest cube, no cube takes it, and no
    miss is computed."""
    length = his - los
    top = max(abs(c), -float(los.min()), float(his.max()))  # his > los
    if 8.0 * math.ulp(top) <= float(length.min()) * 2.0 ** -26:
        return np.zeros(los.shape, dtype=bool)
    below = his <= c
    miss = (np.abs(np.where(below, c - dlo, c + dlo) - los)
            + np.abs(np.where(below, c - dhi, c + dhi) - his))
    return miss > length * 2.0 ** -26


def _one_side_weak(a: float, near: np.ndarray, length: np.ndarray,
                   unit: np.ndarray | None) -> np.ndarray:
    """sup_t (t / unit)^a h(t) on the distances [near, near + length] from
    c, near > 0, a != 0: h(t) = min(length, t - near)+ for a < 0, where
    w > t^a on the distances below t, and min(length, near + length - t)+
    for a > 0.  Each piece's only interior critical point, a near / (a + 1)
    for a < -1 and a far / (a + 1) for a > 0 (far = near + length), wins
    where it lies inside [near, far]; otherwise the end where h reaches
    length does: far for a < 0, near for a > 0.  h there is length itself
    or a multiple of near or far, never a difference of two distances."""
    far = near + length
    t, h = (far if a < 0.0 else near), length
    if a < -1.0 or a > 0.0:
        t_star = a * (near if a < 0.0 else far) / (a + 1.0)
        inner = (t_star < far) if a < 0.0 else (t_star > near)
        t = np.where(inner, t_star, t)
        h = np.where(inner, (-near if a < 0.0 else far) / (a + 1.0), length)
    return _pow(t if unit is None else t / unit, a) * h


def _cube_ends(lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Cube ends as 1-D float arrays: one cube's floats, or a level's arrays."""
    return (np.atleast_1d(np.asarray(lo, dtype=float)),
            np.atleast_1d(np.asarray(hi, dtype=float)))


def _as_given(out: np.ndarray, lo):
    """A float for one cube given as floats, else the per-cube array."""
    return float(out[0]) if np.ndim(lo) == 0 else out


@dataclass(frozen=True)
class PowerWeight:
    """w(x) = |x - center|^exponent on the root interval [left, right).

    ``moment``, ``weak_l1`` and ``ess_sup_inv`` take a cube [lo, hi) as two
    floats and return a float, or a run of cubes as two equal-length arrays
    and return an array."""

    center: float
    exponent: float
    left: float
    right: float

    def __post_init__(self):
        for name, value in (("center", self.center), ("exponent", self.exponent),
                            ("root", self.left), ("root", self.right)):
            if not math.isfinite(value):
                raise ValueError(f"power weight {name} must be finite, got {value}")
        if not self.right > self.left:
            raise ValueError("empty root interval")

    def lattice(self, depth: int) -> GridSpec:
        return GridSpec(1, (self.left,), self.right - self.left, depth)

    def __pow__(self, e: float) -> "PowerWeight":
        """w^e, again a power weight."""
        return PowerWeight(self.center, self.exponent * e, self.left, self.right)

    def moment(self, e: float, lo, hi):
        """int_lo^hi |x - c|^(exponent * e) dx, +inf when divergent."""
        los, his = _cube_ends(lo, hi)
        return _as_given(self._split_moment(e, los, his, np.ones(los.shape)), lo)

    def _split_moment(self, e: float, los: np.ndarray, his: np.ndarray,
                      unit: np.ndarray) -> np.ndarray:
        """int_lo^hi (|x - c| / d*)^(exponent * e) dx on each cube, with d*
        the cube's entry of ``unit``: each side [d1, d2] of the center that
        the cube meets adds d* int_{d1/d*}^{d2/d*} v^(exponent e) dv.  At
        d* = 1 this is ``moment``; at d* = the distance where w peaks on Q
        it is |Q| <(w/m)^e>_Q with m = ess sup_Q w."""
        a = self.exponent * e
        c = self.center
        below, above = his <= c, los >= c
        across = ~(below | above)
        near = np.where(below, c - his, np.where(above, los - c, 0.0))
        far = np.where(above, his - c, c - los)
        total = _distance_integral(a, near / unit, far / unit, (his - los) / unit)
        top = (his - c)[across] / unit[across]
        total[across] += _distance_integral(a, np.zeros(top.size), top, top)
        return unit * total

    def integral(self, lo, hi):
        return self.moment(1.0, lo, hi)

    def ess_sup_inv(self, lo, hi):
        """ess sup of w^(-1) = |x-c|^(-exponent) over [lo, hi)."""
        los, his = _cube_ends(lo, hi)
        a = self.exponent
        c = self.center
        if a == 0.0:
            return _as_given(np.ones(los.shape), lo)
        dlo, dhi = np.abs(los - c), np.abs(his - c)
        if a < 0.0:
            return _as_given(_pow(np.maximum(dlo, dhi), -a), lo)
        out = np.full(los.shape, INF)
        outside = ~((los <= c) & (c <= his))
        out[outside] = _pow(np.minimum(dlo, dhi)[outside], -a)
        return _as_given(out, lo)

    def weak_l1(self, lo, hi, power: float = 1.0):
        """|| w^power chi_[lo,hi) ||_{L^{1,inf}} in closed form."""
        los, his = _cube_ends(lo, hi)
        return _as_given(self._split_weak(power, los, his), lo)

    def _split_weak(self, power: float, los: np.ndarray, his: np.ndarray,
                    unit: np.ndarray | None = None) -> np.ndarray:
        """|| (|x - c| / d*)^(exponent * power) chi_Q ||_{L^{1,inf}} on each
        cube, with d* the cube's entry of ``unit`` (d* = 1 without one, as
        for ``weak_l1``).

        With t the distance threshold (lam = (t / d*)^a), the superlevel
        measure h(t) is piecewise affine with breakpoints at the endpoint
        distances, so sup_t (t / d*)^a h(t) is attained at a breakpoint, at an
        interior critical point t* = -a u / ((a+1) v) of an affine piece h =
        u + v t, or in the t -> 0 limit at the singularity.  Each cube has at
        most two breakpoints and three pieces; a candidate that a cube lacks
        is masked off.  The overlap of the cube with (c - t, c + t) is read
        from c -+ t; where that rounds the cube away, far from c, the cube
        is a distance range instead (``_one_side_weak``).
        """
        a = self.exponent * power
        c = self.center
        length = his - los
        if a == 0.0:
            return length

        def g(t, mask):
            """(t / d*)^a h(t) where mask holds and h(t) > 0, else 0."""
            overlap = np.maximum(0.0, np.minimum(his, c + t) - np.maximum(los, c - t))
            ht = overlap if a < 0.0 else length - overlap
            live = mask & (ht > 0.0)
            out = np.zeros(los.shape)
            out[live] = _pow(t[live] if unit is None else t[live] / unit[live], a) * ht[live]
            return out

        def piece(t_lo, t_hi, mask):
            """g at the interior critical point of the piece (t_lo, t_hi).
            Each end of the overlap is pinned at hi or lo or moves with t,
            read from the exact breakpoint distances (c +- t_lo rounds)."""
            top, bottom = t_lo >= his - c, t_lo >= c - los  # ends pinned at hi, lo
            u = (his - c) * top + (c - los) * bottom
            v = 2.0 - top - bottom
            if a > 0.0:
                u, v = length - u, -v
            live = mask & (v != 0.0) & (t_lo >= np.maximum(los - c, c - his))
            t_star = -a * u / ((a + 1.0) * v)
            return g(t_star, live & (t_lo < t_star) & (t_star < t_hi))

        everywhere = np.ones(los.shape, dtype=bool)
        inside_closure = (los <= c) & (c <= his)
        best = np.zeros(los.shape)
        if a == -1.0:
            # h(t) = v0 * t near 0, so g -> v0 * t^(a+1) d* = v0 d*.
            v0 = np.where((los < c) & (c < his), 2.0, 1.0)
            best[inside_closure] = (v0 if unit is None else v0 * unit)[inside_closure]

        # The sorted positive breakpoints: [near, far] where both differ and
        # are positive, else [far].
        dlo, dhi = np.abs(los - c), np.abs(his - c)
        near, far = np.minimum(dlo, dhi), np.maximum(dlo, dhi)
        two = (near > 0.0) & (near != far)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            candidates = [g(near, two), g(far, everywhere)]
            if a != -1.0:
                candidates += [piece(np.zeros(los.shape), np.where(two, near, far), everywhere),
                               piece(near, far, two),
                               piece(far, far * 2.0 + length, everywhere)]
        # Beyond the last breakpoint h is constant: g decays for a < 0 and
        # vanishes for a > 0 (the ball swallowed the interval), so no further
        # candidates arise past the last edge.
        for cand in candidates:
            best = np.where(cand > best, cand, best)
        if a < -1.0:
            best[inside_closure] = INF
        away = _rounded_away(c, los, his, dlo, dhi) & ~inside_closure
        if away.any():
            best[away] = _one_side_weak(a, near[away], length[away],
                                        None if unit is None else unit[away])
        return best

    def tabulate(self, depth: int) -> StepFunction:
        """Exact cell averages; a cell with divergent integral falls back to
        the harmonic regularization 1 / <w^{-1}>_cell (always finite here,
        since |x-c|^a and |x-c|^(-a) cannot both be non-integrable)."""
        return StepFunction(self.lattice(depth), self._cell_averages(depth, 1.0))

    def _cell_averages(self, depth: int, unit: float) -> np.ndarray:
        """The cell values of ``tabulate``, unchecked, for w / unit^exponent,
        distances measured in ``unit`` (see ``_split_moment``)."""
        grid = self.lattice(depth)
        h = grid.side(depth)
        lo = self.left + np.arange(grid.finest_count) * h
        hi = lo + h
        units = np.full(lo.shape, unit)
        mass = self._split_moment(1.0, lo, hi, units)
        vals = mass / h
        divergent = ~np.isfinite(mass)
        if divergent.any():
            with np.errstate(divide="ignore", over="ignore"):  # past the float range: +inf
                vals[divergent] = h / self._split_moment(-1.0, lo[divergent], hi[divergent],
                                                         units[divergent])
        return vals


Weight = Union[StepFunction, PowerWeight]


# --------------------------------------------------------------------------
# the class table and its evaluator, shared by both backends
# --------------------------------------------------------------------------

def _zero_inf(arr: np.ndarray) -> np.ndarray:
    # nan only arises from 0 * inf products; the convention sends those to 0.
    return np.where(np.isnan(arr), 0.0, arr)


def _grid_of(w: Weight, depth: int | None) -> GridSpec:
    if isinstance(w, StepFunction):
        return w.grid
    if depth is None:
        raise ValueError("power weights need an explicit lattice depth")
    return w.lattice(depth)


def _cell_power(vals: np.ndarray, e: float) -> np.ndarray:
    # 0^e for e < 0 is +inf here (where w = 0, the dual mass diverges),
    # and a power past the float range is +inf, which the constant reports.
    with np.errstate(divide="ignore", over="ignore"):
        return vals ** e


# Every class is a row of per-cube factors, combined left to right:
#   ("avg", e, t)          <w^e>_Q^t
#   ("weak", e, t)         (|Q|^-1 ||w^e chi_Q||_{1,inf})^t
#   ("esssup_inv", -1, 1)  ess sup_Q w^{-1}
# A factor with t = -1 divides instead of multiplying.  A new class costs one
# row here plus its public wrapper below.
_ESSSUP_INV = ("esssup_inv", -1.0, 1.0)


def _dual_ap(p):
    """<w^{1-p'}>_Q^{p-1}, the A_p dual factor."""
    return ("avg", 1.0 - conjugate(p), p - 1.0)


def _dual_apq(p):
    """<w^{-p'}>_Q^{1/p'}, the A_{p,q} dual factor."""
    pc = conjugate(p)
    return ("avg", -pc, 1.0 / pc)


_STARS = ("ap_star", "apq_star")

_ROWS = {
    "ap": lambda p, q, r: (("avg", 1.0, 1.0), _dual_ap(p)),
    "a1": lambda p, q, r: (("avg", 1.0, 1.0), _ESSSUP_INV),
    "apq": lambda p, q, r: (("avg", q, 1.0 / q), _dual_apq(p)),
    "a1q": lambda p, q, r: (("avg", q, 1.0 / q), _ESSSUP_INV),
    "rh": lambda p, q, r: (("avg", r, 1.0 / r), ("avg", 1.0, -1.0)),
    "ap_star": lambda p, q, r: (("weak", 1.0, 1.0), _dual_ap(p)),
    "apq_star": lambda p, q, r: (("weak", q, 1.0 / q), _dual_apq(p)),
}


def _evaluate(row: tuple, factor, power=operator.pow, divide=operator.truediv):
    """Combine a row's factors left to right on per-level arrays;
    ``factor(kind, e, t)`` returns the backend's (base, t) for one factor.
    The backend may override t (the tabulated ess sup of w^{-1} is a division
    by min w), how a base is raised to t, and how a t = -1 factor divides."""
    value = None
    for kind, e, t in row:
        base, t = factor(kind, e, t)
        if t == -1.0:
            value = divide(value, base)
            continue
        if t != 1.0:
            base = power(base, t)
        value = base if value is None else value * base
    return value


class _TabulatedRow:
    """A row's values for a tabulated weight: ``row(lev)`` on every cube of
    a level, ``row(lev, cubes)`` on these cubes of it.  Each w^e is taken
    once; levels are evaluated lazily, so a scan can stop at +inf.

    Every average is a cell sum, or the weak scan's rank counts, times
    |cell| / |Q| = 2^-((depth - lev) n), an exact power of two: no average
    reads the root measure, so the same cells give the same values on a
    root of any side.  A star row also bounds its values (``bounds``).  A
    cube's value does not depend on the other cubes evaluated with it."""

    def __init__(self, row: tuple, w: StepFunction, grid: GridSpec):
        self.row, self.grid, self.vals = row, grid, w.values
        self.data = {}
        for kind, e, _ in row:
            if kind == "avg":
                with np.errstate(over="ignore"):  # a sum past the float range is +inf
                    self.data[kind, e] = level_value_sums(_cell_power(w.values, e), grid)
            elif kind == "weak":
                self.data[kind, e] = _cell_power(w.values, e)

    def __call__(self, lev: int, cubes: np.ndarray | None = None) -> np.ndarray:
        grid = self.grid
        scale = grid.cell_measure / grid.cube_measure(lev)

        def factor(kind, e, t):
            if kind == "avg":
                sums = self.data[kind, e][lev]
                return (sums if cubes is None else sums[cubes]) * scale, t
            if kind == "weak":
                blocks = cube_blocks(self.data[kind, e], grid, lev, cubes)
                with np.errstate(over="ignore"):  # a weak norm past the float range is +inf
                    return weak_scan(blocks, scale), t
            return cube_blocks(self.vals, grid, lev, cubes).min(axis=1), -1.0

        # a product or quotient of factors past the float range is +inf
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return _evaluate(self.row, factor)

    def bounds(self) -> np.ndarray:
        """U, a bound of a star row's value, on every cube of the lattice in
        lattice order: the value is at most U (1 + _SELECT_MARGIN), see
        ``_star_levels``.

        The weak factor ||w^e chi_Q||_{1,inf} / |Q| is replaced by the L^1
        average of w^e, which it never exceeds, taken from w^e's cube sums
        in the same scale, floored up at the least normal float and raised
        by (1 + _SELECT_MARGIN), so that it overflows to +inf wherever the
        weak average can.  The dual factor is the row's own; U is floored
        up once more, and is nan where its product is 0 * inf."""
        (_, e, t), (kind, e_dual, t_dual) = self.row  # the weak factor, then the dual
        grid = self.grid
        scale = np.repeat([grid.cell_measure / grid.cube_measure(lev)
                           for lev in range(grid.depth + 1)],
                          np.diff(_level_starts(grid)))  # each cube's |cell| / |Q|
        dual = np.concatenate(self.data[kind, e_dual])
        with np.errstate(invalid="ignore", over="ignore"):  # past the float range: +inf
            bound = _lattice_sums(self.data["weak", e], grid)
            bound *= scale
            dual *= scale
            np.maximum(bound, _TINY, out=bound)
            bound *= 1.0 + _SELECT_MARGIN
            if t != 1.0:
                bound **= t
            if t_dual != 1.0:
                dual **= t_dual
            bound *= dual  # 0 * inf: nan, as in the row's value
        return np.maximum(bound, _TINY, out=bound)


def _lattice_sums(values: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The sum of the cells of every lattice cube, in lattice order, by
    adding sibling halves one axis at a time, which at 1-D depth 14 is six
    times faster than ``level_value_sums`` and a concatenation.  Each is a
    sum of non-negative terms, so its rounding is a few dozen relative
    2^-53, but not that of ``level_value_sums``: only ``bounds`` reads
    these."""
    n, size = grid.n, values.size
    out = np.empty((size * 2 ** n - 1) // (2 ** n - 1))  # the lattice's cubes
    cur = values.reshape((2 ** grid.depth,) * n)
    end = out.size
    while True:
        out[end - cur.size:end] = cur.reshape(-1)
        end -= cur.size
        if cur.size == 1:
            return out
        for axis in range(n):
            half = (slice(None),) * axis
            cur = cur[half + (slice(0, None, 2),)] + cur[half + (slice(1, None, 2),)]


def _relative_rh_levels(w: StepFunction, grid: GridSpec, r: float):
    """Per-level RH_r arrays for a tabulated weight past the scale budget,
    where no one scale keeps every w^r in range: each cube's <w^r>^{1/r} is
    taken relative to the cube's largest value m, as m <(w/m)^r>^{1/r},
    whose powers lie in [0, 1]."""
    def level_values(lev):
        blocks = cube_blocks(w.values, grid, lev)
        top = blocks.max(axis=1)
        scale = grid.cell_measure / grid.cube_measure(lev)
        with np.errstate(divide="ignore", invalid="ignore"):
            moment = (((blocks / top[:, None]) ** r).sum(axis=1) * scale) ** (1.0 / r)
            return top * moment / (blocks.sum(axis=1) * scale)
    return level_values


def _divide_divergent(value: np.ndarray, base: np.ndarray) -> np.ndarray:
    # A power weight's <w>_Q = inf is a true divergence (RH_r's numerator
    # diverges with it): +inf, not inf/inf read as 0.
    return np.where(base == INF, INF, value / base)


def _power_values(row: tuple, pw: PowerWeight, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A row's values on the cubes [lo, hi) of a power weight, all at once.

    Every class has degree 0 in w.  So a cube where the closed form of an
    average <w^e>_Q or a weak average |Q|^-1 ||w^e chi_Q||_{1,inf} of the
    row leaves the normal float range, though w^e may be integrable on Q, is
    evaluated again on w/m, with m = ess sup_Q w = d*^exponent at the
    distance d* from the center where w peaks on Q: ``_split_moment`` and
    ``_split_weak`` in units of d* give <(w/m)^e>_Q and the weak average of
    (w/m)^e, and ess sup_Q (w/m)^{-1} = (d/d*)^(-exponent) at the distance d
    where w is least.  This skips a cube whose closure holds the center when
    the exponent is negative: there m is infinite, and an average that
    overflows diverges."""
    e, c = pw.exponent, pw.center
    meas = hi - lo
    averages = []

    def factor(kind, s, t):
        if kind == "avg":
            averages.append(pw.moment(s, lo, hi) / meas)
            return averages[-1], t
        if kind == "weak":
            averages.append(pw.weak_l1(lo, hi, power=s) / meas)
            return averages[-1], t
        return pw.ess_sup_inv(lo, hi), t

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values = _evaluate(row, factor, power=_pow, divide=_divide_divergent)
        tiny = np.finfo(float).tiny
        if all(tiny <= avg.min() and avg.max() < INF for avg in averages):
            return values  # no average leaves the range (a nan fails this test)
        closure = (lo <= c) & (c <= hi)
        fix = ~((e < 0.0) & closure) & np.logical_or.reduce(
            [~((avg >= tiny) & (avg < INF)) for avg in averages])
        if not fix.any():
            return values
        lo, hi, meas = lo[fix], hi[fix], meas[fix]
        dlo, dhi = np.abs(lo - c), np.abs(hi - c)
        near, far = np.where(closure[fix], 0.0, np.minimum(dlo, dhi)), np.maximum(dlo, dhi)
        peak, least = (far, near) if e > 0.0 else (near, far)
        live = least > 0.0

        def relative(kind, s, t):
            if kind == "avg":
                return pw._split_moment(s, lo, hi, peak) / meas, t
            if kind == "weak":
                return pw._split_weak(s, lo, hi, peak) / meas, t
            out = np.full(lo.shape, INF)
            out[live] = _pow(least[live] / peak[live], -e)
            return out, t

        values[fix] = _evaluate(row, relative, power=_pow, divide=_divide_divergent)
    return values


def _levels(kind: str, w: Weight, grid: GridSpec, p=None, q=None, r=None):
    """One constant's cube expression: ``level_values(lev)`` on every cube of
    the level (a ``_TabulatedRow`` for most tabulated classes)."""
    if kind not in _ROWS:
        raise ValueError(f"unknown constant kind {kind!r}")
    row = _ROWS[kind](p, q, r)
    if isinstance(w, StepFunction):
        if kind == "rh" and r > _SCALE_BUDGET:
            return _relative_rh_levels(w, grid, r)
        return _TabulatedRow(row, w, grid)

    def level_values(lev):
        h = grid.side(lev)
        i = np.arange(2 ** lev)
        lo, hi = w.left + i * h, w.left + (i + 1) * h
        return _power_values(row, w, lo, hi)
    return level_values


def _star_levels(row: _TabulatedRow, grid: GridSpec):
    """A tabulated star scan's levels: ``levels(lev)`` gives the values of
    the level's candidates and the candidates, in order, or None where the
    level has none.  A candidate is a cube whose bound U (``row.bounds``)
    times (1 + _SELECT_MARGIN) reaches the floor, the exact value of the
    first cube of largest U.  A nan U is never below the floor.

    The value is at most U (1 + _SELECT_MARGIN): ||w^e chi_Q||_{1,inf} <=
    ||w^e chi_Q||_1, since the weak scan's v |{>= v}| is at most the sum of
    the cells at or above v; both sides round w^e's cells, sums and
    products a few dozen times (2^-53 each), and the margin, once inside U
    and once outside, absorbs that and the rounding of U's power; the
    floors at the least normal float keep the comparison relative.  So a
    cube left out is strictly below the floor, hence below the maximum,
    and is never the first cube, in lattice order, to attain it: the scan
    over the rest finds the maximum and the first cube to attain it, or
    stops at the same first +inf, as a scan of every cube would.  The
    floor's cube is a candidate, and where it is its level's only one, its
    value is not taken twice."""
    bounds = row.bounds()
    starts = _level_starts(grid)
    top = int(np.argmax(bounds))  # a nan U wins
    top_level = int(np.searchsorted(starts, top, side="right")) - 1
    top_values = row(top_level, np.array([top - starts[top_level]]))
    floor = float(_zero_inf(top_values)[0])
    with np.errstate(over="ignore"):  # a U past the float range prunes nothing
        bounds *= 1.0 + _SELECT_MARGIN
    cubes = np.flatnonzero(~(bounds < floor))
    cut = np.searchsorted(cubes, starts)

    def levels(lev):
        at = cubes[cut[lev]:cut[lev + 1]] - starts[lev]
        if not len(at):
            return None
        return (top_values if lev == top_level and len(at) == 1 else row(lev, at)), at
    return levels


def _scan(tag: str, w: Weight, grid: GridSpec, *, p=None, q=None, r=None) -> "WeightConstant":
    """The maximum of the tag's cube expression over the lattice and the
    first cube, in lattice order, to attain it, after nan -> 0; a scan
    stops at the first level holding +inf.  Every scan evaluates each level
    whole but a tabulated star class's: as ||w^e chi_Q||_{1,inf} <=
    ||w^e chi_Q||_1, each cube's value is at most U (1 + _SELECT_MARGIN),
    U its row with the L^1 average in place of the weak one, and only the
    cubes whose bound reaches the exact value of the cube of largest U are
    evaluated (``_star_levels``)."""
    level_values = _levels(tag, w, grid, p=p, q=q, r=r)
    if tag in _STARS and isinstance(w, StepFunction):
        levels = _star_levels(level_values, grid)
    else:
        def levels(lev):
            return level_values(lev), None
    best = -INF
    witness = grid.root
    for lev in range(grid.depth + 1):
        if (got := levels(lev)) is None:
            continue
        values, cubes = got
        arr = _zero_inf(np.asarray(values, dtype=float))
        j = int(np.argmax(arr))
        if arr[j] > best:
            best = float(arr[j])
            witness = grid.cube_from_flat(lev, j if cubes is None else int(cubes[j]))
        if math.isinf(best):
            break
    return WeightConstant(tag, best, witness, p=p, q=q, r=r)


# --------------------------------------------------------------------------
# the constants
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightConstant:
    """One weight-class constant: its value, the attaining cube, and context."""

    tag: str
    value: float
    witness: DyadicCube | None
    p: float | None = None
    q: float | None = None
    r: float | None = None

    def to_dict(self) -> dict:
        return {
            "class": self.tag,
            "p": self.p,
            "q": self.q,
            "r": self.r,
            "value": self.value,
            "witness": self.witness.to_dict() if self.witness is not None else None,
        }


def check_exponent_relation(p: float, q: float, alpha: float, n: int):
    """The exponents of a fractional chain: p, q > 0 and 1/p - 1/q = alpha/n
    within 1e-12, where n is the dimension (1 for a power weight)."""
    if not (p > 0 and q > 0):
        raise ValueError(f"exponents must be positive, got p={p}, q={q}")
    gap = 1.0 / p - 1.0 / q
    if not abs(gap - alpha / n) <= 1e-12:
        raise ValueError(f"exponent relation violated: 1/p - 1/q = {gap:g} "
                         f"but alpha/n = {alpha / n:g}")


def _require_fractional(p: float, q: float):
    if not p < q < INF:
        raise ValueError(f"fractional class needs p < q < inf, got p={p}, q={q}")


def ap_constant(w: Weight, p: float, depth: int | None = None) -> WeightConstant:
    """[w]_{A_p} = max_Q <w>_Q <w^{1-p'}>_Q^{p-1} over lattice cubes."""
    conjugate(p)
    return _scan("ap", w, _grid_of(w, depth), p=p)


def a1_constant(w: Weight, depth: int | None = None) -> WeightConstant:
    """[w]_{A_1} = max_Q <w>_Q ess sup_Q w^{-1} (ess sup = max over cells)."""
    return _scan("a1", w, _grid_of(w, depth))


def apq_constant(w: Weight, p: float, q: float, depth: int | None = None) -> WeightConstant:
    """[w]_{A_{p,q}} = max_Q <w^q>_Q^{1/q} <w^{-p'}>_Q^{1/p'}."""
    conjugate(p)
    _require_fractional(p, q)
    return _scan("apq", w, _grid_of(w, depth), p=p, q=q)


def a1q_constant(w: Weight, q: float, depth: int | None = None) -> WeightConstant:
    """[w]_{A_{1,q}} = max_Q <w^q>_Q^{1/q} ess sup_Q w^{-1}."""
    if not 1 < q < INF:
        raise ValueError(f"A_1q needs 1 < q < inf, got {q}")
    return _scan("a1q", w, _grid_of(w, depth), q=q)


# [w]_{RH_r} has degree 0 in w, and the harness's weak-type ratio in w and in
# f, so dividing the function by a power of two changes nothing.  Powers
# within 2^+-_SCALE_BUDGET are left as they are, keeping every such input's
# bits: a product of two, summed over up to 2^60 cells, stays finite and
# normal (2 * 480 + 60 < 1022).
_SCALE_BUDGET = 480


def _unit_scale(values: np.ndarray, power: float) -> np.ndarray:
    """values / 2^e for each row (last axis), exactly.  e = 0 while the
    binary exponents of the row's largest and smallest positive values,
    times ``power``, lie within 2^+-_SCALE_BUDGET.  Otherwise e centres that
    exponent range on 2^0, but never so low that the largest value's power
    leaves the budget: a range too wide to fit loses its smallest values,
    never its largest, to the float range.  Past a power of _SCALE_BUDGET,
    where no scale fits, the largest value goes into [1, 2)."""
    span = int(_SCALE_BUDGET // power)
    hi = np.frexp(values.max(axis=-1, keepdims=True))[1]
    if span == 0:
        e = hi - 1
    else:
        lo = np.frexp(values.min(axis=-1, keepdims=True, where=values > 0, initial=np.inf))[1]
        e = np.where((hi <= span) & (lo >= -span), 0, np.maximum((hi + lo) // 2, hi - span))
    return np.ldexp(values, -e) if e.any() else values


def rh_constant(w: Weight, r: float, depth: int | None = None) -> WeightConstant:
    """[w]_{RH_r} = max_Q <w^r>_Q^{1/r} / <w>_Q; a tabulated w is scaled by
    ``_unit_scale`` for the power r first, and past the scale budget each
    cube's <w^r>_Q^{1/r} is taken relative to its largest value, as is a
    power weight's on a cube where a closed form leaves the float range
    (``_power_values``)."""
    if not 1 < r < INF:
        raise ValueError(f"reverse Hoelder needs 1 < r < inf, got {r}")
    if isinstance(w, StepFunction):
        w = w.with_values(_unit_scale(w.values, r))
    return _scan("rh", w, _grid_of(w, depth), r=r)


def ap_star_constant(w: Weight, p: float, depth: int | None = None) -> WeightConstant:
    """[w]_{A_p^*} = max_Q (1/|Q|) ||w chi_Q||_{1,inf} <w^{1-p'}>_Q^{p-1}."""
    conjugate(p)
    return _scan("ap_star", w, _grid_of(w, depth), p=p)


def apq_star_constant(w: Weight, p: float, q: float, depth: int | None = None) -> WeightConstant:
    """[w]_{A_{p,q}^*} = max_Q ((1/|Q|)||w^q chi_Q||_{1,inf})^{1/q} <w^{-p'}>_Q^{1/p'}."""
    conjugate(p)
    _require_fractional(p, q)
    return _scan("apq_star", w, _grid_of(w, depth), p=p, q=q)


def ap_star_cube_value(pw: PowerWeight, p: float, lo: float, hi: float) -> float:
    """Single-cube A_p^* expression for a power weight, in closed form."""
    row = _ROWS["ap_star"](p, None, None)
    return float(_power_values(row, pw, *_cube_ends(lo, hi))[0])


# --------------------------------------------------------------------------
# dual weights and the lemma constants
# --------------------------------------------------------------------------

def dual_weight(w: Weight, p: float, flavor: str = "ap") -> Weight:
    """sigma = w^{1-p'} (flavor "ap") or w^{-p'} (flavor "apq"), after the
    one check of w > 0; a tabulated sigma must also be finite."""
    if flavor not in ("ap", "apq"):
        raise ValueError(f"flavor must be 'ap' or 'apq', got {flavor!r}")
    e = 1.0 - conjugate(p) if flavor == "ap" else -conjugate(p)
    if not isinstance(w, StepFunction):
        return w ** e
    if np.any(w.values == 0.0):
        raise ValueError("weight has zero cells, where the dual weight sigma is "
                         "infinite; sigma needs w > 0 on every cell")
    with np.errstate(over="ignore"):
        values = w.values ** e
    if not np.all(np.isfinite(values)):
        raise ValueError(f"sigma = w^{e:g} overflows on a cell")
    return StepFunction(w.grid, values)


class SigmaRH(NamedTuple):
    """Subset-inequality constants (c, [sigma]_RH) attached to a star class."""

    c: float
    value: float


def star_constant(w: Weight, p: float, q: float | None = None,
                  depth: int | None = None) -> WeightConstant:
    """The star class of a chain: [w]_{A_p^*} (plain, q None) or
    [w]_{A_{p,q}^*} (fractional, q given)."""
    if q is None:
        return ap_star_constant(w, p, depth=depth)
    return apq_star_constant(w, p, q, depth=depth)


def sigma_rh(star: WeightConstant) -> SigmaRH:
    """The pair (c, [sigma]_RH) in (|E|/|Q|)^{2p'} <= c [sigma]_RH sigma(E)/sigma(Q),
    read off a star constant from star_constant; nothing is scanned.

    Plain flavor: c = 4^{p'/p} and [sigma]_RH = [w]_{A_p^*}^{p'-1} for
    sigma = w^{1-p'}; fractional flavor (star.q given): c = 4^{p'/q} and
    [sigma]_RH = [w]_{A_{p,q}^*}^{p'} for sigma = w^{-p'}.  An infinite star
    constant, or a power past the float range, gives +inf.
    """
    p, q = star.p, star.q
    pc = conjugate(p)
    if q is None:
        return SigmaRH(_power(4.0, pc / p), _power(star.value, pc - 1.0))
    return SigmaRH(_power(4.0, pc / q), _power(star.value, pc))


def sigma_rh_constant(w: Weight, p: float, q: float | None = None,
                      depth: int | None = None) -> SigmaRH:
    """sigma_rh of w's star constant, for callers that do not hold it."""
    return sigma_rh(star_constant(w, p, q, depth))


# --------------------------------------------------------------------------
# weight-spec serialization
# --------------------------------------------------------------------------

def weight_to_dict(w: Weight) -> dict:
    if isinstance(w, StepFunction):
        return {"mode": "tabulated", "step": w.to_dict()}
    return {
        "mode": "power",
        "center": w.center,
        "exponent": w.exponent,
        "root": [w.left, w.right],
    }


def weight_from_dict(d: dict) -> Weight:
    if not isinstance(d, dict):
        raise ValueError(f"weight spec must be a JSON object, got {type(d).__name__}")
    mode = d.get("mode")
    if mode == "tabulated":
        return StepFunction.from_dict(d["step"])
    if mode == "power":
        lo, hi = d["root"]
        return PowerWeight(float(d["center"]), float(d["exponent"]), float(lo), float(hi))
    raise ValueError(f"weight spec field 'mode' must be 'tabulated' or 'power', got {mode!r}")
