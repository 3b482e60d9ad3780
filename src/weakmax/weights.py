"""Weight constants over the dyadic lattice, dual weights, and a 1-D
analytic power-weight engine.

Tabulated weights are StepFunctions; every constant is the exact maximum of
its per-cube expression over the lattice cubes, with the attaining cube
returned as witness.  The multiplier classes replace the L^1 average of w
(or w^q) on a cube by its weak-L^1 quasi-norm restricted to the cube.

The power engine evaluates w(x) = |x - center|^exponent on an interval with
closed-form cube integrals, essential suprema and weak-L^1 norms, so weights
like |x|^(-1) can be probed without discretization: divergent integrals
produce +inf as a first-class value, never an exception.  Throughout, the
0 * inf = 0 convention applies to degenerate products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

from .grid import DyadicCube, GridSpec, StepFunction, cube_blocks, level_value_sums
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

def _distance_integral(a: float, d1: float, d2: float) -> float:
    """int_{d1}^{d2} u^a du for 0 <= d1 < d2, +inf when divergent at 0."""
    if d1 == 0.0:
        if a <= -1.0:
            return INF
        return d2 ** (a + 1.0) / (a + 1.0)
    if a == -1.0:
        return math.log(d2 / d1)
    return (d2 ** (a + 1.0) - d1 ** (a + 1.0)) / (a + 1.0)


@dataclass(frozen=True)
class PowerWeight:
    """w(x) = |x - center|^exponent on the root interval [left, right)."""

    center: float
    exponent: float
    left: float
    right: float

    def __post_init__(self):
        if not self.right > self.left:
            raise ValueError("empty root interval")

    def lattice(self, depth: int) -> GridSpec:
        return GridSpec(1, (self.left,), self.right - self.left, depth)

    def __pow__(self, e: float) -> "PowerWeight":
        """w^e, again a power weight."""
        return PowerWeight(self.center, self.exponent * e, self.left, self.right)

    def moment(self, e: float, lo: float, hi: float) -> float:
        """int_lo^hi |x - c|^(exponent * e) dx, +inf when divergent."""
        a = self.exponent * e
        c = self.center
        if hi <= c:
            return _distance_integral(a, c - hi, c - lo)
        if lo >= c:
            return _distance_integral(a, lo - c, hi - c)
        return _distance_integral(a, 0.0, c - lo) + _distance_integral(a, 0.0, hi - c)

    def integral(self, lo: float, hi: float) -> float:
        return self.moment(1.0, lo, hi)

    def ess_sup_inv(self, lo: float, hi: float) -> float:
        """ess sup of w^(-1) = |x-c|^(-exponent) over [lo, hi)."""
        a = self.exponent
        c = self.center
        if a == 0.0:
            return 1.0
        dlo, dhi = abs(lo - c), abs(hi - c)
        if a < 0.0:
            return max(dlo, dhi) ** (-a)
        if lo <= c <= hi:
            return INF
        return min(dlo, dhi) ** (-a)

    def weak_l1(self, lo: float, hi: float, power: float = 1.0) -> float:
        """|| w^power chi_[lo,hi) ||_{L^{1,inf}} in closed form.

        With t the distance threshold (lam = t^a), the superlevel measure
        h(t) is piecewise affine with breakpoints at the endpoint distances,
        so sup_t t^a h(t) is attained at a breakpoint, at an interior critical
        point t* = -a u / ((a+1) v) of an affine piece h = u + v t, or in the
        t -> 0 limit at the singularity.
        """
        a = self.exponent * power
        c = self.center
        length = hi - lo
        if a == 0.0:
            return length

        dlo, dhi = abs(lo - c), abs(hi - c)
        inside_closure = lo <= c <= hi

        if a < 0.0:
            def h(t):
                return max(0.0, min(hi, c + t) - max(lo, c - t))
        else:
            def h(t):
                return length - max(0.0, min(hi, c + t) - max(lo, c - t))

        def g(t):
            ht = h(t)
            return t ** a * ht if ht > 0.0 else 0.0

        best = 0.0
        if a < 0.0 and inside_closure:
            # h(t) = v0 * t near 0, so g -> v0 * t^(a+1).
            v0 = 2.0 if lo < c < hi else 1.0
            if a < -1.0:
                return INF
            if a == -1.0:
                best = v0

        breaks = sorted({d for d in (dlo, dhi) if d > 0.0})
        for t in breaks:
            best = max(best, g(t))
        # Interior critical points of each affine piece of h where the ball
        # meets [lo, hi]: each end of the overlap is pinned at hi or lo or moves
        # with t, read from the exact breakpoint distances (c +- t_lo rounds).
        edges = [0.0] + breaks
        edges.append(edges[-1] * 2.0 + length)
        for t_lo, t_hi in zip(edges[:-1], edges[1:]):
            top, bottom = t_lo >= hi - c, t_lo >= c - lo  # ends pinned at hi, lo
            u = (hi - c) * top + (c - lo) * bottom
            v = 2.0 - top - bottom
            if a > 0.0:
                u, v = length - u, -v
            if a != -1.0 and v != 0.0 and t_lo >= max(lo - c, c - hi):
                t_star = -a * u / ((a + 1.0) * v)
                if t_lo < t_star < t_hi:
                    best = max(best, g(t_star))
        # Beyond the last breakpoint h is constant: g decays for a < 0 and
        # vanishes for a > 0 (the ball swallowed the interval), so no further
        # candidates arise past the last edge.
        return best

    def tabulate(self, depth: int) -> StepFunction:
        """Exact cell averages; a cell with divergent integral falls back to
        the harmonic regularization 1 / <w^{-1}>_cell (always finite here,
        since |x-c|^a and |x-c|^(-a) cannot both be non-integrable)."""
        grid = self.lattice(depth)
        h = grid.side(depth)
        vals = np.empty(grid.finest_count)
        for j in range(grid.finest_count):
            lo = self.left + j * h
            hi = lo + h
            mass = self.integral(lo, hi)
            if math.isfinite(mass):
                vals[j] = mass / h
            else:
                vals[j] = h / self.moment(-1.0, lo, hi)
        return StepFunction(grid, vals)


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
    # 0^e for e < 0 is +inf here (zero cells make the dual mass divergent),
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


_ROWS = {
    "ap": lambda p, q, r: (("avg", 1.0, 1.0), _dual_ap(p)),
    "a1": lambda p, q, r: (("avg", 1.0, 1.0), _ESSSUP_INV),
    "apq": lambda p, q, r: (("avg", q, 1.0 / q), _dual_apq(p)),
    "a1q": lambda p, q, r: (("avg", q, 1.0 / q), _ESSSUP_INV),
    "rh": lambda p, q, r: (("avg", r, 1.0 / r), ("avg", 1.0, -1.0)),
    "ap_star": lambda p, q, r: (("weak", 1.0, 1.0), _dual_ap(p)),
    "apq_star": lambda p, q, r: (("weak", q, 1.0 / q), _dual_apq(p)),
}


def _evaluate(row: tuple, factor):
    """Combine a row's factors left to right; ``factor(kind, e, t)`` returns
    the backend's (base, t) for one factor, on per-level arrays or on one
    cube's floats.  The backend may override t: the tabulated ess sup of
    w^{-1} is a division by min w."""
    value = None
    for kind, e, t in row:
        base, t = factor(kind, e, t)
        if t == -1.0:
            if isinstance(base, np.ndarray):
                value = value / base
            else:
                # A power weight's <w>_Q = inf is a true divergence (RH_r's
                # numerator diverges with it): +inf, not inf/inf read as 0.
                value = INF if base == INF else value / base
            continue
        if t != 1.0:
            base = base ** t
        value = base if value is None else value * base
    return value


def _tabulated_levels(row: tuple, w: StepFunction, grid: GridSpec):
    """Per-level arrays of a row for a tabulated weight.  Each w^e is taken
    once; levels are evaluated lazily, so a scan can stop at +inf."""
    vals = w.values
    data = {}
    for kind, e, _ in row:
        if kind == "avg":
            data[kind, e] = level_value_sums(_cell_power(vals, e), grid)
        elif kind == "weak":
            data[kind, e] = _cell_power(vals, e)

    def level_values(lev):
        meas = grid.cube_measure(lev)

        def factor(kind, e, t):
            if kind == "avg":
                return data[kind, e][lev] * grid.cell_measure / meas, t
            if kind == "weak":
                blocks = cube_blocks(data[kind, e], grid, lev)
                return weak_scan(blocks, grid.cell_measure) / meas, t
            return cube_blocks(vals, grid, lev).min(axis=1), -1.0

        with np.errstate(divide="ignore", invalid="ignore"):
            return _evaluate(row, factor)
    return level_values


def _power_cube_value(row: tuple, pw: PowerWeight, lo: float, hi: float) -> float:
    """One cube's row value for a power weight, in Python float arithmetic."""
    meas = hi - lo

    def factor(kind, e, t):
        if kind == "avg":
            return pw.moment(e, lo, hi) / meas, t
        if kind == "weak":
            return pw.weak_l1(lo, hi, power=e) / meas, t
        return pw.ess_sup_inv(lo, hi), t

    return _evaluate(row, factor)


def _levels(kind: str, w: Weight, grid: GridSpec, p=None, q=None, r=None):
    """Build the per-level array closure for one constant's cube expression."""
    if kind not in _ROWS:
        raise ValueError(f"unknown constant kind {kind!r}")
    row = _ROWS[kind](p, q, r)
    if isinstance(w, StepFunction):
        return _tabulated_levels(row, w, grid)

    def level_values(lev):
        h = grid.side(lev)
        return np.array([_power_cube_value(row, w, w.left + i * h, w.left + (i + 1) * h)
                         for i in range(2 ** lev)])
    return level_values


def _scan(tag: str, w: Weight, grid: GridSpec, *, p=None, q=None, r=None) -> "WeightConstant":
    level_values = _levels(tag, w, grid, p=p, q=q, r=r)
    best = -INF
    witness = grid.root
    for lev in range(grid.depth + 1):
        arr = _zero_inf(np.asarray(level_values(lev), dtype=float))
        j = int(np.argmax(arr))
        if arr[j] > best:
            best = float(arr[j])
            witness = grid.cube_from_flat(lev, j)
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


def rh_constant(w: Weight, r: float, depth: int | None = None) -> WeightConstant:
    """[w]_{RH_r} = max_Q <w^r>_Q^{1/r} / <w>_Q."""
    if not 1 < r < INF:
        raise ValueError(f"reverse Hoelder needs 1 < r < inf, got {r}")
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
    return _power_cube_value(_ROWS["ap_star"](p, None, None), pw, lo, hi)


# --------------------------------------------------------------------------
# dual weights and the lemma constants
# --------------------------------------------------------------------------

def dual_weight(w: Weight, p: float, flavor: str = "ap") -> Weight:
    """sigma = w^{1-p'} (flavor "ap") or w^{-p'} (flavor "apq")."""
    pc = conjugate(p)
    if flavor == "ap":
        e = 1.0 - pc
    elif flavor == "apq":
        e = -pc
    else:
        raise ValueError(f"flavor must be 'ap' or 'apq', got {flavor!r}")
    if isinstance(w, StepFunction) and np.any(w.values <= 0.0):
        raise ValueError("dual weight needs strictly positive cell values")
    return w ** e


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


def _power(base: float, exponent: float) -> float:
    """base ** exponent, +inf where the Python float power overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return math.inf


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
