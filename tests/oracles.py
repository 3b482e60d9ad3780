"""Reference oracles and property checks, evaluated the slow direct way.

Each one is the reference for a fast library path, and only tests call them:

- one cube's slices of the (2^depth,)*n lattice, and its block of cells,
  mask, integral, average and weak-L^p norm read through them (for every
  per-level and cell-index path);
- the brute-force maximal operator and its per-cube score (for the ancestor
  sweep ``dyadic_maximal``);
- the Lorentz power identity and Hoelder inequality (for ``weak_norm`` and
  ``lorentz_norm``);
- the single-cube re-evaluation of a weight constant, the kernel form of
  A_p^*, and RH_r one cube at a time in logs (for the constant scans);
- a power weight's closed forms one cube at a time in Python floats: its
  moments, weak-L^1 norms, ess sup of w^{-1} and constant rows (taken
  relative to ess sup_Q w where an average leaves the float range), its cell
  averages and its cell masses (for the per-level arrays of ``PowerWeight``),
  and its moments and RH_r constant in decimal arithmetic (for far centres
  and for r past the float range);
- the Chebyshev ordering of the weak and strong multiplier norms, and the
  g chi_Q rows built densely, every row on all N cells with one full sort
  (for the sorted-run engine of ``harness._cube_ratios``);
- the containment scan over every pair of cubes, and the per-union loop
  over seeded cell unions (for the subset inequality of ``lemma_suite``);
- the CZ stopping cubes painted one cube at a time, the sparse family by
  full-lattice masks and its proof-chain sums by per-cube integrals (for
  ``cz_decompose``, ``build_sparse`` and ``sparse_sum``).

``all_cubes`` enumerates the lattice in the library's cube order.

Tests import them as ``from oracles import ...``, as they import conftest.
Oracles may read private library names; they are not library API.
"""

from __future__ import annotations

import decimal
import math
import sys
from typing import NamedTuple

import numpy as np

from weakmax.czsparse import (
    CZDecomposition,
    SparseTrace,
    SparsityError,
    TraceLink,
    _bracket_power,
)
from weakmax import harness
from weakmax.grid import DyadicCube, GridSpec, StepFunction, check_cells, level_value_sums
from weakmax.lorentz import lorentz_norm, weak_norm, weak_scan
from weakmax.operators import (
    MaximalQuery,
    _average_scores,
    _validate,
    dyadic_maximal,
    level_scores,
    running_ancestor_max,
)
from weakmax.weights import (
    INF,
    PowerWeight,
    Weight,
    WeightConstant,
    _ROWS,
    _cell_power,
    _grid_of,
    _levels,
    _zero_inf,
    conjugate,
    dual_weight,
    sigma_rh,
    star_constant,
)


def all_cubes(grid: GridSpec):
    """Iterate every lattice cube, coarse levels first, row-major within."""
    for level in range(grid.depth + 1):
        yield from grid.cells(level)


# --------------------------------------------------------------------------
# one cube's cells
# --------------------------------------------------------------------------

def cell_slices(grid: GridSpec, cube: DyadicCube) -> tuple[slice, ...]:
    """Slices into the (2^depth,)*n value array covering ``cube``."""
    s = 2 ** (grid.depth - cube.level)
    return tuple(slice(i * s, (i + 1) * s) for i in cube.index)


def cube_mask(grid: GridSpec, cube: DyadicCube) -> np.ndarray:
    """Boolean mask over the flat finest-cell array selecting ``cube``."""
    mask = np.zeros((2 ** grid.depth,) * grid.n, dtype=bool)
    mask[cell_slices(grid, cube)] = True
    return mask.reshape(-1)


def cube_block(f: StepFunction, cube: DyadicCube) -> np.ndarray:
    """Values of the cells inside ``cube``, row-major."""
    full = f.values.reshape((2 ** f.grid.depth,) * f.grid.n)
    return full[cell_slices(f.grid, cube)].reshape(-1)


def cube_integral(f: StepFunction, cube: DyadicCube) -> float:
    """Exact integral over ``cube``: sum of cell values times cell measure."""
    return float(cube_block(f, cube).sum()) * f.grid.cell_measure


def cube_average(f: StepFunction, cube: DyadicCube) -> float:
    return cube_integral(f, cube) / f.grid.cube_measure(cube.level)


def cube_weak_norm(f: StepFunction, p: float, cube: DyadicCube) -> float:
    """||f chi_cube||_{p,inf} by the sorted scan of the cube's cells."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    vals = cube_block(f, cube)
    if not np.any(vals > 0):
        return 0.0
    return float(weak_scan(vals, f.grid.cell_measure, p))


# --------------------------------------------------------------------------
# the maximal operators
# --------------------------------------------------------------------------

BRUTE_FORCE_CAP = 4096


def cube_score(f: StepFunction, cube: DyadicCube, query: MaximalQuery) -> float:
    """Score of one cube, via scalar integrals (oracle-grade path)."""
    _validate(f.grid, query)
    grid = f.grid
    s = query.alpha / grid.n
    w = query.weight
    if w is None:
        return grid.cube_measure(cube.level) ** s * cube_average(f, cube)
    w_int = cube_integral(w, cube)
    if w_int == 0.0:
        return 0.0
    return cube_integral(f * w, cube) / w_int * w_int ** s


def brute_force_maximal(f: StepFunction, query: MaximalQuery = MaximalQuery()) -> StepFunction:
    """Enumerate every cube against every cell; oracle for dyadic_maximal."""
    grid = f.grid
    if grid.finest_count > BRUTE_FORCE_CAP:
        raise ValueError(
            f"instance too large for brute force: {grid.finest_count} > {BRUTE_FORCE_CAP}"
        )
    _validate(grid, query)
    out = np.zeros(grid.finest_count)
    shape = (2 ** grid.depth,) * grid.n
    result = out.reshape(shape)
    for cube in all_cubes(grid):
        score = cube_score(f, cube, query)
        sl = cell_slices(grid, cube)
        result[sl] = np.maximum(result[sl], score)
    return f.with_values(result.reshape(-1))


def pointwise_lower_bound_check(f: StepFunction, cube: DyadicCube, query: MaximalQuery) -> bool:
    """Check M f >= score(f, cube) on every cell of cube (true by construction)."""
    maximal = dyadic_maximal(f, query)
    score = cube_score(f, cube, query)
    block = cube_block(maximal, cube)
    return bool(np.all(block >= score - 1e-12 * max(score, 1.0)))


# --------------------------------------------------------------------------
# Lorentz quasi-norms
# --------------------------------------------------------------------------

class CheckResult(NamedTuple):
    ok: bool
    residual: float


def lorentz_quasinorm(f: StepFunction, p: float, q) -> float:
    """Dispatch on q: weak_norm for q = Q_INF, lorentz_norm otherwise."""
    if q == math.inf:
        return weak_norm(f, p)
    return lorentz_norm(f, p, q)


def power_identity_check(f: StepFunction, r: float, p: float, q) -> CheckResult:
    """Verify || |f|^r ||_{p,q} = ||f||^r_{pr,qr} and report the residual."""
    if not (r > 0 and p > 0):
        raise ValueError("exponents must be positive")
    lhs = lorentz_quasinorm(f ** r, p, q)
    rhs = lorentz_quasinorm(f, p * r, q * r) ** r
    scale = max(abs(lhs), abs(rhs), 1e-300)
    residual = abs(lhs - rhs) / scale
    return CheckResult(residual <= 1e-10, residual)


def lorentz_holder_check(f: StepFunction, g: StepFunction, s: float) -> CheckResult:
    """Hoelder for Lorentz spaces: ||fg||_{1,1} <= ||f||_{s,inf} ||g||_{s',1}.

    Returns (holds, slack) with slack = RHS - LHS; the inequality carries
    constant one in the distribution-function normalization used here.
    """
    if f.grid != g.grid:
        raise ValueError("grid mismatch between f and g")
    if not s > 1:
        raise ValueError(f"s must exceed 1, got {s}")
    s_conj = s / (s - 1.0)
    lhs = lorentz_norm(f * g, 1.0, 1.0)
    rhs = weak_norm(f, s) * lorentz_norm(g, s_conj, 1.0)
    slack = rhs - lhs
    ok = slack >= -1e-12 * max(rhs, 1.0)
    return CheckResult(ok, slack)


# --------------------------------------------------------------------------
# weight constants
# --------------------------------------------------------------------------

def cube_center(grid: GridSpec, cube: DyadicCube) -> tuple[float, ...]:
    h = grid.side(cube.level)
    return tuple(c + i * h + h / 2.0 for c, i in zip(grid.root_corner, cube.index))


def cell_centers(grid: GridSpec) -> np.ndarray:
    """(finest_count, n) array of finest-cell centers, row-major."""
    h = grid.side(grid.depth)
    axes = [np.asarray(grid.root_corner)[k] + (np.arange(2 ** grid.depth) + 0.5) * h
            for k in range(grid.n)]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def weight_cube_value(w: Weight, kind: str, cube: DyadicCube, *, p=None, q=None,
                      r=None, depth: int | None = None) -> float:
    """Re-evaluate one constant's per-cube expression at a single cube.

    Runs the same per-level arrays the constant scan used and indexes the
    cube, so a reported witness reproduces its constant bit-for-bit.
    """
    grid = _grid_of(w, depth)
    level_values = _levels(kind, w, grid, p=p, q=q, r=r)
    arr = _zero_inf(np.asarray(level_values(cube.level), dtype=float))
    return float(arr[np.ravel_multi_index(cube.index, (2 ** cube.level,) * grid.n)])


def rh_log_domain_constant(w: StepFunction, r: float) -> float:
    """[w]_{RH_r} one cube at a time, each <w^r>_Q^{1/r} formed in logs from
    the cube's largest log value, so no power of w leaves the float range."""
    best = -INF
    for cube in all_cubes(w.grid):
        vals = cube_block(w, cube)
        avg = cube_average(w, cube)
        if avg == 0.0:
            best = max(best, 0.0)
            continue
        logs = np.log(vals[vals > 0])
        top = float(logs.max())
        log_moment = top + math.log(float(np.exp(r * (logs - top)).sum()) / vals.size) / r
        best = max(best, math.exp(log_moment) / avg)
    return best


def ap_star_kernel_cube_value(w: StepFunction, p: float, cube: DyadicCube) -> float:
    """One cube's kernel-form A_p^* expression: the weak-L^1 norm over the
    whole root of w times the rational kernel centered at the cube, times the
    dual average on the cube.  Kernel sampled at cell centers."""
    if not isinstance(w, StepFunction):
        raise ValueError("kernel constant supports tabulated weights only")
    pc = conjugate(p)
    grid = w.grid
    meas = grid.cube_measure(cube.level)
    x_q = np.asarray(cube_center(grid, cube))
    dist = np.linalg.norm(cell_centers(grid) - x_q, axis=1)
    kernel = meas ** (p - 1.0) / (meas ** p + dist ** p)
    weak = float(weak_scan(w.values * kernel, grid.cell_measure))
    avg_s = float(_cell_power(cube_block(w, cube), 1.0 - pc).sum()) * grid.cell_measure / meas
    value = weak * avg_s ** (p - 1.0)
    return 0.0 if math.isnan(value) else value


def ap_star_kernel_constant(w: Weight, p: float) -> WeightConstant:
    """Kernel form of A_p^*: the cutoff chi_Q is replaced by the rational
    kernel |Q|^{p-1} / (|Q|^p + |x - x_Q|^p), with the weak norm taken over
    the whole root.  Approximation by construction: the kernel is sampled at
    cell centers and the domain is truncated to the root cube.
    """
    if not isinstance(w, StepFunction):
        raise ValueError("kernel constant supports tabulated weights only")
    grid = w.grid
    best = -INF
    witness = grid.root
    for cube in all_cubes(grid):
        value = ap_star_kernel_cube_value(w, p, cube)
        if value > best:
            best = value
            witness = cube
    return WeightConstant("ap_star_kernel", best, witness, p=p)


# --------------------------------------------------------------------------
# power weights, one cube at a time
# --------------------------------------------------------------------------

def _power(base: float, exponent: float) -> float:
    """base ** exponent, +inf where the Python float power overflows."""
    try:
        return base ** exponent
    except OverflowError:
        return INF


def _distance_integral(a: float, d1: float, d2: float, length: float) -> float:
    """int_{d1}^{d2} u^a du for 0 <= d1 < d2 = d1 + length, +inf when
    divergent at 0 or past the float range; far from the center, where the
    library reads the cube length, the same expm1 form."""
    b = a + 1.0
    if d1 == 0.0:
        if a <= -1.0:
            return INF
        return _power(d2, b) / b
    if length * max(1.0, abs(b)) < d1 * 2.0 ** -8:
        lp = math.log1p(length / d1)
        return lp if a == -1.0 else _power(d1, a) * (d1 * math.expm1(b * lp) / b)
    if a == -1.0:
        return math.log(d2 / d1)
    top, bottom = _power(d2, b), _power(d1, b)
    return INF if top == bottom == INF else (top - bottom) / b


def power_moment(pw: PowerWeight, e: float, lo: float, hi: float, unit: float = 1.0) -> float:
    """int_lo^hi (|x - c| / unit)^(exponent * e) dx, +inf when divergent:
    unit times the integral over each side of c, in distances / unit."""
    a = pw.exponent * e
    c = pw.center
    length = (hi - lo) / unit
    if hi <= c:
        return unit * _distance_integral(a, (c - hi) / unit, (c - lo) / unit, length)
    if lo >= c:
        return unit * _distance_integral(a, (lo - c) / unit, (hi - c) / unit, length)
    left, right = (c - lo) / unit, (hi - c) / unit
    return unit * (_distance_integral(a, 0.0, left, left)
                   + _distance_integral(a, 0.0, right, right))


def power_ess_sup_inv(pw: PowerWeight, lo: float, hi: float) -> float:
    """ess sup of w^(-1) = |x-c|^(-exponent) over [lo, hi)."""
    a = pw.exponent
    c = pw.center
    if a == 0.0:
        return 1.0
    dlo, dhi = abs(lo - c), abs(hi - c)
    if a < 0.0:
        return max(dlo, dhi) ** (-a)
    if lo <= c <= hi:
        return INF
    return min(dlo, dhi) ** (-a)


def power_weak_l1(pw: PowerWeight, lo: float, hi: float, power: float = 1.0,
                  unit: float = 1.0) -> float:
    """|| (|x - c| / unit)^(exponent * power) chi_[lo,hi) ||_{L^{1,inf}}: the
    largest (t / unit)^a h(t) over the breakpoints, the interior critical
    points of each affine piece of h, and the t -> 0 limit at the
    singularity.  Where c -+ |lo - c| or c -+ |hi - c| misses the cube's end
    by more than 2^-26 of its length, on a cube off c, the cube is read as
    the distances [near, near + length] instead, as the engine reads it."""
    a = pw.exponent * power
    c = pw.center
    length = hi - lo
    if a == 0.0:
        return length

    dlo, dhi = abs(lo - c), abs(hi - c)
    inside_closure = lo <= c <= hi
    if not inside_closure:
        sign = -1.0 if hi <= c else 1.0
        miss = abs((c + sign * dlo) - lo) + abs((c + sign * dhi) - hi)
        if miss > length * 2.0 ** -26:
            return _one_side_weak_l1(a, min(dlo, dhi), length, unit)

    if a < 0.0:
        def h(t):
            return max(0.0, min(hi, c + t) - max(lo, c - t))
    else:
        def h(t):
            return length - max(0.0, min(hi, c + t) - max(lo, c - t))

    def g(t):
        ht = h(t)
        return _power(t / unit, a) * ht if ht > 0.0 else 0.0

    best = 0.0
    if a < 0.0 and inside_closure:
        v0 = 2.0 if lo < c < hi else 1.0
        if a < -1.0:
            return INF
        if a == -1.0:
            best = v0 * unit

    breaks = sorted({d for d in (dlo, dhi) if d > 0.0})
    for t in breaks:
        best = max(best, g(t))
    edges = [0.0] + breaks
    edges.append(edges[-1] * 2.0 + length)
    for t_lo, t_hi in zip(edges[:-1], edges[1:]):
        top, bottom = t_lo >= hi - c, t_lo >= c - lo
        u = (hi - c) * top + (c - lo) * bottom
        v = 2.0 - top - bottom
        if a > 0.0:
            u, v = length - u, -v
        if a != -1.0 and v != 0.0 and t_lo >= max(lo - c, c - hi):
            t_star = -a * u / ((a + 1.0) * v)
            if t_lo < t_star < t_hi:
                best = max(best, g(t_star))
    return best


def _one_side_weak_l1(a: float, near: float, length: float, unit: float) -> float:
    """sup_t (t / unit)^a h(t) on the distances [near, far], far = near +
    length: for a < 0, h = min(length, t - near)+, largest at far or at the
    critical point a near / (a + 1) (a < -1); for a > 0, h = min(length,
    far - t)+, largest at near or at the critical point a far / (a + 1)."""
    far = near + length
    if a < 0.0:
        t_star = a * near / (a + 1.0) if a < -1.0 else INF
        t, h = (t_star, -near / (a + 1.0)) if t_star < far else (far, length)
    else:
        t_star = a * far / (a + 1.0)
        t, h = (t_star, far / (a + 1.0)) if t_star > near else (near, length)
    return _power(t / unit, a) * h


def _row_value(row: tuple, base) -> float:
    """A row's factors combined left to right; ``base(kind, e)`` is one
    factor's base."""
    value = None
    for kind, e, t in row:
        b = base(kind, e)
        if t == -1.0:
            # <w>_Q = inf is a true divergence: +inf, not inf/inf
            value = INF if b == INF else value / b
            continue
        if t != 1.0:
            b = _power(b, t)
        value = b if value is None else value * b
    return value


def power_cube_value(row: tuple, pw: PowerWeight, lo: float, hi: float) -> float:
    """One cube's row value (a ``weights._ROWS`` entry) for a power weight.
    Where the closed form of an average <w^e>_Q or of a weak average leaves
    the normal float range, the row is taken on w/m with m = ess sup_Q w,
    in distances measured from the center in units of the distance where w
    peaks on Q; unless the exponent is negative and the cube's closure
    holds the center."""
    e, c = pw.exponent, pw.center
    meas = hi - lo

    def plain(kind, s):
        if kind == "avg":
            return power_moment(pw, s, lo, hi) / meas
        if kind == "weak":
            return power_weak_l1(pw, lo, hi, power=s) / meas
        return power_ess_sup_inv(pw, lo, hi)

    closure = lo <= c <= hi
    if (all(sys.float_info.min <= plain(kind, s) < INF for kind, s, _ in row
            if kind in ("avg", "weak")) or (e < 0.0 and closure)):
        return _row_value(row, plain)
    dlo, dhi = abs(lo - c), abs(hi - c)
    near, far = (0.0 if closure else min(dlo, dhi)), max(dlo, dhi)
    peak, least = (far, near) if e > 0.0 else (near, far)

    def relative(kind, s):
        if kind == "avg":
            return power_moment(pw, s, lo, hi, peak) / meas
        if kind == "weak":
            return power_weak_l1(pw, lo, hi, power=s, unit=peak) / meas
        return INF if least == 0.0 else _power(least / peak, -e)

    return _row_value(row, relative)


def power_level_values(kind: str, pw: PowerWeight, grid: GridSpec, level: int, *,
                       p=None, q=None, r=None) -> np.ndarray:
    """One level's row values of a constant, one cube at a time."""
    row = _ROWS[kind](p, q, r)
    h = grid.side(level)
    return np.array([power_cube_value(row, pw, pw.left + i * h, pw.left + (i + 1) * h)
                     for i in range(2 ** level)])


# wide enough to hold the exact difference of any two floats (digits from
# 10^308 down to 10^-1074)
_EXACT = decimal.Context(prec=1400)


def decimal_moment(c: decimal.Decimal, a: decimal.Decimal, lo: decimal.Decimal,
                   hi: decimal.Decimal) -> decimal.Decimal | None:
    """int_lo^hi |x - c|^a dx to at least 40 significant digits, None when
    divergent.  The distances to c are exact, and each side's d2^b - d1^b
    is taken with as many more digits as it cancels, so a center far from
    the cube costs precision, not accuracy."""
    if hi <= c:
        sides = [(_EXACT.subtract(c, hi), _EXACT.subtract(c, lo))]
    elif lo >= c:
        sides = [(_EXACT.subtract(lo, c), _EXACT.subtract(hi, c))]
    else:
        sides = [(decimal.Decimal(0), _EXACT.subtract(c, lo)),
                 (decimal.Decimal(0), _EXACT.subtract(hi, c))]
    b = _EXACT.add(a, 1)
    total = decimal.Decimal(0)
    for d1, d2 in sides:
        if d1 == 0 and a <= -1:
            return None
        with decimal.localcontext() as ctx:
            ctx.prec = 45
            if d1 > 0:
                ctx.prec += max(0, -((d2 - d1) / d1).adjusted()) + max(0, -b.adjusted())
            if a == -1:
                part = (d2 / d1).ln()
            else:
                part = (d2 ** b - (d1 ** b if d1 > 0 else 0)) / b
        total = _EXACT.add(total, part)
    return total


def power_moment_decimal(pw: PowerWeight, e: float, lo: float, hi: float) -> float:
    """``PowerWeight.moment`` in decimal arithmetic, rounded once to a float."""
    D = decimal.Decimal
    total = decimal_moment(D(pw.center), _EXACT.multiply(D(pw.exponent), D(e)), D(lo), D(hi))
    return INF if total is None else float(total)


def power_rh_decimal(pw: PowerWeight, r: float, depth: int) -> float:
    """[w]_{RH_r} of a power weight, each cube's closed-form moments taken in
    decimal arithmetic (``decimal_moment``), whose exponent range holds every
    power of w^r; +inf where w^r is not integrable on a cube."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        D = decimal.Decimal
        c = D(pw.center)

        def average(a, lo, hi):
            # <|x - c|^a> over [lo, hi), None when divergent
            total = decimal_moment(c, a, lo, hi)
            return None if total is None else total / (hi - lo)

        best = -INF
        grid = pw.lattice(depth)
        for level in range(depth + 1):
            h = grid.side(level)
            for i in range(2 ** level):
                lo, hi = D(pw.left + i * h), D(pw.left + (i + 1) * h)
                num = average(D(pw.exponent) * D(r), lo, hi)
                den = average(D(pw.exponent), lo, hi)
                if num is None or den is None:
                    return INF
                best = max(best, float(num ** (1 / D(r)) / den))
        return best


def power_tabulate_values(pw: PowerWeight, depth: int) -> np.ndarray:
    """``PowerWeight.tabulate``'s cell values, one cell at a time."""
    h = pw.lattice(depth).side(depth)
    vals = np.empty(2 ** depth)
    for j in range(2 ** depth):
        lo = pw.left + j * h
        hi = lo + h
        mass = power_moment(pw, 1.0, lo, hi)
        vals[j] = mass / h if math.isfinite(mass) else h / power_moment(pw, -1.0, lo, hi)
    return vals


def power_cell_masses(sigma: PowerWeight, depth: int) -> np.ndarray:
    """sigma's mass on each finest cell, as ``lemma_suite`` forms it."""
    h = sigma.lattice(depth).side(depth)
    return np.array([power_moment(sigma, 1.0, sigma.left + j * h, sigma.left + (j + 1) * h)
                     for j in range(2 ** depth)])


# --------------------------------------------------------------------------
# the harness
# --------------------------------------------------------------------------

def chebyshev_check(f: StepFunction, w: StepFunction, p: float) -> bool:
    """Weak multiplier norm <= strong multiplier norm of M^D f."""
    mf = dyadic_maximal(f)
    weak = weak_norm((w ** (1.0 / p)) * mf, p)
    strong = (float((mf.values ** p * w.values).sum()) * f.grid.cell_measure) ** (1.0 / p)
    return weak <= strong * (1.0 + 1e-12)


def dense_cube_ratios(kernel, suites: np.ndarray, alpha: float) -> np.ndarray:
    """The (S, C) ratios of ``harness._cube_ratios``, unpruned, by building
    every g chi_Q row on all N cells: its maximal function from the closed
    form, one full sort and scan per row in ``kernel``, and its norm summed
    over the whole row.  The rows go to the kernel per chunk of at most
    ``harness.CHUNK_BYTES``, level by level, each chunk's suites in order, so
    the first failing row raises in the order the engine keeps.
    """
    grid = kernel.grid
    n, depth = grid.n, grid.depth
    check_cells(suites)
    _validate(grid, MaximalQuery(alpha))
    s = alpha / n
    cm = grid.cell_measure
    suites = kernel.scale(suites)
    sums = level_value_sums(suites, grid)
    scores = _average_scores(sums, grid, alpha)
    norm_cells = kernel.norm_cells(suites)
    run = [scores[depth]]
    for level in range(depth - 1, -1, -1):
        run.append(np.maximum(scores[level][:, grid.ancestor_index(level)], run[-1]))
    run.reverse()
    cell_coords = np.indices((2 ** depth,) * n).reshape(n, -1)
    # two cubes of one level first share an ancestor b levels up, where b is
    # the bit length of their coordinates' xor, OR-ed over the axes
    bit_length = np.zeros(2 ** depth, dtype=np.intp)
    for b in range(depth):
        bit_length[2 ** b:2 ** (b + 1)] = b + 1
    rows = harness._chunk_rows(grid)
    out = np.full((len(suites), sum(2 ** (level * n) for level in range(depth + 1))), np.nan)
    first = 0
    for level in range(depth + 1):
        meas = [grid.cube_measure(j) for j in range(level + 1)]
        with np.errstate(over="ignore"):
            avg = sums[level][..., None] * cm / np.array(meas)
            C = np.maximum.accumulate(np.array([m ** s for m in meas]) * avg if s else avg, axis=-1)
        # C_Q(level - b) at flat index (level + 1) * i + b, for the i-th cube Q
        tables = np.ascontiguousarray(C[..., ::-1]).reshape(len(suites), -1)
        coords = cell_coords >> (depth - level)
        cube_coords = np.indices((2 ** level,) * n).reshape(n, -1)
        count = cube_coords.shape[1]
        for start in range(0, count, rows):
            chunk = np.arange(start, min(start + rows, count))
            diff = coords[0] ^ cube_coords[0, chunk, None]
            for axis in range(1, n):
                diff |= coords[axis] ^ cube_coords[axis, chunk, None]
            up = bit_length.take(diff)  # levels from Q up to the cube holding x and Q
            on_q = up == 0
            up += (level + 1) * chunk[:, None]
            for ratios, level_sums, table, run_g, norm_g in zip(
                    out, sums[level], tables, run[level], norm_cells):
                live = level_sums[chunk] > 0
                if not live.any():
                    continue
                at, on = (up, on_q) if live.all() else (up[live], on_q[live])
                mf = table.take(at)
                np.maximum(mf, run_g, out=mf, where=on)
                ratios[first + chunk[live]] = kernel(mf, np.where(on, norm_g, 0.0).sum(axis=-1))
        first += count
    return out


def random_cell_union(rng: np.random.Generator, cells: np.ndarray) -> np.ndarray:
    """Nonempty random subset of the given flat cell indices, one union per
    call: the draws ``harness._UnionStream`` reads in chunks."""
    keep = rng.random(cells.size) < rng.uniform(0.1, 0.9)
    if not keep.any():
        keep[rng.integers(cells.size)] = True
    return cells[keep]


def _lemma_ratios(w: Weight, p: float, q: float | None, depth: int | None):
    """The lattice, and for a cube Q its cells and the subset ratio
    (|E|/|Q|)^{2p'} / (c [sigma]_RH sigma(E)/sigma(Q)) of a set E of cells."""
    pc = conjugate(p)
    lat = _grid_of(w, depth)
    c_lemma, rh_value = sigma_rh(star_constant(w, p, q, depth))
    sigma = dual_weight(w, p, "ap" if q is None else "apq")
    if isinstance(sigma, PowerWeight):
        cell_mass = power_cell_masses(sigma, depth)
    else:
        cell_mass = sigma.values * lat.cell_measure

    def ratios_in(cube):
        q_cells = np.flatnonzero(lat.cell_mask(cube))
        sigma_q = float(cell_mass[q_cells].sum())
        q_meas = lat.cube_measure(cube.level)

        def subset_ratio(e_cells):
            e_meas = e_cells.size * lat.cell_measure
            sigma_e = float(cell_mass[e_cells].sum())
            lhs = (e_meas / q_meas) ** (2.0 * pc)
            rhs = c_lemma * rh_value * sigma_e / sigma_q
            return lhs / rhs if rhs > 0 else math.inf
        return q_cells, subset_ratio
    return lat, ratios_in


def lemma_subcube_scan(w: Weight, p: float, q: float | None = None,
                       depth: int | None = None) -> tuple[float, int]:
    """The dyadic subcubes of part (ii) of ``lemma_suite`` by the containment
    scan: every pair of cubes is tested with ``GridSpec.contains``, and each
    subcube is one masked sum.  Returns (worst subset ratio, checks)."""
    lat, ratios_in = _lemma_ratios(w, p, q, depth)
    worst, checks = 0.0, 0
    for cube in all_cubes(lat):
        _, subset_ratio = ratios_in(cube)
        for sub in all_cubes(lat):
            if lat.contains(cube, sub):
                worst = max(worst, subset_ratio(np.flatnonzero(lat.cell_mask(sub))))
                checks += 1
    return worst, checks


def lemma_union_scan(w: Weight, p: float, q: float | None = None, seed: int = 0,
                     n_random: int = 64, depth: int | None = None) -> tuple[float, int]:
    """The seeded cell unions of part (ii) of ``lemma_suite`` by the
    per-union loop: n_random ``random_cell_union`` draws per cube, in lattice
    order, each one masked sum.  Returns (worst subset ratio, checks)."""
    lat, ratios_in = _lemma_ratios(w, p, q, depth)
    rng = np.random.default_rng(seed)
    worst, checks = 0.0, 0
    for cube in all_cubes(lat):
        q_cells, subset_ratio = ratios_in(cube)
        for _ in range(n_random):
            worst = max(worst, subset_ratio(random_cell_union(rng, q_cells)))
            checks += 1
    return worst, checks


# --------------------------------------------------------------------------
# the CZ sparse family
# --------------------------------------------------------------------------

class MaskEntry(NamedTuple):
    """A sparse entry with E as a full-lattice boolean mask."""
    k: int
    j: int
    cube: DyadicCube
    e_mask: np.ndarray


def cz_stopping_cubes(f: StepFunction, a: float | None = None, alpha: float = 0.0):
    """``cz_decompose``'s (k_min, k_max, cubes, omega_mask) by the per-cube
    loop: at each level the selected cubes are made one at a time with
    ``cube_from_flat`` and painted into a lattice canvas through their
    slices, and the canvas is Omega_k."""
    grid = f.grid
    query = MaximalQuery(alpha)
    if a is None:
        a = 2.0 ** (grid.n + 1 - alpha)
    if not np.any(f.values > 0):
        return 0, -1, {}, {}
    scores = level_scores(f, query)
    max_vals = running_ancestor_max(scores, grid)
    k_min = _bracket_power(a, float(max_vals.min()), strictly_below=True)
    k_max = _bracket_power(a, float(max_vals.max()), strictly_below=False)
    cubes, omega_mask = {}, {}
    for k in range(k_min, k_max + 1):
        lam = a ** k
        selected = []
        canvas = np.zeros((2 ** grid.depth,) * grid.n, dtype=bool)
        active = np.ones((1,) * grid.n, dtype=bool)
        for lev in range(grid.depth + 1):
            sel = active & (scores[lev].reshape((2 ** lev,) * grid.n) > lam)
            for flat in np.flatnonzero(sel.reshape(-1)):
                cube = grid.cube_from_flat(lev, int(flat))
                selected.append(cube)
                canvas[cell_slices(grid, cube)] = True
            if lev < grid.depth:
                carry = active & ~sel
                for axis in range(grid.n):
                    carry = np.repeat(carry, 2, axis=axis)
                active = carry
        cubes[k] = selected
        omega_mask[k] = canvas.reshape(-1)
    return k_min, k_max, cubes, omega_mask


def sparse_masks(dec: CZDecomposition) -> list[MaskEntry]:
    """``build_sparse`` by masks: E_{k,j} = cube_mask(Q_{k,j}) minus
    Omega_{k+1}, with the same |Q| <= 2|E| and overlap checks and errors."""
    grid = dec.f.grid
    entries = []
    taken = np.zeros(grid.finest_count, dtype=bool)
    for k in range(dec.k_min, dec.k_max + 1):
        next_mask = dec.omega_mask.get(k + 1)
        for j, cube in enumerate(dec.cubes.get(k, [])):
            q_mask = cube_mask(grid, cube)
            e_mask = q_mask if next_mask is None else q_mask & ~next_mask
            q_meas = grid.cube_measure(cube.level)
            e_meas = float(e_mask.sum()) * grid.cell_measure
            if q_meas > 2.0 * e_meas:
                raise SparsityError(
                    f"sparsity violated at k={k}, Q={cube}: |Q|={q_meas} > 2|E|={2 * e_meas}"
                )
            if np.any(taken & e_mask):
                raise SparsityError(f"E sets overlap at k={k}, Q={cube} (bug)")
            taken |= e_mask
            entries.append(MaskEntry(k, j, cube, e_mask))
    return entries


def sparse_sum_by_cube(dec: CZDecomposition, entries: list[MaskEntry], w: StepFunction,
                       sigma: StepFunction, p: float, q: float | None = None) -> SparseTrace:
    """``sparse_sum`` with per-cube integrals, averages and weak norms, and
    sigma(E) read through each entry's mask."""
    f = dec.f
    grid = f.grid
    a, alpha = dec.a, dec.alpha
    pc = conjugate(p)
    fractional = q is not None
    s = q if fractional else p
    g = f.with_values(np.divide(f.values, sigma.values,
                                out=np.zeros_like(f.values), where=sigma.values > 0))
    m_sigma = dyadic_maximal(g, MaximalQuery(alpha, sigma))
    w_s = w ** q if fractional else w
    star = star_constant(w, p, q)
    c_lemma, rh = sigma_rh(star)

    t0 = weak_norm(w_s * (dec.maximal ** s), 1.0)
    t1 = t2 = t3 = t4 = 0.0
    for entry in entries:
        cube = entry.cube
        lam_next = a ** (entry.k + 1)
        wk = cube_weak_norm(w_s, 1.0, cube)
        score = grid.cube_measure(cube.level) ** (alpha / grid.n) * cube_average(f, cube)
        sig_q = cube_integral(sigma, cube)
        avg_sigma = cube_integral(f, cube) / sig_q
        sig_e = float(sigma.values[entry.e_mask].sum()) * grid.cell_measure
        t1 += lam_next ** s * wk
        t2 += score ** s * wk
        if fractional:
            t3 += avg_sigma ** q * sig_q ** (q - q / pc)
            t4 += (sig_q ** (alpha / grid.n) * avg_sigma) ** q * sig_e
        else:
            t3 += avg_sigma ** p * sig_q
            t4 += avg_sigma ** p * sig_e
    t5 = float((m_sigma.values ** s * sigma.values).sum()) * grid.cell_measure

    links = [
        TraceLink("weak_norm_vs_level_sum", t0, t1, 1.0),
        TraceLink("level_to_stopping_average", t1, t2, a ** s),
        TraceLink("multiplier_class_dualization", t2, t3, star.value ** s if fractional else star.value),
        TraceLink("sigma_reverse_holder", t3, t4, c_lemma * 4.0 ** pc * rh),
        TraceLink("disjoint_sparse_energy", t4, t5, 1.0),
    ]
    if fractional:
        target = (float((f.values ** p * w.values ** p).sum()) * grid.cell_measure) ** (q / p)
        links.append(TraceLink("weighted_maximal_bootstrap", t5, target, None))
    else:
        target = float((f.values ** p * w.values).sum()) * grid.cell_measure
        links.append(TraceLink("weighted_maximal_bootstrap", t5, target, pc ** p))
    return SparseTrace(links)
