"""End-to-end verification of the multiplier weak-type characterization.

The harness measures the weak-type ratio

    plain       ||w^{1/p} M^D f||_{p,inf} / ||f||_{L^p(w)}
    fractional  ||w M_alpha^D f||_{q,inf} / ||f||_{L^p(w^p)}

over structured function suites, compares against the quantitative
sufficiency bounds, exercises the test-function lower bound behind the
necessity theorems, and runs the reverse-Hoelder lemma inequalities with
their explicit constants.  Everything is seeded and deterministic; reports
serialize to JSON and flatten to CSV rows.
"""

from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cuberows import _SELECT_MARGIN, CubeRows
from .grid import DyadicCube, GridSpec, StepFunction, _level_starts, check_cells, cube_blocks
from .lorentz import _descending_counts, _sorted_scan
from .operators import MaximalQuery, _batch_maximal, _validate
from .weights import (
    PowerWeight,
    SigmaRH,
    Weight,
    WeightConstant,
    _grid_of,
    _unit_scale,
    ap_constant,
    apq_constant,
    check_exponent_relation,
    conjugate,
    dual_weight,
    sigma_rh,
    star_constant,
)

RATIO_TOL = 1e-9
S_VALUES = (1.5, 2.0, 3.0)  # the root powers w^{1/s} in lemma_suite's membership check


@dataclass
class VerificationReport:
    """Outcome of one harness run: measured vs. theoretical, with witnesses."""

    context: dict
    measured_ratio: float
    theoretical_bound: float
    normalized: float
    witnesses: dict
    verdict: bool
    tolerance_factor: float
    trace: dict | None = None
    per_cube: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "context": self.context,
            "measured_ratio": self.measured_ratio,
            "theoretical_bound": self.theoretical_bound,
            "normalized": self.normalized,
            "witnesses": self.witnesses,
            "verdict": bool(self.verdict),
            "tolerance_factor": self.tolerance_factor,
            "trace": self.trace,
            "per_cube": self.per_cube,
        }


# --------------------------------------------------------------------------
# seeded suites
# --------------------------------------------------------------------------

# Cap on one float array of a suite chunk: a (B, N) array of random rows, or
# a temporary of the cube rows (their on-Q runs, the cells they select, the
# nodes their norms sum).  Chunks of 64-128 KiB were the fastest, and peak
# memory grows only above 128 KiB: large enough that numpy's per-call
# overhead is spread over many rows, small enough that the chunk and its
# intermediates stay in cache.
CHUNK_BYTES = 128 * 1024


def _chunk_rows(grid: GridSpec) -> int:
    return max(1, CHUNK_BYTES // (8 * grid.finest_count))


def _lognormal(rng: np.random.Generator, shape) -> np.ndarray:
    return np.exp(rng.normal(0.0, 1.2, shape))


def random_step(grid: GridSpec, rng: np.random.Generator, kind: str = "lognormal") -> StepFunction:
    """Seeded nonnegative step function; lognormal values span several scales
    so maximal level sets are nontrivial."""
    size = grid.finest_count
    if kind == "uniform":
        vals = rng.uniform(0.0, 1.0, size)
    elif kind == "lognormal":
        vals = _lognormal(rng, size)
    elif kind == "spiky":
        vals = rng.uniform(0.0, 0.2, size)
        spikes = max(1, size // 16)
        idx = rng.choice(size, size=spikes, replace=False)
        vals[idx] = rng.uniform(2.0, 10.0, spikes)
    else:
        raise ValueError(f"unknown suite kind {kind!r}")
    return StepFunction(grid, vals)


def random_weight(grid: GridSpec, rng: np.random.Generator, log_spread: float = 0.8) -> StepFunction:
    """Seeded strictly positive weight with moderate dynamic range."""
    vals = np.exp(rng.normal(0.0, log_spread, grid.finest_count))
    return StepFunction(grid, np.clip(vals, 1e-3, 1e3))


# --------------------------------------------------------------------------
# the measured ratio
# --------------------------------------------------------------------------

def _require_alpha(alpha: float, p: float, q: float | None, n: int):
    """alpha's domain, then q and, for any q given, 1/p - 1/q = alpha/n."""
    MaximalQuery(alpha)
    if q is None and alpha != 0.0:
        raise ValueError(f"alpha = {alpha} needs q, the fractional exponent with "
                         "1/p - 1/q = alpha/n; the plain ratio (q None) takes alpha = 0")
    if q is not None:
        check_exponent_relation(p, q, alpha, n)


_DEGENERATE = "degenerate input: ||f|| vanishes in the weighted norm"
_OVERFLOW = ("overflow: the weighted maximal function, its weak norm or ||f|| passes the "
             "float range (cell values must be finite)")
_TOO_WIDE = ("the weight's range is too wide for the float range of its powers: "
             "||f|| > 0, but its weighted integrand underflows to 0")


class _RatioKernel:
    """The weak-type ratio of every suite row against one weight, built once
    per call and applied per chunk.

    Built once: the weight, scaled by ``_unit_scale``; its numerator power
    w^(1/p) (plain) or w (fractional); the norm weight w (plain) or w^p
    (fractional); and the scan counts, the descending rank counts of
    ``lorentz.weak_scan``.  Each suite's values go through ``scale`` before
    any power, so no change of scale alone takes a power of w or of f out of
    the float range, and one weak-norm route suffices.  Per chunk of swept
    rows (``__call__``), each row is formed, sorted and scanned in place
    once; the cube rows (``cuberows.CubeRows``) bring their own scans.
    Both end in ``finish``, the checks of a single function.
    """

    def __init__(self, w_tab: StepFunction, p: float, q: float | None):
        r = p if q is None else q
        if not r > 0:
            raise ValueError(f"p must be positive, got {r}")
        w = _unit_scale(w_tab.values, max(1.0, 1.0 / p) if q is None else max(1.0, p))
        if q is None:
            self.direct_w, self.norm_w = w ** (1.0 / p), w
        else:
            self.direct_w, self.norm_w = w, w ** p
        self.grid, self.p, self.r = w_tab.grid, p, r
        self.counts = _descending_counts(w.size, self.grid.cell_measure, r)

    def scale(self, values: np.ndarray) -> np.ndarray:
        """Each row of suite values by ``_unit_scale`` for its powers f and f^p."""
        return _unit_scale(values, max(1.0, self.p))

    def norm_cells(self, values: np.ndarray) -> np.ndarray:
        """Cell integrands of ||f||^p: f^p w (plain) or f^p w^p (fractional)."""
        return values ** self.p * self.norm_w

    def __call__(self, mf: np.ndarray, den_sums: np.ndarray) -> list[float]:
        """Weak-type ratio of every row, from its (B, N) maximal function mf
        and the cell sum of its norm integrand; mf is left unchanged.  The
        rows are checked by ``finish``, which raises here."""
        with np.errstate(over="ignore"):  # an overflowed row fails in finish
            direct = self.direct_w * mf
            direct.sort(axis=-1)
            nums = _sorted_scan(direct, self.counts)
        out, error = self.finish(nums, den_sums, lambda i: mf[i].max() > 0.0)
        if error:
            raise ValueError(error)
        return out

    def finish(self, nums: np.ndarray, den_sums: np.ndarray,
               positive) -> tuple[list[float], str | None]:
        """The ratios of rows in order, from each row's weak norm and norm
        sum, up to the first failing row, and that row's error message (None
        if no row fails); ``positive(i)`` tells whether row i's maximal
        function has a positive cell, and is asked only of a row whose norm
        vanishes.

        The weak norm and the weighted norm must be finite, and the norm
        must not vanish.  The rows' cells are checked finite before any
        sweep, so a value past the float range here is an overflow, and the
        error names it; a numerator cell past it leaves the weak norm past
        it too (inf or nan times a count is inf or nan).  The final 1/p
        power is a Python-float power, which numpy's array power does not
        always match to the last bit.
        """
        cm = self.grid.cell_measure
        out = []
        for num, den_sum in zip(nums.tolist(), den_sums.tolist()):
            den = (den_sum * cm) ** (1.0 / self.p)
            if not (math.isfinite(den) and math.isfinite(num)):
                return out, _OVERFLOW
            if den == 0.0:
                return out, _TOO_WIDE if positive(len(out)) else _DEGENERATE
            out.append(num / den)
        return out, None


def _ratios(F: np.ndarray, kernel: _RatioKernel, alpha: float) -> list[float]:
    """Weak-type ratio of every row of the (B, N) cell array F, each row
    swept by ``_batch_maximal``; the rows must be finite and nonnegative."""
    check_cells(F)
    F = kernel.scale(F)
    mf = _batch_maximal(F, kernel.grid, alpha)
    return kernel(mf, kernel.norm_cells(F).sum(axis=-1))


def multiplier_ratio(f: StepFunction, w: StepFunction, p: float,
                     alpha: float = 0.0, q: float | None = None) -> float:
    """Weak-type ratio of f against the multiplier weight w.

    Plain: ||w^{1/p} M^D f||_{p,inf} / (int f^p w)^{1/p}.  Fractional
    (q given): ||w M_alpha^D f||_{q,inf} / (int f^p w^p)^{1/p}.

    One route: the direct weak norm, one sort of the row, with f and w each
    scaled by ``_unit_scale`` (see ``_RatioKernel``).
    """
    if w.grid != f.grid:
        raise ValueError("weight grid does not match f")
    _require_alpha(alpha, p, q, w.grid.n)
    return _ratios(f.values[None, :], _RatioKernel(w, p, q), alpha)[0]


# --------------------------------------------------------------------------
# sufficiency / necessity
# --------------------------------------------------------------------------

class _Resolved(NamedTuple):
    """A weight resolved for the two checks: its star constant, sigma-RH pair,
    ratio kernel (of the tabulated w), tabulated sigma, and backend name."""

    star: WeightConstant
    rh: SigmaRH
    kernel: _RatioKernel
    sigma_tab: StepFunction
    mode: str


def _tabulated(pw: PowerWeight, depth: int | None, name: str) -> StepFunction:
    """pw's cell averages or, where one is 0 or +inf, those of w / u^exponent, u = 2^k
    near the root's farthest distance from c: the ratio has degree 0 in w and in f.
    A +inf left there is a named error (``name`` is "w" or "sigma")."""
    with suppress(ValueError):  # "cell values must be finite"
        if (tab := pw.tabulate(depth)).values.all():
            return tab
    far = max(abs(pw.left - pw.center), abs(pw.right - pw.center))
    values = pw._cell_averages(depth, math.ldexp(0.5, math.frexp(far)[1]))
    if not np.isfinite(values).all():
        raise ValueError(f"{name} = |x - {pw.center:g}|^{pw.exponent:g} has a cell average "
                         f"past the float range at depth {depth}")
    return StepFunction(pw.lattice(depth), values)


def _resolve_weight(w: Weight, p: float, alpha: float, q: float | None,
                    depth: int | None) -> _Resolved:
    """Check a harness call before any scan, then resolve its weight.  Power
    mode runs with analytic constants and exactly tabulated w and sigma (each
    from its own closed-form cell integrals).  One kernel serves every row."""
    _require_alpha(alpha, p, q, 1 if isinstance(w, PowerWeight) else w.grid.n)
    sigma = dual_weight(w, p, "ap" if q is None else "apq")
    star = star_constant(w, p, q, depth)
    rh = sigma_rh(star)
    if isinstance(w, PowerWeight):
        return _Resolved(star, rh, _RatioKernel(_tabulated(w, depth, "w"), p, q),
                         _tabulated(sigma, depth, "sigma"), "power")
    return _Resolved(star, rh, _RatioKernel(w, p, q), sigma, "tabulated")


def _require_suite(n_random: int, seed: int, c_desk: float | None = None):
    if n_random < 0:
        raise ValueError(f"n_random must be >= 0, got {n_random}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if c_desk is not None and not 0 < c_desk < math.inf:
        raise ValueError(f"c_desk must be positive and finite, got {c_desk}")


def _lattice_cube(grid: GridSpec, pos: int) -> DyadicCube:
    """The cube at position pos of the lattice order: level by level,
    row-major in the cube index within a level."""
    starts = _level_starts(grid)
    level = int(np.searchsorted(starts, pos, side="right")) - 1
    return grid.cube_from_flat(level, pos - int(starts[level]))


def _cube_ratios(kernel: _RatioKernel, suites: np.ndarray, alpha, prune: bool = False) -> np.ndarray:
    """For each suite g, a row of the (S, N) array ``suites``, the ratio of
    g chi_Q for every lattice cube Q in lattice order (``_lattice_cube``), nan
    where g vanishes on Q: an (S, C) array.

    M_alpha^D(g chi_Q) has a closed form, so one sweep of g serves every row.
    For Q at level l with ancestors A_j (j <= l, A_l = Q), g chi_Q scores

        c_Q(j) = |A_j|^(alpha/n) g(Q) / |A_j|,   g(Q) = int_Q g,

    on A_j, g's own score on the cubes inside Q, and 0 on every other cube.
    With C_Q(k) = max_{j <= k} c_Q(j), the running ancestor max is

        on Q    M f(x) = max(C_Q(l), max of g's scores from Q down to x's cell)
        off Q   M f(x) = C_Q(k),  k the level of the smallest cube holding x and Q.

    The scores are the floats of ``_average_scores`` and the maxima are taken
    explicitly, never assuming c_Q monotone.  A row is never built on N
    cells: ``cuberows.CubeRows`` scans the few cells that can attain its
    weak norm and sums its norm over one node, and both give the floats of
    the row's own sweep, bit for bit.  Each suite is scaled by the kernel
    before any sum or power.

    The rows fail with the errors of their own sweeps.  A call raises the
    first in the order of a sweep of the whole lattice in chunks of
    ``_chunk_rows`` cubes: level, then chunk, then suite, then cube.  The
    suites are evaluated one after another, each up to its first failing
    level, and no later than the first failure found.

    With ``prune``, every row of the first suite is evaluated, and a row of
    a later suite reads -inf, unevaluated, where its certified upper bound
    (``CubeRows.bounds``) is below (1 - _SELECT_MARGIN) times the largest
    ratio evaluated before it, every row of the first suite included: such
    a row can neither win nor tie a first maximum over the rows, and the
    rows skipped are certified finite with a norm that does not vanish, so
    no error is skipped with them.
    """
    grid = kernel.grid
    depth = grid.depth
    check_cells(suites)
    _validate(grid, MaximalQuery(alpha))
    rows = CubeRows(kernel, suites, alpha, CHUNK_BYTES)
    firsts = _level_starts(grid)
    chunk = _chunk_rows(grid)
    out = np.full((len(suites), firsts[-1]), np.nan)
    best = -math.inf  # the largest ratio evaluated so far
    failure = (math.inf,)  # (level, chunk, suite, message) of the first failure found
    for suite in range(len(suites)):
        for level in range(min(depth, failure[0]) + 1):
            floor = (1.0 - _SELECT_MARGIN) * best if prune and suite else -math.inf
            cubes = np.flatnonzero(rows.sums[level][suite] > 0)
            values, error = rows.rows(suite, level, cubes, floor)
            out[suite, firsts[level] + cubes[:len(values)]] = values
            best = float(values.max(initial=best))
            if error:
                cube = cubes[len(values)]
                failure = min(failure, (level, cube // chunk, suite, error))
                break
    if len(failure) > 1:
        raise ValueError(failure[-1])
    return out


def _random_ratios(kernel: _RatioKernel, alpha, seed, n_random) -> np.ndarray:
    """Ratios of n_random seeded lognormal step functions, drawn in chunks of
    at most CHUNK_BYTES."""
    rng = np.random.default_rng(seed)
    rows = _chunk_rows(kernel.grid)
    out = np.empty(n_random)
    for start in range(0, n_random, rows):
        F = _lognormal(rng, (min(rows, n_random - start), kernel.grid.finest_count))
        out[start:start + len(F)] = _ratios(F, kernel, alpha)
    return out


def _bound(res: _Resolved, p, q) -> float:
    """The sufficiency bound ([w]_* [sigma]_RH)^{1/p} (plain) or
    [w]_* [sigma]_RH^{1/q} (fractional).  Where the plain product overflows,
    each factor takes its own 1/p power, so a bound in range stays finite;
    every product in range keeps the bits of the single power."""
    star, rh = res.star.value, res.rh.value
    if q is not None:
        return star * rh ** (1.0 / q)
    product = star * rh
    if math.isfinite(product):
        return product ** (1.0 / p)
    return star ** (1.0 / p) * rh ** (1.0 / p)


def _cube_suites(res: _Resolved, p, alpha, q, chi: bool):
    """The sigma chi_Q ratios and, where the sufficiency side will read them
    (chi asked for, a finite bound and a nonzero star constant), the chi_Q
    ratios, from one ``_cube_ratios`` sweep; None in place of chi_Q ratios
    that are not evaluated."""
    sigma = res.sigma_tab.values
    if not (chi and math.isfinite(_bound(res, p, q)) and res.star.value > 0.0):
        return _cube_ratios(res.kernel, sigma[None], alpha)[0], None
    # sufficiency reads only the maximum of the rows and its witness
    return tuple(_cube_ratios(res.kernel, np.stack([sigma, np.ones_like(sigma)]), alpha,
                              prune=True))


def sufficiency_check(w: Weight, p: float, alpha: float = 0.0, q: float | None = None,
                      c_desk: float = 8.0, seed: int = 0, n_random: int = 200,
                      depth: int | None = None) -> VerificationReport:
    """Maximize the weak-type ratio over the suite against the quantitative
    bound ([w]_* [sigma]_RH)^{1/p} (plain) or [w]_* [sigma]_RH^{1/q}
    (fractional); passes when measured <= c_desk * bound.  c_desk absorbs the
    absolute constants the proof never exhibits and is recorded in the report.

    The suite is every indicator chi_Q, every sigma chi_Q and n_random seeded
    lognormal step functions, in that order.  The test-function construction
    makes sigma chi_Q extremal up to constants, so this composition is
    decisive.
    """
    _require_suite(n_random, seed, c_desk)
    res = _resolve_weight(w, p, alpha, q, depth)
    return _sufficiency(res, p, alpha, q, c_desk, seed, n_random,
                        *_cube_suites(res, p, alpha, q, chi=True))


def _sufficiency(res: _Resolved, p, alpha, q, c_desk, seed, n_random,
                 sigma_rows, chi_rows) -> VerificationReport:
    """sigma_rows and chi_rows are the ratio arrays of ``_cube_suites``."""
    star, rh = res.star, res.rh
    bound = _bound(res, p, q)
    grid = res.kernel.grid
    context = {
        "check": "sufficiency", "p": p, "q": q, "alpha": alpha, "seed": seed,
        "n": grid.n, "depth": grid.depth, "c_desk": c_desk,
        "star_constant": star.value, "sigma_rh": rh.value, "mode": res.mode,
    }
    if not math.isfinite(bound):
        why = ("star constant is infinite" if not math.isfinite(star.value) else
               "sigma-RH constant overflows" if not math.isfinite(rh.value) else "bound overflows")
        return VerificationReport(
            context | {"diagnostic": f"{why}; bound is vacuous"},
            math.inf, bound, 0.0, {}, False, c_desk)
    if star.value == 0.0:
        raise ValueError("star constant is 0: sigma underflows against w")
    # every chi_Q, every sigma chi_Q (-inf where sigma vanishes on Q, so it
    # never wins), every random row; argmax returns the first maximum
    suite = np.concatenate((chi_rows, np.where(np.isnan(sigma_rows), -math.inf, sigma_rows),
                            _random_ratios(res.kernel, alpha, seed, n_random)))
    i = int(np.argmax(suite))
    best, cubes = float(suite[i]), len(chi_rows)
    if i < 2 * cubes:
        cube = _lattice_cube(grid, i % cubes)
        label = f"{'chi' if i < cubes else 'sigma_chi'}[{cube.level},{cube.index}]"
    else:
        label = f"random[{i - 2 * cubes}]"
    normalized = best / bound
    return VerificationReport(
        context, best, bound, normalized, {"function": label},
        normalized <= c_desk, c_desk)


def necessity_check(w: Weight, p: float, alpha: float = 0.0, q: float | None = None,
                    depth: int | None = None) -> VerificationReport:
    """Lower bound from the test functions f_Q = sigma chi_Q.

    On the dyadic lattice max_Q ratio(f_Q) >= [w]_*^{1/p} (plain) resp.
    [w]_* (fractional) holds exactly: M^D f_Q >= <sigma>_Q on Q makes each
    cube's ratio at least that cube's star expression to the right power.
    """
    res = _resolve_weight(w, p, alpha, q, depth)
    return _necessity(res, p, alpha, q, _cube_suites(res, p, alpha, q, chi=False)[0])


def _necessity(res: _Resolved, p, alpha, q, sigma_rows) -> VerificationReport:
    grid = res.kernel.grid
    bound = res.star.value ** (1.0 / p if q is None else 1.0)
    if np.isnan(sigma_rows).any():  # sigma underflowed to 0 on all of some Q
        raise ValueError(_DEGENERATE)
    i = int(np.argmax(sigma_rows))  # the first maximum
    best = float(sigma_rows[i])
    # zip takes a level's index before its ratio, so it stops at the level's
    # last cube without drawing the next level's first ratio
    ratios, rows = iter(sigma_rows.tolist()), []
    for level in range(grid.depth + 1):
        side = (2 ** level,) * grid.n
        index = np.stack(np.unravel_index(np.arange(2 ** (level * grid.n)), side), axis=-1)
        rows += [{"level": level, "index": idx, "ratio": ratio}
                 for idx, ratio in zip(index.tolist(), ratios)]
    context = {"check": "necessity", "p": p, "q": q, "alpha": alpha,
               "n": grid.n, "depth": grid.depth, "star_constant": res.star.value,
               "mode": res.mode}
    if not math.isfinite(res.star.value):  # nor is the bound, which no ratio reaches
        context["diagnostic"] = "star constant is infinite; bound is vacuous"
    # Exactly, best >= bound (see necessity_check).  Each float is at most a
    # few thousand roundings of 2^-53 off its exact value: pairwise sums of at
    # most 2^24 cells (24 roundings a term), averages, products and weak
    # scans, and at most 745 for each power x^t through its rounded exponent
    # (|t ln x| <= 745 for a normal result).  So the computed best falls short
    # of the computed bound by under 1e-12 of it, far inside the relative
    # RATIO_TOL at every magnitude; an absolute 1e-9 is below one ulp once
    # the bound passes 2^23.
    verdict = best >= bound * (1.0 - RATIO_TOL)
    return VerificationReport(context, best, bound, best / bound if bound > 0 else math.inf,
                              {"cube": _lattice_cube(grid, i).to_dict(),
                               "star_witness": res.star.witness.to_dict()},
                              verdict, RATIO_TOL, per_cube=rows)


# --------------------------------------------------------------------------
# the lemma suites
# --------------------------------------------------------------------------

def _cell_masses(sigma: Weight, lat: GridSpec) -> np.ndarray:
    """sigma's mass on each finest cell of the lattice."""
    if isinstance(sigma, PowerWeight):
        h = lat.side(lat.depth)
        j = np.arange(lat.finest_count)
        return sigma.integral(sigma.left + j * h, sigma.left + (j + 1) * h)
    return sigma.values * lat.cell_measure


# Cap on one (B, k + 1) array of a chunk of B random unions of k cells each.
# A chunk holds a few such arrays at once (its words and doubles, the
# gathered doubles, the cubes' masses), so its working set is bounded by a
# small multiple of this cap, not by the level's size.  On the lemmas
# benchmark, 64 KiB chunks ran faster than 32 KiB ones at the same peak
# memory, and 128 KiB ones raised peak memory by about 0.3 MiB.
UNION_CHUNK_BYTES = 64 * 1024


def _union_rows(k: int) -> int:
    return max(1, UNION_CHUNK_BYTES // (8 * (k + 1)))


_LOW, _HIGH = 0.1, 0.9  # the range of each union's keep threshold


def _window_min(d: np.ndarray, k: int) -> np.ndarray:
    """min(d[s:s + k]) for every start s and a power of two k, by doubling
    windows."""
    m, width = d, 1
    while width < k:
        m = np.minimum(m[:-width], m[width:])
        width *= 2
    return m


class _UnionStream:
    """The draws of ``lemma_suite``'s random cell unions, read from a fresh
    ``default_rng(seed)`` in chunks, exactly as the per-union loop

        keep = rng.random(k) < rng.uniform(0.1, 0.9)
        if not keep.any():
            keep[rng.integers(k)] = True

    consumed them, for unions of k = 2^b >= 2 cells, except that a
    fallback's mask stays empty: its one cell's ratio is the subcube
    check's.  ``random`` and ``uniform`` (0.1 + (0.9 - 0.1) d) read one
    64-bit word per double.  ``integers(k)`` reads a 32-bit half: the first
    fallback splits the next word and holds its upper half, which the next
    fallback reads, and so on across chunks and levels; ``random`` leaves
    the held half alone.
    """

    def __init__(self, seed: int):
        self.random = np.random.default_rng(seed).random
        self.split = True  # whether the next fallback splits a word

    def unions(self, k: int, count: int):
        """Yield the keep masks of the next ``count`` unions of k cells, in
        order, as (B, k) boolean arrays of at most UNION_CHUNK_BYTES (and
        at least one union); a fallback's row is empty."""
        rows = _union_rows(k)
        pending = np.empty(0)
        while count:
            keep, pending = self._chunk(k, min(rows, count), pending)
            count -= len(keep)
            yield keep

    def _chunk(self, k: int, most: int, pending: np.ndarray):
        """The keep masks of at most ``most`` unions, and the doubles read
        for the next ones.  ``pending`` (the doubles left over by the last
        chunk) is shorter than one union, so no word is read past the
        ``most`` * (k + 1) words that the unions consume at the least."""
        d = np.concatenate((pending, self.random(most * (k + 1) - pending.size)))
        # a union starting at word s: doubles d[s:s + k], threshold thresholds[s]
        thresholds = _LOW + (_HIGH - _LOW) * d[k:]
        starts, end = self._walk(d, thresholds, k)
        keep = d[starts[:, None] + np.arange(k)] < thresholds[starts, None]
        return keep, d[end:].copy()

    def _walk(self, d: np.ndarray, thresholds: np.ndarray, k: int):
        """The starts of the unions that fit in the chunk, and the end of
        the words they consume.

        Without a fallback the unions start every k + 1 words.  A union
        keeps nothing where the least of its k doubles is at least its
        threshold, which a sliding minimum tells for every start at once.
        The walk goes from one empty union to the next, through each start's
        next empty start in its residue class mod k + 1: a fallback that
        splits a word moves every later start one word on, and one that
        reads the held half moves nothing.
        """
        span = k + 1
        last = thresholds.size - 1  # the last start at which a whole union fits
        splits = []  # the row after each fallback that split a word
        empty = np.flatnonzero(_window_min(d, k)[:last + 1] >= thresholds)
        if len(empty):
            # after[s]: the first empty start at or after s, s mod span (last + 1: none)
            lines = last // span + 1
            after = np.full(lines * span, last + 1)
            after[empty] = empty
            after = np.minimum.accumulate(after.reshape(lines, span)[::-1], axis=0)[::-1].ravel()
            pos = 0
            while pos <= last and (e := int(after[pos])) <= last:
                pos = e + span
                if self.split:  # skip the split word, read and dropped past the chunk
                    if pos == d.size:
                        self.random()
                    splits.append((e - len(splits)) // span + 1)
                    pos += 1
                self.split = not self.split
        # union r starts r * span words in, plus one per word split before it
        count = max((last - len(splits)) // span + 1, splits[-1] if splits else 0)
        starts = np.arange(count) * span + np.searchsorted(splits, np.arange(count), side="right")
        return starts, count * span + len(splits)


def _union_worst(stream: _UnionStream, masses: np.ndarray, sigma_q: np.ndarray, c_rh: float,
                 n_random: int, lhs_of) -> float:
    """The worst subset ratio lhs_of(|E|) / (c_rh sigma(E) / sigma(Q)) over
    the next random unions E of ``stream``, n_random per cube in a row; row
    i of ``masses`` holds the cell masses of the i-th cube Q, and
    ``sigma_q[i]`` their sum.

    sigma(E) is a union's kept masses summed in ascending cell order, as the
    per-union sum ``cell_mass[e_cells].sum()`` added them: the unions of one
    chunk that keep m cells are gathered into an (r, m) array of their kept
    masses, and numpy sums each row of it with the same pairwise rounding.
    Their lhs is one float, and a correctly rounded lhs / rhs falls as rhs
    grows, so their worst ratio is lhs over their least rhs, bit for bit.
    """
    worst, done = 0.0, 0
    for keep in stream.unions(masses.shape[1], len(masses) * n_random):
        cube = np.arange(done, done + len(keep)) // n_random
        done += len(keep)
        kept = keep.sum(axis=1)
        for m in np.flatnonzero(np.bincount(kept)).tolist():
            if not m:  # fallbacks, whose one cell the subcube check takes
                continue
            rows = np.flatnonzero(kept == m)
            cubes = cube[rows]
            sigma_e = masses[cubes][keep[rows]].reshape(-1, m).sum(axis=1)
            # a nan rhs makes the least nan, which counts as inf like rhs <= 0
            least = (c_rh * sigma_e / sigma_q[cubes]).min()
            worst = max(worst, float(lhs_of(m) / least) if least > 0 else math.inf)
    return worst


def lemma_suite(w: Weight, p: float, q: float | None = None, seed: int = 0,
                n_random: int = 64, depth: int | None = None) -> VerificationReport:
    """Root-power membership and the subset inequality, exact constants.

    (i)  [w^{1/s}]_{A_p} <= s' [w]_{A_p^*}^{1/s} for each s (fractional:
         the A_{p,q} analogue with [w]_{A_{p,q}^*}).
    (ii) (|E|/|Q|)^{2p'} <= c [sigma]_RH sigma(E)/sigma(Q) for every dyadic
         subcube E of every cube Q plus n_random seeded cell unions per Q,
         with c = 4^{p'/p} (plain) or 4^{p'/q} (fractional).

    The unions are those of the per-union loop over the cubes, level by
    level, each Q in row-major order, n_random times:

        keep = rng.random(k) < rng.uniform(0.1, 0.9)   # k = 2^b cells in Q
        if not keep.any():
            keep[rng.integers(k)] = True

    with one fresh rng = default_rng(seed) for the whole suite.  They are
    evaluated per level in chunks, from the same generator
    (``_UnionStream(seed)``), so only a fallback that splits a new word
    moves the later unions.  A union's sigma(E) is its kept masses summed
    in ascending cell order with numpy's pairwise rounding, as the loop's
    sum of ``cell_mass[e_cells]``, and the ratio is taken in the loop's
    order of operations.  A fallback, and any union of at most two cells,
    is Q or one of its cells, whose ratio the subcube check takes with the
    same floats; so a fallback's cell is not drawn, the last levels, of at
    most two cells, draw nothing, and the worst ratio is bit-identical to
    the loop's.  ``subset_checks`` still counts every union.
    """
    _require_suite(n_random, seed)
    sigma = dual_weight(w, p, "ap" if q is None else "apq")
    pc = conjugate(p)
    lat = _grid_of(w, depth)
    star = star_constant(w, p, q, depth)
    if not math.isfinite(star.value):
        raise ValueError("star constant must be finite for the lemma suite")
    if star.value == 0.0:
        raise ValueError("star constant is 0: sigma underflows against w")
    c_lemma, rh_value = sigma_rh(star)
    if not (math.isfinite(c_lemma) and math.isfinite(rh_value)):
        raise ValueError(f"sigma-RH pair (c, [sigma]_RH) = ({c_lemma:g}, {rh_value:g}) "
                         "overflows; it must be finite for the lemma suite")

    worst = 0.0
    membership = {}
    for s in S_VALUES:
        s_conj = s / (s - 1.0)
        root_w = w ** (1.0 / s)
        if q is None:
            const = ap_constant(root_w, p, depth=depth).value
        else:
            const = apq_constant(root_w, p, q, depth=depth).value
        lim = s_conj * star.value ** (1.0 / s)
        membership[f"s={s}"] = {"constant": const, "bound": lim}
        worst = max(worst, const / lim)

    cell_mass = _cell_masses(sigma, lat)
    if not cell_mass.all():
        raise ValueError("sigma underflows to 0 on a cell, and sigma(Q) divides the lemma")

    # cells[l][i]: the flat cells of the i-th cube of level l, ascending
    cells = [cube_blocks(np.arange(lat.finest_count), lat, lev) for lev in range(lat.depth + 1)]
    sigma_sums = [cell_mass[block].sum(axis=1) for block in cells]
    stream = _UnionStream(seed)
    checks = 0
    for level in range(lat.depth + 1):
        q_meas = lat.cube_measure(level)
        sigma_q_of_cell = sigma_sums[level][lat.ancestor_index(level)]
        for sub in range(level, lat.depth + 1):
            # every cube E of level sub, against the cube Q of this level holding it
            lhs = (cells[sub].shape[1] * lat.cell_measure / q_meas) ** (2.0 * pc)
            rhs = c_lemma * rh_value * sigma_sums[sub] / sigma_q_of_cell[cells[sub][:, 0]]
            ratio = np.divide(lhs, rhs, out=np.full(rhs.shape, math.inf), where=rhs > 0)
            worst = max(worst, float(ratio.max()))
            checks += ratio.size
        masses = cell_mass[cells[level]]
        if masses.shape[1] > 2:  # see the docstring for smaller unions
            worst = max(worst, _union_worst(
                stream, masses, sigma_sums[level], c_lemma * rh_value, n_random,
                lambda m: (m * lat.cell_measure / q_meas) ** (2.0 * pc)))
        checks += masses.shape[0] * n_random

    context = {"check": "lemma_suite", "p": p, "q": q, "seed": seed,
               "n": lat.n, "depth": lat.depth, "subset_checks": checks,
               "c": c_lemma, "sigma_rh": rh_value, "membership": membership}
    verdict = worst <= 1.0 + 1e-12
    return VerificationReport(context, worst, 1.0, worst, {}, verdict, 1e-12)


def verify_weight(w: Weight, p: float, alpha: float = 0.0, q: float | None = None,
                  c_desk: float = 8.0, seed: int = 0, n_random: int = 200,
                  depth: int | None = None) -> dict:
    """The two-sided sandwich: necessity lower bound and sufficiency upper
    bound in one run, from one resolution of the weight, as consumed by the
    CLI verify command.  Both sides read the same sigma chi_Q rows, swept
    together with the chi_Q rows of the sufficiency side."""
    _require_suite(n_random, seed, c_desk)
    res = _resolve_weight(w, p, alpha, q, depth)
    sigma_rows, chi_rows = _cube_suites(res, p, alpha, q, chi=True)
    nec = _necessity(res, p, alpha, q, sigma_rows)
    suf = _sufficiency(res, p, alpha, q, c_desk, seed, n_random, sigma_rows, chi_rows)
    return {
        "necessity": nec.to_dict(),
        "sufficiency": suf.to_dict(),
        "verdict": bool(nec.verdict and suf.verdict),
    }
