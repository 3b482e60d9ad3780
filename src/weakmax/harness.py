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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid import DyadicCube, GridSpec, StepFunction, cube_blocks, level_value_sums
from .lorentz import weak_scan
from .operators import MaximalQuery, _average_scores, _batch_maximal, _validate
from .weights import (
    PowerWeight,
    SigmaRH,
    Weight,
    WeightConstant,
    _grid_of,
    ap_constant,
    apq_constant,
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

# Cap on one (B, N) float array of a suite chunk.  Chunks of 64-128 KiB were
# the fastest, and peak memory grows only above 128 KiB: large enough that
# numpy's per-call overhead is spread over many rows, small enough that the
# chunk and its intermediates stay in cache.
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

def _require_q(alpha: float, q: float | None):
    if q is None and alpha != 0.0:
        raise ValueError(f"alpha = {alpha} needs q, the fractional exponent with "
                         "1/p - 1/q = alpha/n; the plain ratio (q None) takes alpha = 0")


_DEGENERATE = "degenerate input: ||f|| vanishes in the weighted norm"


def _check_cells(values: np.ndarray):
    if not np.all(np.isfinite(values)):
        raise ValueError("cell values must be finite")
    if np.any(values < 0):
        raise ValueError("cell values must be nonnegative")


def _norm_cells(values: np.ndarray, w: np.ndarray, p: float, q: float | None) -> np.ndarray:
    """Cell integrands of ||f||^p: f^p w (plain) or f^p w^p (fractional)."""
    return values ** p * w if q is None else values ** p * w ** p


def _ratios(F: np.ndarray, w_tab: StepFunction, p: float, alpha: float,
            q: float | None) -> list[float]:
    """Weak-type ratio of every row of the (B, N) cell array F against w_tab,
    each row swept by ``_batch_maximal``; the rows must be finite and
    nonnegative."""
    _check_cells(F)
    mf = _batch_maximal(F, w_tab.grid, alpha)
    return _weak_ratios(mf, _norm_cells(F, w_tab.values, p, q).sum(axis=-1), w_tab, p, q)


def _weak_ratios(mf: np.ndarray, den_sums: np.ndarray, w_tab: StepFunction, p: float,
                 q: float | None) -> list[float]:
    """Weak-type ratio of every row, from its (B, N) maximal function mf and
    the cell sum of its norm integrand.

    Each row gets the checks of a single function, and a chunk raises the
    error of its first failing row: every intermediate must stay finite, the
    weighted norm must not vanish, and the power-identity route must agree
    with the direct one.  The final 1/p and 1/q powers are Python-float
    powers, which numpy's array power does not always match to the last bit.
    """
    grid = w_tab.grid
    w = w_tab.values
    if q is None:
        direct, r = w ** (1.0 / p) * mf, p
        identity = w * mf ** float(p)
    else:
        direct, r = w * mf, q
        identity = w ** float(q) * mf ** float(q)
    if not r > 0:
        raise ValueError(f"p must be positive, got {r}")
    # Everything upstream is nonnegative, so an overflow in M f or in a power
    # of w or of M f leaves inf or nan in one of these two products.
    finite = np.isfinite(direct).all(axis=-1) & np.isfinite(identity).all(axis=-1)
    cm = grid.cell_measure
    out = []
    for ok, num, cross, den_sum in zip(finite.tolist(), weak_scan(direct, cm, r).tolist(),
                                       weak_scan(identity, cm).tolist(), den_sums.tolist()):
        if not ok:
            raise ValueError("cell values must be finite")
        cross = cross ** (1.0 / r)
        den = (den_sum * cm) ** (1.0 / p)
        if den == 0.0:
            raise ValueError(_DEGENERATE)
        if abs(num - cross) > 1e-10 * max(num, cross, 1e-300):
            raise RuntimeError(f"weak-norm identity routes disagree: {num} vs {cross}")
        out.append(num / den)
    return out


def multiplier_ratio(f: StepFunction, w: StepFunction, p: float,
                     alpha: float = 0.0, q: float | None = None) -> float:
    """Weak-type ratio of f against the multiplier weight w.

    Plain: ||w^{1/p} M^D f||_{p,inf} / (int f^p w)^{1/p}.  Fractional
    (q given): ||w M_alpha^D f||_{q,inf} / (int f^p w^p)^{1/p}.  The
    equivalent power-identity route is evaluated as a consistency check.
    """
    if w.grid != f.grid:
        raise ValueError("weight grid does not match f")
    _require_q(alpha, q)
    return _ratios(f.values[None, :], w, p, alpha, q)[0]


# --------------------------------------------------------------------------
# sufficiency / necessity
# --------------------------------------------------------------------------

class _Resolved(NamedTuple):
    """A weight resolved for the two checks: its star constant, sigma-RH pair,
    tabulated (w, sigma) test pair, and backend name."""

    star: WeightConstant
    rh: SigmaRH
    w_tab: StepFunction
    sigma_tab: StepFunction
    mode: str


def _resolve_weight(w: Weight, p: float, alpha: float, q: float | None,
                    depth: int | None) -> _Resolved:
    """Check a harness call before any scan, then resolve its weight.  Power
    mode runs with analytic constants and exactly tabulated w and sigma (each
    tabulated from its own closed-form cell integrals)."""
    _require_q(alpha, q)
    if alpha > 0:
        n = 1 if isinstance(w, PowerWeight) else w.grid.n
        if not (p > 0 and q > 0):
            raise ValueError(f"exponents must be positive, got p={p}, q={q}")
        gap = 1.0 / p - 1.0 / q
        if abs(gap - alpha / n) > 1e-12:
            raise ValueError(f"exponent relation violated: 1/p - 1/q = {gap:g} "
                             f"but alpha/n = {alpha / n:g}")
    _require_positive(w)
    flavor = "ap" if q is None else "apq"
    star = star_constant(w, p, q, depth)
    rh = sigma_rh(star)
    sigma = dual_weight(w, p, flavor)
    if isinstance(w, PowerWeight):
        return _Resolved(star, rh, w.tabulate(depth), sigma.tabulate(depth), "power")
    return _Resolved(star, rh, w, sigma, "tabulated")


def _require_suite(n_random: int, seed: int, c_desk: float | None = None):
    if n_random < 0:
        raise ValueError(f"n_random must be >= 0, got {n_random}")
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if c_desk is not None and not 0 < c_desk < math.inf:
        raise ValueError(f"c_desk must be positive and finite, got {c_desk}")


def _require_positive(w: Weight):
    if isinstance(w, StepFunction) and np.any(w.values == 0.0):
        raise ValueError("weight has zero cells, where the dual weight sigma is "
                         "infinite; the harness needs w > 0 on every cell")


def _cube_ratios(w_tab: StepFunction, values: np.ndarray, p, alpha,
                 q) -> list[tuple[DyadicCube, float | None]]:
    """(Q, ratio of g chi_Q) for g = values and every lattice cube Q, level
    by level, row-major, in chunks of at most CHUNK_BYTES within a level; the
    ratio is None where g vanishes on Q.

    M_alpha^D(g chi_Q) has a closed form, so one sweep of g serves every row.
    For Q at level l with ancestors A_j (j <= l, A_l = Q), g chi_Q scores

        c_Q(j) = |A_j|^(alpha/n) g(Q) / |A_j|,   g(Q) = int_Q g,

    on A_j, g's own score on the cubes inside Q, and 0 on every other cube.
    With C_Q(k) = max_{j <= k} c_Q(j), the running ancestor max is

        on Q    M f(x) = max(C_Q(l), max of g's scores from Q down to x's cell)
        off Q   M f(x) = C_Q(k),  k the level of the smallest cube holding x and Q.

    The scores are the floats of ``_average_scores`` and the maxima are taken
    explicitly, never assuming c_Q monotone, so every row is bit-identical to
    its own sweep.  The norm sum stays a sum over the whole row, whose
    pairwise rounding depends on where Q's cells sit in it.
    """
    grid = w_tab.grid
    n, depth = grid.n, grid.depth
    _check_cells(values)
    _validate(grid, MaximalQuery(alpha))
    s = alpha / n
    cm = grid.cell_measure
    sums = level_value_sums(values, grid)
    scores = _average_scores(values, grid, alpha)
    norm_cells = _norm_cells(values, w_tab.values, p, q)
    # run[l]: the max of g's scores over levels l..depth along each cell's path
    run = [scores[depth]]
    for level in range(depth - 1, -1, -1):
        run.append(np.maximum(scores[level][grid.ancestor_index(level)], run[-1]))
    run.reverse()
    cell_coords = np.indices((2 ** depth,) * n).reshape(n, -1)
    # two cubes of one level first share an ancestor b levels up, where b is
    # the bit length of their coordinates' xor, OR-ed over the axes
    bit_length = np.zeros(2 ** depth, dtype=np.intp)
    for b in range(depth):
        bit_length[2 ** b:2 ** (b + 1)] = b + 1
    rows = _chunk_rows(grid)
    out = []
    for level in range(depth + 1):
        cubes = grid.cells(level)
        meas = [grid.cube_measure(j) for j in range(level + 1)]
        avg = sums[level][:, None] * cm / np.array(meas)
        C = np.maximum.accumulate(np.array([m ** s for m in meas]) * avg if s else avg, axis=1)
        # C_Q(level - b) at flat index (level + 1) * i + b, for the i-th cube Q
        table = np.ascontiguousarray(C[:, ::-1]).reshape(-1)
        coords = cell_coords >> (depth - level)
        cube_coords = np.indices((2 ** level,) * n).reshape(n, -1)
        for start in range(0, len(cubes), rows):
            chunk = np.arange(start, min(start + rows, len(cubes)))
            positive = sums[level][chunk] > 0
            kept = chunk[positive]
            diff = coords[0] ^ cube_coords[0, kept, None]
            for axis in range(1, n):
                diff |= coords[axis] ^ cube_coords[axis, kept, None]
            up = bit_length.take(diff)  # levels from Q up to the cube holding x and Q
            mf = table.take(up + (level + 1) * kept[:, None])
            on_q = up == 0
            np.maximum(mf, run[level], out=mf, where=on_q)
            den_sums = np.where(on_q, norm_cells, 0.0).sum(axis=-1)
            ratios = iter(_weak_ratios(mf, den_sums, w_tab, p, q))
            out += [(cube, next(ratios) if keep else None)
                    for cube, keep in zip(cubes[start:start + rows], positive.tolist())]
    return out


def _random_ratios(w_tab: StepFunction, p, alpha, q, seed, n_random) -> list[float]:
    """Ratios of n_random seeded lognormal step functions, drawn in chunks of
    at most CHUNK_BYTES."""
    grid = w_tab.grid
    rng = np.random.default_rng(seed)
    rows = _chunk_rows(grid)
    out = []
    for start in range(0, n_random, rows):
        F = _lognormal(rng, (min(rows, n_random - start), grid.finest_count))
        out += _ratios(F, w_tab, p, alpha, q)
    return out


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
                        _cube_ratios(res.w_tab, res.sigma_tab.values, p, alpha, q))


def _sufficiency(res: _Resolved, p, alpha, q, c_desk, seed, n_random,
                 sigma_rows) -> VerificationReport:
    """sigma_rows are the sigma chi_Q rows of ``_cube_ratios``."""
    star, rh = res.star, res.rh
    if q is None:
        bound = (star.value * rh.value) ** (1.0 / p)
    else:
        bound = star.value * rh.value ** (1.0 / q)
    grid = res.w_tab.grid
    context = {
        "check": "sufficiency", "p": p, "q": q, "alpha": alpha, "seed": seed,
        "n": grid.n, "depth": grid.depth, "c_desk": c_desk,
        "star_constant": star.value, "sigma_rh": rh.value, "mode": res.mode,
    }
    if not math.isfinite(bound):
        return VerificationReport(
            context | {"diagnostic": "star constant is infinite; bound is vacuous"},
            math.inf, bound, 0.0, {}, False, c_desk)
    if star.value == 0.0:
        raise ValueError("star constant is 0: sigma underflows against w")
    suite = [(f"chi[{cube.level},{cube.index}]", ratio) for cube, ratio in
             _cube_ratios(res.w_tab, np.ones(grid.finest_count), p, alpha, q)]
    suite += [(f"sigma_chi[{cube.level},{cube.index}]", ratio)
              for cube, ratio in sigma_rows if ratio is not None]
    suite += [(f"random[{i}]", ratio) for i, ratio in
              enumerate(_random_ratios(res.w_tab, p, alpha, q, seed, n_random))]
    best = -math.inf
    best_label = ""
    for label, ratio in suite:
        if ratio > best:
            best, best_label = ratio, label
    normalized = best / bound
    return VerificationReport(
        context, best, bound, normalized, {"function": best_label},
        normalized <= c_desk, c_desk)


def necessity_check(w: Weight, p: float, alpha: float = 0.0, q: float | None = None,
                    depth: int | None = None) -> VerificationReport:
    """Lower bound from the test functions f_Q = sigma chi_Q.

    On the dyadic lattice max_Q ratio(f_Q) >= [w]_*^{1/p} (plain) resp.
    [w]_* (fractional) holds exactly: M^D f_Q >= <sigma>_Q on Q makes each
    cube's ratio at least that cube's star expression to the right power.
    """
    res = _resolve_weight(w, p, alpha, q, depth)
    return _necessity(res, p, alpha, q,
                      _cube_ratios(res.w_tab, res.sigma_tab.values, p, alpha, q))


def _necessity(res: _Resolved, p, alpha, q, sigma_rows) -> VerificationReport:
    grid = res.w_tab.grid
    exponent = 1.0 / p if q is None else 1.0
    bound = res.star.value ** exponent
    best = -math.inf
    best_cube = grid.root
    rows = []
    for cube, ratio in sigma_rows:
        if ratio is None:  # sigma underflowed to 0 on all of Q
            raise ValueError(_DEGENERATE)
        rows.append({"level": cube.level, "index": list(cube.index), "ratio": ratio})
        if ratio > best:
            best, best_cube = ratio, cube
    context = {"check": "necessity", "p": p, "q": q, "alpha": alpha,
               "n": grid.n, "depth": grid.depth, "star_constant": res.star.value,
               "mode": res.mode}
    verdict = best >= bound - RATIO_TOL
    return VerificationReport(context, best, bound, best / bound if bound > 0 else math.inf,
                              {"cube": best_cube.to_dict(),
                               "star_witness": res.star.witness.to_dict()},
                              verdict, RATIO_TOL, per_cube=rows)


# --------------------------------------------------------------------------
# the lemma suites
# --------------------------------------------------------------------------

def _random_cell_union(rng: np.random.Generator, cells: np.ndarray) -> np.ndarray:
    """Nonempty random subset of the given flat cell indices."""
    keep = rng.random(cells.size) < rng.uniform(0.1, 0.9)
    if not keep.any():
        keep[rng.integers(cells.size)] = True
    return cells[keep]


def lemma_suite(w: Weight, p: float, q: float | None = None, seed: int = 0,
                n_random: int = 64, depth: int | None = None) -> VerificationReport:
    """Root-power membership and the subset inequality, exact constants.

    (i)  [w^{1/s}]_{A_p} <= s' [w]_{A_p^*}^{1/s} for each s (fractional:
         the A_{p,q} analogue with [w]_{A_{p,q}^*}).
    (ii) (|E|/|Q|)^{2p'} <= c [sigma]_RH sigma(E)/sigma(Q) for every dyadic
         subcube E of every cube Q plus n_random seeded cell unions per Q,
         with c = 4^{p'/p} (plain) or 4^{p'/q} (fractional).
    """
    _require_suite(n_random, seed)
    _require_positive(w)
    pc = conjugate(p)
    lat = _grid_of(w, depth)
    star = star_constant(w, p, q, depth)
    if not math.isfinite(star.value):
        raise ValueError("star constant must be finite for the lemma suite")
    if star.value == 0.0:
        raise ValueError("star constant is 0: sigma underflows against w")
    c_lemma, rh_value = sigma_rh(star)

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

    sigma = dual_weight(w, p, "ap" if q is None else "apq")
    if isinstance(sigma, PowerWeight):
        h = lat.side(depth)
        cell_mass = np.array([sigma.integral(sigma.left + j * h, sigma.left + (j + 1) * h)
                              for j in range(lat.finest_count)])
    else:
        cell_mass = sigma.values * lat.cell_measure
    if not cell_mass.all():
        raise ValueError("sigma underflows to 0 on a cell, and sigma(Q) divides the lemma")

    # cells[l][i]: the flat cells of the i-th cube of level l, ascending
    cells = [cube_blocks(np.arange(lat.finest_count), lat, lev) for lev in range(lat.depth + 1)]
    sigma_sums = [cell_mass[block].sum(axis=1) for block in cells]
    rng = np.random.default_rng(seed)
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
        for q_cells, sigma_q in zip(cells[level], sigma_sums[level].tolist()):
            for _ in range(n_random):
                e_cells = _random_cell_union(rng, q_cells)
                lhs = (e_cells.size * lat.cell_measure / q_meas) ** (2.0 * pc)
                rhs = c_lemma * rh_value * float(cell_mass[e_cells].sum()) / sigma_q
                worst = max(worst, lhs / rhs if rhs > 0 else math.inf)
                checks += 1

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
    CLI verify command.  Both sides read the same sigma chi_Q rows."""
    _require_suite(n_random, seed, c_desk)
    res = _resolve_weight(w, p, alpha, q, depth)
    sigma_rows = _cube_ratios(res.w_tab, res.sigma_tab.values, p, alpha, q)
    nec = _necessity(res, p, alpha, q, sigma_rows)
    suf = _sufficiency(res, p, alpha, q, c_desk, seed, n_random, sigma_rows)
    return {
        "necessity": nec.to_dict(),
        "sufficiency": suf.to_dict(),
        "verdict": bool(nec.verdict and suf.verdict),
    }
