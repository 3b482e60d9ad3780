"""Calderon-Zygmund decomposition of maximal-function level sets and the
sparse family it generates, with verifiable certificates.

For a base a >= 2^(n+1-alpha) the level sets Omega_k = {M f > a^k} decompose
into maximal stopping cubes Q_{k,j} selected top-down from the same per-level
score arrays that define M f, so the set identity Omega_k = union Q_{k,j} is
cell-exact by construction.  The sparse sets are E_{k,j} = Q_{k,j} minus
Omega_{k+1}; the base threshold forces |Q_{k,j}| <= 2 |E_{k,j}| for every cube
with a parent, and a violation raises SparsityError (reachable only through
the root cube on mass-concentrated inputs, where no parent average caps the
root's own; see build_sparse).

sparse_sum evaluates the displayed intermediate sums of the weighted weak-type
bound and reports every consecutive inequality with its explicit constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import DyadicCube, StepFunction, cube_blocks
from .lorentz import weak_norm, weak_scan
from .operators import (_MAXIMAL_OVERFLOW, MaximalQuery, _validate, dyadic_maximal,
                        level_scores, running_ancestor_max)
from .weights import check_exponent_relation, conjugate, sigma_rh, star_constant


class SparsityError(RuntimeError):
    """|Q| <= 2|E| failed; only the root cube can trip this when a meets the
    threshold, so reaching it from a non-root cube is a bug signal."""


@dataclass
class CZDecomposition:
    """Level sets of M^D f (or the fractional variant) as maximal cubes.

    ``cubes[k]`` lists the stopping cubes of Omega_k = {M f > a^k} in
    (level, row-major) order; ``omega_mask[k]`` is the exact finest-cell mask
    of Omega_k.  Levels run k_min..k_max where a^k_min < min M f (so the
    bottom level set is the whole root) and a^k_max >= max M f (so the top
    one is empty).
    """

    f: StepFunction
    a: float
    alpha: float
    maximal: StepFunction
    k_min: int
    k_max: int
    cubes: dict[int, list[DyadicCube]] = field(default_factory=dict)
    omega_mask: dict[int, np.ndarray] = field(default_factory=dict)

    def omega_measure(self, k: int) -> float:
        if k not in self.omega_mask:
            return 0.0
        return float(self.omega_mask[k].sum()) * self.f.grid.cell_measure


def _bracket_power(a: float, value: float, strictly_below: bool) -> int:
    """Largest k with a^k < value (strictly_below) or smallest k with
    a^k >= value, robust to log rounding; a ValueError names the base when a
    power of it overflows on the way."""
    k = math.floor(math.log(value) / math.log(a))
    try:
        if strictly_below:
            while a ** k >= value:
                k -= 1
            while a ** (k + 1) < value:
                k += 1
            return k
        while a ** k < value:
            k += 1
        while a ** (k - 1) >= value:
            k -= 1
        return k
    except OverflowError:
        raise ValueError(f"base a = {a} is too large: its powers overflow while "
                         f"bracketing the maximal value {value}") from None


def cz_decompose(f: StepFunction, a: float | None = None, alpha: float = 0.0) -> CZDecomposition:
    """Decompose the level sets of M^D f (alpha = 0) or M_alpha^D f.

    alpha must lie in [0, n), checked first, even for f = 0.  The base must
    be finite and satisfy a >= 2^(n+1-alpha); the default is that threshold,
    the smallest base the sparsity argument permits.
    """
    grid = f.grid
    query = MaximalQuery(alpha)
    _validate(grid, query)
    threshold = 2.0 ** (grid.n + 1 - alpha)
    if a is None:
        a = threshold
    if not threshold - 1e-12 <= a < math.inf:  # nan fails here too
        raise ValueError(f"base a = {a} must be finite and not below the required "
                         f"2^(n+1-alpha) = {threshold}")

    if not np.any(f.values > 0):
        return CZDecomposition(f, a, alpha, f.with_values(np.zeros_like(f.values)),
                               k_min=0, k_max=-1)

    scores = level_scores(f, query)
    max_vals = running_ancestor_max(scores, grid)
    m_lo, m_hi = float(max_vals.min()), float(max_vals.max())
    if not math.isfinite(m_hi):  # f's cells are finite, so a score overflowed
        raise ValueError(_MAXIMAL_OVERFLOW)
    maximal = f.with_values(max_vals)
    k_min = _bracket_power(a, m_lo, strictly_below=True)
    k_max = _bracket_power(a, m_hi, strictly_below=False)

    dec = CZDecomposition(f, a, alpha, maximal, k_min, k_max)
    for k in range(k_min, k_max + 1):
        lam = a ** k
        selected: list[DyadicCube] = []
        # cubes no selected ancestor covers, carried down to each level
        active = np.ones((1,) * grid.n, dtype=bool)
        for lev in range(grid.depth + 1):
            shape = (2 ** lev,) * grid.n
            sel = active & (scores[lev].reshape(shape) > lam)
            index = np.unravel_index(np.flatnonzero(sel), shape)
            selected.extend(DyadicCube(lev, idx) for idx in zip(*(i.tolist() for i in index)))
            active &= ~sel
            if lev < grid.depth:
                for axis in range(grid.n):
                    active = np.repeat(active, 2, axis=axis)
        # the finest cells left active are those no stopping cube covers
        mask = ~active.reshape(-1)
        # The stopping cubes must tile the level set cell-exactly.
        if not np.array_equal(mask, max_vals > lam):
            raise RuntimeError("stopping cubes do not tile the level set (bug)")
        dec.cubes[k] = selected
        dec.omega_mask[k] = mask
    return dec


def _runs(keys: list) -> list[tuple[int, int]]:
    """(start, stop) of each run of equal consecutive keys."""
    starts = [i for i in range(len(keys)) if i == 0 or keys[i] != keys[i - 1]]
    return list(zip(starts, starts[1:] + [len(keys)]))


@dataclass(frozen=True)
class SparseEntry:
    k: int
    j: int
    cube: DyadicCube
    e_cells: np.ndarray  # E's flat finest-cell indices, ascending

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "j": self.j,
            "Q": self.cube.to_dict(),
            "E_cells": self.e_cells.tolist(),
        }


@dataclass
class SparseFamily:
    decomposition: CZDecomposition
    entries: list[SparseEntry]

    def to_json_list(self) -> list[dict]:
        return [e.to_dict() for e in self.entries]


def build_sparse(dec: CZDecomposition) -> SparseFamily:
    """E_{k,j} = Q_{k,j} minus Omega_{k+1}; verifies the sparsity certificate.

    Containment and pairwise disjointness hold by construction (E stays inside
    its own Q and avoids every later level set); both are re-checked here
    along with |Q| <= 2|E| before the family is returned.  The cubes of one
    level of one Omega_k are checked together, as one block of cells.
    """
    grid = dec.f.grid
    entries: list[SparseEntry] = []
    taken = np.zeros(grid.finest_count, dtype=bool)
    for k in range(dec.k_min, dec.k_max + 1):
        cubes = dec.cubes.get(k, [])
        for start, stop in _runs([cube.level for cube in cubes]):
            run, level = cubes[start:stop], cubes[start].level
            q_meas = grid.cube_measure(level)
            flat = np.ravel_multi_index(np.array([c.index for c in run]).T, (2 ** level,) * grid.n)
            cells = cube_blocks(np.arange(grid.finest_count), grid, level, flat)
            # a^k_max >= max M f leaves level k_max without cubes, so every
            # level with cubes has Omega_{k+1}
            keep = ~dec.omega_mask[k + 1][cells]
            counts = keep.sum(axis=1)
            e_all = cells[keep]
            # distinct cubes of one level, in ascending order, are disjoint
            if (np.any(q_meas > 2.0 * (counts * grid.cell_measure))
                    or taken[e_all].any() or np.any(cells[1:, 0] <= cells[:-1, 0])):
                _check_one_by_one(k, run, cells, keep, taken, q_meas, grid.cell_measure)
            taken[e_all] = True
            ends = np.cumsum(counts).tolist()
            entries.extend(SparseEntry(k, j, cube, e_all[lo:hi]) for j, cube, lo, hi
                           in zip(range(start, stop), run, [0] + ends, ends))
    return SparseFamily(dec, entries)


def _check_one_by_one(k: int, run: list[DyadicCube], cells: np.ndarray, keep: np.ndarray,
                      taken: np.ndarray, q_meas: float, cell_measure: float):
    """Raise the first fault of a run's entries in entry order: |Q| > 2|E|,
    or an E meeting an earlier one (of this run too)."""
    for cube, q_cells, q_keep in zip(run, cells, keep):
        e_cells = q_cells[q_keep]
        e_meas = e_cells.size * cell_measure
        if q_meas > 2.0 * e_meas:
            raise SparsityError(
                f"sparsity violated at k={k}, Q={cube}: |Q|={q_meas} > 2|E|={2 * e_meas}"
            )
        if taken[e_cells].any():
            raise SparsityError(f"E sets overlap at k={k}, Q={cube} (bug)")
        taken[e_cells] = True


# --------------------------------------------------------------------------
# the proof-chain trace
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceLink:
    """One inequality lhs <= constant * base of the displayed chain.

    ``holds`` is None for reported-only comparisons that carry no asserted
    constant (the fractional bootstrap tail).
    """

    name: str
    lhs: float
    base: float
    constant: float | None

    @property
    def bound(self) -> float | None:
        return None if self.constant is None else self.constant * self.base

    @property
    def holds(self) -> bool | None:
        if self.constant is None:
            return None
        return self.lhs <= self.bound * (1.0 + 1e-12) + 1e-300

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "lhs": self.lhs,
            "base": self.base,
            "constant": self.constant,
            "holds": self.holds,
        }


@dataclass
class SparseTrace:
    links: list[TraceLink]

    @property
    def all_hold(self) -> bool:
        return all(link.holds for link in self.links if link.holds is not None)

    def to_dict(self) -> dict:
        return {"links": [l.to_dict() for l in self.links], "all_hold": self.all_hold}


def sparse_sum(family: SparseFamily, w: StepFunction, sigma: StepFunction,
               p: float, alpha: float = 0.0, q: float | None = None) -> SparseTrace:
    """Evaluate the weighted chain of the weak-type bound over the family.

    Plain case (q None): every displayed sum from
    ||w (M f)^p||_{1,inf} down to (p')^p int f^p w, with constants
    1, a^p, [w]_{A_p^*}, 4^{p'/p} 4^{p'} [sigma]_RH, 1 and (p')^p.
    Fractional case: the q-power analogues with Lemma constants
    4^{p'/q} 4^{p'} [sigma]_RH; the final maximal bootstrap has no displayed
    constant and is reported without assertion.
    """
    dec = family.decomposition
    f = dec.f
    grid = f.grid
    if w.grid != grid or sigma.grid != grid:
        raise ValueError("weight grids do not match the decomposed function")
    a = dec.a
    pc = conjugate(p)
    fractional = q is not None
    if alpha != dec.alpha or fractional != (dec.alpha > 0):
        raise ValueError("decomposition kind does not match the requested chain")
    if fractional:
        check_exponent_relation(p, q, alpha, grid.n)

    s = q if fractional else p
    g = f.with_values(np.divide(f.values, sigma.values,
                                out=np.zeros_like(f.values), where=sigma.values > 0))
    m_sigma = dyadic_maximal(g, MaximalQuery(alpha, sigma))

    w_s = w ** q if fractional else w
    weak_obj = w_s * (dec.maximal ** s)
    star = star_constant(w, p, q)
    c_lemma, rh = sigma_rh(star)

    t0 = weak_norm(weak_obj, 1.0)
    entries = family.entries
    cm = grid.cell_measure
    # ||w_s chi_Q||_{1,inf}, f(Q) and sigma(Q) per entry, one block of cells
    # per level of each Omega_k
    wk, f_sums, sig_sums = (np.empty(len(entries)) for _ in range(3))
    for start, stop in _runs([(e.k, e.cube.level) for e in entries]):
        run, level = entries[start:stop], entries[start].cube.level
        flat = np.ravel_multi_index(np.array([e.cube.index for e in run]).T,
                                    (2 ** level,) * grid.n)
        cells = cube_blocks(np.arange(grid.finest_count), grid, level, flat)
        wk[start:stop] = weak_scan(w_s.values[cells], cm)
        f_sums[start:stop] = f.values[cells].sum(axis=1)
        sig_sums[start:stop] = sigma.values[cells].sum(axis=1)
    # sigma(E) per entry, summed as one ascending row of |E| cells: the E sets
    # of one size form one (r, |E|) array with the same pairwise rounding
    sig_es = np.empty(len(entries))
    sizes = [e.e_cells.size for e in entries]
    by_size = np.array(sizes, dtype=int)
    for m in set(sizes):
        rows = np.flatnonzero(by_size == m)
        e_cells = np.concatenate([entries[i].e_cells for i in rows.tolist()])
        sig_es[rows] = sigma.values[e_cells].reshape(rows.size, m).sum(axis=1)

    measures = [grid.cube_measure(level) for level in range(grid.depth + 1)]
    t1 = t2 = t3 = t4 = 0.0
    for entry, wk_q, f_sum, sig_sum, sig_e_sum in zip(entries, wk.tolist(), f_sums.tolist(),
                                                      sig_sums.tolist(), sig_es.tolist()):
        lam_next = a ** (entry.k + 1)
        f_q = f_sum * cm
        q_meas = measures[entry.cube.level]
        score = q_meas ** (alpha / grid.n) * (f_q / q_meas)
        sig_q = sig_sum * cm
        avg_sigma = f_q / sig_q  # <f sigma^{-1}>_{sigma, Q}
        sig_e = sig_e_sum * cm
        t1 += lam_next ** s * wk_q
        t2 += score ** s * wk_q
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
