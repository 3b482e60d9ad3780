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

from .grid import DyadicCube, StepFunction
from .lorentz import weak_norm
from .operators import MaximalQuery, dyadic_maximal, level_scores, running_ancestor_max
from .weights import conjugate, sigma_rh, star_constant


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

    The base must be finite and satisfy a >= 2^(n+1-alpha); the default is
    that threshold, the smallest base the sparsity argument permits.
    """
    grid = f.grid
    threshold = 2.0 ** (grid.n + 1 - alpha)
    if a is None:
        a = threshold
    if not threshold - 1e-12 <= a < math.inf:  # nan fails here too
        raise ValueError(f"base a = {a} must be finite and not below the required "
                         f"2^(n+1-alpha) = {threshold}")

    if not np.any(f.values > 0):
        return CZDecomposition(f, a, alpha, f.with_values(np.zeros_like(f.values)),
                               k_min=0, k_max=-1)

    scores = level_scores(f, MaximalQuery(alpha))
    max_vals = running_ancestor_max(scores, grid)
    maximal = f.with_values(max_vals)
    m_lo, m_hi = float(max_vals.min()), float(max_vals.max())
    k_min = _bracket_power(a, m_lo, strictly_below=True)
    k_max = _bracket_power(a, m_hi, strictly_below=False)

    dec = CZDecomposition(f, a, alpha, maximal, k_min, k_max)
    shape = (2 ** grid.depth,) * grid.n
    for k in range(k_min, k_max + 1):
        lam = a ** k
        selected: list[DyadicCube] = []
        canvas = np.zeros(shape, dtype=bool)
        active = np.ones((1,) * grid.n, dtype=bool)
        for lev in range(grid.depth + 1):
            score_arr = scores[lev].reshape((2 ** lev,) * grid.n)
            sel = active & (score_arr > lam)
            if sel.any():
                for flat in np.flatnonzero(sel.reshape(-1)):
                    cube = grid.cube_from_flat(lev, int(flat))
                    selected.append(cube)
                    canvas[grid.cell_slices(cube)] = True
            if lev < grid.depth:
                carry = active & ~sel
                for axis in range(grid.n):
                    carry = np.repeat(carry, 2, axis=axis)
                active = carry
        mask = canvas.reshape(-1)
        # The stopping cubes must tile the level set cell-exactly.
        if not np.array_equal(mask, max_vals > lam):
            raise RuntimeError("stopping cubes do not tile the level set (bug)")
        dec.cubes[k] = selected
        dec.omega_mask[k] = mask
    return dec


@dataclass(frozen=True)
class SparseEntry:
    k: int
    j: int
    cube: DyadicCube
    e_mask: np.ndarray

    def e_measure(self, grid) -> float:
        return float(self.e_mask.sum()) * grid.cell_measure

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "j": self.j,
            "Q": self.cube.to_dict(),
            "E_cells": [int(i) for i in np.flatnonzero(self.e_mask)],
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
    along with |Q| <= 2|E| before the family is returned.
    """
    grid = dec.f.grid
    entries: list[SparseEntry] = []
    taken = np.zeros(grid.finest_count, dtype=bool)
    for k in range(dec.k_min, dec.k_max + 1):
        next_mask = dec.omega_mask.get(k + 1)
        for j, cube in enumerate(dec.cubes.get(k, [])):
            q_mask = grid.cell_mask(cube)
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
            entries.append(SparseEntry(k, j, cube, e_mask))
    return SparseFamily(dec, entries)


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
    if fractional and not q > p:
        raise ValueError(f"fractional chain needs q > p, got p={p}, q={q}")
    if alpha != dec.alpha or fractional != (dec.alpha > 0):
        raise ValueError("decomposition kind does not match the requested chain")

    s = q if fractional else p
    g = f.with_values(np.divide(f.values, sigma.values,
                                out=np.zeros_like(f.values), where=sigma.values > 0))
    m_sigma = dyadic_maximal(g, MaximalQuery(alpha, sigma))

    w_s = w ** q if fractional else w
    weak_obj = w_s * (dec.maximal ** s)
    star = star_constant(w, p, q)
    c_lemma, rh = sigma_rh(star)

    t0 = weak_norm(weak_obj, 1.0)
    t1 = t2 = t3 = t4 = 0.0
    for entry in family.entries:
        cube = entry.cube
        lam_next = a ** (entry.k + 1)
        wk = weak_norm(w_s, 1.0, cube)
        score = grid.cube_measure(cube.level) ** (alpha / grid.n) * f.average(cube)
        sig_q = sigma.integral(cube)
        avg_sigma = f.integral(cube) / sig_q  # <f sigma^{-1}>_{sigma, Q}
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
