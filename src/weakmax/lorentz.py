"""Lorentz quasi-norms of step functions, evaluated exactly.

For a step function the distribution function d_f(lam) = |{f > lam}| is a
right-continuous staircase whose only breakpoints are the distinct cell
values, so

    ||f||_{p,inf} = sup_{lam>0} lam d_f(lam)^(1/p)
    ||f||_{p,q}   = p^(1/q) ( int_0^inf [d_f(lam)^(1/p) lam]^q dlam/lam )^(1/q)

reduce to a finite scan over the sorted values and a finite segment sum.
Both are the normative algorithms here; quadrature appears only as a test
oracle.  q = infinity is math.inf, exported as Q_INF.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import StepFunction


Q_INF = math.inf  # the q of the weak space L^{p,inf}


def weak_norm(f: StepFunction, p: float) -> float:
    """||f||_{p,inf}, exact for step functions.

    The supremum over lam is attained in the left limit at a distinct value v,
    where lam d_f(lam)^(1/p) -> v |{f >= v}|^(1/p); scanning the cell values in
    decreasing order realizes |{f >= v}| as (rank of last occurrence) times the
    cell measure.
    """
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    vals = f.values
    if not np.any(vals > 0):
        return 0.0
    return float(weak_scan(vals, f.grid.cell_measure, p))


def weak_scan(values: np.ndarray, cell_measure: float, p: float = 1.0) -> np.ndarray:
    """The sorted weak-L^p scan, row by row along the last axis.

    Each row holds the cell values of one function (which may include +inf);
    the result is max_v v |{>= v}|^(1/p) per row, with |{>= v}| the rank of v
    in decreasing order times ``cell_measure``.
    """
    vals = np.sort(np.asarray(values, dtype=float), axis=-1)
    return _sorted_scan(vals, _descending_counts(vals.shape[-1], cell_measure, p))


def _descending_counts(size: int, cell_measure: float, p: float) -> np.ndarray:
    """The scan's rank counts |{>= v}|^(1/p) for the ranks size, ..., 1, one
    per position of an ascending row; each is the float of the ascending
    rank order, reversed after the power, and the array is contiguous."""
    counts = np.arange(1, size + 1, dtype=float) * cell_measure
    if p != 1.0:
        counts = counts ** (1.0 / p)
    return np.ascontiguousarray(counts[::-1])


def _sorted_scan(vals: np.ndarray, descending: np.ndarray) -> np.ndarray:
    """The scan of float rows already sorted ascending: multiply them in
    place by ``_descending_counts`` and return each row's max.  Each product
    is the one of the decreasing-order scan, so the max is the same float."""
    vals *= descending
    return vals.max(axis=-1)


def lorentz_norm(f: StepFunction, p: float, q: float) -> float:
    """||f||_{p,q} for finite p, q > 0 via the exact segment sum.

    Between consecutive breakpoints 0 = v_0 < v_1 < ... < v_m of f the
    distribution function is the constant d_i = |{f > v_i}|, so the defining
    integral is sum_i d_i^(q/p) (v_{i+1}^q - v_i^q)/q.  For p = q this equals
    the ordinary L^p norm.
    """
    if not (isinstance(q, (int, float)) and math.isfinite(q)):
        raise ValueError("q must be finite and positive; use weak_norm for q = Q_INF")
    if not (p > 0 and q > 0 and math.isfinite(p)):
        raise ValueError(f"exponents must be finite and positive, got p={p}, q={q}")
    vals = np.sort(f.values)
    breaks = np.unique(vals)
    if breaks[0] != 0.0:
        breaks = np.concatenate(([0.0], breaks))
    if breaks.size == 1:
        return 0.0
    # d(v_i) = number of cells strictly above v_i, times the cell measure.
    above = vals.size - np.searchsorted(vals, breaks[:-1], side="right")
    d = above.astype(float) * f.grid.cell_measure
    seg = d ** (q / p) * (breaks[1:] ** q - breaks[:-1] ** q) / q
    return float(p ** (1.0 / q) * seg.sum() ** (1.0 / q))
