"""The g chi_Q rows of the harness's cube suites, evaluated as sorted runs.

``harness._cube_ratios`` evaluates, for a suite g, the weak-type ratio of
g chi_Q for every lattice cube Q.  M(g chi_Q) has a closed form, so a row is
W = ``kernel.direct_w`` times a few constants off Q and times g's running
maxima on Q.  ``CubeRows`` never builds a row on its N cells: it splits it
into sorted runs, bounds the row's weak norm from below, sorts only the
cells that can attain it, and sums the row's norm over one node of numpy's
pairwise sum.  Every ratio, nan row and error is the one of the dense row,
bit for bit; ``tests/oracles.py`` keeps that dense path as the oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import cube_blocks, level_value_sums
from .lorentz import _sorted_scan
from .operators import _average_scores

# A cube row scans only the cells that can attain its weak norm, and this
# relative margin absorbs the rounding of the bounds that pick them: each
# bound or threshold is a few roundings (2^-53 each) off the quantity it
# stands for, so with 1e-12 every cell left out is strictly below the norm,
# and the margin adds almost no cell to the scan.
_SELECT_MARGIN = 1e-12
_TINY = np.finfo(float).tiny

# Numpy's pairwise sum adds a row of at most this many cells in one loop and
# halves a longer row of 2^m cells until its parts are that short.
_PAIRWISE_LEAF = 128


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] + arange(lengths[i]), concatenated."""
    ends = np.cumsum(lengths)
    if not len(ends):
        return ends
    return np.repeat(starts - ends + lengths, lengths) + np.arange(ends[-1])


class CubeRows:
    """The g chi_Q rows of one ``harness._cube_ratios`` call as sorted runs.

    Built once per call: the suites' scaled level sums, running maxima and
    norm integrands; W = ``kernel.direct_w`` in blocks, one per cube of
    levels 1..depth, each sorted ascending; and each block's own weak scan
    (its cells' W against ranks within the block) and largest W, each as
    the max over the block's siblings.

    A block is addressed by its position b in the blocks of every level, in
    order; ``block_vals`` holds each block's sorted W, and ``block_keys``
    each cell's b * N plus its rank in a stable sort of all of W, which is
    ascending, so one ``searchsorted`` finds a threshold in every block.
    """

    def __init__(self, kernel, suites: np.ndarray, alpha, chunk_bytes: int):
        grid = kernel.grid
        n, depth, size = grid.n, grid.depth, grid.finest_count
        self.kernel, self.grid, self.s = kernel, grid, alpha / n
        self.chunk = chunk_bytes // 8  # cells per temporary array
        suites = kernel.scale(suites)
        self.sums = level_value_sums(suites, grid)
        scores = _average_scores(self.sums, grid, alpha)
        self.norm_cells = kernel.norm_cells(suites)
        # run[l]: the max of g's scores over levels l..depth along each cell's path
        self.run = [scores[depth]]
        for level in range(depth - 1, -1, -1):
            self.run.append(np.maximum(scores[level][:, grid.ancestor_index(level)],
                                       self.run[-1]))
        self.run.reverse()

        w, counts = kernel.direct_w, kernel.counts
        order = np.argsort(w, kind="stable")
        self.w_sorted = w[order]
        rank = np.empty(size, dtype=np.intp)
        rank[order] = np.arange(size)
        self.w_blocks = [cube_blocks(w, grid, level) for level in range(depth + 1)]
        self.cells = [cube_blocks(np.arange(size), grid, level) for level in range(depth + 1)]
        # per level, the cells of the smallest aligned node of numpy's
        # pairwise sum that holds a cube's cells (see _node_sums)
        self.nodes = [min(size, max(_PAIRWISE_LEAF, 1 << int(cells[0, -1]).bit_length()))
                      for cells in self.cells]
        # xor of a cube's flat index with masks[level] gives its siblings
        self.masks = np.array([[sum(1 << (level * (n - 1 - a)) for a in range(n) if m >> a & 1)
                                for m in range(1, 2 ** n)] for level in range(depth + 1)])
        # the first block of each level
        self.first = np.cumsum([0, 0] + [2 ** (level * n) for level in range(1, depth)])
        blocks = self.first[-1] + 2 ** (depth * n) if depth else 0
        self.block_vals, self.block_keys = np.empty(depth * size), np.empty(depth * size, np.intp)
        self.block_ends = np.empty(blocks, dtype=np.intp)
        self.sib_scan, self.sib_top = np.empty(blocks), np.empty(blocks)
        for level in range(1, depth + 1):
            ranks = np.sort(cube_blocks(rank, grid, level), axis=-1)
            count, width = ranks.shape
            block = self.w_sorted[ranks]
            cube, first = np.arange(count), self.first[level]
            cells = slice((level - 1) * size, level * size)
            self.block_vals[cells] = block.ravel()
            self.block_keys[cells] = ((first + cube)[:, None] * size + ranks).ravel()
            self.block_ends[first:first + count] = (level - 1) * size + width * (cube + 1)
            scan = (block * counts[size - width:]).max(axis=-1)
            scan[~(scan >= _TINY)] = 0.0  # a subnormal scan bounds nothing
            top = block[:, -1]
            self.sib_scan[first:first + count] = np.max(
                [scan[cube ^ m] for m in self.masks[level]], axis=0)
            self.sib_top[first:first + count] = np.max(
                [top[cube ^ m] for m in self.masks[level]], axis=0)

    def _blocks(self, level: int, chunk: np.ndarray):
        """For each cube of the chunk, the blocks of its ancestors at levels
        1..level (R, level), and of each one's siblings (R, level, 2^n - 1)."""
        n = self.grid.n
        up = np.arange(1, level + 1)
        coords = np.unravel_index(chunk, (2 ** level,) * n)
        local = sum((c[:, None] >> (level - up)) << (up * (n - 1 - a))
                    for a, c in enumerate(coords))
        first = self.first[1:level + 1]
        return local + first, (local[..., None] ^ self.masks[1:level + 1]) + first[:, None]

    def tables(self, suite, level: int) -> np.ndarray:
        """C_Q(k), k = 0..level, for every cube Q of the level and the
        suite (an index or a slice): (..., C, level + 1)."""
        meas = [self.grid.cube_measure(j) for j in range(level + 1)]
        with np.errstate(over="ignore"):  # a mean past the float range fails in the checks
            avg = self.sums[level][suite][..., None] * self.grid.cell_measure / np.array(meas)
            return np.maximum.accumulate(
                np.array([m ** self.s for m in meas]) * avg if self.s else avg, axis=-1)

    def rows(self, suite: int, level: int, cubes: np.ndarray) -> tuple[list[float], str | None]:
        """The ratios of the suite's rows of these cubes of the level, in
        order, and the error of the first failing row, as ``finish`` gives
        them; in chunks of at most chunk_bytes per array."""
        if not len(cubes):
            return [], None
        C = self.tables(suite, level)
        run = cube_blocks(self.run[level][suite], self.grid, level)
        # a row's on-Q run takes its cells of Q in each of a few arrays, and
        # its rings level (2^n - 1) entries in each of several
        step = max(1, self.chunk // max(run.shape[1], 4 * level * self.masks.shape[1]))
        out = []
        for start in range(0, len(cubes), step):
            chunk = cubes[start:start + step]
            finite, nums = self._scan(level, chunk, C[chunk], run[chunk])
            values, error = self.kernel.finish(
                finite, nums, self._node_sums(suite, level, chunk),
                lambda i: C[chunk[i], level] > 0.0 or run[chunk[i]].max() > 0.0)
            out += values
            if error:
                return out, error
        return out, None

    def _lower_bounds(self, level: int, chunk: np.ndarray, C: np.ndarray, run: np.ndarray,
                      ancestors: np.ndarray | None):
        """The rows' on-Q runs, sorted (R, cells of Q), whether every cell
        of each row is finite, and L, a lower bound of each row's weak norm:
        the larger of the on-Q run's scan against ranks within Q and, for
        each k < level, the largest block scan of a sibling of A_{k+1}
        (``ancestors`` holds A_{k+1}'s block) times C_Q(k), less the
        margin.  A cell's rank in Q or in its block is at most its rank in
        the row, so each is at most the row's scan.
        """
        counts, size = self.kernel.counts, self.grid.finest_count
        rings = C[:, :level]
        with np.errstate(all="ignore"):  # a row past the float range fails in finish
            h = self.w_blocks[level][chunk] * np.maximum(C[:, level:], run)
            h.sort(axis=-1)
            finite = np.isfinite(h[:, -1])
            low = (h * counts[size - h.shape[1]:]).max(axis=-1)
            if level:
                finite &= np.isfinite(self.sib_top[ancestors] * rings).all(axis=-1)
                low = np.maximum(low, (self.sib_scan[ancestors] * rings).max(axis=-1)
                                 * (1.0 - _SELECT_MARGIN))
        return h, finite, low

    def _scan(self, level: int, chunk: np.ndarray, C: np.ndarray, run: np.ndarray):
        """Each row's finiteness and weak norm, nan where it is not finite.

        Row Q is sorted runs: W max(C_Q(level), run_level) sorted within Q,
        and, for each k < level and each sibling D of A_{k+1}, D's sorted W
        times C_Q(k).  Its weak norm is at least L (``_lower_bounds``).  A
        cell of value h ranks at most N, so h (N |cell|)^(1/r) < L keeps it
        from the norm, and each run gives up, by ``searchsorted``, every
        cell at or above tau = L (1 - margin) / (N |cell|)^(1/r).  Every cell
        at or above tau then keeps its descending rank in the whole row, so
        the cells taken, sorted per row against the same counts, have the
        row's scan as their max.  Where L or tau is not a normal float a row
        takes every cell.
        """
        counts, size = self.kernel.counts, self.grid.finest_count
        width, rings = run.shape[1], C[:, :level]
        ancestors, blocks = self._blocks(level, chunk) if level else (None, None)
        h, finite, low = self._lower_bounds(level, chunk, C, run, ancestors)
        with np.errstate(all="ignore"):
            tau = low * (1.0 - _SELECT_MARGIN) / counts[0]
            # both normal, with room, so every product compared with tau is
            # rounded to 2^-53 relative and never subnormal
            tau = np.where((_TINY <= low) & (low < math.inf) & (tau >= 2.0 * _TINY), tau, 0.0)
            on = width - (h < tau[:, None]).sum(axis=-1)
            taken = on
            if level:
                # a W below limit keeps W C_Q(k) below tau
                limit = tau[:, None] / rings * (1.0 - _SELECT_MARGIN)
                limit = np.where(limit >= _TINY, limit, 0.0)
                starts = np.searchsorted(self.block_keys, blocks * size + np.searchsorted(
                    self.w_sorted, limit)[..., None])
                lengths = self.block_ends[blocks] - starts
                taken = taken + lengths.sum(axis=(1, 2))
        nums = np.full(len(chunk), np.nan)
        order = np.flatnonzero(finite)
        order = order[np.argsort(taken[order], kind="stable")]
        cap = self.chunk // 2  # a group's few arrays stay within chunk_bytes
        pos = 0
        while pos < len(order):
            # rows by size, as many as fit one array of cap cells
            sizes = taken[order[pos:]]
            end = pos + max(1, int(np.searchsorted(np.arange(1, len(sizes) + 1) * sizes, cap,
                                                   side="right")))
            group = order[pos:end]
            cells = int(taken[group[-1]])
            vals = np.full((len(group), cells), -np.inf)
            base = np.arange(len(group)) * cells
            top = on[group]
            vals.flat[_ragged(base, top)] = h.ravel()[_ragged((group + 1) * width - top, top)]
            if level:
                parts = lengths[group].reshape(len(group), -1)
                at = base[:, None] + top[:, None] + np.cumsum(parts, axis=1) - parts
                scale = np.repeat(rings[group], self.masks.shape[1], axis=1).ravel()
                parts = parts.ravel()
                w_taken = self.block_vals[_ragged(starts[group].ravel(), parts)]
                vals.flat[_ragged(at.ravel(), parts)] = w_taken * np.repeat(scale, parts)
            vals.sort(axis=-1)
            with np.errstate(over="ignore"):  # an overflowed norm fails in finish
                nums[group] = _sorted_scan(vals, counts[size - cells:])
            pos = end
        return finite, nums

    def _node_sums(self, suite: int, level: int, chunk: np.ndarray) -> np.ndarray:
        """The norm sums of the rows of these cubes, each as numpy sums the
        N-cell row that holds g's norm integrand on Q and +0.0 off it.

        Numpy's pairwise sum halves a row of N = 2^m cells down to nodes of
        at most _PAIRWISE_LEAF cells, and every node off Q's cells sums to
        exactly +0.0, so the row's sum is the sum of the smallest aligned
        node, of at least _PAIRWISE_LEAF cells (or N), that holds Q's cells:
        that node's slice of the row is summed, not the row.  The tests'
        dense oracle, which sums the N-cell row, guards this assumption
        about numpy.
        """
        cells, norm, node = self.cells[level][chunk], self.norm_cells[suite], self.nodes[level]
        if node == cells.shape[1]:  # Q's cells are the node, in flat order
            return norm[cells].sum(axis=-1)
        sums = np.empty(len(chunk))
        step = max(1, self.chunk // (2 * node))  # the nodes and their indices fit chunk_bytes
        for start in range(0, len(chunk), step):
            part = cells[start:start + step]
            rows = np.zeros((len(part), node))
            np.put_along_axis(rows, part & (node - 1), norm[part], axis=1)
            sums[start:start + step] = rows.sum(axis=-1)
        return sums
