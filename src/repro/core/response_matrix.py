"""Response-matrix construction (Algorithm 1 of the paper).

For an attribute pair ``(a_j, a_k)``, HDG combines the pair's 2-D grid
with the two attributes' finer 1-D grids into a ``c x c`` response matrix
``M`` whose entry ``M[v_j, v_k]`` estimates the frequency of the 2-D value
``(v_j, v_k)``.  Algorithm 1 is a Weighted Update iteration: starting from
the uniform matrix, repeatedly rescale — for every cell ``s`` of every one
of the three grids — the block of ``M`` entries covered by ``s`` so that
the block sums to the cell's (post-processed, non-negative) frequency,
until the total change per sweep falls below a threshold (any value below
``1/n`` per the paper).

Because grid cells are axis-aligned equal-width blocks, the updates are
implemented as vectorised block rescalings rather than through the generic
constraint engine; the semantics match Algorithm 1 line for line.

HDG builds every pair's matrix in one sweep over a ``(P, c, c)`` stack
(:func:`build_response_matrices`): each step is one NumPy call over the
pairs not yet converged (an active set), and a pair leaves the stack at
the sweep it converges in, so each pair keeps its own iteration count
and change history.  The per-pair reductions read the same memory layout
as a lone ``c x c`` matrix, so a stacked pair's matrix and history are
bitwise those of :func:`build_response_matrix`, a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid1D, Grid2D


@dataclass
class ResponseMatrixResult:
    """A built response matrix plus convergence diagnostics."""

    matrix: np.ndarray
    iterations: int
    converged: bool
    change_history: list[float] = field(default_factory=list)


def _rescale(stack: np.ndarray, targets: np.ndarray, rows_per_block: int,
             cols_per_block: int) -> None:
    """Rescale each ``(rows_per_block x cols_per_block)`` block of every
    matrix in ``stack`` so it sums to its entry of ``targets``
    (``(P, g_rows, g_cols)``); blocks with a zero current sum are left
    untouched (Algorithm 1 line 7)."""
    n_pairs, c_rows, c_cols = stack.shape
    g_rows = c_rows // rows_per_block
    g_cols = c_cols // cols_per_block
    blocked = stack.reshape(n_pairs, g_rows, rows_per_block, g_cols,
                            cols_per_block)
    sums = blocked.sum(axis=(2, 4))
    ratios = np.ones_like(targets)
    nonzero = sums != 0.0
    ratios[nonzero] = targets[nonzero] / sums[nonzero]
    blocked *= ratios.reshape(n_pairs, g_rows, 1, g_cols, 1)


def build_response_matrices(rows: np.ndarray, cols: np.ndarray,
                            pairs: np.ndarray, domain_size: int,
                            threshold: float = 1e-7,
                            max_iterations: int = 100
                            ) -> list[ResponseMatrixResult]:
    """Algorithm 1 for ``P`` attribute pairs at once.

    ``rows`` and ``cols`` are the ``(P, g1)`` frequencies of each pair's
    first and second attribute's 1-D grid (they constrain row-band and
    column-band sums), ``pairs`` the ``(P, g2, g2)`` frequencies of its
    2-D grid (block sums).  A pair stops once its summed absolute change
    per sweep falls below ``threshold`` (the paper recommends any value
    below ``1/n``), or after ``max_iterations`` sweeps (the paper sees
    convergence within roughly twenty).  Returns one result per pair,
    with its per-sweep change history; the matrices are views of one
    ``(P, c, c)`` array.
    """
    c = int(domain_size)
    n_pairs = len(pairs)
    matrices = np.full((n_pairs, c, c), 1.0 / (c * c))
    histories: list[list[float]] = [[] for _ in range(n_pairs)]
    # Rows per 1-D cell of the first attribute, columns per 1-D cell of
    # the second, rows/columns per 2-D cell.
    row_band, col_band = c // rows.shape[1], c // cols.shape[1]
    pair_band = c // pairs.shape[1]
    active, stack = np.arange(n_pairs), matrices
    targets = (rows.reshape(n_pairs, -1, 1), cols.reshape(n_pairs, 1, -1),
               pairs)
    buffer = np.empty_like(matrices)
    for _ in range(max_iterations):
        if not active.size:
            break
        before = buffer[:active.size]
        np.copyto(before, stack)
        _rescale(stack, targets[0], row_band, c)
        _rescale(stack, targets[1], c, col_band)
        _rescale(stack, targets[2], pair_band, pair_band)
        np.subtract(stack, before, out=before)
        changes = np.abs(before, out=before).reshape(active.size, -1).sum(
            axis=1)
        for pair, change in zip(active.tolist(), changes.tolist()):
            histories[pair].append(change)
        done = changes < threshold
        if done.any():
            # Until the first pair leaves, the stack is ``matrices``.
            if stack is not matrices:
                matrices[active[done]] = stack[done]
            active, stack = active[~done], stack[~done]
            targets = tuple(target[~done] for target in targets)
    if stack is not matrices:
        matrices[active] = stack
    return [ResponseMatrixResult(
                matrix=matrix, iterations=len(history),
                converged=bool(history) and history[-1] < threshold,
                change_history=history)
            for matrix, history in zip(matrices, histories)]


def build_response_matrix(grid_row: Grid1D, grid_col: Grid1D, grid_pair: Grid2D,
                          domain_size: int, threshold: float = 1e-7,
                          max_iterations: int = 100,
                          track_history: bool = False) -> ResponseMatrixResult:
    """Algorithm 1 for one attribute pair from its grids: the pair's
    first and second attribute's 1-D grids and its 2-D grid, as a stack
    of one (:func:`build_response_matrices`).  ``track_history`` keeps
    the per-sweep changes for the convergence experiment (Figure 17).
    """
    c = int(domain_size)
    if grid_pair.domain_size != c or grid_row.domain_size != c or grid_col.domain_size != c:
        raise ValueError("all grids must share the requested domain size")
    [result] = build_response_matrices(grid_row.frequencies[None],
                                       grid_col.frequencies[None],
                                       grid_pair.frequencies[None], c,
                                       threshold=threshold,
                                       max_iterations=max_iterations)
    if not track_history:
        result.change_history = []
    return result
