"""Prefix-sum tables for O(1) range answering (Phase 3 of TDG/HDG).

Phase 3 originally answered every range query by looping over grid cells
in Python.  This module precomputes prefix sums so that a range answer
becomes a constant number of corner lookups, under three rules:

* 1-D uniformity (a :class:`~repro.core.grid.Grid1D`): the value-level
  prefix ``V(x)`` (mass strictly below value ``x``) is
  ``P[x // w] + (x mod w) * f[x // w] / w`` where ``P`` is the cell
  prefix sum, so an answer is ``V(high + 1) - V(low)``.
* 2-D uniformity (TDG, a :class:`~repro.core.grid.Grid2D`): the bilinear
  value prefix ``D(x, y) = S[i, j] + fx/w * R[i, j] + fy/w * C[i, j] +
  fx*fy/w^2 * f[i, j]`` from the cell summed-area table ``S``, the row
  and column partial sums ``R`` and ``C`` and the frequencies ``f``,
  with ``i = x // w``, ``fx = x mod w`` (likewise ``j``/``fy``); an
  answer is the four-corner difference of ``D``.
* response matrix (HDG, Section 4.1): fully covered cells contribute
  their frequency and partially covered cells the response matrix's
  mass — the cell block's grid mass, plus the query rectangle's matrix
  mass, minus the cell block's matrix mass, each a summed-area
  rectangle.

There is one table type per dimension: :class:`PrefixStack1D` and
:class:`PrefixStack2D` stack the tables of equal-shape grids along a
leading grid axis (TDG/HDG give every 2-D grid the same ``g2`` and
every 1-D grid the same ``g1``), so one fancy-indexed gather answers
rows aimed at different grids.  A fitted TDG/HDG stacks all its grids
once; a lone grid answers through a stack of one built for the call.

Each stack has two evaluations: ``answer`` over arrays of (grid,
endpoints) rows, one flat ``take`` per table, and the one-row methods
on Python ints and floats, which read the same entries with
``ndarray.item``.  ``answer`` runs the one-row methods row by row for
at most :data:`SCALAR_ROWS` rows: below that size NumPy's fixed
per-call cost exceeds the Python loop.  Both combine the entries in
exactly the same association, so a query's answer is bitwise the same
whether it is gathered alone or inside a batch:

* rectangle: ``((T[rh+1, ch+1] - T[rl, ch+1]) - T[rh+1, cl]) + T[rl, cl]``,
  and ``0.0`` for an empty rectangle;
* 1-D uniformity: ``V(high + 1) - V(low)``;
* 2-D uniformity (TDG): ``((S + fx*R/w) + fy*C/w) + fx*fy*f/(w*w)`` per
  corner, combined as ``((D(rh, ch) - D(rl, ch)) - D(rh, cl)) + D(rl, cl)``;
* response matrix (HDG): ``(grid block + matrix rectangle) - matrix
  block``.

The answers are algebraically identical to the per-cell loops in
``tests/oracles.py``; the test suite asserts agreement to 1e-9 on
randomised inputs.
"""

from __future__ import annotations

import numpy as np

#: Largest gather answered row by row on Python scalars; larger ones run
#: the vectorised rules.  Where the per-row Python loop overtakes NumPy's
#: fixed per-call cost (2-vCPU host, numpy 2.4): about 9 rows for the
#: uniformity rule, 16 for the 1-D rule and 36 for the response-matrix
#: rule.  16 keeps every rule within about 40 µs of its faster form.
SCALAR_ROWS = 16


# ----------------------------------------------------------------------
# Table builders for a list of equal-shape grids, stacked on a leading
# axis.  The padding is zeroed across the stack, the rest is filled one
# grid at a time, each NumPy call the size of one grid's table.  In a
# server, a NumPy call that releases the GIL lets a concurrent reader
# take it, and the finalizing thread then waits for the GIL back, so
# in-process timings cannot choose between per-grid calls and one call
# over the stack; only the in-server span can.  For Algorithm 1 it did
# (perfbench ``ingest-refresh --trace 1``, HDG, d=6, c=64, 2 vCPUs):
# ``finalize.phase2`` took 12.7 ms per re-finalize with one call per
# step over the (15, 64, 64) stack and 29.3 ms with the same steps
# called pair by pair.  These builders have not been measured that way.
# ----------------------------------------------------------------------
def _sats(matrices: list) -> np.ndarray:
    """Summed-area tables behind a leading zero row and column:
    ``T[g, i, j] = matrices[g][:i, :j].sum()``."""
    n_rows, n_cols = np.shape(matrices[0])
    tables = np.empty((len(matrices), n_rows + 1, n_cols + 1))
    tables[:, 0] = tables[:, :, 0] = 0.0
    for matrix, table in zip(matrices, tables):
        np.cumsum(matrix, axis=0, out=table[1:, 1:])
        np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return tables


def _tables_1d(grids: list) -> tuple:
    """The 1-D rule's cell prefix sums ``P`` and frequencies ``f``.  The
    trailing zero cell lets position ``c`` (one past the domain) index
    with a zero fraction."""
    shape = (len(grids), len(grids[0]) + 1)
    cell_prefix, freq_padded = np.empty(shape), np.empty(shape)
    cell_prefix[:, 0] = freq_padded[:, -1] = 0.0
    for grid, prefix, padded in zip(grids, cell_prefix, freq_padded):
        np.cumsum(grid, out=prefix[1:])
        padded[:-1] = grid
    return cell_prefix, freq_padded


def _tables_2d(grids: list) -> tuple:
    """The 2-D uniformity rule's ``S``, ``R``, ``C`` and ``f``; the
    partial sums and frequencies are zero-padded so cell ``g`` is
    valid."""
    g_rows, g_cols = np.shape(grids[0])
    shape = (len(grids), g_rows + 1, g_cols + 1)
    row_cum, col_cum, freq_padded = (np.empty(shape) for _ in range(3))
    row_cum[:, :, 0] = row_cum[:, g_rows] = 0.0
    col_cum[:, 0] = col_cum[:, :, g_cols] = 0.0
    freq_padded[:, g_rows] = freq_padded[:, :, g_cols] = 0.0
    for grid, rows, cols, padded in zip(grids, row_cum, col_cum,
                                        freq_padded):
        np.cumsum(grid, axis=1, out=rows[:g_rows, 1:])
        np.cumsum(grid, axis=0, out=cols[1:, :g_cols])
        padded[:g_rows, :g_cols] = grid
    return _sats(grids), row_cum, col_cum, freq_padded


# ----------------------------------------------------------------------
# Vectorised rules.  ``grids`` indexes the leading grid axis of the
# stacked tables (one entry per row); each rule gathers all its corners
# with one flat ``take`` per table.
# ----------------------------------------------------------------------
def _corner_sum(table: np.ndarray, grids: np.ndarray, stop: np.ndarray,
                start: np.ndarray) -> np.ndarray:
    """Sums of the half-open rectangles ``[start, stop)`` of an exclusive
    prefix table: ``T[stop] - T[start row, stop col] - T[stop row, start
    col] + T[start]``.

    ``stop`` and ``start`` hold row coordinates in entry 0 and column
    coordinates in entry 1.  A rectangle empty on either axis reads its
    grid's zero corner ``T[g, 0, 0]`` four times, which sums to exactly 0.
    """
    n_rows, n_cols = table.shape[1:]
    index = (np.multiply((stop[0], start[0]), n_cols)[:, None]
             + np.array((stop[1], start[1])))
    index *= (start < stop).all(axis=0)
    index += grids * (n_rows * n_cols)
    corner = table.reshape(-1).take(index)
    return corner[0, 0] - corner[1, 0] - corner[0, 1] + corner[1, 1]


def _range_1d(cell_prefix: np.ndarray, freq_padded: np.ndarray, w: int,
              grids: np.ndarray, lows, highs) -> np.ndarray:
    """``V(high + 1) - V(low)``, both value prefixes in one gather."""
    cell, frac = np.divmod(
        np.stack([np.asarray(highs, dtype=np.int64) + 1,
                  np.asarray(lows, dtype=np.int64)]), w)
    cell += grids * cell_prefix.shape[1]
    prefix = (cell_prefix.reshape(-1).take(cell)
              + frac * freq_padded.reshape(-1).take(cell) / w)
    return prefix[0] - prefix[1]


def _uniform_rule(tables: tuple, w: int, grids: np.ndarray, row_lows,
                  row_highs, col_lows, col_highs) -> np.ndarray:
    """The uniformity rule: ``D``'s four corners, in one gather."""
    rl = np.asarray(row_lows, dtype=np.int64)
    rh = np.asarray(row_highs, dtype=np.int64) + 1
    cl = np.asarray(col_lows, dtype=np.int64)
    ch = np.asarray(col_highs, dtype=np.int64) + 1
    i, fx = np.divmod(np.stack([rh, rl, rh, rl]), w)
    j, fy = np.divmod(np.stack([ch, ch, cl, cl]), w)
    n_rows, n_cols = tables[0].shape[1:]
    cell = i * n_cols + j
    cell += grids * (n_rows * n_cols)
    cell_sat, row_cum, col_cum, freq_padded = (
        table.reshape(-1).take(cell) for table in tables)
    corner = (cell_sat + fx * row_cum / w + fy * col_cum / w
              + fx * fy * freq_padded / (w * w))
    return corner[0] - corner[1] - corner[2] + corner[3]


def _response_rule(cell_sat: np.ndarray, matrix: np.ndarray, w: int,
                   grids: np.ndarray, row_lows, row_highs, col_lows,
                   col_highs) -> np.ndarray:
    """The response-matrix rule: the cell block's grid mass, plus the
    query rectangle's matrix mass, minus the cell block's matrix mass."""
    start = np.array((row_lows, col_lows), dtype=np.int64)
    stop = np.array((row_highs, col_highs), dtype=np.int64) + 1
    # The fully covered cells: [first, last] with last = cell_stop - 1.
    first_cell, cell_stop = -(-start // w), stop // w
    grid_part = _corner_sum(cell_sat, grids, cell_stop, first_cell)
    # The query rectangle and the full-cell block, in one matrix gather.
    matrix_all, matrix_full = _corner_sum(
        matrix, grids, np.stack((stop, cell_stop * w), axis=1),
        np.stack((start, first_cell * w), axis=1))
    return grid_part + matrix_all - matrix_full


def _rect_sum_one(table: np.ndarray, grid: int, row_low: int, row_high: int,
                  col_low: int, col_high: int) -> float:
    """One inclusive rectangle of grid ``grid``'s exclusive prefix table,
    in :func:`_corner_sum`'s association, on Python scalars."""
    if row_low > row_high or col_low > col_high:
        return 0.0
    item = table.item
    return (item(grid, row_high + 1, col_high + 1)
            - item(grid, row_low, col_high + 1)
            - item(grid, row_high + 1, col_low) + item(grid, row_low, col_low))


# ----------------------------------------------------------------------
# The stacks
# ----------------------------------------------------------------------
class PrefixStack1D:
    """The 1-D uniformity-rule tables of equal-shape 1-D grids, stacked.

    Built from the grids' frequency vectors; grid ``a`` of the stack is
    entry ``a`` of the list.
    """

    def __init__(self, frequencies: list, cell_width: int):
        self.cell_width = int(cell_width)
        self._cell_prefix, self._freq_padded = _tables_1d(frequencies)

    def answer_one(self, grid: int, low: int, high: int) -> float:
        """Grid ``grid`` over ``[low, high]``, on Python scalars."""
        w = self.cell_width
        prefix, padded = self._cell_prefix.item, self._freq_padded.item
        cell, frac = divmod(high + 1, w)
        above = prefix(grid, cell) + frac * padded(grid, cell) / w
        cell, frac = divmod(low, w)
        return above - (prefix(grid, cell) + frac * padded(grid, cell) / w)

    def answer(self, grids: np.ndarray, lows: np.ndarray,
               highs: np.ndarray) -> np.ndarray:
        """Row ``k``: grid ``grids[k]`` over ``[lows[k], highs[k]]``."""
        if len(grids) <= SCALAR_ROWS:
            one = self.answer_one
            return np.array([one(*row) for row in zip(
                grids.tolist(), lows.tolist(), highs.tolist())])
        return _range_1d(self._cell_prefix, self._freq_padded,
                         self.cell_width, grids, lows, highs)


class PrefixStack2D:
    """The 2-D tables of equal-shape 2-D grids, stacked.

    Built from the grids' frequency matrices; grid ``p`` of the stack is
    entry ``p`` of the list.  With ``matrices`` (HDG's response
    matrices, one per grid) the stack holds the grids' and the
    matrices' summed-area tables and answers by the response-matrix
    rule; without, the uniformity tables and the uniformity rule (TDG).
    """

    def __init__(self, frequencies: list, cell_width: int,
                 matrices: list | None = None):
        self.cell_width = int(cell_width)
        if matrices is None:
            self._tables, self._matrix = _tables_2d(frequencies), None
        else:
            self._tables, self._matrix = (_sats(frequencies),), _sats(matrices)

    def _value_prefix_one(self, grid: int, x: int, y: int) -> float:
        """``D(x, y)`` of grid ``grid``, on Python scalars."""
        w = self.cell_width
        i, fx = divmod(x, w)
        j, fy = divmod(y, w)
        cell_sat, row_cum, col_cum, freq_padded = self._tables
        return (cell_sat.item(grid, i, j)
                + fx * row_cum.item(grid, i, j) / w
                + fy * col_cum.item(grid, i, j) / w
                + fx * fy * freq_padded.item(grid, i, j) / (w * w))

    def answer_one(self, grid: int, row_low: int, row_high: int,
                   col_low: int, col_high: int) -> float:
        """Grid ``grid`` over one rectangle by the stack's rule, on
        Python scalars."""
        if self._matrix is None:
            prefix = self._value_prefix_one
            rh, ch = row_high + 1, col_high + 1
            return (prefix(grid, rh, ch) - prefix(grid, row_low, ch)
                    - prefix(grid, rh, col_low)
                    + prefix(grid, row_low, col_low))
        w = self.cell_width
        first_row, last_row = -(-row_low // w), (row_high + 1) // w - 1
        first_col, last_col = -(-col_low // w), (col_high + 1) // w - 1
        matrix = self._matrix
        grid_part = _rect_sum_one(self._tables[0], grid, first_row, last_row,
                                  first_col, last_col)
        matrix_all = _rect_sum_one(matrix, grid, row_low, row_high, col_low,
                                   col_high)
        matrix_full = _rect_sum_one(
            matrix, grid, first_row * w, (last_row + 1) * w - 1,
            first_col * w, (last_col + 1) * w - 1)
        return grid_part + matrix_all - matrix_full

    def answer(self, grids: np.ndarray, row_lows: np.ndarray,
               row_highs: np.ndarray, col_lows: np.ndarray,
               col_highs: np.ndarray) -> np.ndarray:
        """Row ``k``: grid ``grids[k]`` over row ``k``'s rectangle."""
        if len(grids) <= SCALAR_ROWS:
            one = self.answer_one
            return np.array([one(*row) for row in zip(
                grids.tolist(), row_lows.tolist(), row_highs.tolist(),
                col_lows.tolist(), col_highs.tolist())])
        if self._matrix is None:
            return _uniform_rule(self._tables, self.cell_width, grids,
                                 row_lows, row_highs, col_lows, col_highs)
        return _response_rule(self._tables[0], self._matrix, self.cell_width,
                              grids, row_lows, row_highs, col_lows, col_highs)
