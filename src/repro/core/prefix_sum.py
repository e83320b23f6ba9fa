"""Prefix-sum indexes for O(1) range answering (the batch query engine).

Phase 3 originally answered every range query by looping over grid cells
in Python.  This module precomputes summed-area tables (2-D prefix sums)
so that a range answer becomes a constant number of corner lookups:

* :class:`PrefixIndex1D` — answers 1-D range queries over a
  :class:`~repro.core.grid.Grid1D` frequency vector under the uniformity
  assumption.  The value-level prefix ``V(x)`` (mass strictly below value
  ``x``) is ``P[x // w] + (x mod w) * f[x // w] / w`` where ``P`` is the
  cell prefix sum, so an answer is ``V(high + 1) - V(low)``.
* :class:`PrefixIndex2D` — the 2-D analogue for
  :class:`~repro.core.grid.Grid2D` under the uniformity assumption (the
  TDG rule).  The bilinear value prefix ``D(x, y)`` decomposes into a
  cell summed-area term, two partial-band terms and a corner term, each a
  single table lookup.
* :class:`SummedAreaTable` — a plain 2-D prefix sum over an arbitrary
  value-level matrix; used for the HDG response matrices, where partially
  covered cells contribute exact response-matrix mass.

Every rule has two evaluations: a vectorised one over arrays of interval
endpoints, which is what makes workload batching (thousands of queries
per call) cheap, and a one-row one (the ``*_one`` functions) on Python
ints and floats, which answers a lone query without a NumPy call per
lookup.  The one-row evaluation reads the same table entries with
``ndarray.item`` and combines them in exactly the association the
vectorised one uses, so a query's answer is bitwise the same whether
it is gathered alone or inside a batch:

* rectangle: ``((T[rh+1, ch+1] - T[rl, ch+1]) - T[rh+1, cl]) + T[rl, cl]``,
  and ``0.0`` for an empty rectangle;
* 1-D uniformity: ``V(high + 1) - V(low)``;
* 2-D uniformity (TDG): ``((S + fx*R/w) + fy*C/w) + fx*fy*f/(w*w)`` per
  corner, combined as ``((D(rh, ch) - D(rl, ch)) - D(rh, cl)) + D(rl, cl)``;
* response matrix (HDG): ``(grid block + matrix rectangle) - matrix
  block``.

:class:`PrefixStack1D` and :class:`PrefixStack2D` stack the tables of
a mechanism's equal-shape grids along a leading grid axis (TDG/HDG give
every 2-D grid the same ``g2`` and every 1-D grid the same ``g1``), so
one fancy-indexed gather answers rows aimed at different grids.  The
per-grid indexes keep answering through views into the stack.  A gather
of at most :data:`SCALAR_ROWS` rows runs row by row through the per-grid
``*_one`` functions instead: below that size NumPy's fixed per-call cost
exceeds the Python loop.  Both forms read the same entries in the same
association, so the answer is bitwise the same.

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

#: The four tables of a :class:`PrefixIndex2D`, in ``D(x, y)`` term order.
_TABLES_2D = ("_cell_sat", "_row_cum", "_col_cum", "_freq_padded")


def prefix_sum_1d(values: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums: ``P[i] = sum(values[:i])``, length ``n + 1``."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ValueError("prefix_sum_1d expects a 1-D array")
    out = np.zeros(values.size + 1)
    np.cumsum(values, out=out[1:])
    return out


def summed_area_table(matrix: np.ndarray) -> np.ndarray:
    """Exclusive 2-D prefix sums: ``T[i, j] = matrix[:i, :j].sum()``.

    The returned table has one extra leading row and column of zeros so
    that rectangle sums need no boundary special-casing.
    """
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ValueError("summed_area_table expects a 2-D array")
    return _sats([matrix])[0]


# ----------------------------------------------------------------------
# Table builders for a list of equal-shape grids, stacked on a leading
# axis; a single grid's index is a stack of one.  The padding is zeroed
# across the stack, the rest is filled one grid at a time, each NumPy
# call the size of one grid's table: one call over a whole stack can
# release the GIL long enough for a concurrent reader to take it, and a
# server thread that loses the GIL waits a thread switch.
# ----------------------------------------------------------------------
def _sats(matrices: list) -> np.ndarray:
    """Summed-area tables behind a leading zero row and column."""
    n_rows, n_cols = np.shape(matrices[0])
    tables = np.empty((len(matrices), n_rows + 1, n_cols + 1))
    tables[:, 0] = tables[:, :, 0] = 0.0
    for matrix, table in zip(matrices, tables):
        np.cumsum(matrix, axis=0, out=table[1:, 1:])
        np.cumsum(table[1:, 1:], axis=1, out=table[1:, 1:])
    return tables


def _tables_1d(grids: list) -> tuple:
    """:class:`PrefixIndex1D`'s tables.  The trailing zero cell lets
    position ``c`` (one past the domain) index with a zero fraction."""
    shape = (len(grids), len(grids[0]) + 1)
    cell_prefix, freq_padded = np.empty(shape), np.empty(shape)
    cell_prefix[:, 0] = freq_padded[:, -1] = 0.0
    for grid, prefix, padded in zip(grids, cell_prefix, freq_padded):
        np.cumsum(grid, out=prefix[1:])
        padded[:-1] = grid
    return cell_prefix, freq_padded


def _tables_2d(grids: list) -> tuple:
    """:class:`PrefixIndex2D`'s four tables (:data:`_TABLES_2D`); the
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
# Vectorised rules.  ``at`` indexes the leading grid axis of a stacked
# table (one entry per row); ``()`` reads a single grid's table.  Each
# rule gathers all its corners with one flat ``take`` per table.
# ----------------------------------------------------------------------
def _corner_sum(table: np.ndarray, at: tuple, stop: np.ndarray,
                start: np.ndarray) -> np.ndarray:
    """Sums of the half-open rectangles ``[start, stop)`` of an exclusive
    prefix table: ``T[stop] - T[start row, stop col] - T[stop row, start
    col] + T[start]``.

    ``stop`` and ``start`` hold row coordinates in entry 0 and column
    coordinates in entry 1.  A rectangle empty on either axis reads the
    table's zero corner ``T[0, 0]`` four times, which sums to exactly 0.
    """
    n_rows, n_cols = table.shape[-2:]
    index = (np.multiply((stop[0], start[0]), n_cols)[:, None]
             + np.array((stop[1], start[1])))
    index *= (start < stop).all(axis=0)
    if at:
        index += at[0] * (n_rows * n_cols)
    corner = table.reshape(-1).take(index)
    return corner[0, 0] - corner[1, 0] - corner[0, 1] + corner[1, 1]


def _rect_sum(table: np.ndarray, row_low, row_high, col_low,
              col_high) -> np.ndarray:
    """Inclusive rectangle sums over an exclusive prefix table.

    All four bounds broadcast; rectangles with ``low > high`` in either
    axis contribute 0.
    """
    rl, rh, cl, ch = np.broadcast_arrays(
        *(np.asarray(bound, dtype=np.int64)
          for bound in (row_low, row_high, col_low, col_high)))
    return _corner_sum(table, (), np.array((rh, ch)) + 1,
                       np.array((rl, cl)))


def _value_prefix_1d(cell_prefix: np.ndarray, freq_padded: np.ndarray,
                     w: int, x: np.ndarray, at: tuple = ()) -> np.ndarray:
    """``V(x)``: the mass strictly below position ``x``."""
    cell, frac = np.divmod(x, w)
    if at:
        cell = cell + at[0] * cell_prefix.shape[-1]
    return (cell_prefix.reshape(-1).take(cell)
            + frac * freq_padded.reshape(-1).take(cell) / w)


def _range_1d(cell_prefix: np.ndarray, freq_padded: np.ndarray, w: int,
              lows, highs, at: tuple = ()) -> np.ndarray:
    """``V(high + 1) - V(low)``, both value prefixes in one gather."""
    prefix = _value_prefix_1d(
        cell_prefix, freq_padded, w,
        np.stack([np.asarray(highs, dtype=np.int64) + 1,
                  np.asarray(lows, dtype=np.int64)]), at)
    return prefix[0] - prefix[1]


def _uniform_prefix(tables: tuple, w: int, x: np.ndarray, y: np.ndarray,
                    at: tuple = ()) -> np.ndarray:
    """``D(x, y)``: the bilinear mass strictly below ``(x, y)``."""
    i, fx = np.divmod(x, w)
    j, fy = np.divmod(y, w)
    n_rows, n_cols = tables[0].shape[-2:]
    cell = i * n_cols + j
    if at:
        cell += at[0] * (n_rows * n_cols)
    cell_sat, row_cum, col_cum, freq_padded = (
        table.reshape(-1).take(cell) for table in tables)
    return (cell_sat + fx * row_cum / w + fy * col_cum / w
            + fx * fy * freq_padded / (w * w))


def _uniform_rule(tables: tuple, w: int, row_lows, row_highs, col_lows,
                  col_highs, at: tuple = ()) -> np.ndarray:
    """The uniformity rule: ``D``'s four corners, in one gather."""
    rl = np.asarray(row_lows, dtype=np.int64)
    rh = np.asarray(row_highs, dtype=np.int64) + 1
    cl = np.asarray(col_lows, dtype=np.int64)
    ch = np.asarray(col_highs, dtype=np.int64) + 1
    corner = _uniform_prefix(tables, w, np.stack([rh, rl, rh, rl]),
                             np.stack([ch, ch, cl, cl]), at)
    return corner[0] - corner[1] - corner[2] + corner[3]


def _response_rule(cell_sat: np.ndarray, matrix: np.ndarray, w: int,
                   row_lows, row_highs, col_lows, col_highs,
                   at: tuple = ()) -> np.ndarray:
    """The response-matrix rule: the cell block's grid mass, plus the
    query rectangle's matrix mass, minus the cell block's matrix mass."""
    start = np.array((row_lows, col_lows), dtype=np.int64)
    stop = np.array((row_highs, col_highs), dtype=np.int64) + 1
    # The fully covered cells: [first, last] with last = cell_stop - 1.
    first_cell, cell_stop = -(-start // w), stop // w
    grid_part = _corner_sum(cell_sat, at, cell_stop, first_cell)
    # The query rectangle and the full-cell block, in one matrix gather.
    matrix_all, matrix_full = _corner_sum(
        matrix, at, np.stack((stop, cell_stop * w), axis=1),
        np.stack((start, first_cell * w), axis=1))
    return grid_part + matrix_all - matrix_full


def _rect_sum_one(table: np.ndarray, row_low: int, row_high: int,
                  col_low: int, col_high: int) -> float:
    """One rectangle of :func:`_rect_sum` on Python scalars."""
    if row_low > row_high or col_low > col_high:
        return 0.0
    item = table.item
    return (item(row_high + 1, col_high + 1) - item(row_low, col_high + 1)
            - item(row_high + 1, col_low) + item(row_low, col_low))


class SummedAreaTable:
    """O(1) inclusive rectangle sums over a fixed value-level matrix."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=float)
        self.shape = matrix.shape
        self._table = summed_area_table(matrix)

    def rect_sum(self, row_low, row_high, col_low, col_high) -> np.ndarray:
        """Sum over the inclusive rectangle(s) ``[row_low..row_high] x [col_low..col_high]``."""
        return _rect_sum(self._table, row_low, row_high, col_low, col_high)


class PrefixIndex1D:
    """Uniformity-rule 1-D range answering in O(1) per query.

    Parameters
    ----------
    frequencies:
        Cell frequency vector of length ``g``.
    cell_width:
        Number of domain values per cell ``w`` (domain size is ``g * w``).
    """

    def __init__(self, frequencies: np.ndarray, cell_width: int):
        frequencies = np.asarray(frequencies, dtype=float)
        self.cell_width = int(cell_width)
        self.domain_size = frequencies.size * self.cell_width
        self._cell_prefix, self._freq_padded = (
            table[0] for table in _tables_1d([frequencies]))

    def value_prefix(self, positions) -> np.ndarray:
        """Mass strictly below each position (positions in ``[0, c]``)."""
        return _value_prefix_1d(self._cell_prefix, self._freq_padded,
                                self.cell_width,
                                np.asarray(positions, dtype=np.int64))

    def answer(self, lows, highs) -> np.ndarray:
        """Vectorised inclusive range answers ``[low, high]``."""
        return _range_1d(self._cell_prefix, self._freq_padded,
                         self.cell_width, lows, highs)

    def _value_prefix_one(self, position: int) -> float:
        cell, frac = divmod(position, self.cell_width)
        return (self._cell_prefix.item(cell)
                + frac * self._freq_padded.item(cell) / self.cell_width)

    def answer_one(self, low: int, high: int) -> float:
        """One row of :meth:`answer` on Python scalars."""
        return self._value_prefix_one(high + 1) - self._value_prefix_one(low)


class PrefixIndex2D:
    """Uniformity-rule 2-D range answering in O(1) per query.

    Precomputes the cell summed-area table plus the row/column partial
    cumulative sums needed by the bilinear value prefix

    ``D(x, y) = S[i, j] + fx/w * R[i, j] + fy/w * C[i, j] + fx*fy/w^2 * f[i, j]``

    with ``i = x // w``, ``fx = x mod w`` (and likewise ``j``/``fy``), so a
    range answer is the usual four-corner difference of ``D``.
    """

    def __init__(self, frequencies: np.ndarray, cell_width: int):
        frequencies = np.asarray(frequencies, dtype=float)
        if frequencies.ndim != 2:
            raise ValueError("PrefixIndex2D expects a 2-D frequency array")
        self.cell_width = int(cell_width)
        (self._cell_sat, self._row_cum, self._col_cum,
         self._freq_padded) = (table[0] for table in
                               _tables_2d([frequencies]))

    def _tables(self) -> tuple:
        return tuple(getattr(self, name) for name in _TABLES_2D)

    def value_prefix(self, xs, ys) -> np.ndarray:
        """Bilinear mass strictly below ``(x, y)`` (positions in ``[0, c]``)."""
        return _uniform_prefix(self._tables(), self.cell_width,
                               np.asarray(xs, dtype=np.int64),
                               np.asarray(ys, dtype=np.int64))

    def answer_uniform(self, row_lows, row_highs, col_lows, col_highs) -> np.ndarray:
        """Vectorised 2-D range answers under the uniformity assumption."""
        return _uniform_rule(self._tables(), self.cell_width, row_lows,
                             row_highs, col_lows, col_highs)

    def _value_prefix_one(self, x: int, y: int) -> float:
        w = self.cell_width
        i, fx = divmod(x, w)
        j, fy = divmod(y, w)
        return (self._cell_sat.item(i, j)
                + fx * self._row_cum.item(i, j) / w
                + fy * self._col_cum.item(i, j) / w
                + fx * fy * self._freq_padded.item(i, j) / (w * w))

    def answer_uniform_one(self, row_low: int, row_high: int, col_low: int,
                           col_high: int) -> float:
        """One row of :meth:`answer_uniform` on Python scalars."""
        prefix = self._value_prefix_one
        rh, ch = row_high + 1, col_high + 1
        return (prefix(rh, ch) - prefix(row_low, ch)
                - prefix(rh, col_low) + prefix(row_low, col_low))

    def answer_response(self, response_index: SummedAreaTable, row_lows,
                        row_highs, col_lows, col_highs) -> np.ndarray:
        """Vectorised 2-D range answers under the response-matrix rule.

        Fully covered cells contribute their frequency and partially
        covered cells the response matrix's mass: the cell block's grid
        mass, plus the query rectangle's matrix mass, minus the cell
        block's matrix mass.
        """
        return _response_rule(self._cell_sat, response_index._table,
                              self.cell_width, row_lows, row_highs,
                              col_lows, col_highs)

    def answer_response_one(self, response_index: SummedAreaTable,
                            row_low: int, row_high: int, col_low: int,
                            col_high: int) -> float:
        """One row of :meth:`answer_response` on Python scalars."""
        w = self.cell_width
        first_row, last_row = -(-row_low // w), (row_high + 1) // w - 1
        first_col, last_col = -(-col_low // w), (col_high + 1) // w - 1
        matrix = response_index._table
        grid_part = _rect_sum_one(self._cell_sat, first_row, last_row,
                                  first_col, last_col)
        matrix_all = _rect_sum_one(matrix, row_low, row_high,
                                   col_low, col_high)
        matrix_full = _rect_sum_one(
            matrix, first_row * w, (last_row + 1) * w - 1,
            first_col * w, (last_col + 1) * w - 1)
        return grid_part + matrix_all - matrix_full


# ----------------------------------------------------------------------
# Stacked tables
# ----------------------------------------------------------------------
def _views(cls, stacked: dict, **scalars) -> list:
    """One ``cls`` per entry of the stack's leading axis, its tables the
    entry's views of ``stacked`` (set as built, so nothing recomputes)."""
    views = []
    for tables in zip(*stacked.values()):
        view = object.__new__(cls)
        view.__dict__.update(scalars, **dict(zip(stacked, tables)))
        views.append(view)
    return views


class PrefixStack1D:
    """The :class:`PrefixIndex1D` tables of equal-shape 1-D grids, stacked.

    Built from the grids' frequency vectors, in list order;
    ``indexes[a]`` answers grid ``a`` alone through views of row ``a``.
    """

    def __init__(self, frequencies: list, cell_width: int):
        self.cell_width = int(cell_width)
        self._cell_prefix, self._freq_padded = _tables_1d(frequencies)
        self.indexes = _views(
            PrefixIndex1D, {"_cell_prefix": self._cell_prefix,
                            "_freq_padded": self._freq_padded},
            cell_width=self.cell_width,
            domain_size=len(frequencies[0]) * self.cell_width)

    def answer(self, grids: np.ndarray, lows: np.ndarray,
               highs: np.ndarray) -> np.ndarray:
        """Row ``k``: grid ``grids[k]`` over ``[lows[k], highs[k]]``."""
        if len(grids) <= SCALAR_ROWS:
            indexes = self.indexes
            return np.array([
                indexes[grid].answer_one(low, high) for grid, low, high
                in zip(grids.tolist(), lows.tolist(), highs.tolist())])
        return _range_1d(self._cell_prefix, self._freq_padded,
                         self.cell_width, lows, highs, (grids,))


class PrefixStack2D:
    """The :class:`PrefixIndex2D` tables of equal-shape 2-D grids, stacked.

    Built from the grids' frequency matrices, in list order.  With
    ``matrices`` (HDG's response matrices, one per grid) the stack also
    holds their summed-area tables and answers by the response-matrix
    rule; without, by the uniformity rule (TDG).  ``indexes[p]`` and
    ``responses[p]`` answer grid ``p`` alone through views of entry
    ``p``.
    """

    def __init__(self, frequencies: list, cell_width: int,
                 matrices: list | None = None):
        self.cell_width = int(cell_width)
        self._tables = _tables_2d(frequencies)
        self.indexes = _views(PrefixIndex2D,
                              dict(zip(_TABLES_2D, self._tables)),
                              cell_width=self.cell_width)
        self._matrix = self.responses = None
        if matrices is not None:
            self._matrix = _sats(matrices)
            self.responses = _views(SummedAreaTable,
                                    {"_table": self._matrix},
                                    shape=np.shape(matrices[0]))

    def answer(self, grids: np.ndarray, row_lows: np.ndarray,
               row_highs: np.ndarray, col_lows: np.ndarray,
               col_highs: np.ndarray) -> np.ndarray:
        """Row ``k``: grid ``grids[k]`` over row ``k``'s rectangle."""
        if len(grids) <= SCALAR_ROWS:
            rows = zip(grids.tolist(), row_lows.tolist(), row_highs.tolist(),
                       col_lows.tolist(), col_highs.tolist())
            indexes, responses = self.indexes, self.responses
            if responses is None:
                return np.array([
                    indexes[grid].answer_uniform_one(rl, rh, cl, ch)
                    for grid, rl, rh, cl, ch in rows])
            return np.array([
                indexes[grid].answer_response_one(responses[grid], rl, rh, cl,
                                                  ch)
                for grid, rl, rh, cl, ch in rows])
        if self._matrix is None:
            return _uniform_rule(self._tables, self.cell_width, row_lows,
                                 row_highs, col_lows, col_highs, (grids,))
        return _response_rule(self._tables[0], self._matrix, self.cell_width,
                              row_lows, row_highs, col_lows, col_highs,
                              (grids,))


def full_cell_range(lows: np.ndarray, highs: np.ndarray,
                    cell_width: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell-coordinate range ``[first, last]`` of fully covered cells.

    ``first > last`` when the interval covers no cell entirely.
    """
    lows = np.asarray(lows, dtype=np.int64)
    highs = np.asarray(highs, dtype=np.int64)
    first = -(-lows // cell_width)            # ceil division
    last = (highs + 1) // cell_width - 1
    return first, last
