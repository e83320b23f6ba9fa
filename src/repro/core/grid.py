"""1-D and 2-D grids over ordinal attribute domains (Phase 1 of TDG/HDG).

A grid partitions an attribute's domain ``[c]`` (or a pair's domain
``[c] x [c]``) into equal-width cells, has each user of its group report
the cell containing their value through an ε-LDP frequency oracle, and
stores the resulting noisy cell frequencies.  Grids also implement the
range-answering primitives of Phase 3: summing fully-covered cells and
estimating partially-covered cells either under the uniformity assumption
(TDG) or from a response matrix (HDG).

Range answering runs on prefix-sum indexes (:mod:`repro.core.prefix_sum`)
that are built lazily from the current frequencies and invalidated by
every mutation through the grid API; each answer is then O(1) corner
lookups instead of a Python cell loop, and the ``answer_ranges`` batch
entry points answer whole query groups in one vectorised call.  A lone
query (``answer_range``, or a one-row group) is gathered on Python
scalars in the vectorised fold order, so its answer is bitwise the same
alone or in a batch.  The
original cell loops live in ``tests/oracles.py``: they are the ground
truth the lookups are property-tested against and the baseline the
throughput benchmark measures.
"""

from __future__ import annotations

import numpy as np

from ..frequency_oracles import FrequencyOracle, SupportAccumulator
from .prefix_sum import (PrefixIndex1D, PrefixIndex2D, SummedAreaTable,
                         full_cell_range)


def _check_divisible(domain_size: int, granularity: int) -> int:
    if granularity < 1:
        raise ValueError("granularity must be >= 1")
    if granularity > domain_size:
        raise ValueError(
            f"granularity {granularity} cannot exceed domain size {domain_size}")
    if domain_size % granularity != 0:
        raise ValueError(
            f"granularity {granularity} must divide the domain size {domain_size}")
    return domain_size // granularity


class Grid1D:
    """Equal-width binning of a single attribute into ``granularity`` cells.

    Parameters
    ----------
    attribute:
        Index of the attribute this grid summarises.
    domain_size:
        Attribute domain size ``c``.
    granularity:
        Number of cells ``g1``; must divide ``c``.
    """

    def __init__(self, attribute: int, domain_size: int, granularity: int):
        self.attribute = int(attribute)
        self.domain_size = int(domain_size)
        self.granularity = int(granularity)
        self.cell_width = _check_divisible(self.domain_size, self.granularity)
        self._frequencies = np.zeros(self.granularity)
        self._index: PrefixIndex1D | None = None

    # ------------------------------------------------------------------
    # Prefix-sum index
    # ------------------------------------------------------------------
    @property
    def frequencies(self) -> np.ndarray:
        """Cell frequencies (read-only view).

        Exposed read-only because answering runs on a prefix-sum index
        derived from these values; silent in-place edits would serve
        stale answers.  Use :meth:`set_frequencies` to replace them or
        :meth:`mutable_frequencies` for in-place post-processing.
        """
        view = self._frequencies.view()
        view.flags.writeable = False
        return view

    def mutable_frequencies(self) -> np.ndarray:
        """Writable handle for in-place post-processing (drops the index)."""
        self.invalidate_index()
        return self._frequencies

    def invalidate_index(self) -> None:
        """Drop the prefix-sum index (call after mutating ``frequencies``)."""
        self._index = None

    def build_index(self) -> PrefixIndex1D:
        """Prefix-sum index over the current frequencies (cached)."""
        if self._index is None:
            self._index = PrefixIndex1D(self._frequencies, self.cell_width)
        return self._index

    # ------------------------------------------------------------------
    # Cell geometry
    # ------------------------------------------------------------------
    def cell_index(self, value: int | np.ndarray) -> np.ndarray:
        """Cell index containing each attribute value."""
        return np.asarray(value, dtype=np.int64) // self.cell_width

    def cell_bounds(self, cell: int) -> tuple[int, int]:
        """Inclusive value range ``[low, high]`` covered by a cell."""
        if not 0 <= cell < self.granularity:
            raise ValueError(f"cell index {cell} out of range [0, {self.granularity})")
        low = cell * self.cell_width
        return low, low + self.cell_width - 1

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(self, values: np.ndarray, oracle: FrequencyOracle) -> None:
        """Collect noisy cell frequencies from the grid's user group."""
        if oracle.domain_size != self.granularity:
            raise ValueError(
                f"oracle domain {oracle.domain_size} does not match grid "
                f"granularity {self.granularity}")
        cells = self.cell_index(values)
        self._frequencies = oracle.estimate_frequencies(cells)
        self.invalidate_index()

    def accumulate(self, values: np.ndarray,
                   oracle: FrequencyOracle) -> SupportAccumulator:
        """Collect one user batch into an additive support accumulator.

        The returned accumulator can be merged with accumulators of other
        batches of this grid (from any shard) and turned into cell
        frequencies once at the end with :meth:`finalize_from`.
        """
        if oracle.domain_size != self.granularity:
            raise ValueError(
                f"oracle domain {oracle.domain_size} does not match grid "
                f"granularity {self.granularity}")
        return oracle.accumulate(self.cell_index(values))

    def finalize_from(self, accumulator: SupportAccumulator | None,
                      oracle: FrequencyOracle) -> None:
        """Set cell frequencies from merged support counts.

        An empty accumulator (``None`` or zero reports) leaves the grid
        all-zero, matching the one-shot behaviour for empty user groups.
        """
        self.invalidate_index()
        if accumulator is None or accumulator.n_reports == 0:
            self._frequencies = np.zeros(self.granularity)
            return
        self._frequencies = oracle.estimate_from_accumulator(accumulator)

    def set_frequencies(self, frequencies: np.ndarray) -> None:
        """Directly set cell frequencies (used by tests and post-processing)."""
        frequencies = np.asarray(frequencies, dtype=float)
        if frequencies.shape != (self.granularity,):
            raise ValueError(
                f"expected shape ({self.granularity},), got {frequencies.shape}")
        self._frequencies = frequencies.copy()
        self.invalidate_index()

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def answer_range(self, low: int, high: int) -> float:
        """1-D range answer with the uniformity assumption inside cells."""
        if not 0 <= low <= high < self.domain_size:
            raise ValueError(f"invalid interval [{low}, {high}]")
        return self.build_index().answer_one(low, high)

    def answer_ranges(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vectorised range answers for arrays of inclusive intervals.

        Intervals are assumed valid (the mechanisms validate queries
        before batching).  A single interval is gathered on Python
        scalars, bitwise equal to its row of a batch.
        """
        index = self.build_index()
        if len(lows) == 1:
            return np.array([index.answer_one(int(lows[0]), int(highs[0]))])
        return index.answer(lows, highs)


class Grid2D:
    """Equal-width 2-D binning of an attribute pair into ``g2 x g2`` cells.

    Parameters
    ----------
    attributes:
        Pair ``(j, k)`` of attribute indices (order defines the row/column
        axes of the grid).
    domain_size:
        Common attribute domain size ``c``.
    granularity:
        Number of cells per axis ``g2``; must divide ``c``.
    """

    def __init__(self, attributes: tuple[int, int], domain_size: int,
                 granularity: int):
        if len(attributes) != 2 or attributes[0] == attributes[1]:
            raise ValueError("attributes must be a pair of distinct indices")
        self.attributes = (int(attributes[0]), int(attributes[1]))
        self.domain_size = int(domain_size)
        self.granularity = int(granularity)
        self.cell_width = _check_divisible(self.domain_size, self.granularity)
        self._frequencies = np.zeros((self.granularity, self.granularity))
        self._index: PrefixIndex2D | None = None

    # ------------------------------------------------------------------
    # Prefix-sum index
    # ------------------------------------------------------------------
    @property
    def frequencies(self) -> np.ndarray:
        """Cell frequencies (read-only view; see :class:`Grid1D`)."""
        view = self._frequencies.view()
        view.flags.writeable = False
        return view

    def mutable_frequencies(self) -> np.ndarray:
        """Writable handle for in-place post-processing (drops the index)."""
        self.invalidate_index()
        return self._frequencies

    def invalidate_index(self) -> None:
        """Drop the prefix-sum index (call after mutating ``frequencies``)."""
        self._index = None

    def build_index(self) -> PrefixIndex2D:
        """Prefix-sum index over the current frequencies (cached)."""
        if self._index is None:
            self._index = PrefixIndex2D(self._frequencies, self.cell_width)
        return self._index

    # ------------------------------------------------------------------
    # Cell geometry
    # ------------------------------------------------------------------
    def cell_index(self, values_pair: np.ndarray) -> np.ndarray:
        """Flattened cell index for each record's ``(v_j, v_k)`` pair."""
        values_pair = np.asarray(values_pair, dtype=np.int64)
        rows = values_pair[:, 0] // self.cell_width
        cols = values_pair[:, 1] // self.cell_width
        return rows * self.granularity + cols

    def cell_bounds(self, row: int, col: int) -> tuple[int, int, int, int]:
        """Inclusive bounds ``(row_low, row_high, col_low, col_high)`` of a cell."""
        if not (0 <= row < self.granularity and 0 <= col < self.granularity):
            raise ValueError(f"cell ({row}, {col}) out of range")
        row_low = row * self.cell_width
        col_low = col * self.cell_width
        return (row_low, row_low + self.cell_width - 1,
                col_low, col_low + self.cell_width - 1)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(self, values_pair: np.ndarray, oracle: FrequencyOracle) -> None:
        """Collect noisy cell frequencies from the grid's user group."""
        n_cells = self.granularity * self.granularity
        if oracle.domain_size != n_cells:
            raise ValueError(
                f"oracle domain {oracle.domain_size} does not match grid cell "
                f"count {n_cells}")
        cells = self.cell_index(values_pair)
        flat = oracle.estimate_frequencies(cells)
        self._frequencies = flat.reshape(self.granularity, self.granularity)
        self.invalidate_index()

    def accumulate(self, values_pair: np.ndarray,
                   oracle: FrequencyOracle) -> SupportAccumulator:
        """Collect one user batch into an additive support accumulator."""
        n_cells = self.granularity * self.granularity
        if oracle.domain_size != n_cells:
            raise ValueError(
                f"oracle domain {oracle.domain_size} does not match grid cell "
                f"count {n_cells}")
        return oracle.accumulate(self.cell_index(values_pair))

    def finalize_from(self, accumulator: SupportAccumulator | None,
                      oracle: FrequencyOracle) -> None:
        """Set cell frequencies from merged support counts (see Grid1D)."""
        self.invalidate_index()
        if accumulator is None or accumulator.n_reports == 0:
            self._frequencies = np.zeros((self.granularity, self.granularity))
            return
        flat = oracle.estimate_from_accumulator(accumulator)
        self._frequencies = flat.reshape(self.granularity, self.granularity)

    def set_frequencies(self, frequencies: np.ndarray) -> None:
        """Directly set cell frequencies (tests and post-processing)."""
        frequencies = np.asarray(frequencies, dtype=float)
        expected = (self.granularity, self.granularity)
        if frequencies.shape != expected:
            raise ValueError(f"expected shape {expected}, got {frequencies.shape}")
        self._frequencies = frequencies.copy()
        self.invalidate_index()

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def answer_range(self, interval_row: tuple[int, int],
                     interval_col: tuple[int, int],
                     response_matrix: np.ndarray | None = None,
                     response_index: SummedAreaTable | None = None) -> float:
        """2-D range answer.

        Fully covered cells contribute their noisy frequency.  Partially
        covered cells contribute either a uniform-guess share of their
        frequency (``response_matrix=None``, the TDG rule) or the sum of
        the response-matrix entries of the covered 2-D values (the HDG
        rule, Section 4.1 Phase 3).  Passing a precomputed
        ``response_index`` (the matrix's summed-area table) makes the HDG
        rule O(1); with only the raw matrix the partial mass is taken
        from two vectorised rectangle sums instead of a cell loop.
        """
        row_low, row_high = interval_row
        col_low, col_high = interval_col
        for low, high in ((row_low, row_high), (col_low, col_high)):
            if not 0 <= low <= high < self.domain_size:
                raise ValueError(f"invalid interval [{low}, {high}]")
        self._check_response_shape(response_matrix, response_index)

        if response_index is not None:
            return self.build_index().answer_response_one(
                response_index, row_low, row_high, col_low, col_high)
        if response_matrix is None:
            return self.build_index().answer_uniform_one(
                row_low, row_high, col_low, col_high)

        # Raw matrix, no index: the partial-cell mass is the query
        # rectangle's matrix mass minus the fully-covered block's mass.
        w = self.cell_width
        first_row, last_row = full_cell_range(row_low, row_high, w)
        first_col, last_col = full_cell_range(col_low, col_high, w)
        answer = float(
            response_matrix[row_low:row_high + 1, col_low:col_high + 1].sum())
        if first_row <= last_row and first_col <= last_col:
            answer += float(
                self._frequencies[first_row:last_row + 1,
                                  first_col:last_col + 1].sum())
            answer -= float(
                response_matrix[first_row * w:(last_row + 1) * w,
                                first_col * w:(last_col + 1) * w].sum())
        return answer

    def answer_ranges(self, row_lows: np.ndarray, row_highs: np.ndarray,
                      col_lows: np.ndarray, col_highs: np.ndarray,
                      response_index: SummedAreaTable | None = None) -> np.ndarray:
        """Vectorised 2-D range answers for arrays of inclusive intervals.

        With ``response_index=None`` every query follows the uniformity
        rule (TDG); otherwise partially covered cells draw their mass
        from the response matrix's summed-area table (HDG).  Intervals
        are assumed valid.  A single query is gathered on Python
        scalars, bitwise equal to its row of a batch.
        """
        index = self.build_index()
        if len(row_lows) == 1:
            bounds = (int(row_lows[0]), int(row_highs[0]),
                      int(col_lows[0]), int(col_highs[0]))
            if response_index is None:
                return np.array([index.answer_uniform_one(*bounds)])
            return np.array([index.answer_response_one(response_index,
                                                       *bounds)])
        if response_index is None:
            return index.answer_uniform(row_lows, row_highs, col_lows,
                                        col_highs)
        return index.answer_response(response_index, row_lows, row_highs,
                                     col_lows, col_highs)

    def _check_response_shape(self, response_matrix: np.ndarray | None,
                              response_index: SummedAreaTable | None) -> None:
        expected = (self.domain_size, self.domain_size)
        if response_matrix is not None and response_matrix.shape != expected:
            raise ValueError(
                f"response matrix must have shape {expected}, got "
                f"{response_matrix.shape}")
        if response_index is not None and response_index.shape != expected:
            raise ValueError(
                f"response index must cover shape {expected}, got "
                f"{response_index.shape}")

    def marginal(self, axis: int) -> np.ndarray:
        """Grid-level marginal of one of the two attributes (sums over the other)."""
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        return self._frequencies.sum(axis=1 - axis)
