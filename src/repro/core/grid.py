"""1-D and 2-D grids over ordinal attribute domains (Phase 1 of TDG/HDG).

A grid partitions an attribute's domain ``[c]`` (or a pair's domain
``[c] x [c]``) into equal-width cells, has each user of its group report
the cell containing their value through an ε-LDP frequency oracle, and
stores the resulting noisy cell frequencies.  Grids also implement the
range-answering primitives of Phase 3: summing fully-covered cells and
estimating partially-covered cells either under the uniformity assumption
(TDG) or from a response matrix (HDG).

Range answering reads prefix-sum tables (:mod:`repro.core.prefix_sum`):
each answer is O(1) corner lookups on Python scalars instead of a cell
loop.  A grid's ``_index`` is ``(stack, position)``: its mechanism's
stack of every grid's tables, set when the mechanism stacks its grids,
or else a stack of one, built on first use.  Every mutation through the
grid API drops it.  The lookups use the fold order of the stacks'
vectorised gathers, so a lone query's answer is bitwise its row of a
batch.  The original cell loops live in ``tests/oracles.py``: they are
the ground truth the lookups are property-tested against and the
baseline the throughput benchmark measures.
"""

from __future__ import annotations

import numpy as np

from ..frequency_oracles import FrequencyOracle, SupportAccumulator
from .prefix_sum import PrefixStack1D, PrefixStack2D


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
        self._index: tuple[PrefixStack1D, int] | None = None

    # ------------------------------------------------------------------
    # Prefix-sum tables
    # ------------------------------------------------------------------
    @property
    def frequencies(self) -> np.ndarray:
        """Cell frequencies (read-only view).

        Exposed read-only because answering runs on prefix-sum tables
        derived from these values; silent in-place edits would serve
        stale answers.  Use :meth:`set_frequencies` to replace them or
        :meth:`mutable_frequencies` for in-place post-processing.
        """
        view = self._frequencies.view()
        view.flags.writeable = False
        return view

    def mutable_frequencies(self) -> np.ndarray:
        """Writable handle for in-place post-processing (drops the tables)."""
        self.invalidate_index()
        return self._frequencies

    def invalidate_index(self) -> None:
        """Drop the prefix-sum tables (call after mutating ``frequencies``)."""
        self._index = None

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
        if self._index is None:
            self._index = (PrefixStack1D([self._frequencies], self.cell_width),
                           0)
        stack, position = self._index
        return stack.answer_one(position, low, high)


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
        self._index: tuple[PrefixStack2D, int] | None = None

    # ------------------------------------------------------------------
    # Prefix-sum tables
    # ------------------------------------------------------------------
    @property
    def frequencies(self) -> np.ndarray:
        """Cell frequencies (read-only view; see :class:`Grid1D`)."""
        view = self._frequencies.view()
        view.flags.writeable = False
        return view

    def mutable_frequencies(self) -> np.ndarray:
        """Writable handle for in-place post-processing (drops the tables)."""
        self.invalidate_index()
        return self._frequencies

    def invalidate_index(self) -> None:
        """Drop the prefix-sum tables (call after mutating ``frequencies``)."""
        self._index = None

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
                     response_matrix: np.ndarray | None = None) -> float:
        """2-D range answer.

        Fully covered cells contribute their noisy frequency.  Partially
        covered cells contribute either a uniform-guess share of their
        frequency (``response_matrix=None``, the TDG rule, read from the
        grid's own tables) or the sum of the response-matrix entries of
        the covered 2-D values (the HDG rule, Section 4.1 Phase 3,
        answered through a stack of one holding ``response_matrix``).
        """
        row_low, row_high = interval_row
        col_low, col_high = interval_col
        for low, high in ((row_low, row_high), (col_low, col_high)):
            if not 0 <= low <= high < self.domain_size:
                raise ValueError(f"invalid interval [{low}, {high}]")
        if response_matrix is not None:
            expected = (self.domain_size, self.domain_size)
            if np.shape(response_matrix) != expected:
                raise ValueError(
                    f"response matrix must have shape {expected}, got "
                    f"{np.shape(response_matrix)}")
            return PrefixStack2D([self._frequencies], self.cell_width,
                                 [response_matrix]).answer_one(
                0, row_low, row_high, col_low, col_high)
        if self._index is None:
            self._index = (PrefixStack2D([self._frequencies], self.cell_width),
                           0)
        stack, position = self._index
        return stack.answer_uniform_one(position, row_low, row_high, col_low,
                                        col_high)

    def marginal(self, axis: int) -> np.ndarray:
        """Grid-level marginal of one of the two attributes (sums over the other)."""
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        return self._frequencies.sum(axis=1 - axis)
