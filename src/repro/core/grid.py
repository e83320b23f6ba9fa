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
loop.  A lone grid answers through a stack of one, built for the call
from its current frequencies.  A fitted TDG/HDG builds its tables once
and then freezes its grids (``_CellGrid.freeze``): their frequencies
are read-only for good, so a change that would leave the tables stale
raises instead.  The lookups use the fold order of the stacks'
vectorised gathers, so a lone query's answer is bitwise its row of a
batch.  The original cell loops live in ``tests/oracles.py``: they are
the ground truth the lookups are property-tested against and the
baseline the throughput benchmark measures.
A TDG/HDG's grids are views of its layer arrays
(:mod:`repro.core.aggregation`).
"""

from __future__ import annotations

import numpy as np

from ..frequency_oracles import FrequencyOracle
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


class _CellGrid:
    """What both grid shapes share: equal-width cells of ``[c]`` on each
    axis, cell frequencies behind prefix-sum tables, and collection."""

    #: Number of attributes the grid bins (its number of axes).
    dimension: int

    def __init__(self, domain_size: int, granularity: int):
        self.domain_size = int(domain_size)
        self.granularity = int(granularity)
        self.cell_width = _check_divisible(self.domain_size, self.granularity)
        self.shape = (self.granularity,) * self.dimension
        self._frequencies = np.zeros(self.shape)

    # ------------------------------------------------------------------
    # Frequencies
    # ------------------------------------------------------------------
    @property
    def frequencies(self) -> np.ndarray:
        """Cell frequencies (read-only view).

        Change them with :meth:`set_frequencies`, or in place through
        :meth:`mutable_frequencies`; both raise once the grid is
        frozen.
        """
        view = self._frequencies.view()
        view.flags.writeable = False
        return view

    def mutable_frequencies(self) -> np.ndarray:
        """Writable handle for in-place post-processing."""
        return self._writable()

    def freeze(self) -> None:
        """Make the frequencies read-only for good: a mechanism freezes
        its grids once it has built its answering tables over them."""
        self._frequencies.flags.writeable = False

    def _writable(self) -> np.ndarray:
        if not self._frequencies.flags.writeable:
            raise ValueError(
                "the grid's frequencies are read-only: its mechanism "
                "answers from tables built over them")
        return self._frequencies

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _cells(self, values: np.ndarray, oracle: FrequencyOracle) -> np.ndarray:
        n_cells = self.granularity ** self.dimension
        if oracle.domain_size != n_cells:
            raise ValueError(
                f"oracle domain {oracle.domain_size} does not match the "
                f"grid's {n_cells} cells")
        return self.cell_index(values)

    def collect(self, values: np.ndarray, oracle: FrequencyOracle) -> None:
        """Collect noisy cell frequencies from the grid's user group."""
        self._writable()
        self._frequencies = oracle.estimate_frequencies(
            self._cells(values, oracle)).reshape(self.shape)

    def share_frequencies(self, frequencies: np.ndarray) -> None:
        """Hold ``frequencies`` itself, not a copy: a mechanism's grids
        are views of its layer's stacked frequencies."""
        if frequencies.shape != self.shape:
            raise ValueError(
                f"expected shape {self.shape}, got {frequencies.shape}")
        self._writable()
        self._frequencies = frequencies

    def set_frequencies(self, frequencies: np.ndarray) -> None:
        """Directly set cell frequencies (used by tests and post-processing)."""
        frequencies = np.asarray(frequencies, dtype=float)
        if frequencies.shape != self.shape:
            raise ValueError(
                f"expected shape {self.shape}, got {frequencies.shape}")
        self._writable()
        self._frequencies = frequencies.copy()


class Grid1D(_CellGrid):
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

    dimension = 1

    def __init__(self, attribute: int, domain_size: int, granularity: int):
        self.attribute = int(attribute)
        super().__init__(domain_size, granularity)

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
    # Answering
    # ------------------------------------------------------------------
    def answer_range(self, low: int, high: int) -> float:
        """1-D range answer with the uniformity assumption inside cells."""
        if not 0 <= low <= high < self.domain_size:
            raise ValueError(f"invalid interval [{low}, {high}]")
        return PrefixStack1D([self._frequencies],
                             self.cell_width).answer_one(0, low, high)


class Grid2D(_CellGrid):
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

    dimension = 2

    def __init__(self, attributes: tuple[int, int], domain_size: int,
                 granularity: int):
        if len(attributes) != 2 or attributes[0] == attributes[1]:
            raise ValueError("attributes must be a pair of distinct indices")
        self.attributes = (int(attributes[0]), int(attributes[1]))
        super().__init__(domain_size, granularity)

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
    # Answering
    # ------------------------------------------------------------------
    def answer_range(self, interval_row: tuple[int, int],
                     interval_col: tuple[int, int],
                     response_matrix: np.ndarray | None = None) -> float:
        """2-D range answer.

        Fully covered cells contribute their noisy frequency.  Partially
        covered cells contribute either a uniform-guess share of their
        frequency (``response_matrix=None``, the TDG rule) or the sum of
        the response-matrix entries of the covered 2-D values (the HDG
        rule, Section 4.1 Phase 3), read through a stack of one built
        for the call.
        """
        row_low, row_high = interval_row
        col_low, col_high = interval_col
        for low, high in ((row_low, row_high), (col_low, col_high)):
            if not 0 <= low <= high < self.domain_size:
                raise ValueError(f"invalid interval [{low}, {high}]")
        matrices = None
        if response_matrix is not None:
            expected = (self.domain_size, self.domain_size)
            if np.shape(response_matrix) != expected:
                raise ValueError(
                    f"response matrix must have shape {expected}, got "
                    f"{np.shape(response_matrix)}")
            matrices = [response_matrix]
        return PrefixStack2D([self._frequencies], self.cell_width,
                             matrices).answer_one(0, row_low, row_high,
                                                  col_low, col_high)

    def marginal(self, axis: int) -> np.ndarray:
        """Grid-level marginal of one of the two attributes (sums over the other)."""
        if axis not in (0, 1):
            raise ValueError("axis must be 0 or 1")
        return self._frequencies.sum(axis=1 - axis)
