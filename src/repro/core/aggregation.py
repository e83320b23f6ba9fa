"""The aggregation core: grid layers as stacked arrays.

Phase 1 of TDG and HDG is one job.  Users are split into groups, each
group reports its cell of one grid through OLH, and every report adds
to that grid's support counts.  :class:`GridMechanism` does that job
once for both.  A mechanism holds one :class:`GridLayer` per grid
dimensionality: TDG a 2-D layer (a grid per attribute pair), HDG a 1-D
layer (a grid per attribute) and the 2-D one.  A layer keeps its grids
as arrays, one row per grid in key order: ``supports`` ``(n_grids,
n_cells)``, ``n_reports`` ``(n_grids,)`` and, once finalized,
``frequencies`` ``(n_grids, g)`` or ``(n_grids, g, g)``.  Collection
(one ``bincount`` and one binomial call per layer), merging,
debiasing, Phase 2 and the state documents work on whole layers and
give the per-grid loops' floats bit for bit (docs/architecture.md,
"Layer arrays"); each grid object is a view of its frequency row.

A subclass keeps only what differs: its granularity rule, its user
split (which fixes the order of the RNG draws) and what it builds for
answering on top of the grids.  In state documents an attribute's key
is ``"a"`` and a pair's is ``"a,b"``.
"""

from __future__ import annotations

from itertools import combinations
from types import MappingProxyType

import numpy as np

from ..datasets import Dataset
from ..frequency_oracles import OptimizedLocalHash, SupportAccumulator
from .base import RangeQueryMechanism
from .grid import Grid1D, Grid2D
from .phase2 import run_phase2
from .prefix_sum import PrefixStack2D
from .query_estimation import PairwiseBatchAnswering, by_pair_slot, stack_grids


def state_key(key: int | tuple[int, int]) -> str:
    """An attribute's or attribute pair's key in state documents."""
    return str(key) if isinstance(key, int) else f"{key[0]},{key[1]}"


def parse_state_key(text: str) -> int | tuple[int, int]:
    """The attribute or attribute pair of a :func:`state_key`."""
    parts = tuple(int(part) for part in text.split(","))
    return parts[0] if len(parts) == 1 else parts


class GridLayer:
    """The grids of one dimensionality as stacked arrays: a 1-D grid per
    attribute or a 2-D grid per attribute pair, one row per grid in key
    order."""

    def __init__(self, dimension: int, keys, domain_size: int,
                 granularity: int):
        grid = Grid1D if dimension == 1 else Grid2D
        self.dimension = dimension
        self.granularity = int(granularity)
        #: OLH domain of one report: the grid's cell count.
        self.n_cells = self.granularity ** dimension
        self.grids = {key: grid(key, domain_size, self.granularity)
                      for key in keys}
        self.keys = list(self.grids)
        self.cell_width = domain_size // self.granularity
        #: The attributes each grid bins, one row per grid.
        self._attributes = np.array(self.keys).reshape(len(self.keys), -1)
        self.supports = np.zeros((len(self.keys), self.n_cells))
        self.n_reports = np.zeros(len(self.keys), dtype=np.int64)
        #: ``(n_grids, *grid shape)``; None until finalized or restored.
        self.frequencies: np.ndarray | None = None

    def collect(self, dataset: Dataset, groups: list[np.ndarray],
                oracle: OptimizedLocalHash) -> None:
        """Add one batch's reports; ``groups[i]`` reports to grid ``i``."""
        sizes = np.array([group.size for group in groups])
        grids = np.repeat(np.arange(len(groups)), sizes)
        binned = (dataset.values[np.concatenate(groups)[:, None],
                                 self._attributes[grids]]
                  // self.cell_width)
        cells = binned[:, 0]
        for axis in range(1, self.dimension):
            cells = cells * self.granularity + binned[:, axis]
        self.n_reports += sizes
        if oracle.mode == "user":
            parts = np.split(cells, np.cumsum(sizes)[:-1])
            for index, part in enumerate(parts):
                if part.size:
                    self.supports[index] += oracle.accumulate(part).supports
            return
        filled = np.flatnonzero(sizes)
        own = np.bincount(grids * self.n_cells + cells,
                          minlength=self.supports.size).reshape(
                              self.supports.shape)[filled]
        self.supports[filled] += oracle.draw_supports(own, sizes[filled])

    def debias(self, oracle: OptimizedLocalHash) -> None:
        """Cell frequencies from the support counts; a grid without
        reports stays all-zero."""
        frequencies = np.zeros((len(self.keys),
                                *(self.granularity,) * self.dimension))
        seen = self.n_reports > 0
        frequencies.reshape(self.supports.shape)[seen] = (
            (self.supports[seen] / self.n_reports[seen, None]
             - oracle.q_support) / (oracle.p - oracle.q_support))
        self.set_frequencies(frequencies)

    def set_frequencies(self, frequencies: np.ndarray) -> None:
        """Adopt ``(n_grids, *grid shape)`` frequencies; each grid
        becomes a view of its row."""
        self.frequencies = frequencies
        for grid, row in zip(self.grids.values(), frequencies):
            grid.share_frequencies(row)

    def freeze(self) -> None:
        """Make the frequencies read-only, with every grid's view."""
        self.frequencies.flags.writeable = False
        for grid in self.grids.values():
            grid.freeze()

    def accumulators_document(self) -> dict:
        return {state_key(key): ({"supports": supports.tolist(),
                                  "n_reports": int(n_reports)}
                                 if n_reports else None)
                for key, supports, n_reports
                in zip(self.keys, self.supports, self.n_reports)}

    def load_accumulators(self, entries: dict) -> None:
        """Read :meth:`accumulators_document` output into the rows."""
        for index, key in enumerate(self.keys):
            entry = entries.get(state_key(key))
            if entry is not None:
                accumulator = SupportAccumulator.from_dict(entry)
                self.supports[index] = accumulator.supports
                self.n_reports[index] = accumulator.n_reports

    def frequencies_document(self) -> dict:
        return {state_key(key): row.tolist()
                for key, row in zip(self.keys, self.frequencies)}

    @classmethod
    def from_frequencies(cls, dimension: int, domain_size: int,
                         granularity: int, document: dict) -> "GridLayer":
        """A layer whose grids hold :meth:`frequencies_document` output."""
        layer = cls(dimension, map(parse_state_key, document), domain_size,
                    granularity)
        layer.set_frequencies(np.array(list(document.values()), dtype=float))
        layer.freeze()
        return layer


class GridMechanism(PairwiseBatchAnswering, RangeQueryMechanism):
    """Phases 1 and 2 of the grid mechanisms (TDG, HDG and variants).

    A subclass names its layers in :attr:`_LAYERS` and implements
    :meth:`_choose_granularities` and :meth:`_split_users`.  It calls
    :meth:`_build_tables` once its grids are final, at the end of
    :meth:`_finalize` and of :meth:`_restore_state_payload`; from then
    on the grids are read-only.
    """

    #: ``save_state`` payload key of each layer's grids, by layer
    #: dimensionality, in collection order.
    _LAYERS: dict[int, str] = {}

    def __init__(self, epsilon: float, postprocess: bool,
                 consistency_rounds: int, estimation_method: str,
                 estimation_iterations: int, oracle_mode: str,
                 seed: int | None):
        super().__init__(epsilon, seed)
        self.postprocess = bool(postprocess)
        self.consistency_rounds = int(consistency_rounds)
        self.estimation_method = estimation_method
        self.estimation_iterations = int(estimation_iterations)
        self.oracle_mode = oracle_mode
        self._layers: dict[int, GridLayer] = {}

    @property
    def grids_1d(self) -> MappingProxyType[int, Grid1D]:
        """Each attribute's 1-D grid (none without a 1-D layer)."""
        layer = self._layers.get(1)
        return MappingProxyType(layer.grids if layer else {})

    @property
    def grids_2d(self) -> MappingProxyType[tuple[int, int], Grid2D]:
        """Each attribute pair's 2-D grid (none before the layout)."""
        layer = self._layers.get(2)
        return MappingProxyType(layer.grids if layer else {})

    @property
    def chosen_g2(self) -> int | None:
        """The 2-D granularity (None before the layout is fixed)."""
        layer = self._layers.get(2)
        return layer.granularity if layer else None

    def _granularities(self) -> dict[str, int]:
        return {f"g{dimension}": layer.granularity
                for dimension, layer in self._layers.items()}

    def _choose_granularities(self, planning_users: int | None
                              ) -> tuple[int, ...]:
        """Each layer's granularity, in :attr:`_LAYERS` order."""
        raise NotImplementedError

    def _split_users(self, dataset: Dataset) -> list[list[np.ndarray]]:
        """The batch's user indices reporting to each grid, layer by
        layer in :attr:`_LAYERS` order and grid by grid in key order."""
        raise NotImplementedError

    def _build_layout(self, granularities) -> None:
        d, c = self._n_attributes, self._domain_size
        keys = {1: range(d), 2: combinations(range(d), 2)}
        self._layers = {
            dimension: GridLayer(dimension, keys[dimension], c, granularity)
            for dimension, granularity in zip(self._LAYERS, granularities)}

    def _oracle(self, layer: GridLayer) -> OptimizedLocalHash:
        return OptimizedLocalHash(self.epsilon, layer.n_cells, rng=self.rng,
                                  mode=self.oracle_mode)

    # ------------------------------------------------------------------
    # Phase 1 + 2: collection and post-processing
    # ------------------------------------------------------------------
    def _reset_aggregation(self) -> None:
        self._layers = {}

    def _ensure_layout(self, planning_users: int | None) -> None:
        if self._layers:
            return
        if self._n_attributes < 2:
            raise ValueError(f"{self.name} requires at least 2 attributes")
        self._build_layout(self._choose_granularities(planning_users))

    def _partial_fit(self, dataset: Dataset, total_users: int | None) -> None:
        self._ensure_layout(total_users or dataset.n_users)
        for layer, groups in zip(self._layers.values(),
                                 self._split_users(dataset)):
            layer.collect(dataset, groups, self._oracle(layer))

    def _merge(self, other: "GridMechanism") -> None:
        if not other._layers:
            return
        if not self._layers:
            self._build_layout([layer.granularity
                                for layer in other._layers.values()])
        elif self._granularities() != other._granularities():
            raise ValueError(
                f"shards disagree on the granularity "
                f"({self._granularities()} vs {other._granularities()}); "
                "pass the same total_users or an explicit granularity to "
                "every shard")
        for dimension, layer in self._layers.items():
            layer.supports += other._layers[dimension].supports
            layer.n_reports += other._layers[dimension].n_reports

    def _finalize(self) -> None:
        for layer in self._layers.values():
            layer.debias(self._oracle(layer))
        if self.postprocess:
            singles, pairs = self._layers.get(1), self._layers[2]
            run_phase2(self._n_attributes, singles and singles.frequencies,
                       pairs.frequencies, pairs.keys,
                       rounds=self.consistency_rounds)
        for layer in self._layers.values():
            layer.freeze()

    # ------------------------------------------------------------------
    # Shard-state and fitted-state serialization (see docs/architecture.md
    # and docs/serving.md for the schemas)
    # ------------------------------------------------------------------
    def _shard_body(self) -> dict:
        return {
            "granularity": self._granularities(),
            "accumulators": {f"{dimension}d": layer.accumulators_document()
                             for dimension, layer in self._layers.items()},
        }

    def _load_shard_body(self, state: dict) -> None:
        granularity, entries = state["granularity"], state["accumulators"]
        self._build_layout([granularity[f"g{dimension}"]
                            for dimension in self._LAYERS])
        for dimension, layer in self._layers.items():
            layer.load_accumulators(entries[f"{dimension}d"])

    def _state_payload(self) -> dict:
        return {
            **self._granularities(),
            "total_reports": self._n_reports,
            **{self._LAYERS[dimension]: layer.frequencies_document()
               for dimension, layer in self._layers.items()},
        }

    def _restore_state_payload(self, payload: dict) -> None:
        if self._n_reports is None:
            # Pre-IR snapshot documents carry no top-level n_reports, but
            # the grid payload always recorded the same count.
            self._n_reports = int(payload["total_reports"])
        self._layers = {
            dimension: GridLayer.from_frequencies(
                dimension, self._domain_size, payload[f"g{dimension}"],
                payload[name])
            for dimension, name in self._LAYERS.items()}

    # ------------------------------------------------------------------
    # Phase 3: the answering tables
    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        """Every pair's 2-D grid, stacked in pair-slot order: the
        uniformity tables the pair block reads."""
        self._pair_stack = stack_grids(PrefixStack2D,
                                       by_pair_slot(self.grids_2d))

    def _answer_pairs(self, pairs, row_lows, row_highs, col_lows,
                      col_highs) -> np.ndarray:
        """Pair block rows: one gather over the stacked tables."""
        return self._pair_stack.answer(pairs, row_lows, row_highs, col_lows,
                                       col_highs)
