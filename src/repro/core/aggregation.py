"""The aggregation core: keyed support accumulators and grid layers.

Phase 1 of TDG and HDG is one job.  Users are split into groups, each
group reports its cell of one grid through OLH, and every report lands
in that grid's additive
:class:`~repro.frequency_oracles.SupportAccumulator`.
:class:`GridMechanism` does that job once for both.  A mechanism holds
one :class:`GridLayer` per grid dimensionality: TDG a 2-D layer (a
grid per attribute pair), HDG a 1-D layer (a grid per attribute) and
the 2-D one.  For every layer, the base class does the per-grid steps:

* building the layout and adopting another shard's;
* accumulating batches and merging shards;
* turning the merged counts into cell frequencies, then running Phase 2;
* the ``shard_state`` accumulators and the ``save_state`` grids.

A subclass keeps only what differs: its granularity rule, its user
split (which fixes the order of the RNG draws) and what it builds for
answering on top of the grids.

:class:`AccumulatorTable` is the keyed accumulator table of the layers;
MSW keeps one too, over its per-attribute Square Wave counts.  In state
documents an attribute's key is ``"a"`` and a pair's is ``"a,b"``.
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


class AccumulatorTable(dict):
    """Support accumulators keyed by attribute or attribute pair.

    A key maps to None until its first report arrives.  Counts are sums
    over users, so adding batches and folding shards in a fixed order
    reproduces the single-process counts exactly.
    """

    def add(self, key, batch: SupportAccumulator) -> None:
        """Add one batch's counts to ``key``'s accumulator."""
        current = self[key]
        if current is None:
            self[key] = batch
        else:
            current.merge(batch)

    def fold(self, other: "AccumulatorTable") -> None:
        """Add another shard's counts, key by key."""
        for key, accumulator in other.items():
            if accumulator is None:
                continue
            if self[key] is None:
                self[key] = accumulator.copy()
            else:
                self[key].merge(accumulator)

    def to_document(self) -> dict:
        return {state_key(key): (accumulator.to_dict()
                                 if accumulator is not None else None)
                for key, accumulator in self.items()}

    @classmethod
    def from_document(cls, entries: dict, keys) -> "AccumulatorTable":
        """A table over ``keys`` from :meth:`to_document` output."""
        table = cls.fromkeys(keys)
        for key in table:
            entry = entries.get(state_key(key))
            if entry is not None:
                table[key] = SupportAccumulator.from_dict(entry)
        return table


class GridLayer:
    """The grids of one dimensionality and their support accumulators:
    a 1-D grid per attribute or a 2-D grid per attribute pair."""

    def __init__(self, dimension: int, keys, domain_size: int,
                 granularity: int):
        grid = Grid1D if dimension == 1 else Grid2D
        self.dimension = dimension
        self.granularity = int(granularity)
        #: OLH domain of one report: the grid's cell count.
        self.n_cells = self.granularity ** dimension
        self.grids = {key: grid(key, domain_size, self.granularity)
                      for key in keys}
        self.accumulators = AccumulatorTable.fromkeys(self.grids)

    def values(self, dataset: Dataset, key) -> np.ndarray:
        """The dataset's values that ``key``'s grid bins."""
        if self.dimension == 1:
            return dataset.column(key)
        return dataset.columns(key)

    def frequencies_document(self) -> dict:
        return {state_key(key): grid.frequencies.tolist()
                for key, grid in self.grids.items()}

    @classmethod
    def from_frequencies(cls, dimension: int, domain_size: int,
                         granularity: int, document: dict) -> "GridLayer":
        """A layer whose grids hold :meth:`frequencies_document` output."""
        layer = cls(dimension, map(parse_state_key, document), domain_size,
                    granularity)
        for grid, values in zip(layer.grids.values(), document.values()):
            grid.set_frequencies(np.asarray(values, dtype=float))
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
            for (key, grid), members in zip(layer.grids.items(), groups):
                if members.size > 0:
                    oracle = self._oracle(layer)
                    layer.accumulators.add(key, grid.accumulate(
                        layer.values(dataset, key)[members], oracle))

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
            layer.accumulators.fold(other._layers[dimension].accumulators)

    def _finalize(self) -> None:
        for layer in self._layers.values():
            for key, grid in layer.grids.items():
                grid.finalize_from(layer.accumulators[key],
                                   self._oracle(layer))
        if self.postprocess:
            run_phase2(self._n_attributes, self.grids_1d, self.grids_2d,
                       n_buckets=self.chosen_g2,
                       rounds=self.consistency_rounds)

    # ------------------------------------------------------------------
    # Shard-state and fitted-state serialization (see docs/architecture.md
    # and docs/serving.md for the schemas)
    # ------------------------------------------------------------------
    def _shard_body(self) -> dict:
        return {
            "granularity": self._granularities(),
            "accumulators": {f"{dimension}d": layer.accumulators.to_document()
                             for dimension, layer in self._layers.items()},
        }

    def _load_shard_body(self, state: dict) -> None:
        granularity, entries = state["granularity"], state["accumulators"]
        self._build_layout([granularity[f"g{dimension}"]
                            for dimension in self._LAYERS])
        for dimension, layer in self._layers.items():
            layer.accumulators = AccumulatorTable.from_document(
                entries[f"{dimension}d"], layer.grids)

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
