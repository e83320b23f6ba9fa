"""Experiment runner: build mechanisms, run configurations, sweep parameters.

The runner turns an :class:`~repro.experiments.config.ExperimentConfig`
into the numbers the paper plots: for every mechanism, the Mean Absolute
Error over a random query workload, averaged over repetitions.  Parameter
sweeps (the x-axes of the figures) reuse the same machinery by overriding
one field per point, and :func:`sweep_panels` runs one sweep per panel
of a figure (dataset × λ, say).

Both entry points route through :mod:`repro.experiments.executor`: the
(sweep value, repetition, mechanism) cells are independent given the
configuration seed, so they run on ``config.n_jobs`` worker processes —
bit-for-bit identical to the sequential order — and an optional
:class:`~repro.experiments.cache.ResultCache` skips cells a previous or
interrupted run already completed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..datasets import Dataset
from ..metrics import RepeatedRunSummary
from ..queries import RangeQuery
from .cache import ResultCache
from .config import ExperimentConfig
from .executor import (assemble_method_series, execute_grid,
                       validate_equal_workload_lengths)


@dataclass
class MethodResult:
    """Per-mechanism outcome of one experiment configuration."""

    method: str
    mae: RepeatedRunSummary
    per_query_errors: np.ndarray
    #: Per-query-kind MAE summaries; None for pure range workloads.
    per_kind_mae: dict[str, RepeatedRunSummary] | None = None


@dataclass
class ExperimentResult:
    """All mechanisms' outcomes for one configuration."""

    config: ExperimentConfig
    methods: dict[str, MethodResult] = field(default_factory=dict)

    def mae_of(self, method: str) -> float:
        """Mean MAE of one mechanism across the repetitions."""
        return self.methods[method].mae.mean


def _assemble_result(config: ExperimentConfig, cells) -> ExperimentResult:
    """Fold a config point's cell results into one ExperimentResult."""
    validate_equal_workload_lengths(config, cells)
    result = ExperimentResult(config=config)
    for method in config.methods:
        maes, mean_errors = assemble_method_series(config, cells, method)
        kind_series: dict[str, list[float]] = {}
        for repeat in range(config.n_repeats):
            per_kind = cells[(repeat, method)].per_kind_mae
            if per_kind:
                for kind, value in per_kind.items():
                    kind_series.setdefault(kind, []).append(value)
        result.methods[method] = MethodResult(
            method=method,
            mae=RepeatedRunSummary.from_values(maes),
            per_query_errors=mean_errors,
            per_kind_mae=({kind: RepeatedRunSummary.from_values(values)
                           for kind, values in kind_series.items()}
                          if kind_series else None),
        )
    return result


def run_experiment(config: ExperimentConfig,
                   workload_factory: Callable[[ExperimentConfig, Dataset, int],
                                              list[RangeQuery]] | None = None,
                   cache: ResultCache | None = None) -> ExperimentResult:
    """Run one configuration: every mechanism on the same data and workload.

    Parameters
    ----------
    config:
        The experiment point to evaluate.  ``config.n_jobs`` worker
        processes evaluate the (repetition, mechanism) cells; any value
        reproduces the sequential results bit-for-bit.
    workload_factory:
        Optional override producing the query workload from
        ``(config, dataset, repeat)``; used by the appendix experiments
        that need exhaustive or count-conditioned workloads instead of the
        default random one.  Every repetition's workload must have the
        same length (per-query errors are averaged across repetitions).
    cache:
        Optional on-disk cell cache; completed cells are skipped on
        re-runs.  Ignored when a ``workload_factory`` is given, since
        the factory's output is not part of the cache key.
    """
    config.validate()
    [cells] = execute_grid([config], workload_factory=workload_factory,
                           cache=cache)
    return _assemble_result(config, cells)


@dataclass
class SweepResult:
    """Results of varying one configuration field over several values."""

    parameter: str
    values: list[Any]
    results: list[ExperimentResult]

    def series(self) -> dict[str, list[float]]:
        """Per-method MAE series indexed like ``values`` (the plot lines)."""
        methods = self.results[0].config.methods if self.results else ()
        return {method: [result.mae_of(method) for result in self.results]
                for method in methods}

    def format_table(self, float_format: str = "{:.5f}") -> str:
        """Human-readable table: one row per method, one column per value."""
        series = self.series()
        header = [self.parameter] + [str(v) for v in self.values]
        rows = [header]
        for method, maes in series.items():
            rows.append([method] + [float_format.format(m) for m in maes])
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = []
        for row in rows:
            lines.append("  ".join(cell.rjust(width)
                                   for cell, width in zip(row, widths)))
        return "\n".join(lines)


def sweep_parameter(base_config: ExperimentConfig, parameter: str,
                    values: list[Any],
                    config_transform: Callable[[ExperimentConfig, Any],
                                               ExperimentConfig] | None = None,
                    workload_factory=None,
                    cache: ResultCache | None = None) -> SweepResult:
    """Evaluate ``base_config`` at each value of one field.

    ``config_transform`` may be supplied for sweeps that touch more than a
    single field (e.g. varying the covariance means changing
    ``dataset_kwargs``); by default the named field is simply replaced.

    The whole (value, repetition, mechanism) grid is scheduled at once,
    so with ``base_config.n_jobs > 1`` the sweep's points run
    concurrently, and with ``cache`` set an interrupted or repeated
    sweep only executes the cells it has not completed yet.
    """
    configs = []
    for value in values:
        if config_transform is not None:
            configs.append(config_transform(base_config, value))
        else:
            configs.append(base_config.with_overrides(**{parameter: value}))
    grids = execute_grid(configs, workload_factory=workload_factory,
                         cache=cache, n_jobs=base_config.n_jobs)
    results = [_assemble_result(config, cells)
               for config, cells in zip(configs, grids)]
    return SweepResult(parameter=parameter, values=list(values), results=results)


def sweep_panels(parameter: str, values: list[Any], panels: dict[str, Any], *,
                 workload_factory=None, **settings) -> dict[Any, SweepResult]:
    """Sweep one field on every panel of a figure.

    ``panels`` maps config fields to the values the panels take, outer
    axis first: ``{"dataset": ("ipums", "normal"), "query_dimension":
    (2, 4)}`` is four panels, datasets outer, λ inner.  Each panel's base
    config is ``ExperimentConfig(**settings)`` with its fields set.  A
    panel is keyed by the tuple of its field values, or by the bare value
    when ``panels`` has one axis, and the keys keep the panel order.
    """
    base = ExperimentConfig(**settings)
    results = {}
    for fields in itertools.product(*panels.values()):
        key = fields[0] if len(panels) == 1 else fields
        results[key] = sweep_parameter(
            base.with_overrides(**dict(zip(panels, fields))), parameter,
            list(values), workload_factory=workload_factory)
    return results
