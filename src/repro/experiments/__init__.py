"""Experiment harness: configs, executor, runner and per-figure drivers."""

from .cache import CellResult, ResultCache, cell_key, clear_memos
from .config import (DEFAULT_METHODS, METHODS_WITHOUT_HIO, ExperimentConfig)
from .executor import evaluate_cell, execute_grid
from .runner import (ExperimentResult, MethodResult, SweepResult,
                     run_experiment, sweep_parameter)
from . import appendix, figures

__all__ = [
    "DEFAULT_METHODS",
    "METHODS_WITHOUT_HIO",
    "CellResult",
    "ExperimentConfig",
    "ExperimentResult",
    "MethodResult",
    "ResultCache",
    "SweepResult",
    "appendix",
    "cell_key",
    "clear_memos",
    "evaluate_cell",
    "execute_grid",
    "figures",
    "run_experiment",
    "sweep_parameter",
]
