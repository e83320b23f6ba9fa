"""The paper's parameter grids, Table 2 and the figure text renderer.

Figures 1-8 are each one parameter swept on a grid of panels:
:func:`~repro.experiments.runner.sweep_panels` runs them, and the rows of
``benchmarks/reproduce_figures.py`` name each figure's parameter, values,
panels and settings at a quick and at the paper's scale.  This module
keeps the grids those rows share, the guideline's Table 2 and
:func:`format_figure_results`, which prints a figure one panel at a time.
"""

from __future__ import annotations

#: ε grid used throughout the paper's ε sweeps.
PAPER_EPSILONS = (0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.0)

#: ω grid of Figure 2.
PAPER_VOLUMES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: Granularity combinations enumerated in Figures 7 and 16.
GUIDELINE_COMBINATIONS = ((4, 2), (8, 2), (8, 4), (16, 2), (16, 4), (16, 8),
                          (32, 2), (32, 4), (32, 8), (32, 16))


def table_2_granularities(epsilons=PAPER_EPSILONS,
                          settings=None, domain_size=64,
                          alpha1=None, alpha2=None) -> dict:
    """Table 2: recommended (g1, g2) for each (d, lg n, ε) setting."""
    from ..core import (DEFAULT_ALPHA1, DEFAULT_ALPHA2,
                        recommended_granularity_table)
    if settings is None:
        settings = ([(d, 6.0) for d in range(3, 11)]
                    + [(6, lg) for lg in (5.0, 5.2, 5.4, 5.6, 5.8, 6.0,
                                          6.2, 6.4, 6.6, 6.8, 7.0)])
    return recommended_granularity_table(
        list(epsilons), settings,
        alpha1=DEFAULT_ALPHA1 if alpha1 is None else alpha1,
        alpha2=DEFAULT_ALPHA2 if alpha2 is None else alpha2,
        domain_size=domain_size)


def format_figure_results(results: dict, title: str) -> str:
    """Render a figure's sweep results as text tables (one per panel)."""
    lines = [f"== {title} =="]
    for key, sweep in results.items():
        lines.append(f"-- panel {key} --")
        lines.append(sweep.format_table())
        lines.append("")
    return "\n".join(lines)
