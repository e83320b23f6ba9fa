"""Reproduce the paper's figures and Table 2, and check the paper's claims.

    PYTHONPATH=src python benchmarks/reproduce_figures.py [ID ...] [--scale quick|paper]

``FIGURES`` has one row per figure (or figures sharing one run): the
``repro.experiments`` call with its ``quick`` settings (minutes) and
``paper`` settings (hours), the renderer of ``benchmarks/results/<ID>.txt``
and the row's claims.  A claim holds when each of its facts (one
comparison, printed with the measured values) holds.  Its recorded status
per scale is ``holds``, ``deviates`` (measured not to hold) or
``unverified`` (not measured; never fails the run).  The exit status is 1
when an outcome disagrees with a recorded ``holds`` or ``deviates``.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from _scale import report

from repro.core import HDG
from repro.datasets import make_dataset
from repro.experiments import appendix, figures
from repro.experiments.config import METHODS_WITHOUT_HIO
from repro.frequency_oracles import (AdaptiveFrequencyOracle,
                                     GeneralizedRandomizedResponse,
                                     OptimizedLocalHash)
from repro.metrics import mean_absolute_error
from repro.queries import WorkloadGenerator, answer_workload

#: One comparison of a claim: whether it holds, and the measured values.
Fact = tuple[bool, str]

#: Status of every claim a former figure driver asserted: it failed the run
#: at either scale.
ASSERTED = {"quick": "holds", "paper": "holds"}


@dataclass(frozen=True)
class Claim:
    """A named predicate over a row's result, with its status per scale."""

    name: str
    check: Callable[[Any], list[Fact]]
    quick: str
    paper: str = "unverified"


@dataclass(frozen=True)
class Figure:
    """One row of ``FIGURES``; ``id`` also names its results file."""

    id: str
    call: Callable[..., Any]
    quick: dict
    paper: dict
    render: Callable[[Any], str]
    claims: tuple[Claim, ...]


def _label(key) -> str:
    return " ".join(map(str, key)) if isinstance(key, tuple) else str(key)


def _flat(nested: dict) -> dict:
    """Panels of a two-level result, keyed ``(outer, inner)``."""
    return {(outer, *(inner if isinstance(inner, tuple) else (inner,))): sweep
            for outer, panels in nested.items() for inner, sweep in panels.items()}


def _points(sweeps: dict, at: int | None = None):
    """``(where, {method: MAE})`` per panel and sweep value (or only ``at``)."""
    for key, sweep in sweeps.items():
        series = sweep.series()
        positions = range(len(sweep.values)) if at is None else [at % len(sweep.values)]
        for i in positions:
            yield (f"{_label(key)} {sweep.parameter}={sweep.values[i]}",
                   {method: maes[i] for method, maes in series.items()})


def _beats(sweeps: dict, winner: str, losers=None, at: int | None = None) -> list[Fact]:
    """``winner``'s MAE is below each loser's (default: every other method)."""
    return [(mae[winner] < mae[loser],
             f"{where}: {winner} {mae[winner]:.4f} vs {loser} {mae[loser]:.4f}")
            for where, mae in _points(sweeps, at)
            for loser in (losers or [m for m in mae if m != winner])]


def _ends(sweeps: dict, methods, holds: Callable[[float, float], bool]) -> list[Fact]:
    """``holds(first, last)`` on each method's MAE at the sweep's two ends."""
    return [(holds(maes[0], maes[-1]),
             f"{_label(key)} {method}: {maes[0]:.4f} at {sweep.parameter}="
             f"{sweep.values[0]} -> {maes[-1]:.4f} at {sweep.values[-1]}")
            for key, sweep in sweeps.items() for method in methods
            for maes in [sweep.series()[method]]]


def _interior_peak(sweeps: dict, methods) -> list[Fact]:
    """Each method's MAE peaks strictly inside the swept range."""
    return [(0 < peak < len(sweep.values) - 1, f"{_label(key)} {method}: peak "
             f"{maes[peak]:.4f} at {sweep.parameter}={sweep.values[peak]}")
            for key, sweep in sweeps.items() for method in methods
            for maes in [sweep.series()[method]] for peak in [int(np.argmax(maes))]]


def _near_best_fixed(sweeps: dict) -> list[Fact]:
    """Guideline HDG within 3x (+0.02) of the best fixed (g1, g2) at every ε."""
    facts = []
    for key, sweep in sweeps.items():
        series = sweep.series()
        fixed = [maes for name, maes in series.items() if name != "HDG"]
        for position, value in enumerate(sweep.values):
            best = min(maes[position] for maes in fixed)
            hdg = series["HDG"][position]
            facts.append((hdg <= best * 3.0 + 0.02,
                          f"{_label(key)} epsilon={value}: HDG {hdg:.4f} vs "
                          f"best fixed {best:.4f}"))
    return facts


def _most(facts: list[Fact], what: str) -> list[Fact]:
    """One fact: more than half of ``facts`` hold."""
    held = sum(ok for ok, _ in facts)
    return [(2 * held > len(facts), f"{what} in {held} of {len(facts)}")]


def _count_conditioned(**settings):
    """Figures 13-14: high-λ 0-count queries, then non-0-count queries."""
    return tuple(appendix.figure_13_14_count_conditioned(zero_count=zero, **settings)
                 for zero in (True, False))


def _convergence(matrix: dict, queries: dict):
    """Figures 17-18: per-sweep change of Algorithm 1, then of Algorithm 2."""
    return (appendix.figure_17_convergence_matrix(**matrix),
            appendix.figure_18_convergence_query(**queries))


def _oracle_ablation(epsilon: float, n_users: int) -> dict:
    """Per-cell MAE of GRR, OLH and the adaptive rule at the domain sizes a
    grid mechanism reports into: g1, g2^2 and CALM's c^2 cells."""
    rng = np.random.default_rng(0)
    domains = {"1-D grid (g1=16)": 16, "2-D grid (g2=4)": 16,
               "2-D grid (g2=8)": 64, "CALM marginal (c=64)": 64 * 64}
    oracles = {"GRR": GeneralizedRandomizedResponse, "OLH": OptimizedLocalHash,
               "Adaptive": AdaptiveFrequencyOracle}
    outcomes = {}
    for label, domain in domains.items():
        probabilities = rng.dirichlet(np.ones(domain) * 2.0)
        values = rng.choice(domain, size=n_users, p=probabilities)
        outcomes[label] = {
            name: float(np.abs(oracle(epsilon, domain, rng=np.random.default_rng(1))
                               .estimate_frequencies(values) - probabilities).mean())
            for name, oracle in oracles.items()}
    return outcomes


def _maxent_ablation(n_users: int, n_attributes: int, domain_size: int,
                     n_queries: int) -> dict:
    """MAE and answer time of HDG's λ > 2 combiner: Weighted Update
    (Algorithm 2) against Maximum Entropy (Appendix A.8)."""
    dataset = make_dataset("normal", n_users, n_attributes, domain_size,
                           rng=np.random.default_rng(0))
    generator = WorkloadGenerator(n_attributes, domain_size,
                                  rng=np.random.default_rng(1))
    queries = generator.random_workload(n_queries, 4, 0.5)
    truths = answer_workload(dataset, queries)
    outcomes = {}
    for method in ("weighted_update", "max_entropy"):
        mechanism = HDG(1.0, estimation_method=method, seed=0).fit(dataset)
        start = time.perf_counter()
        estimates = mechanism.answer_workload(queries)
        elapsed = time.perf_counter() - start
        outcomes[method] = (mean_absolute_error(estimates, truths), elapsed)
    return outcomes


def _figure_text(title: str) -> Callable[[dict], str]:
    return lambda results: figures.format_figure_results(results, title)


def _render_error_distribution(results: dict) -> str:
    lines = ["== Figures 9-10: standard error distributions =="]
    for (dataset, dimension), panel in results.items():
        for method, payload in panel.items():
            errors = payload["errors"]
            lines.append(f"{dataset} λ={dimension} {method}: "
                         f"mean={errors.mean():.5f} median={np.median(errors):.5f} "
                         f"p90={np.quantile(errors, 0.9):.5f} max={errors.max():.5f}")
    return "\n".join(lines)


def _render_user_split(results: dict) -> str:
    lines = ["== Figure 15: HDG vs user split sigma =="]
    for dataset, per_epsilon in results.items():
        for epsilon, sweep in per_epsilon.items():
            row = "  ".join(f"{sigma:.1f}:{mae:.4f}"
                            for sigma, mae in zip(sweep.values, sweep.series()["HDG"]))
            lines.append(f"{dataset} eps={epsilon}: {row}")
    return "\n".join(lines)


def _render_convergence(results) -> str:
    matrix, queries = results
    lines = ["== Figure 17: Algorithm 1 change per sweep =="]
    for dataset, per_epsilon in matrix.items():
        for epsilon, history in per_epsilon.items():
            lines.append(f"{dataset} eps={epsilon}: first={history[0]:.3e} "
                         f"sweep20={history[min(19, len(history) - 1)]:.3e} "
                         f"last={history[-1]:.3e}")
    lines.append("== Figure 18: Algorithm 2 change per sweep ==")
    for dataset, per_epsilon in queries.items():
        for epsilon, history in per_epsilon.items():
            lines.append(f"{dataset} eps={epsilon}: first={history[0]:.3e} "
                         f"last={history[-1]:.3e}")
    return "\n".join(lines)


#: Table 2's rows (d, lg n) as printed in the paper; (6, 6.0) appears twice.
TABLE2_SETTINGS = ([(d, 6.0) for d in range(3, 11)]
                   + [(6, lg) for lg in (5.0, 5.2, 5.4, 5.6, 5.8, 6.0, 6.2, 6.4,
                                         6.6, 6.8, 7.0)])

#: Reference cells copied from Table 2 of the paper: (d, lg n, ε) -> (g1, g2).
PAPER_REFERENCE_CELLS = {
    (3, 6.0, 1.0): (32, 4),
    (6, 6.0, 0.2): (8, 2),
    (6, 6.0, 1.0): (16, 4),
    (6, 6.0, 2.0): (32, 4),
    (10, 6.0, 0.2): (4, 2),
    (10, 6.0, 2.0): (32, 4),
    (6, 5.0, 1.0): (8, 2),
    (6, 7.0, 1.0): (64, 8),
    (6, 6.4, 2.0): (64, 8),
}


def _render_table2(table: dict) -> str:
    epsilons = figures.PAPER_EPSILONS
    lines = ["== Table 2: recommended (g1, g2) =="]
    lines.append("d, lg(n)".ljust(10) + "  ".join(f"{eps:>7}" for eps in epsilons))
    for d, lg_n in TABLE2_SETTINGS:
        cells = ["{},{}".format(*table[(d, lg_n, eps)]).rjust(7) for eps in epsilons]
        lines.append(f"{d}, {lg_n}".ljust(10) + "  ".join(cells))
    return "\n".join(lines)


def _msw_gap_grows(results: dict, slack: float) -> list[Fact]:
    """MSW's MAE minus HDG's at the largest ε (first panel per covariance) at
    the highest covariance is at least that at the lowest, less ``slack``."""
    gaps = {}
    for (_, covariance, _), sweep in results.items():
        gaps.setdefault(covariance, sweep.series()["MSW"][-1] - sweep.series()["HDG"][-1])
    low, high = min(gaps), max(gaps)
    return [(gaps[high] >= gaps[low] - slack, f"MSW - HDG: {gaps[low]:.4f} at "
             f"cov={low} -> {gaps[high]:.4f} at cov={high}")]


def _convergence_drop(histories: dict, holds) -> list[Fact]:
    """``holds(first, at20)`` on the first change and that at sweep 20 (or last)."""
    return [(holds(history[0], history[min(19, len(history) - 1)]),
             f"{dataset} eps={epsilon}: {history[0]:.3e} -> "
             f"{history[min(19, len(history) - 1)]:.3e}")
            for dataset, per_epsilon in histories.items()
            for epsilon, history in per_epsilon.items()]


LDP_METHODS = ("MSW", "CALM", "HIO", "LHIO", "TDG", "HDG")
LDP_WITHOUT_HIO = ("MSW", "CALM", "LHIO", "TDG", "HDG")
QUICK_DATASETS = ("ipums", "normal")
PAPER_DATASETS = ("ipums", "bfive", "normal", "laplace")
QUICK_EPSILONS = (0.2, 0.5, 1.0, 2.0)

#: Settings the rows share at each scale unless they override or drop them.
QUICK = dict(n_users=40_000, n_attributes=6, domain_size=64, n_queries=50,
             n_repeats=1, seed=0)
PAPER = dict(n_users=1_000_000, n_attributes=6, domain_size=64, n_queries=200,
             n_repeats=10, seed=0)


def _scaled(base: dict, *drop: str, **settings) -> dict:
    """``base`` without the ``drop`` keys, updated with ``settings``."""
    return {**{k: v for k, v in base.items() if k not in drop}, **settings}


FIGURES = (
    Figure(
        "fig01_vary_epsilon", figures.figure_1_vary_epsilon,
        quick=_scaled(QUICK, datasets=QUICK_DATASETS, epsilons=QUICK_EPSILONS,
                      query_dimensions=(2, 4)),
        paper=_scaled(PAPER, datasets=PAPER_DATASETS,
                      epsilons=figures.PAPER_EPSILONS, query_dimensions=(2, 4)),
        render=_figure_text("Figure 1: MAE vs epsilon"),
        claims=(
            Claim("HDG beats Uni at the largest ε on every panel",
                  lambda r: _beats(r, "HDG", ["Uni"], at=-1), **ASSERTED),
            Claim("HDG beats HIO at the largest ε on every panel",
                  lambda r: _beats(r, "HDG", ["HIO"], at=-1), **ASSERTED),
            *(Claim(f"{method} improves with ε: its MAE at the largest ε is at "
                    "most 0.9x that at the smallest, on every panel",
                    lambda r, method=method: _ends(r, [method],
                                                   lambda first, last: last <= 0.9 * first),
                    quick=("deviates" if method in ("CALM", "TDG") else "holds"))
              for method in LDP_METHODS),
            Claim("HIO is the worst mechanism at every ε on every panel",
                  lambda r: [(not ok, text) for ok, text in _beats(r, "HIO")],
                  quick="holds"),
            Claim("LHIO beats HIO by about an order of magnitude (>= sqrt(10)x) "
                  "at the smallest ε",
                  lambda r: [(mae["HIO"] >= 10 ** 0.5 * mae["LHIO"],
                              f"{where}: HIO {mae['HIO']:.4f} vs LHIO {mae['LHIO']:.4f}")
                             for where, mae in _points(r, at=0)],
                  quick="holds"),
            *(Claim(f"HDG is best: it beats {rival} at every ε on every panel",
                    lambda r, rival=rival: _beats(r, "HDG", [rival]),
                    quick=("holds" if rival == "HIO" else "deviates"))
              for rival in ("Uni", "MSW", "CALM", "HIO", "LHIO", "TDG")),
            Claim("TDG has a clear advantage: it beats Uni, MSW, CALM, HIO and "
                  "LHIO at every ε on every panel",
                  lambda r: _beats(r, "TDG", ["Uni", "MSW", "CALM", "HIO", "LHIO"]),
                  quick="deviates"),
        )),
    Figure(
        "fig02_vary_volume", figures.figure_2_vary_volume,
        quick=_scaled(QUICK, datasets=QUICK_DATASETS, volumes=(0.1, 0.3, 0.5, 0.7, 0.9),
                      query_dimensions=(2,), epsilon=1.0),
        paper=_scaled(PAPER, datasets=PAPER_DATASETS, volumes=figures.PAPER_VOLUMES,
                      query_dimensions=(2,), epsilon=1.0),
        render=_figure_text("Figure 2: MAE vs volume"),
        claims=(
            Claim("HDG beats Uni on at least half the volumes of every panel",
                  lambda r: [(wins >= len(s["HDG"]) // 2,
                              f"{_label(key)}: HDG below Uni at {wins} of {len(s['HDG'])}")
                             for key, s in ((k, v.series()) for k, v in r.items())
                             for wins in [sum(h < u for h, u in zip(s["HDG"], s["Uni"]))]],
                  **ASSERTED),
            Claim("HDG consistently outperforms the others: best at every ω",
                  lambda r: _beats(r, "HDG"), quick="deviates"),
            Claim("LDP mechanisms except HIO show arch-like trends: MAE peaks "
                  "at an interior ω on every panel",
                  lambda r: _interior_peak(r, LDP_WITHOUT_HIO), quick="deviates"),
        )),
    Figure(
        "fig03_vary_domain", figures.figure_3_vary_domain,
        quick=_scaled(QUICK, "domain_size", datasets=("normal",),
                      domain_sizes=(16, 64, 256), query_dimensions=(2,),
                      epsilon=1.0, volume=0.5),
        paper=_scaled(PAPER, "domain_size", datasets=("normal", "laplace"),
                      domain_sizes=(16, 32, 64, 128, 256, 512, 1024),
                      query_dimensions=(2,), epsilon=1.0, volume=0.5),
        render=_figure_text("Figure 3: MAE vs domain size"),
        claims=(
            Claim("CALM degrades from the smallest to the largest domain",
                  lambda r: _ends(r, ["CALM"], lambda first, last: last > first),
                  **ASSERTED),
            Claim("HDG beats CALM at the largest domain",
                  lambda r: _beats(r, "HDG", ["CALM"], at=-1), **ASSERTED),
            Claim("LHIO degrades from the smallest to the largest domain",
                  lambda r: _ends(r, ["LHIO"], lambda first, last: last > first),
                  quick="holds"),
            Claim("HDG stays stable: its MAE grows by a smaller factor than "
                  "CALM's and LHIO's",
                  lambda r: [(s["HDG"][-1] / s["HDG"][0] < s[m][-1] / s[m][0],
                              f"{_label(k)}: HDG x{s['HDG'][-1] / s['HDG'][0]:.2f} "
                              f"vs {m} x{s[m][-1] / s[m][0]:.2f}")
                             for k, s in ((k, v.series()) for k, v in r.items())
                             for m in ("CALM", "LHIO")],
                  quick="holds"),
        )),
    Figure(
        "fig04_vary_attributes", figures.figure_4_vary_attributes,
        quick=_scaled(QUICK, "n_attributes", datasets=QUICK_DATASETS,
                      attribute_counts=(3, 6, 8), query_dimensions=(2,),
                      epsilon=1.0, volume=0.5),
        paper=_scaled(PAPER, "n_attributes", datasets=PAPER_DATASETS,
                      attribute_counts=(3, 4, 5, 6, 7, 8, 9, 10),
                      query_dimensions=(2,), epsilon=1.0, volume=0.5),
        render=_figure_text("Figure 4: MAE vs attributes"),
        claims=(
            Claim("HDG is no worse than Uni at the smallest d",
                  lambda r: [(mae["HDG"] <= mae["Uni"],
                              f"{where}: HDG {mae['HDG']:.4f} vs Uni {mae['Uni']:.4f}")
                             for where, mae in _points(r, at=0)],
                  **ASSERTED),
            Claim("LDP errors grow with d: MAE at the largest d above that at "
                  "the smallest",
                  lambda r: _ends(r, LDP_WITHOUT_HIO, lambda first, last: last > first),
                  quick="deviates"),
            Claim("HDG is best at every d", lambda r: _beats(r, "HDG"),
                  quick="deviates"),
        )),
    Figure(
        "fig05_vary_query_dim", figures.figure_5_vary_query_dimension,
        quick=_scaled(QUICK, datasets=QUICK_DATASETS, query_dimensions=(2, 3, 4, 6),
                      epsilon=1.0, volume=0.5),
        paper=_scaled(PAPER, datasets=PAPER_DATASETS,
                      query_dimensions=(2, 3, 4, 5, 6, 7, 8, 9, 10),
                      epsilon=1.0, volume=0.5),
        render=_figure_text("Figure 5: MAE vs query dimension"),
        claims=(
            Claim("HDG's MAE is non-negative at every λ",
                  lambda r: [(mae["HDG"] >= 0, f"{where}: HDG {mae['HDG']:.4f}")
                             for where, mae in _points(r)],
                  **ASSERTED),
            Claim("On the real dataset (ipums) every LDP MAE falls as λ grows",
                  lambda r: [(all(a >= b for a, b in zip(maes, maes[1:])),
                              f"ipums {m}: " + " ".join(f"{v:.4f}" for v in maes))
                             for m, maes in r["ipums"].series().items() if m != "Uni"],
                  quick="holds"),
            Claim("On the synthetic dataset (normal) every LDP MAE first grows "
                  "with λ, then falls: it peaks at an interior λ",
                  lambda r: _interior_peak({"normal": r["normal"]}, LDP_WITHOUT_HIO),
                  quick="deviates"),
        )),
    Figure(
        "fig06_vary_population", figures.figure_6_vary_population,
        quick=_scaled(QUICK, "n_users", datasets=("normal",),
                      populations=(10_000, 40_000, 160_000), query_dimensions=(2,),
                      epsilon=1.0, volume=0.5),
        paper=_scaled(PAPER, "n_users", datasets=("normal", "laplace"),
                      populations=(100_000, 1_000_000, 10_000_000),
                      query_dimensions=(2,), epsilon=1.0, volume=0.5),
        render=_figure_text("Figure 6: MAE vs population"),
        claims=(
            Claim("More users: HDG's MAE at the largest n is at most that at "
                  "the smallest",
                  lambda r: _ends(r, ["HDG"], lambda first, last: last <= first),
                  **ASSERTED),
            Claim("A larger population boosts every LDP mechanism: MAE at the "
                  "largest n below that at the smallest",
                  lambda r: _ends(r, LDP_METHODS, lambda first, last: last < first),
                  quick="deviates"),
            Claim("HDG is best at every n", lambda r: _beats(r, "HDG"),
                  quick="deviates"),
        )),
    Figure(
        "fig07_guideline", figures.figure_7_guideline,
        quick=_scaled(QUICK, datasets=QUICK_DATASETS, epsilons=QUICK_EPSILONS,
                      combinations=((8, 2), (8, 4), (16, 4), (32, 8)), volume=0.5),
        paper=_scaled(PAPER, datasets=("ipums", "bfive"),
                      epsilons=figures.PAPER_EPSILONS,
                      combinations=figures.GUIDELINE_COMBINATIONS, volume=0.5),
        render=_figure_text("Figure 7: guideline verification"),
        claims=(
            Claim("Guideline HDG is consistently close to the best fixed "
                  "(g1, g2): within 3x + 0.02 at every ε",
                  _near_best_fixed, **ASSERTED),
        )),
    Figure(
        "fig08_component_ablation", figures.figure_8_component_ablation,
        quick=_scaled(QUICK, datasets=QUICK_DATASETS, epsilons=QUICK_EPSILONS,
                      query_dimensions=(2,), volume=0.5),
        paper=_scaled(PAPER, datasets=("ipums", "bfive"),
                      epsilons=figures.PAPER_EPSILONS, query_dimensions=(2,),
                      volume=0.5),
        render=_figure_text("Figure 8: Phase-2 ablation"),
        claims=(
            Claim("TDG and ITDG stay within 3x of each other on average",
                  lambda r: [(0.3 < ratio < 3.0, f"{_label(k)}: mean TDG / ITDG {ratio:.3f}")
                             for k, s in ((k, v.series()) for k, v in r.items())
                             for ratio in [(np.mean(s["TDG"]) + 1e-9)
                                           / (np.mean(s["ITDG"]) + 1e-9)]],
                  **ASSERTED),
            Claim("ITDG and TDG are nearly identical: mean MAEs within 25%",
                  lambda r: [(0.8 <= ratio <= 1.25, f"{_label(k)}: mean TDG / ITDG {ratio:.3f}")
                             for k, s in ((k, v.series()) for k, v in r.items())
                             for ratio in [np.mean(s["TDG"]) / np.mean(s["ITDG"])]],
                  quick="holds"),
            Claim("HDG is better than IHDG in most cases",
                  lambda r: _most(_beats(r, "HDG", ["IHDG"]), "HDG below IHDG"),
                  quick="holds"),
        )),
    Figure(
        "fig09_10_error_distribution", appendix.figure_9_10_error_distribution,
        quick=_scaled(QUICK, "n_repeats", datasets=QUICK_DATASETS,
                      query_dimensions=(2, 4), epsilon=1.0, volume=0.5),
        paper=_scaled(PAPER, "n_repeats", datasets=("ipums", "bfive"),
                      query_dimensions=(2, 4), epsilon=1.0, volume=0.5),
        render=_render_error_distribution,
        claims=(
            Claim("At λ=2 HDG's mean error is at most TDG's",
                  lambda r: [(p["HDG"]["errors"].mean() <= p["TDG"]["errors"].mean(),
                              f"{_label(k)}: HDG {p['HDG']['errors'].mean():.4f} "
                              f"vs TDG {p['TDG']['errors'].mean():.4f}")
                             for k, p in r.items() if k[1] == 2],
                  **ASSERTED),
            Claim("HDG's errors are an order of magnitude smaller than TDG's "
                  "(mean at most a tenth) on most panels",
                  lambda r: _most([(p["HDG"]["errors"].mean()
                                    <= p["TDG"]["errors"].mean() / 10, "")
                                   for p in r.values()], "HDG mean <= TDG mean / 10"),
                  quick="deviates"),
        )),
    Figure(
        "fig11_full_marginals", appendix.figure_11_full_marginals,
        # The exhaustive marginal workload has C(d,2) * c^2 queries, so the
        # quick row shrinks the domain and attribute count.
        quick=_scaled(QUICK, "n_queries", datasets=QUICK_DATASETS,
                      epsilons=(0.2, 0.5, 1.0), n_attributes=4, domain_size=16),
        paper=_scaled(PAPER, "n_queries", datasets=("ipums", "bfive"),
                      epsilons=(0.2, 0.4, 0.6)),
        render=_figure_text("Figure 11: full 2-D marginals"),
        claims=(
            Claim("HDG beats Uni at the largest ε",
                  lambda r: _beats(r, "HDG", ["Uni"], at=-1), **ASSERTED),
            Claim("All mechanisms achieve small absolute errors: every MAE "
                  "below 0.05",
                  lambda r: [(mae < 0.05, f"{where}: {m} {mae:.4f}")
                             for where, maes in _points(r) for m, mae in maes.items()],
                  quick="holds"),
            Claim("HDG is comparable or better on most datasets: within 1.1x "
                  "of the best other mechanism at the largest ε",
                  lambda r: _most([(maes["HDG"] <= 1.1 * min(v for m, v in maes.items()
                                                             if m != "HDG"), "")
                                   for _, maes in _points(r, at=-1)],
                                  "HDG within 1.1x of the best"),
                  quick="holds"),
        )),
    Figure(
        "fig12_full_range", appendix.figure_12_full_range,
        quick=_scaled(QUICK, "n_queries", datasets=QUICK_DATASETS,
                      epsilons=(0.2, 0.5, 1.0), methods=METHODS_WITHOUT_HIO,
                      n_attributes=4, domain_size=16, volume=0.5),
        paper=_scaled(PAPER, "n_queries", datasets=("ipums", "bfive"),
                      epsilons=(0.2, 0.4, 0.6), methods=METHODS_WITHOUT_HIO,
                      volume=0.5),
        render=_figure_text("Figure 12: full 2-D ranges"),
        claims=(
            Claim("HDG beats Uni at the largest ε",
                  lambda r: _beats(r, "HDG", ["Uni"], at=-1), **ASSERTED),
            Claim("HDG beats CALM at the largest ε",
                  lambda r: _beats(r, "HDG", ["CALM"], at=-1), **ASSERTED),
            Claim("HDG is best across datasets and ε", lambda r: _beats(r, "HDG"),
                  quick="deviates"),
        )),
    Figure(
        "fig13_14_zero_count", _count_conditioned,
        quick=_scaled(QUICK, datasets=("ipums",), query_dimensions=(6, 8),
                      methods=METHODS_WITHOUT_HIO, n_attributes=8, epsilon=1.0,
                      n_queries=10),
        paper=_scaled(PAPER, datasets=("ipums",), query_dimensions=(6, 7, 8, 9, 10),
                      methods=METHODS_WITHOUT_HIO, n_attributes=10, epsilon=1.0,
                      n_queries=40),
        render=lambda r: (figures.format_figure_results(r[0], "Figure 13: 0-count queries")
                          + "\n" + figures.format_figure_results(
                              r[1], "Figure 14: non-0-count queries")),
        claims=(
            Claim("On 0-count queries HDG's MAE stays below 0.2",
                  lambda r: [(mae["HDG"] < 0.2, f"{where}: HDG {mae['HDG']:.5f}")
                             for where, mae in _points(r[0])],
                  **ASSERTED),
            Claim("On 0-count queries every mechanism's error is very small: "
                  "below a tenth of its non-0-count error",
                  lambda r: [(zero[m] < nonzero[m] / 10,
                              f"{where}: {m} {zero[m]:.5f} vs {nonzero[m]:.5f}")
                             for (where, zero), (_, nonzero)
                             in zip(_points(r[0]), _points(r[1])) for m in zero],
                  quick="holds"),
            Claim("On non-0-count queries HDG is best",
                  lambda r: _beats(r[1], "HDG"), quick="holds"),
        )),
    Figure(
        "fig15_user_split", appendix.figure_15_user_split,
        quick=_scaled(QUICK, datasets=QUICK_DATASETS, sigmas=(0.1, 0.3, 0.5, 0.7, 0.9),
                      epsilons=(0.2, 1.0, 1.8), volume=0.5),
        paper=_scaled(PAPER, datasets=("ipums", "bfive"),
                      sigmas=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                      epsilons=(0.2, 1.0, 1.8), volume=0.5),
        render=_render_user_split,
        claims=(
            Claim("The best σ in [0.2, 0.6] is within 2.5x (+0.01) of the best σ",
                  lambda r: [(min(mid) <= min(maes) * 2.5 + 0.01,
                              f"{_label(k)}: best in range {min(mid):.4f} vs "
                              f"best {min(maes):.4f}")
                             for k, sweep in _flat(r).items()
                             for maes in [sweep.series()["HDG"]]
                             for mid in [[m for s, m in zip(sweep.values, maes)
                                          if 0.2 <= s <= 0.6]]],
                  **ASSERTED),
            Claim("σ between 0.2 and 0.6 gives the best accuracy",
                  lambda r: [(0.2 <= best <= 0.6, f"{_label(k)}: best σ={best}")
                             for k, sweep in _flat(r).items()
                             for best in [sweep.values[int(np.argmin(
                                 sweep.series()["HDG"]))]]],
                  quick="deviates"),
        )),
    Figure(
        "fig16_guideline_d", appendix.figure_16_guideline_d,
        quick=_scaled(QUICK, "n_attributes", datasets=("ipums",),
                      attribute_counts=(4, 8), epsilons=(0.2, 0.5, 1.0),
                      combinations=((8, 2), (16, 4), (32, 8)), volume=0.5),
        paper=_scaled(PAPER, "n_attributes", datasets=("ipums",),
                      attribute_counts=(4, 8, 10), epsilons=(0.2, 0.4, 0.6),
                      combinations=figures.GUIDELINE_COMBINATIONS, volume=0.5),
        render=lambda r: "\n".join(
            figures.format_figure_results(per_dataset, f"Figure 16: guideline at d={d}")
            for d, per_dataset in r.items()),
        claims=(
            Claim("Every panel has a guideline HDG series",
                  lambda r: [("HDG" in sweep.series(), f"d={k[0]} {k[1]}")
                             for k, sweep in _flat(r).items()],
                  **ASSERTED),
            Claim("As in Figure 7, guideline HDG stays within 3x + 0.02 of the "
                  "best fixed (g1, g2) at every d and ε",
                  lambda r: _near_best_fixed(_flat(r)), quick="holds"),
        )),
    Figure(
        "fig17_18_convergence", _convergence,
        quick=dict(
            matrix=_scaled(QUICK, "n_queries", "n_repeats", datasets=QUICK_DATASETS,
                           epsilons=(0.2, 1.0, 1.8), max_iterations=50),
            queries=_scaled(QUICK, "n_repeats", datasets=("ipums",),
                            epsilons=(0.2, 1.0, 1.8), query_dimension=4,
                            volume=0.5, n_queries=5, max_iterations=60)),
        paper=dict(
            matrix=_scaled(PAPER, "n_queries", "n_repeats", datasets=("ipums", "bfive"),
                           epsilons=(0.2, 1.0, 1.8), max_iterations=50),
            queries=_scaled(PAPER, "n_repeats", datasets=("ipums",),
                            epsilons=(0.2, 1.0, 1.8), query_dimension=4,
                            volume=0.5, n_queries=20, max_iterations=60)),
        render=_render_convergence,
        claims=(
            Claim("Algorithm 1's change at sweep 20 is below its first change",
                  lambda r: _convergence_drop(r[0], lambda first, at20: at20 < first),
                  **ASSERTED),
            Claim("Algorithm 1's change drops by at least four orders of "
                  "magnitude within twenty sweeps",
                  lambda r: _convergence_drop(r[0], lambda first, at20: at20 <= 1e-4 * first),
                  quick="holds"),
            Claim("Algorithm 2's change drops by at least four orders of "
                  "magnitude within twenty sweeps",
                  lambda r: _convergence_drop(r[1], lambda first, at20: at20 <= 1e-4 * first),
                  quick="deviates"),
        )),
    Figure(
        "fig19_21_new_datasets", appendix.figure_19_21_new_datasets,
        quick=_scaled(QUICK, epsilons=(0.2, 0.5, 1.0), volumes=(0.3, 0.5, 0.7),
                      attribute_counts=(4, 6), query_dimensions=(2,)),
        paper=_scaled(PAPER, epsilons=figures.PAPER_EPSILONS,
                      volumes=figures.PAPER_VOLUMES,
                      attribute_counts=(4, 5, 6, 7, 8, 9, 10), query_dimensions=(2,)),
        render=lambda r: "\n".join(figures.format_figure_results(panels, name)
                                   for name, panels in r.items()),
        claims=(
            Claim("HDG beats Uni at the largest ε (Figure 19)",
                  lambda r: _beats(r["fig19_epsilon"], "HDG", ["Uni"], at=-1),
                  **ASSERTED),
            Claim("HDG beats every baseline at every ε, ω and d on Loan and Acs",
                  lambda r: _beats(_flat(r), "HDG"), quick="deviates"),
        )),
    Figure(
        "fig23_27_lambda6", appendix.figure_23_27_lambda6,
        quick=_scaled(QUICK, datasets=("normal",), epsilons=(0.2, 0.5, 1.0),
                      volume=0.5, n_queries=25),
        paper=_scaled(PAPER, datasets=("normal", "laplace"), epsilons=(0.2, 0.4, 0.6),
                      volume=0.5, n_queries=100),
        render=_figure_text("Figures 23-27: lambda = 6"),
        claims=(
            Claim("HDG beats HIO at the largest ε",
                  lambda r: _beats(r, "HDG", ["HIO"], at=-1), **ASSERTED),
            Claim("The λ = 2, 4 ordering carries over: HDG is best at the "
                  "largest ε",
                  lambda r: _beats(r, "HDG", at=-1), quick="deviates"),
        )),
    Figure(
        "fig28_covariance", appendix.figure_28_covariance,
        quick=_scaled(QUICK, datasets=("normal",), covariances=(0.0, 1.0),
                      epsilons=(0.2, 0.5, 1.0), query_dimensions=(2,), volume=0.5),
        paper=_scaled(PAPER, datasets=("normal", "laplace"),
                      covariances=(0.0, 0.2, 0.6, 1.0), epsilons=(0.2, 0.4, 0.6),
                      query_dimensions=(2,), volume=0.5),
        render=lambda r: "\n".join(
            ["== Figure 28: covariance sweep =="]
            + [f"{dataset} cov={covariance} λ={dimension}: " + "  ".join(
                f"{method}={maes[-1]:.4f}" for method, maes in sweep.series().items())
               for (dataset, covariance, dimension), sweep in r.items()]),
        claims=(
            Claim("MSW's penalty relative to HDG at the largest ε grows with "
                  "the covariance (slack 0.02)",
                  lambda r: _msw_gap_grows(r, 0.02), **ASSERTED),
            Claim("HDG stays superior across the covariance range: best at "
                  "every ε", lambda r: _beats(r, "HDG"), quick="deviates"),
            Claim("MSW is relatively better at covariance 0 and worse at 1: "
                  "its penalty strictly grows",
                  lambda r: _msw_gap_grows(r, 0.0), quick="holds"),
        )),
    Figure(
        "table2_granularities", figures.table_2_granularities,
        quick=dict(epsilons=figures.PAPER_EPSILONS, settings=TABLE2_SETTINGS),
        paper=dict(epsilons=figures.PAPER_EPSILONS, settings=TABLE2_SETTINGS),
        render=_render_table2,
        claims=(
            Claim("The guideline reproduces the paper's Table 2 reference cells",
                  lambda r: [(r[key] == expected,
                              f"d={key[0]} lg n={key[1]} eps={key[2]}: "
                              f"{r[key]} vs paper {expected}")
                             for key, expected in PAPER_REFERENCE_CELLS.items()],
                  **ASSERTED),
        )),
    Figure(
        "ablation_oracle", _oracle_ablation,
        quick=dict(epsilon=1.0, n_users=40_000),
        paper=dict(epsilon=1.0, n_users=100_000),
        render=lambda r: "\n".join(
            ["== Ablation: frequency oracle choice (per-cell MAE) =="]
            + [f"{label:24s} " + "  ".join(f"{k}={v:.6f}" for k, v in row.items())
               for label, row in r.items()]),
        claims=(
            Claim("OLH beats GRR at the CALM-style c^2 domain",
                  lambda r: [(large["OLH"] < large["GRR"],
                              "CALM marginal (c=64): OLH {OLH:.6f} vs GRR {GRR:.6f}"
                              .format(**large))
                             for large in [r["CALM marginal (c=64)"]]],
                  **ASSERTED),
            Claim("The adaptive rule is within 1.5x (+1e-4) of the better of "
                  "GRR and OLH at every domain",
                  lambda r: [(row["Adaptive"] <= min(row["GRR"], row["OLH"]) * 1.5 + 1e-4,
                              "{}: Adaptive {Adaptive:.6f} vs GRR {GRR:.6f}, "
                              "OLH {OLH:.6f}".format(label, **row))
                             for label, row in r.items()],
                  **ASSERTED),
            Claim("OLH beats GRR at every grid and marginal domain, as the "
                  "paper relies on",
                  lambda r: [(row["OLH"] < row["GRR"],
                              "{}: OLH {OLH:.6f} vs GRR {GRR:.6f}".format(label, **row))
                             for label, row in r.items()],
                  quick="holds"),
        )),
    Figure(
        "ablation_maxent", _maxent_ablation,
        quick=_scaled(QUICK, "n_repeats", "seed", n_queries=25),
        paper=_scaled(PAPER, "n_repeats", "seed", n_queries=100),
        render=lambda r: "\n".join(
            ["== Ablation: Algorithm 2 combiner =="]
            + [f"{method:16s} MAE={mae:.5f}" for method, (mae, _) in r.items()]),
        claims=(
            Claim("Weighted Update's MAE is within 2x (+0.01) of Max-Ent's",
                  lambda r: [(r["weighted_update"][0] <= r["max_entropy"][0] * 2.0 + 0.01,
                              f"WU {r['weighted_update'][0]:.5f} vs "
                              f"Max-Ent {r['max_entropy'][0]:.5f}")],
                  **ASSERTED),
            Claim("Almost the same accuracy: Max-Ent's MAE is within 2x (+0.01) "
                  "of Weighted Update's",
                  lambda r: [(r["max_entropy"][0] <= r["weighted_update"][0] * 2.0 + 0.01,
                              f"Max-Ent {r['max_entropy'][0]:.5f} vs "
                              f"WU {r['weighted_update'][0]:.5f}")],
                  quick="holds"),
            Claim("Weighted Update is the cheaper combiner: shorter answer time",
                  lambda r: [(r["weighted_update"][1] < r["max_entropy"][1],
                              f"WU {r['weighted_update'][1]:.3f} s vs "
                              f"Max-Ent {r['max_entropy'][1]:.3f} s")],
                  quick="holds"),
        )),
)


def gate(rows, results: dict, scale: str) -> int:
    """Print every claim with its facts, recorded status and outcome.

    Returns 1 when an outcome disagrees with a recorded ``holds`` or
    ``deviates`` status, 0 otherwise.
    """
    mismatches = 0
    print(f"\n== Claims at --scale {scale} ==")
    for row in rows:
        for claim in row.claims:
            facts = claim.check(results[row.id])
            outcome = "holds" if all(ok for ok, _ in facts) else "deviates"
            recorded = getattr(claim, scale)
            agrees = recorded in (outcome, "unverified")
            mismatches += not agrees
            print(f"{row.id}: {claim.name}\n    recorded {recorded}, "
                  f"measured {outcome}{'' if agrees else '  <-- MISMATCH'}")
            failing = [text for ok, text in facts if not ok]
            shown = failing or [text for _, text in facts][:3]
            for text in shown:
                print(f"      {'x' if failing else 'ok'} {text}")
            if not failing and len(facts) > len(shown):
                print(f"      ... all {len(facts)} facts hold")
    print(f"{mismatches} claim(s) disagree with their recorded status")
    return 1 if mismatches else 0


def main(argv=None) -> int:
    ids = [row.id for row in FIGURES]
    parser = argparse.ArgumentParser(
        description="Reproduce the paper's figures and check their claims.")
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="rows to run (default: all): " + ", ".join(ids))
    parser.add_argument("--scale", choices=("quick", "paper"), default="quick")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.ids) - set(ids))
    if unknown:
        parser.error(f"unknown figure id(s): {', '.join(unknown)}")
    rows = [row for row in FIGURES if not args.ids or row.id in args.ids]
    results = {}
    for row in rows:
        start = time.perf_counter()
        results[row.id] = row.call(**getattr(row, args.scale))
        report(row.id, row.render(results[row.id]))
        print(f"({row.id}: {time.perf_counter() - start:.1f} s)")
    return gate(rows, results, args.scale)


if __name__ == "__main__":
    sys.exit(main())
