"""The figure table of ``benchmarks/reproduce_figures.py`` and its claim gate.

The script replaced one pytest driver per figure; these checks keep its
table complete (a row, quick and paper settings and at least one claim
for every former driver) and pin the exit-status rule on stub results,
without running any experiment.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FORMER_DRIVERS = (
    "fig01_vary_epsilon", "fig02_vary_volume", "fig03_vary_domain",
    "fig04_vary_attributes", "fig05_vary_query_dim", "fig06_vary_population",
    "fig07_guideline", "fig08_component_ablation",
    "fig09_10_error_distribution", "fig11_full_marginals", "fig12_full_range",
    "fig13_14_zero_count", "fig15_user_split", "fig16_guideline_d",
    "fig17_18_convergence", "fig19_21_new_datasets", "fig23_27_lambda6",
    "fig28_covariance", "table2_granularities", "ablation_oracle",
    "ablation_maxent",
)


@pytest.fixture(scope="module")
def script():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import reproduce_figures
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return reproduce_figures


def test_rows_are_unique_and_cover_every_former_driver(script):
    ids = [row.id for row in script.FIGURES]
    assert len(ids) == len(set(ids))
    assert sorted(ids) == sorted(FORMER_DRIVERS)


def test_every_row_has_both_scales_and_a_claim(script):
    statuses = {"holds", "deviates", "unverified"}
    for row in script.FIGURES:
        assert row.quick and row.paper, row.id
        assert row.claims, row.id
        for claim in row.claims:
            assert {claim.quick, claim.paper} <= statuses, (row.id, claim.name)


def _stub_row(script, status):
    claim = script.Claim("stub claim", lambda result: [(result, "stub fact")],
                         quick=status)
    return script.Figure("stub", call=None, quick={}, paper={},
                         render=str, claims=(claim,))


@pytest.mark.parametrize("status, holds, exit_code", [
    ("holds", True, 0),
    ("holds", False, 1),
    ("deviates", False, 0),
    ("deviates", True, 1),
    ("unverified", True, 0),
    ("unverified", False, 0),
])
def test_gate_fails_when_an_outcome_disagrees_with_its_status(
        script, capsys, status, holds, exit_code):
    row = _stub_row(script, status)
    assert script.gate([row], {"stub": holds}, "quick") == exit_code
    out = capsys.readouterr().out
    assert ("MISMATCH" in out) == bool(exit_code)


def test_maxent_rendering_leaves_out_the_answer_times(script):
    """The results file holds the MAEs only, so it is reproducible byte
    for byte; the times stay in the claims' facts."""
    (row,) = [row for row in script.FIGURES if row.id == "ablation_maxent"]
    fast = {"weighted_update": (0.03911, 0.02), "max_entropy": (0.0391, 1.08)}
    slow = {"weighted_update": (0.03911, 0.51), "max_entropy": (0.0391, 9.7)}
    assert row.render(fast) == row.render(slow)
    assert "0.03911" in row.render(fast)
