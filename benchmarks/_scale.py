"""Reporting helpers shared by the benchmark scripts.

``report`` prints a result table and keeps it under
``benchmarks/results/<name>.txt``; ``append_trajectory`` records one
throughput run in ``BENCH_fit.json`` at the repository root.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Machine-readable trajectory of the fit/sweep performance benchmarks;
#: every run appends one record so speedups can be tracked across PRs.
BENCH_TRAJECTORY = Path(__file__).resolve().parent.parent / "BENCH_fit.json"


def report(name: str, text: str) -> None:
    """Print a result table and persist it under benchmarks/results/."""
    print()
    print(text)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def append_trajectory(section: str, entry: dict) -> None:
    """Record one benchmark run in the ``BENCH_fit.json`` trajectory.

    The artifact keeps the latest record per section plus the full
    append-only history; a corrupt or missing file is recreated rather
    than failing the benchmark.
    """
    data: dict = {}
    if BENCH_TRAJECTORY.exists():
        try:
            data = json.loads(BENCH_TRAJECTORY.read_text())
        except ValueError:
            data = {}
    record = dict(entry)
    record["section"] = section
    record["unix_time"] = round(time.time(), 3)
    data.setdefault("history", []).append(record)
    data.setdefault("latest", {})[section] = record
    BENCH_TRAJECTORY.write_text(json.dumps(data, indent=2) + "\n")
