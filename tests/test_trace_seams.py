"""The span-tracing seams of ``perfbench/traced_server.py`` still exist.

The traced benchmark wraps library entry points by name
(``QueryPlanner.plan``, ``CompiledPlan.from_plan``, ``_plan_for``,
``_answer_compiled``, ``_results_document``, ...) and reads the
compiled plan's ``n_primitives`` and ``n_queries``.  A renamed or
removed seam would otherwise surface only at the next traced benchmark
run.  This installs the tracer in a fresh interpreter, answers one typed
workload inside a traced request, and checks the recorded spans and
plan counters.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json
import sys

import numpy as np

sys.path.insert(0, "perfbench")
from traced_server import Tracer, install

tracer = Tracer()
install(tracer)

from repro import build_mechanism, make_dataset
from repro.queries import MarginalQuery, Predicate, RangeQuery

dataset = make_dataset("normal", 500, 3, 8, rng=np.random.default_rng(0))
mechanism = build_mechanism("HDG", 1.0, seed=0).fit(dataset)
tracer.begin_request()
mechanism.answer_typed([MarginalQuery((0, 1)),
                        RangeQuery((Predicate(0, 1, 4),))])
tracer.end_request("seam-check", "/query")
print(json.dumps(tracer.document()["requests"]))
"""


def test_traced_server_installs_and_records_plan_spans():
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT,
        env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    [request] = json.loads(completed.stdout)
    names = {span[0] for span in request["spans"]}
    assert {"plan.lookup", "plan.compile", "kernel.answer",
            "assemble"} <= names
    assert request["counts"] == {"plan.compiles": 1,
                                 "plan.primitives": 8 * 8 + 1,
                                 "plan.queries": 2}
