"""Write the stored state documents under ``tests/data/state_documents/``.

The documents pin the ``shard_state`` and ``save_state`` formats of the
shardable mechanisms, so a refactor of the aggregation code can show it
writes the same documents and still reads the old ones.  They were
written by commit 4af2a0d; to write them again from that commit::

    git archive 4af2a0d | tar -x -C /tmp/pinned
    PYTHONPATH=/tmp/pinned/src python tests/data/make_state_documents.py

It writes, for ``tests/test_state_documents.py``:

* ``inputs.json`` — the two batches, the seeds and the range workload;
* ``<mechanism>.json`` for TDG, CALM, HDG, MSW and Uni — the
  ``shard_state`` after both batches went through ``partial_fit`` on one
  instance, the ``save_state`` of ``fit`` over both batches, and the
  answers each document restores to: the shard state through
  ``load_shard_state`` and ``finalize``, the fitted state through
  ``repro.serving.restore_mechanism``.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from repro.datasets import Dataset
from repro.mechanisms import build_mechanism
from repro.queries import Predicate, RangeQuery
from repro.serving import restore_mechanism

HERE = Path(__file__).resolve().parent / "state_documents"
MECHANISMS = ("TDG", "CALM", "HDG", "MSW", "Uni")
INPUTS = {
    "epsilon": 1.0,
    "domain_size": 8,
    "collect_seed": 7,
    "restore_seed": 3,
    "workload": [
        [[0, 0, 3]], [[2, 5, 7]], [[0, 1, 6], [1, 2, 4]],
        [[1, 0, 7], [2, 3, 3]], [[0, 0, 7], [1, 0, 7], [2, 0, 7]],
        [[0, 2, 5], [1, 1, 6], [2, 0, 4]],
    ],
}


def batches() -> list[list]:
    rng = np.random.default_rng(2026)
    return [rng.integers(0, INPUTS["domain_size"], size=(n, 3)).tolist()
            for n in (45, 35)]


def workload(inputs: dict) -> list[RangeQuery]:
    return [RangeQuery(tuple(Predicate(*triple) for triple in query))
            for query in inputs["workload"]]


def shard_state(name: str, inputs: dict) -> dict:
    """Both batches through ``partial_fit`` on one instance."""
    mechanism = build_mechanism(name, inputs["epsilon"],
                                seed=inputs["collect_seed"])
    total = sum(len(batch) for batch in inputs["batches"])
    for batch in inputs["batches"]:
        mechanism.partial_fit(Dataset(np.asarray(batch),
                                      inputs["domain_size"]),
                              total_users=total)
    return json.loads(json.dumps(mechanism.shard_state()))


def fitted_state(name: str, inputs: dict) -> dict:
    """``fit`` over both batches at once."""
    rows = [row for batch in inputs["batches"] for row in batch]
    mechanism = build_mechanism(name, inputs["epsilon"],
                                seed=inputs["collect_seed"])
    mechanism.fit(Dataset(np.asarray(rows), inputs["domain_size"]))
    return json.loads(json.dumps(mechanism.save_state()))


def shard_answers(name: str, state: dict, inputs: dict) -> list[float]:
    mechanism = build_mechanism(name, inputs["epsilon"],
                                seed=inputs["restore_seed"])
    mechanism.load_shard_state(state).finalize()
    return mechanism.answer_workload(workload(inputs)).tolist()


def fitted_answers(state: dict, inputs: dict) -> list[float]:
    return restore_mechanism(state).answer_workload(workload(inputs)).tolist()


def main() -> None:
    if HERE.exists():
        shutil.rmtree(HERE)
    HERE.mkdir(parents=True)
    inputs = dict(INPUTS, batches=batches())
    (HERE / "inputs.json").write_text(json.dumps(inputs, indent=1))
    for name in MECHANISMS:
        shard, fitted = shard_state(name, inputs), fitted_state(name, inputs)
        document = {
            "shard_state": shard,
            "shard_answers": shard_answers(name, shard, inputs),
            "fitted_state": fitted,
            "fitted_answers": fitted_answers(fitted, inputs),
        }
        (HERE / f"{name}.json").write_text(json.dumps(document))
    print(f"wrote {sorted(path.name for path in HERE.iterdir())}")


if __name__ == "__main__":
    main()
