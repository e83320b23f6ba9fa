"""Write the pinned HIO answers under ``tests/data/hio_answers/``.

They pin HIO's answering bit for bit: the answers of a fresh seeded
instance, a ``save_state`` document taken while its lazy memo is
filled, and the answers that document restores to.  They were written
by commit c578e19, before HIO answered from arrays; to write them again
from that commit::

    git archive c578e19 | tar -x -C /tmp/pinned
    PYTHONPATH=/tmp/pinned/src python tests/data/make_hio_answers.py

It writes, for ``tests/test_hio_answers.py``:

* ``inputs.json`` — the dataset rows, the HIO settings and the λ = 2, 4
  and 6 workloads (d = 6, c = 16; every workload reaches levels over
  ``materialize_limit``);
* ``answers.json`` — ``fresh``: one fresh instance's answers to the
  three workloads, answered in that order; ``restored``: the answers to
  the λ = 6 workload of the document below, restored;
* ``state_after_lambda4.json`` — that instance's ``save_state`` after
  the λ = 2 and λ = 4 workloads, so its ``lazy_cache`` is not empty.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

from repro.baselines import HIO
from repro.datasets import Dataset, make_dataset
from repro.queries import Predicate, RangeQuery, WorkloadGenerator
from repro.serving import restore_mechanism

HERE = Path(__file__).resolve().parent / "hio_answers"
SETTINGS = {"epsilon": 1.0, "seed": 3, "materialize_limit": 64,
            "domain_size": 16}
DIMENSIONS = (2, 4, 6)


def make_inputs() -> dict:
    dataset = make_dataset("normal", 1_500, 6, SETTINGS["domain_size"],
                           rng=np.random.default_rng(0))
    generator = WorkloadGenerator(6, SETTINGS["domain_size"],
                                  rng=np.random.default_rng(1))
    workloads = {
        str(dimension): [[[predicate.attribute, predicate.low, predicate.high]
                          for predicate in query.predicates]
                         for query in generator.random_workload(4, dimension,
                                                                0.5)]
        for dimension in DIMENSIONS}
    return dict(SETTINGS, rows=dataset.values.tolist(), workloads=workloads)


def workload(inputs: dict, dimension: int) -> list[RangeQuery]:
    return [RangeQuery(tuple(Predicate(*triple) for triple in query))
            for query in inputs["workloads"][str(dimension)]]


def fitted(inputs: dict) -> HIO:
    return HIO(inputs["epsilon"], materialize_limit=inputs["materialize_limit"],
               seed=inputs["seed"]).fit(
        Dataset(np.asarray(inputs["rows"]), inputs["domain_size"]))


def main() -> None:
    if HERE.exists():
        shutil.rmtree(HERE)
    HERE.mkdir(parents=True)
    inputs = make_inputs()
    mechanism = fitted(inputs)
    fresh, state = {}, None
    for dimension in DIMENSIONS:
        fresh[str(dimension)] = mechanism.answer_workload(
            workload(inputs, dimension)).tolist()
        if dimension == 4:
            state = json.loads(json.dumps(mechanism.save_state()))
    restored = restore_mechanism(state).answer_workload(
        workload(inputs, 6)).tolist()
    (HERE / "inputs.json").write_text(json.dumps(inputs))
    (HERE / "answers.json").write_text(
        json.dumps({"fresh": fresh, "restored": {"6": restored}}, indent=1))
    (HERE / "state_after_lambda4.json").write_text(json.dumps(state))
    print(f"wrote {sorted(path.name for path in HERE.iterdir())}")


if __name__ == "__main__":
    main()
