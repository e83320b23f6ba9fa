"""HIO's answers against answers pinned before it answered from arrays.

``tests/data/hio_answers/`` (written by
``tests/data/make_hio_answers.py``) holds a seeded d = 6 HIO fit whose
λ = 2, 4 and 6 workloads reach lazy levels, a fresh instance's answers,
a ``save_state`` document taken after the λ = 4 workload (its lazy memo
filled) and the answers that document restores to.  Every answer must
match bit for bit.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.serving import restore_mechanism

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location(
    "make_hio_answers", DATA / "make_hio_answers.py")
make_hio_answers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_hio_answers)

PINNED = DATA / "hio_answers"
INPUTS = json.loads((PINNED / "inputs.json").read_text())
ANSWERS = json.loads((PINNED / "answers.json").read_text())
STATE = json.loads((PINNED / "state_after_lambda4.json").read_text())


def lazy_entries(state: dict) -> set:
    return {(tuple(level), tuple(indices), value)
            for level, indices, value in state["payload"]["lazy_cache"]}


@pytest.fixture(scope="module")
def answered():
    """A fresh instance through the three workloads, with its document
    after the λ = 4 workload."""
    mechanism = make_hio_answers.fitted(INPUTS)
    answers, state = {}, None
    for dimension in make_hio_answers.DIMENSIONS:
        answers[dimension] = mechanism.answer_workload(
            make_hio_answers.workload(INPUTS, dimension))
        if dimension == 4:
            state = json.loads(json.dumps(mechanism.save_state()))
    return answers, state


@pytest.mark.parametrize("dimension", make_hio_answers.DIMENSIONS)
def test_fresh_answers_are_pinned(answered, dimension):
    answers, _ = answered
    np.testing.assert_array_equal(answers[dimension],
                                  ANSWERS["fresh"][str(dimension)])


def test_document_holds_the_pinned_lazy_memo(answered):
    _, state = answered
    assert STATE["payload"]["lazy_cache"]
    assert lazy_entries(state) == lazy_entries(STATE)
    assert len(state["payload"]["lazy_cache"]) == len(
        STATE["payload"]["lazy_cache"])
    rest = {key: value for key, value in state["payload"].items()
            if key != "lazy_cache"}
    pinned_rest = {key: value for key, value in STATE["payload"].items()
                   if key != "lazy_cache"}
    assert rest == pinned_rest
    assert state["rng_state"] == STATE["rng_state"]


@pytest.mark.parametrize("source", ["pinned", "current"])
def test_restored_document_answers_are_pinned(answered, source):
    state = STATE if source == "pinned" else answered[1]
    restored = restore_mechanism(state)
    np.testing.assert_array_equal(
        restored.answer_workload(make_hio_answers.workload(INPUTS, 6)),
        ANSWERS["restored"]["6"])
