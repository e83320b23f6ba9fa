"""Stored ``shard_state`` and ``save_state`` documents stay readable and
stay what the mechanisms write.

``tests/data/state_documents/`` holds, for TDG, CALM, HDG, MSW and Uni,
a two-batch shard state and a fitted state together with the answers
each restores to (``tests/data/make_state_documents.py`` wrote them).
The current code must write equal documents from the same batches and
seeds, and restore every stored document to the recorded answers bit
for bit.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).resolve().parent / "data"
_spec = importlib.util.spec_from_file_location(
    "make_state_documents", DATA / "make_state_documents.py")
generator = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generator)

INPUTS = json.loads((DATA / "state_documents" / "inputs.json").read_text())


def _stored(name: str) -> dict:
    return json.loads((DATA / "state_documents" / f"{name}.json").read_text())


@pytest.mark.parametrize("name", generator.MECHANISMS)
def test_shard_state_document_is_unchanged(name):
    assert generator.shard_state(name, INPUTS) == _stored(name)["shard_state"]


@pytest.mark.parametrize("name", generator.MECHANISMS)
def test_fitted_state_document_is_unchanged(name):
    assert generator.fitted_state(name, INPUTS) == _stored(name)["fitted_state"]


@pytest.mark.parametrize("name", generator.MECHANISMS)
def test_stored_shard_state_restores_to_recorded_answers(name):
    stored = _stored(name)
    assert (generator.shard_answers(name, stored["shard_state"], INPUTS)
            == stored["shard_answers"])


@pytest.mark.parametrize("name", generator.MECHANISMS)
def test_stored_fitted_state_restores_to_recorded_answers(name):
    stored = _stored(name)
    assert (generator.fitted_answers(stored["fitted_state"], INPUTS)
            == stored["fitted_answers"])
