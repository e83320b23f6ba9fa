"""Rebuilding fitted mechanisms from their saved state documents.

A snapshot is the JSON document produced by
:meth:`repro.core.RangeQueryMechanism.save_state` (one fitted
estimator) or :meth:`repro.serving.QueryService.state_dict` (estimator
plus the open ingest collector); a
:class:`~repro.storage.StorageBackend` persists the versions.

:func:`restore_mechanism` is the inverse of ``save_state`` for callers
that only hold the document: it rebuilds the mechanism instance from
the registry and the document's ``config`` and then loads the fitted
state, so the restored estimator's answers are bitwise identical to
the live one's (``tests/test_serving.py`` pins this property for every
mechanism).
"""

from __future__ import annotations

from ..core import RangeQueryMechanism
from ..core.base import (MECHANISM_STATE_FORMAT, MECHANISM_STATE_VERSION,
                         check_state_document)
from ..mechanisms import mechanism_class


def restore_mechanism(state: dict,
                      seed: int | None = None) -> RangeQueryMechanism:
    """Rebuild a fitted mechanism from a ``save_state`` document.

    The instance is constructed from the
    :data:`repro.mechanisms.MECHANISMS` entry for ``state["mechanism"]``
    with the constructor keyword arguments the document recorded
    (``state["config"]``), then the fitted state —
    grids, matrices, caches and the RNG stream — is loaded, so the
    restored estimator answers bitwise identically to the saved one.
    ``seed`` only seeds the throwaway pre-restore generator; the saved
    RNG state overwrites it.
    """
    check_state_document(state, MECHANISM_STATE_FORMAT,
                         MECHANISM_STATE_VERSION)
    factory = mechanism_class(state["mechanism"])
    config = dict(state.get("config", {}))
    mechanism = factory(float(state["epsilon"]), seed=seed, **config)
    return mechanism.load_state(state)
