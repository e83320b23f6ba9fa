"""The mechanism registry agrees with every layer that builds by name.

``repro.mechanisms.MECHANISMS`` is the only name → class table.
``build_mechanism`` and ``restore_mechanism`` accept all nine names;
the serving entry points (static service, inline collector, ingest
tier) accept exactly the seven shardable, pure-answering classes and
refuse HIO and LHIO with one message each; a snapshot written by the
retired refit ingest restores for every served name; unknown names
fail with one message everywhere.  CALM, MSW and Uni are shardable, so
they stream like TDG and HDG.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import CALM
from repro.cli import main
from repro.datasets import Dataset, make_dataset
from repro.ingest import IngestTier
from repro.mechanisms import (MECHANISMS, build_mechanism, mechanism_class,
                              supports_sharding)
from repro.queries import WorkloadGenerator
from repro.serving import QueryService, TenantManager, restore_mechanism
from repro.storage import BACKENDS, DirectoryBackend, SQLiteBackend

DOMAIN = 8
SHARDABLE = {name for name, cls in MECHANISMS.items()
             if supports_sharding(cls)}


@pytest.fixture(scope="module")
def registry_dataset() -> Dataset:
    return make_dataset("normal", 1_000, 3, DOMAIN,
                        rng=np.random.default_rng(3))


def _error(call) -> str:
    with pytest.raises(ValueError) as raised:
        call()
    return str(raised.value)


def _tier(name: str) -> IngestTier:
    return IngestTier(name, 1.0, n_workers=1, n_attributes=3,
                      domain_size=DOMAIN, seed=0, planning_users=1_000)


def test_shardable_set_is_the_grid_mechanisms():
    """The grid mechanisms plus MSW and Uni: everything but HIO/LHIO."""
    assert SHARDABLE == {"TDG", "HDG", "ITDG", "IHDG", "CALM", "MSW", "Uni"}
    assert SHARDABLE == {name for name, cls in MECHANISMS.items()
                         if cls.answering_is_pure}
    assert all(supports_sharding(cls) == cls(1.0).supports_sharding
               for cls in MECHANISMS.values())


def _refit_document(fitted, rows: np.ndarray) -> dict:
    """A service snapshot as the retired refit ingest wrote it: the
    fitted estimator plus every buffered row, in one batch."""
    return {
        "format": "repro.service-snapshot", "version": 1,
        "mechanism": fitted.name, "epsilon": fitted.epsilon,
        "ingest_mode": "refit", "refinalize_every": None,
        "total_users": None, "domain_size": DOMAIN,
        "reports_ingested": len(rows), "reports_since_finalize": 0,
        "finalize_count": 1, "epoch_id": 1,
        "collector_config": None, "collector_rng": None, "collector": None,
        "estimator": fitted.save_state(),
        "refit": {"seed": 0, "kwargs": {}, "pending_rows": [rows.tolist()],
                  "pending_schema": [rows.shape[1], DOMAIN]},
    }


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_every_name_serves_refits_restores_and_builds(name, registry_dataset):
    """A refit-era snapshot restores into a stream service for every
    served name (its estimator published as is); HIO and LHIO fail."""
    fitted = MECHANISMS[name](1.0, seed=0).fit(registry_dataset)
    document = _refit_document(fitted, registry_dataset.values)
    if name in SHARDABLE:
        service = QueryService.from_state_dict(document)
        assert service.is_streaming and service.epoch_id == 1
        assert service.read_epoch().estimator.save_state() \
            == fitted.save_state()
        service.refinalize()
        assert service.read_epoch().estimator.population \
            == registry_dataset.n_users
    else:
        assert name in _error(lambda: QueryService.from_state_dict(document))
    restored = restore_mechanism(fitted.save_state())
    assert type(restored) is MECHANISMS[name]
    assert type(build_mechanism(name, 1.0, seed=0)) is MECHANISMS[name]


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_stream_entry_points_accept_exactly_the_shardable(name,
                                                          registry_dataset):
    if name in SHARDABLE:
        assert QueryService(name, 1.0).is_streaming
        tier = _tier(name)
        tier.close()
        return
    messages = {
        _error(lambda: QueryService(name, 1.0)),
        _error(lambda: QueryService(name, 1.0, ingest_workers=1)),
        _error(lambda: _tier(name)),
        _error(lambda: mechanism_class(name, sharded=True)),
    }
    assert len(messages) == 1
    [message] = messages
    assert f"non-shardable mechanism {name!r}" in message
    assert "sharded aggregation" in message
    assert "experiment-only" in message
    static = _error(lambda: QueryService(
        MECHANISMS[name](1.0, seed=0).fit(registry_dataset)))
    assert name in static and "experiment-only" in static


def test_unknown_name_fails_with_one_message():
    state = CALM(1.0, seed=0).fit(
        make_dataset("normal", 500, 2, DOMAIN,
                     rng=np.random.default_rng(0))).save_state()
    state["mechanism"] = "NOPE"
    messages = {
        _error(lambda: mechanism_class("NOPE")),
        _error(lambda: build_mechanism("NOPE", 1.0)),
        _error(lambda: QueryService("NOPE", 1.0)),
        _error(lambda: QueryService("NOPE", 1.0, ingest_workers=1)),
        _error(lambda: _tier("NOPE")),
        _error(lambda: restore_mechanism(state)),
    }
    assert messages == {f"unknown mechanism 'NOPE'; "
                        f"known: {sorted(MECHANISMS)}"}


# ----------------------------------------------------------------------
# CALM streams like the other shardable mechanisms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 5])
def test_calm_stream_service_matches_direct_partial_fit(seed,
                                                        registry_dataset):
    batches = np.array_split(registry_dataset.values, 2)
    service = QueryService("CALM", 1.0, seed=seed, domain_size=DOMAIN)
    for batch in batches:
        service.ingest(batch)
    service.refinalize()

    direct = CALM(1.0, seed=seed)
    for batch in batches:
        direct.partial_fit(Dataset(batch, DOMAIN))
    direct.finalize()

    generator = WorkloadGenerator(3, DOMAIN, rng=np.random.default_rng(1))
    workload = (generator.random_workload(6, 1, 0.5)
                + generator.random_workload(6, 2, 0.5)
                + generator.random_workload(4, 3, 0.5))
    assert np.array_equal(service.query(workload),
                          direct.answer_workload(workload))


def test_calm_shard_path_is_one_shot_calm(registry_dataset):
    """partial_fit + finalize collects CALM's full-resolution marginals,
    exactly as fit does (not TDG's guideline grids)."""
    one_shot = CALM(1.0, seed=4).fit(registry_dataset)
    sharded = CALM(1.0, seed=4).partial_fit(registry_dataset).finalize()
    planned = CALM(1.0).prepare_aggregation(3, DOMAIN, total_users=1_000)
    assert one_shot.chosen_g2 == sharded.chosen_g2 == planned.chosen_g2 \
        == DOMAIN
    for pair in one_shot.grids:
        assert np.array_equal(one_shot.grids[pair].frequencies,
                              sharded.grids[pair].frequencies)


def test_cli_serves_calm(capsys):
    assert main(["serve", "--mechanism", "CALM", "--port", "0",
                 "--max-requests", "0"]) == 0
    output = capsys.readouterr().out
    assert "CALM" in output and "ready=" in output


@pytest.mark.parametrize("backend_name", sorted(BACKENDS))
def test_tenant_manager_creates_calm_tenant(backend_name, tmp_path):
    backend = (DirectoryBackend(tmp_path / "store") if backend_name == "json"
               else SQLiteBackend(tmp_path / "store.db"))
    try:
        manager = TenantManager(backend)
        manager.create_tenant("c", {"mechanism": "CALM", "seed": 1,
                                    "domain_size": DOMAIN})
        rows = np.random.default_rng(2).integers(0, DOMAIN, size=(60, 2))
        manager.ingest("c", rows.tolist())
        manager.refinalize("c")
        assert manager.service("c").is_ready
    finally:
        backend.close()
