"""Mixed typed workloads through the runner, metrics, serving and CLI.

Covers the layers above the planner: experiment configuration and
workload generation of mixed kinds, per-kind error scoring, the typed
JSON wire format of ``POST /query``, the service snapshot round trip
with mixed workloads, and the CLI's ``--query-kinds`` / ``--version``
surface.
"""

from __future__ import annotations

import json
import urllib.request

import numpy as np
import pytest

from repro import make_dataset, package_version
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.cache import CellResult
from repro.experiments.executor import validate_equal_workload_lengths
from repro.metrics import per_kind_errors, result_error, workload_result_errors
from repro.queries import (QUERY_KINDS, MarginalQuery, PointQuery, Predicate,
                           PredicateCountQuery, RangeQuery, ScalarResult,
                           TopKQuery, WorkloadGenerator, evaluate_query,
                           evaluate_workload, query_kind)
from repro.serving import (QueryService, queries_from_wire, query_from_wire,
                           query_to_wire)
from repro.storage import DEFAULT_TENANT, SQLiteBackend
from serving_helpers import memory_server

MIXED = ("range", "marginal", "point", "count", "topk")


@pytest.fixture(scope="module")
def mixed_dataset():
    return make_dataset("normal", 2_000, 3, 16, rng=np.random.default_rng(4))


@pytest.fixture(scope="module")
def mixed_service(mixed_dataset):
    service = QueryService("HDG", 1.0, seed=2,
                           domain_size=mixed_dataset.domain_size)
    service.ingest(mixed_dataset)
    service.refinalize()
    return service


def _serve(dataset):
    """An HTTP server whose default tenant is ``mixed_service``'s twin."""
    return memory_server({"mechanism": "HDG", "epsilon": 1.0, "seed": 2,
                          "domain_size": dataset.domain_size}, dataset.values)


def _post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
def test_mixed_workload_cycles_kinds_round_robin():
    generator = WorkloadGenerator(4, 16, rng=np.random.default_rng(0))
    workload = generator.mixed_workload(12, 2, 0.5, query_kinds=MIXED)
    assert [query_kind(q) for q in workload[:5]] == list(MIXED)
    assert [query_kind(q) for q in workload[5:10]] == list(MIXED)
    assert len(workload) == 12


def test_mixed_workload_caps_table_dimension():
    generator = WorkloadGenerator(4, 8, rng=np.random.default_rng(0))
    workload = generator.mixed_workload(10, 3, 0.5,
                                        query_kinds=("marginal", "topk"))
    for query in workload:
        assert query.dimension == 2  # min(dimension, 2) by default
    deep = generator.mixed_workload(2, 3, 0.5, query_kinds=("marginal",),
                                    table_dimension=3)
    assert deep[0].dimension == 3


def test_mixed_workload_names_bad_kind_and_position():
    generator = WorkloadGenerator(4, 8, rng=np.random.default_rng(0))
    with pytest.raises(ValueError, match="unknown query kind 'nope' at "
                                         "position 1"):
        generator.mixed_workload(4, 2, 0.5, query_kinds=("range", "nope"))
    with pytest.raises(ValueError, match="at least one kind"):
        generator.mixed_workload(4, 2, 0.5, query_kinds=())


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_result_error_scales_per_kind(mixed_dataset):
    point = PointQuery(((0, 3),))
    truth = evaluate_query(mixed_dataset, point)
    estimate = ScalarResult(point, truth.value + 0.01)
    assert result_error(estimate, truth) == pytest.approx(0.01)

    count = PredicateCountQuery((Predicate(0, 0, 7),))
    truth = evaluate_query(mixed_dataset, count)
    estimate = ScalarResult(count, truth.value + 20.0,
                            population=truth.population)
    # Count errors are reported back on the frequency scale.
    assert result_error(estimate, truth) == pytest.approx(
        20.0 / mixed_dataset.n_users)

    marginal = MarginalQuery((0, 1))
    truth = evaluate_query(mixed_dataset, marginal)
    estimate = evaluate_query(mixed_dataset, marginal)
    estimate.values = truth.values + 0.001
    assert result_error(estimate, truth) == pytest.approx(0.001)


def test_result_error_rejects_mismatched_kinds(mixed_dataset):
    point = evaluate_query(mixed_dataset, PointQuery(((0, 3),)))
    marginal = evaluate_query(mixed_dataset, MarginalQuery((0,)))
    with pytest.raises(TypeError, match="cannot score"):
        result_error(point, marginal)
    # Same result class but different query kind (range vs count) is
    # also a misalignment, not a scorable pair.
    range_truth = evaluate_query(mixed_dataset,
                                 RangeQuery((Predicate(0, 0, 3),)))
    count_truth = evaluate_query(mixed_dataset,
                                 PredicateCountQuery((Predicate(0, 0, 3),)))
    with pytest.raises(TypeError, match="range estimate against a count"):
        result_error(range_truth, count_truth)


def test_topk_error_scores_against_true_distribution(mixed_dataset):
    query = TopKQuery((0, 1), k=3)
    truth = evaluate_query(mixed_dataset, query)
    # A perfect estimate has zero error even if it dropped the table.
    perfect = evaluate_query(mixed_dataset, query)
    perfect.distribution = None
    assert result_error(perfect, truth) == 0.0
    with pytest.raises(ValueError, match="full marginal table"):
        result_error(perfect, perfect)


def test_per_kind_errors_partitions_the_workload(mixed_dataset):
    generator = WorkloadGenerator(3, 16, rng=np.random.default_rng(1))
    workload = generator.mixed_workload(10, 2, 0.5, query_kinds=MIXED)
    truths = evaluate_workload(mixed_dataset, workload)
    errors = workload_result_errors(truths, truths)
    assert np.array_equal(errors, np.zeros(10))
    by_kind = per_kind_errors(workload, errors)
    assert set(by_kind) == set(MIXED)
    with pytest.raises(ValueError, match="estimates"):
        workload_result_errors(truths[:-1], truths)


# ----------------------------------------------------------------------
# Experiment configuration + runner
# ----------------------------------------------------------------------
def test_config_validates_query_kinds():
    with pytest.raises(ValueError, match="unknown query kind 'foo' at "
                                         "position 1"):
        ExperimentConfig(query_kinds=("range", "foo")).validate()
    with pytest.raises(ValueError, match="at least one kind"):
        ExperimentConfig(query_kinds=()).validate()
    with pytest.raises(ValueError, match="top_k"):
        ExperimentConfig(top_k=0).validate()
    assert not ExperimentConfig().is_mixed_workload
    assert ExperimentConfig(query_kinds=MIXED).is_mixed_workload


def test_run_experiment_scores_mixed_workloads_per_kind():
    config = ExperimentConfig(dataset="normal", n_users=2_000,
                              n_attributes=3, domain_size=8, n_queries=10,
                              n_repeats=2, methods=("Uni", "TDG"),
                              query_kinds=MIXED)
    result = run_experiment(config)
    for method in config.methods:
        method_result = result.methods[method]
        assert method_result.per_kind_mae is not None
        assert set(method_result.per_kind_mae) == set(MIXED)
        for summary in method_result.per_kind_mae.values():
            assert summary.n_runs == 2
            assert np.isfinite(summary.mean)
        assert method_result.per_query_errors.shape == (10,)


def test_mixed_config_with_all_range_workload_still_runs():
    """A mixed query_kinds config whose tiny workload never reaches the
    non-range kinds must score through the flat path, not crash on a
    truths/estimates shape mismatch."""
    config = ExperimentConfig(dataset="normal", n_users=1_000,
                              n_attributes=3, domain_size=8, n_queries=1,
                              methods=("Uni",),
                              query_kinds=("range", "marginal"))
    result = run_experiment(config)
    assert result.methods["Uni"].per_kind_mae is None
    assert np.isfinite(result.methods["Uni"].mae.mean)


def test_range_only_runs_keep_flat_scoring():
    config = ExperimentConfig(dataset="normal", n_users=1_000,
                              n_attributes=3, domain_size=8, n_queries=5,
                              methods=("Uni",))
    result = run_experiment(config)
    assert result.methods["Uni"].per_kind_mae is None


def test_validate_equal_workload_lengths_names_repeat_and_kinds():
    config = ExperimentConfig(methods=("Uni",), n_repeats=2)
    cells = {
        (0, "Uni"): CellResult("Uni", 0, 0.0, np.zeros(3),
                               query_kinds=["range", "range", "marginal"]),
        (1, "Uni"): CellResult("Uni", 1, 0.0, np.zeros(2),
                               query_kinds=["range", "marginal"]),
    }
    with pytest.raises(ValueError) as excinfo:
        validate_equal_workload_lengths(config, cells)
    message = str(excinfo.value)
    assert "repeat 0: 3 queries (1 marginal, 2 range)" in message
    assert "repeat 1: 2 queries (1 marginal, 1 range)" in message
    assert "repeat 1 first disagrees with repeat 0" in message


def test_validate_equal_workload_lengths_rejects_kind_misalignment():
    """Same-length workloads whose kinds differ position-wise are named."""
    config = ExperimentConfig(methods=("Uni",), n_repeats=2)
    cells = {
        (0, "Uni"): CellResult("Uni", 0, 0.0, np.zeros(2),
                               query_kinds=["range", "marginal"]),
        (1, "Uni"): CellResult("Uni", 1, 0.0, np.zeros(2),
                               query_kinds=["marginal", "range"]),
    }
    with pytest.raises(ValueError, match="query 0 is a marginal query in "
                                         "repeat 1 but a range query in "
                                         "repeat 0"):
        validate_equal_workload_lengths(config, cells)


def test_validate_equal_workload_lengths_catches_pure_range_vs_typed():
    """A kind-less (pure range) repetition still participates in the
    position-wise kind comparison."""
    config = ExperimentConfig(methods=("Uni",), n_repeats=2)
    cells = {
        (0, "Uni"): CellResult("Uni", 0, 0.0, np.zeros(2),
                               query_kinds=["range", "marginal"]),
        (1, "Uni"): CellResult("Uni", 1, 0.0, np.zeros(2)),  # all ranges
    }
    with pytest.raises(ValueError, match="query 1 is a range query in "
                                         "repeat 1 but a marginal query in "
                                         "repeat 0"):
        validate_equal_workload_lengths(config, cells)


def test_validate_equal_workload_lengths_fingers_the_minority_repeat():
    """The anomalous repetition is named even when it is the shorter one."""
    config = ExperimentConfig(methods=("Uni",), n_repeats=3)
    cells = {(repeat, "Uni"): CellResult("Uni", repeat, 0.0,
                                         np.zeros(12 if repeat < 2 else 10))
             for repeat in range(3)}
    with pytest.raises(ValueError, match="repeat 2 first disagrees with "
                                         "repeat 0"):
        validate_equal_workload_lengths(config, cells)


def test_cell_result_round_trips_kind_fields():
    cell = CellResult("TDG", 1, 0.5, np.array([0.1, 0.9]),
                      query_kinds=["range", "topk"],
                      per_kind_mae={"range": 0.1, "topk": 0.9})
    restored = CellResult.from_dict(json.loads(json.dumps(cell.to_dict())))
    assert restored.query_kinds == ["range", "topk"]
    assert restored.per_kind_mae == {"range": 0.1, "topk": 0.9}
    plain = CellResult.from_dict(json.loads(json.dumps(
        CellResult("Uni", 0, 0.1, np.array([0.1])).to_dict())))
    assert plain.query_kinds is None and plain.per_kind_mae is None


# ----------------------------------------------------------------------
# Serving: wire format, HTTP, snapshot round trip
# ----------------------------------------------------------------------
def test_wire_round_trips_every_kind():
    queries = [
        RangeQuery((Predicate(0, 1, 5), Predicate(2, 0, 3))),
        MarginalQuery((0, 2)),
        PointQuery(((1, 4), (2, 0))),
        PredicateCountQuery((Predicate(0, 0, 7),), population=123),
        PredicateCountQuery((Predicate(1, 2, 3),)),
        TopKQuery((0, 1), k=7),
    ]
    wires = [query_to_wire(query) for query in queries]
    assert queries_from_wire(json.loads(json.dumps(wires))) == queries


def test_wire_accepts_dict_assignment_and_rejects_unknown_type():
    query = query_from_wire({"type": "point", "assignment": {"0": 3, "2": 1}})
    assert query == PointQuery(((0, 3), (2, 1)))
    with pytest.raises(ValueError, match="unknown query type 'nope'"):
        query_from_wire({"type": "nope"})


@pytest.mark.parametrize("wire, field", [
    ([[0, 1.7, 5.9]], "predicate low"),
    ([[True, 0, 3]], "predicate attribute"),
    ([["0", 0, 3]], "predicate attribute"),
    ({"predicates": [{"attribute": 0, "low": 0, "high": 3.0}]},
     "predicate high"),
    ({"type": "point", "assignment": [[0, 2.0]]}, "point value"),
    ({"type": "point", "assignment": {"0": True}}, "point value"),
    ({"type": "point", "assignment": [[False, 2]]}, "point attribute"),
    ({"type": "point", "assignment": {"a": 2}}, "point attribute"),
    ({"type": "marginal", "attributes": [0, 1.0]}, "attributes entry"),
    ({"type": "topk", "attributes": ["1"], "k": 2}, "attributes entry"),
    ({"type": "topk", "attributes": [0], "k": 2.9}, "k"),
    ({"type": "topk", "attributes": [0], "k": True}, "k"),
    ({"type": "count", "predicates": [[0, 0, 3]], "population": 10.5},
     "population"),
    ({"type": "count", "predicates": [[0, 0, 3]], "population": "10"},
     "population"),
])
def test_wire_refuses_non_integer_fields(wire, field):
    # int() would have answered 1.7 as 1, true as 1 and "0" as 0.
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        query_from_wire(wire)


def test_http_query_serves_typed_results(mixed_service, mixed_dataset):
    queries = [
        {"predicates": [[0, 0, 7]]},
        {"type": "marginal", "attributes": [0, 1]},
        {"type": "point", "assignment": [[0, 3], [2, 5]]},
        {"type": "count", "predicates": [[1, 2, 9]]},
        {"type": "topk", "attributes": [0, 1], "k": 3},
    ]
    with _serve(mixed_dataset) as (_, server):
        port = server.server_address[1]
        document = _post(port, "/query", {"queries": queries})
        assert document == json.loads(json.dumps(
            mixed_service.query_wire(queries)))
        assert document["count"] == 5
        kinds = [result["type"] for result in document["results"]]
        assert kinds == ["range", "marginal", "point", "count", "topk"]
        assert "answers" not in document  # non-scalar results present
        marginal = document["results"][1]
        table = np.asarray(marginal["values"])
        assert table.shape == (16, 16)
        count = document["results"][3]
        assert count["population"] == mixed_dataset.n_users
        topk = document["results"][4]
        assert len(topk["items"]) == 3
        values = [item["value"] for item in topk["items"]]
        assert values == sorted(values, reverse=True)

        # Scalar-only workloads still carry the flat answers list.
        scalars = _post(port, "/query", {"queries": [
            {"predicates": [[0, 0, 7]]},
            {"type": "point", "assignment": [[1, 2]]},
        ]})
        assert len(scalars["answers"]) == 2
        assert scalars["answers"][0] == scalars["results"][0]["value"]


def test_healthz_reports_package_version(mixed_dataset):
    with _serve(mixed_dataset) as (_, server):
        port = server.server_address[1]
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30) as response:
            health = json.loads(response.read())
        assert health["version"] == package_version()
        assert health["status"] == "ok"


def test_service_snapshot_restores_mixed_answers_bitwise(mixed_service,
                                                         tmp_path):
    generator = WorkloadGenerator(3, 16, rng=np.random.default_rng(9))
    mixed = generator.mixed_workload(10, 2, 0.5, query_kinds=MIXED)
    wire = [query_to_wire(query) for query in mixed]
    backend = SQLiteBackend(tmp_path / "store.db")
    backend.create_tenant(DEFAULT_TENANT, {})
    info = backend.save_snapshot(DEFAULT_TENANT, mixed_service.state_dict())
    restored = QueryService.from_state_dict(
        backend.load_snapshot(DEFAULT_TENANT, info.version)[0])
    for _ in range(2):
        live = mixed_service.query_wire(wire)
        again = restored.query_wire(wire)
        assert json.dumps(live, sort_keys=True) == json.dumps(again,
                                                              sort_keys=True)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_version_flag(capsys):
    from repro.cli import main
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro {package_version()}" in capsys.readouterr().out


def test_cli_run_with_mixed_kinds(capsys):
    from repro.cli import main
    code = main(["run", "--dataset", "normal", "--n-users", "1500",
                 "--n-attributes", "3", "--domain-size", "8",
                 "--n-queries", "10", "--methods", "Uni", "TDG",
                 "--query-kinds", *MIXED])
    assert code == 0
    output = capsys.readouterr().out
    assert "kinds=range,marginal,point,count,topk" in output
    assert "per-kind:" in output
    for kind in MIXED:
        assert f"{kind}=" in output


def test_query_kinds_constant_matches_cli_surface():
    assert MIXED == QUERY_KINDS
