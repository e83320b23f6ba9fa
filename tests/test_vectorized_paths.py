"""Property tests: vectorised collection/answering paths == loop oracles.

Every vectorised path introduced for the fit-throughput work has its
original loop implementation as an equivalence reference in
``tests/oracles.py``; these tests pin the two to each other —
bit-for-bit where the paths consume the same RNG draws, to 1e-9 where
only the floating-point summation order differs.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (GridView, enforce_attribute_consistency_loop,
                     grr_perturb_loop, hio_bucketed_answers, loop_answers,
                     phase2_loop, square_wave_perturb_loop)
from repro.baselines import HIO, LHIO
from repro.baselines.hio import COMBINATION_CHUNK
from repro.core import HDG, aggregation
from repro.datasets import make_dataset
from repro.frequency_oracles import GeneralizedRandomizedResponse, SquareWave
from repro.postprocess import bucket_totals, enforce_consistency
from repro.queries import Predicate, RangeQuery, WorkloadGenerator


def mixed_workload(n_attributes, domain_size, n_queries=30, seed=11):
    generator = WorkloadGenerator(n_attributes, domain_size,
                                  rng=np.random.default_rng(seed))
    queries = []
    for dimension in (1, 2, 3):
        if dimension <= n_attributes:
            queries.extend(generator.random_workload(n_queries // 3,
                                                     dimension, 0.5))
    return queries


# ----------------------------------------------------------------------
# Square Wave
# ----------------------------------------------------------------------
@pytest.mark.parametrize("epsilon,domain_size", [(0.5, 16), (1.0, 64),
                                                 (2.0, 37)])
def test_sw_transition_matrix_vectorized_equals_loop(epsilon, domain_size):
    oracle = SquareWave(epsilon, domain_size)
    vectorized = oracle._build_transition_matrix()
    loop = oracle._build_transition_matrix_loop()
    np.testing.assert_array_equal(vectorized, loop)
    np.testing.assert_allclose(vectorized.sum(axis=0), 1.0, atol=1e-9)


def test_sw_perturb_vectorized_equals_loop_bitwise():
    values = np.random.default_rng(0).integers(0, 32, size=2_000)
    vectorized = SquareWave(1.0, 32, rng=np.random.default_rng(42))
    loop = SquareWave(1.0, 32, rng=np.random.default_rng(42))
    np.testing.assert_array_equal(vectorized.perturb(values),
                                  square_wave_perturb_loop(loop, values))


# ----------------------------------------------------------------------
# GRR
# ----------------------------------------------------------------------
def test_grr_perturb_vectorized_equals_loop_bitwise():
    values = np.random.default_rng(1).integers(0, 16, size=2_000)
    vectorized = GeneralizedRandomizedResponse(1.0, 16,
                                               rng=np.random.default_rng(9))
    loop = GeneralizedRandomizedResponse(1.0, 16,
                                         rng=np.random.default_rng(9))
    np.testing.assert_array_equal(vectorized.perturb(values),
                                  grr_perturb_loop(loop, values))


# ----------------------------------------------------------------------
# HIO: vectorised combination gathers
# ----------------------------------------------------------------------
def test_hio_vectorized_answers_equal_legacy_loop():
    dataset = make_dataset("normal", 3_000, 3, 16,
                           rng=np.random.default_rng(5))
    queries = mixed_workload(3, 16)
    legacy = HIO(1.0, seed=7).fit(dataset)
    engine = HIO(1.0, seed=7).fit(dataset)
    np.testing.assert_allclose(engine.answer_workload(queries),
                               loop_answers(legacy, queries), atol=1e-9)


def test_hio_vectorized_with_lazy_levels_falls_back_consistently():
    dataset = make_dataset("normal", 2_000, 3, 16,
                           rng=np.random.default_rng(6))
    queries = mixed_workload(3, 16, n_queries=18, seed=13)
    legacy = HIO(1.0, seed=3, materialize_limit=16).fit(dataset)
    engine = HIO(1.0, seed=3, materialize_limit=16).fit(dataset)
    np.testing.assert_allclose(engine.answer_workload(queries),
                               loop_answers(legacy, queries), atol=1e-9)


def test_hio_array_path_equals_bucketed_reference_bitwise():
    """Fresh same-seed instances at λ = 2, 4 and 6, with lazy levels and
    one query spanning several combination chunks: same answers, RNG
    state and materialised levels as the bucketed reference; a second
    pass draws nothing."""
    dataset = make_dataset("normal", 3_000, 6, 16,
                           rng=np.random.default_rng(9))
    generator = WorkloadGenerator(6, 16, rng=np.random.default_rng(10))
    queries = [query for dimension in (2, 4, 6)
               for query in generator.random_workload(5, dimension, 0.5)]
    queries.append(RangeQuery(tuple(Predicate(attribute, 1, 14)
                                    for attribute in range(6))))
    engine = HIO(1.0, seed=4, materialize_limit=64).fit(dataset)
    reference = HIO(1.0, seed=4, materialize_limit=64).fit(dataset)
    assert len(engine.hierarchy.decompose(1, 14)) ** 6 > COMBINATION_CHUNK
    answers = engine.answer_workload(queries)
    np.testing.assert_array_equal(answers,
                                  hio_bucketed_answers(reference, queries))
    assert engine.rng.bit_generator.state == reference.rng.bit_generator.state
    assert list(engine._materialized) == list(reference._materialized)
    for level, values in engine._materialized.items():
        np.testing.assert_array_equal(values, reference._materialized[level])
    assert engine._lazy_memo
    state = engine.rng.bit_generator.state
    np.testing.assert_array_equal(engine.answer_workload(queries), answers)
    assert engine.rng.bit_generator.state == state


# ----------------------------------------------------------------------
# LHIO: grouped cross-query gathers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("materialize_limit", [1 << 16, 4])
def test_lhio_batched_answers_equal_legacy_loop(materialize_limit):
    dataset = make_dataset("normal", 3_000, 4, 16,
                           rng=np.random.default_rng(8))
    queries = mixed_workload(4, 16)
    legacy = LHIO(1.0, seed=21, materialize_limit=materialize_limit).fit(dataset)
    engine = LHIO(1.0, seed=21, materialize_limit=materialize_limit).fit(dataset)
    np.testing.assert_allclose(engine.answer_workload(queries),
                               loop_answers(legacy, queries), atol=1e-9)


def test_lhio_four_dimensional_queries_through_batched_gathers():
    dataset = make_dataset("normal", 3_000, 5, 16,
                           rng=np.random.default_rng(14))
    generator = WorkloadGenerator(5, 16, rng=np.random.default_rng(15))
    queries = generator.random_workload(10, 4, 0.5)
    legacy = LHIO(1.0, seed=2).fit(dataset)
    engine = LHIO(1.0, seed=2).fit(dataset)
    np.testing.assert_allclose(engine.answer_workload(queries),
                               loop_answers(legacy, queries), atol=1e-9)


# ----------------------------------------------------------------------
# Phase 2: consistency over the layer arrays
# ----------------------------------------------------------------------
def test_consistency_stacked_equals_loop_on_mixed_views():
    """A 1-D grid (2 cells per bucket) and two 2-D grids holding the
    attribute first and second: the layer-array step against one
    :class:`GridView` per grid."""
    rng = np.random.default_rng(3)
    n_buckets = 4
    one_d = rng.normal(size=8)
    pairs = rng.normal(size=(2, 4, 4))
    loop_one_d, loop_pairs = one_d.copy(), pairs.copy()
    loop_views = [GridView(loop_one_d, 0, 2), GridView(loop_pairs[0], 1, 1),
                  GridView(loop_pairs[1], 0, 1)]
    consensus_loop = enforce_attribute_consistency_loop(loop_views, n_buckets)
    consensus_stacked = enforce_consistency(one_d, pairs, [0], [1], n_buckets)
    np.testing.assert_allclose(consensus_stacked, consensus_loop, atol=1e-9)
    np.testing.assert_allclose(one_d, loop_one_d, atol=1e-9)
    np.testing.assert_allclose(pairs, loop_pairs, atol=1e-9)


def test_consistency_stacked_agrees_after_adjustment():
    rng = np.random.default_rng(4)
    one_d = rng.normal(size=12)
    pairs = rng.normal(size=(3, 4, 4))
    consensus = enforce_consistency(one_d, pairs, [1], [0, 2], 4)
    for totals in bucket_totals(one_d, pairs, [1], [0, 2], 4):
        np.testing.assert_allclose(totals, consensus, atol=1e-9)


def test_hdg_phase2_stacked_equals_loop_end_to_end(monkeypatch):
    dataset = make_dataset("normal", 5_000, 3, 16,
                           rng=np.random.default_rng(10))
    stacked = HDG(1.0, seed=17).fit(dataset)

    def loop_phase2(n_attributes, singles, pair_grids, pairs, rounds):
        phase2_loop(n_attributes, singles, pair_grids, pairs, rounds,
                    enforce=enforce_attribute_consistency_loop)

    monkeypatch.setattr(aggregation, "run_phase2", loop_phase2)
    loop = HDG(1.0, seed=17).fit(dataset)

    for attribute in stacked.grids_1d:
        np.testing.assert_allclose(stacked.grids_1d[attribute].frequencies,
                                   loop.grids_1d[attribute].frequencies,
                                   atol=1e-9)
    for pair in stacked.grids_2d:
        np.testing.assert_allclose(stacked.grids_2d[pair].frequencies,
                                   loop.grids_2d[pair].frequencies,
                                   atol=1e-9)
    queries = mixed_workload(3, 16, n_queries=15, seed=19)
    np.testing.assert_allclose(stacked.answer_workload(queries),
                               loop.answer_workload(queries), atol=1e-9)
