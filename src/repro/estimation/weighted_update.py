"""Weighted Update (multiplicative weights) estimation engine.

Algorithms 1 and 2 of the paper are both instances of the same iterative
scheme (Arora et al.'s multiplicative weights / Hardt et al.'s MWEM-style
update): maintain a non-negative estimate vector, and for every observed
constraint "the sum of entries in index-set Φ should equal f", rescale the
entries in Φ so their sum matches f.  Iterate over all constraints until
the total change per sweep drops below a threshold (the paper uses any
threshold below ``1/n``).

This module implements the engine once so the response-matrix builder
(Algorithm 1), the λ-D query estimator (Algorithm 2) and the tests can all
share it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Constraint:
    """One observation: the entries at ``indices`` should sum to ``target``."""

    indices: np.ndarray
    target: float

    def __post_init__(self) -> None:
        indices = np.asarray(self.indices, dtype=np.int64)
        if indices.ndim != 1 or indices.size == 0:
            raise ValueError("constraint indices must be a non-empty 1-D array")
        object.__setattr__(self, "indices", indices)


class ConstraintSets(tuple):
    """Constraint index sets frozen as read-only int64 arrays.

    Frozen sets cannot change, so :func:`weighted_update_batch` builds
    its one-row solver key once per instance instead of on every call.
    """

    def __new__(cls, index_sets):
        arrays = [np.array(indices, dtype=np.int64) for indices in index_sets]
        for array in arrays:
            array.flags.writeable = False
        return super().__new__(cls, arrays)

    @functools.cached_property
    def solver_key(self) -> tuple[tuple[int, ...], ...]:
        """The index sets as nested tuples: :func:`_row_solver`'s key."""
        return tuple(tuple(array.tolist()) for array in self)


@dataclass
class WeightedUpdateResult:
    """Outcome of a weighted-update run."""

    estimate: np.ndarray
    iterations: int
    converged: bool
    change_history: list[float] = field(default_factory=list)


def weighted_update(size: int, constraints: list[Constraint],
                    threshold: float = 1e-7, max_iterations: int = 100,
                    initial: np.ndarray | None = None,
                    track_history: bool = False) -> WeightedUpdateResult:
    """Run the weighted-update iteration.

    Parameters
    ----------
    size:
        Length of the estimate vector.
    constraints:
        Observations to satisfy.  Targets should be non-negative; the
        caller is expected to have applied Norm-Sub beforehand (the paper
        notes that negative inputs can destabilise the iteration — this is
        exactly the ITDG/IHDG ablation).
    threshold:
        Convergence threshold on the summed absolute change of the
        estimate across one full sweep over the constraints.  The paper
        recommends any value below ``1/n``.
    max_iterations:
        Upper bound on the number of sweeps.
    initial:
        Optional starting point; defaults to the uniform vector summing
        to 1 (Algorithm 1 line 1 / Algorithm 2 line 1).
    track_history:
        If True, record the per-sweep change (used by the convergence-rate
        experiment, Figures 17-18).

    Returns
    -------
    WeightedUpdateResult
        The estimate, the number of sweeps performed, whether the
        threshold was reached, and optionally the change history.
    """
    if size < 1:
        raise ValueError("size must be positive")
    if not constraints:
        raise ValueError("at least one constraint is required")
    if initial is None:
        estimate = np.full(size, 1.0 / size)
    else:
        estimate = np.asarray(initial, dtype=float).copy()
        if estimate.shape != (size,):
            raise ValueError(f"initial must have shape ({size},)")

    history: list[float] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        before = estimate.copy()
        for constraint in constraints:
            idx = constraint.indices
            current = estimate[idx].sum()
            if current != 0.0:
                estimate[idx] *= constraint.target / current
        change = float(np.abs(estimate - before).sum())
        if track_history:
            history.append(change)
        if change < threshold:
            converged = True
            break
    return WeightedUpdateResult(estimate=estimate, iterations=iterations,
                                converged=converged, change_history=history)


#: Above this many terms NumPy's pairwise summation recurses on halves.
_PAIRWISE_BLOCK = 128


def pairwise_sum(terms):
    """Sum ``terms`` in NumPy's contiguous pairwise-summation order.

    Reproduces the association ``ndarray.sum()`` uses on a contiguous
    float64 vector: a left fold from ``0.0`` below eight terms, eight
    interleaved accumulators combined as a balanced tree up to
    ``_PAIRWISE_BLOCK`` terms, and recursive halving (at a multiple of
    eight) above that.  ``terms`` is any sliceable sequence whose items
    support ``+``: Python floats, the rows of a 2-D array (folded
    elementwise, one sum per column) or symbolic terms that spell the
    fold out as source code.  All three associate the same way, so
    they round to the same bits.
    """
    n = len(terms)
    if n < 8:
        total = 0.0
        for term in terms:
            total = total + term
        return total
    if n <= _PAIRWISE_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = terms[:8]
        tail = n - n % 8
        for start in range(8, tail, 8):
            t0, t1, t2, t3, t4, t5, t6, t7 = terms[start:start + 8]
            r0 = r0 + t0
            r1 = r1 + t1
            r2 = r2 + t2
            r3 = r3 + t3
            r4 = r4 + t4
            r5 = r5 + t5
            r6 = r6 + t6
            r7 = r7 + t7
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for term in terms[tail:]:
            total = total + term
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(terms[:half]) + pairwise_sum(terms[half:])


def weighted_update_batch(size: int, index_sets: list[np.ndarray],
                          targets: np.ndarray, threshold: float = 1e-7,
                          max_iterations: int = 100) -> np.ndarray:
    """Run many independent weighted-update problems at once.

    All problems share the same constraint *structure* (the index sets)
    but have their own targets — exactly the situation when a workload
    contains many λ-D queries of the same dimension: the orthant index
    sets depend only on λ while the 2-D sub-answers differ per query.

    Every constraint sum and every per-sweep change sum is a
    :func:`pairwise_sum` fold, the order :func:`weighted_update` reduces
    in, so each row of the result is bitwise equal to
    :func:`weighted_update` on that row alone — independent of the
    batch height and of the other rows in the batch.  One row (the
    serving tier's single-query path) runs on Python floats; two or
    more run column-wise on an orthant-major ``(size, n_problems)``
    array with elementwise NumPy operations.

    Parameters
    ----------
    size:
        Length of each estimate vector (``2^λ`` for Algorithm 2).
    index_sets:
        One index array per constraint, in sweep order; a
        :class:`ConstraintSets` keeps its one-row solver key.
    targets:
        Array of shape ``(n_problems, n_constraints)``; row ``b`` holds
        problem ``b``'s constraint targets.
    threshold, max_iterations:
        Same convergence controls as :func:`weighted_update`.  Each row
        converges independently — once a row's per-sweep change drops
        below the threshold it stops updating.

    Returns
    -------
    numpy.ndarray
        Estimates of shape ``(n_problems, size)``.
    """
    targets = np.asarray(targets, dtype=float)
    if targets.ndim != 2:
        raise ValueError("targets must have shape (n_problems, n_constraints)")
    if targets.shape[1] != len(index_sets):
        raise ValueError(
            f"got {targets.shape[1]} targets per problem for "
            f"{len(index_sets)} constraints")
    if targets.shape[0] == 1:
        key = (index_sets.solver_key if isinstance(index_sets, ConstraintSets)
               else tuple(tuple(np.asarray(idx).tolist())
                          for idx in index_sets))
        solve = _row_solver(size, key)
        return np.array([solve(targets[0].tolist(), threshold,
                               max_iterations)])
    return _weighted_update_columns(size, index_sets, targets, threshold,
                                    max_iterations)


class _Symbol:
    """A term of generated source: ``+`` spells the addition out."""

    __slots__ = ("text",)

    def __init__(self, text: str):
        self.text = text

    def __add__(self, other: _Symbol) -> _Symbol:
        return _Symbol(f"({self.text} + {other.text})")

    def __radd__(self, other: float) -> _Symbol:
        return _Symbol(f"({other!r} + {self.text})")


@functools.lru_cache(maxsize=32)
def _row_solver(size: int, index_sets: tuple[tuple[int, ...], ...]):
    """Compile one problem's sweeps to straight-line Python float code.

    Estimate entry ``i`` lives in the local ``e{i}``, and every sum is
    :func:`pairwise_sum` evaluated over symbols, so the generated
    expressions add in the same tree as the column-wise path — with no
    NumPy call and no list indexing per reduction.  Compiled once per
    constraint structure (in practice one per λ).
    """
    index_sets = tuple(tuple(range(size)[i] for i in idx)
                       for idx in index_sets)
    entries = [f"e{i}" for i in range(size)]
    saved = [f"b{i}" for i in range(size)]
    lines = [
        "def solve(targets, threshold, max_iterations):",
        f"    [{', '.join(f't{k}' for k in range(len(index_sets)))}]"
        " = targets",
        f"    {' = '.join(entries)} = {1.0 / size!r}",
        "    for _ in range(max_iterations):",
        f"        {', '.join(saved)}, = {', '.join(entries)},",
    ]
    for k, idx in enumerate(index_sets):
        current = pairwise_sum([_Symbol(entries[i]) for i in idx])
        lines += [f"        current = {current.text}",
                  "        if current != 0.0:",
                  f"            ratio = t{k} / current"]
        # Fancy-index assignment scales a repeated index once.
        lines += [f"            {entries[i]} *= ratio"
                  for i in dict.fromkeys(idx)]
    change = pairwise_sum([_Symbol(f"abs({entry} - {old})")
                           for entry, old in zip(entries, saved)])
    lines += [f"        if {change.text} < threshold:",
              "            break",
              f"    return [{', '.join(entries)}]"]
    namespace: dict = {}
    exec(compile("\n".join(lines), "<weighted_update_row>", "exec"),
         namespace)
    return namespace["solve"]


def _weighted_update_columns(size: int, index_sets: list[np.ndarray],
                             targets: np.ndarray, threshold: float,
                             max_iterations: int) -> np.ndarray:
    """Many problems' sweeps on an orthant-major ``(size, n)`` array.

    Column ``b`` holds problem ``b``'s estimate, so a constraint's
    gathered entries are rows and :func:`pairwise_sum` folds them with
    elementwise adds — the same association for every column.
    Converged columns are written out and dropped from the working
    array.
    """
    n_problems = targets.shape[0]
    result = np.full((n_problems, size), 1.0 / size)
    if n_problems == 0:
        return result
    index_sets = [np.asarray(idx, dtype=np.int64) for idx in index_sets]
    columns = np.ascontiguousarray(targets.T)
    estimate = np.full((size, n_problems), 1.0 / size)
    active = np.arange(n_problems)
    for _ in range(max_iterations):
        before = estimate.copy()
        for idx, target in zip(index_sets, columns):
            current = pairwise_sum(estimate[idx])
            ratio = np.divide(target, current, out=np.ones_like(current),
                              where=current != 0.0)
            estimate[idx] *= ratio
        np.subtract(estimate, before, out=before)
        change = pairwise_sum(np.abs(before, out=before))
        done = change < threshold
        if done.any():
            result[active[done]] = estimate[:, done].T
            keep = ~done
            active = active[keep]
            if active.size == 0:
                return result
            estimate = np.ascontiguousarray(estimate[:, keep])
            columns = np.ascontiguousarray(columns[:, keep])
    result[active] = estimate.T
    return result
