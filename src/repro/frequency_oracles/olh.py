"""Optimized Local Hash (OLH) frequency oracle.

OLH (Wang et al., USENIX Security 2017; Section 2.2 of the paper) first
hashes the value into a small domain ``[c']`` with ``c' = e^eps + 1`` and
then applies generalized randomized response on the hashed value.  Its
estimation variance (Equation (3)) is ``4 e^eps / ((e^eps - 1)^2 n)``,
independent of the original domain size, which makes it the oracle of
choice for the grids in TDG and HDG.

Two execution modes are provided:

``mode="user"``
    Faithful per-user simulation: every user draws a hash function from a
    2-universal family, hashes the true value, perturbs the hashed value
    with GRR over ``[c']`` and reports ``(seed, perturbed)``.  The
    aggregator counts, for every candidate value ``v``, how many reports
    support it (``H_i(v) == y_i``).  This is the protocol exactly as
    published but costs ``O(n * c)`` hash evaluations.

``mode="fast"``
    Aggregate binomial simulation: for each value ``v`` with ``n_v`` users,
    the support count is distributed as
    ``Binomial(n_v, p) + Binomial(n - n_v, 1/c')`` (each true holder
    supports its own value w.p. ``p``; every other user supports it w.p.
    ``1/c'`` through hash collisions).  Sampling these binomials per value
    reproduces the marginal distribution of every estimate while ignoring
    the (negligible, O(1/c')) correlation induced by shared hash functions.
    This is the standard simulation shortcut for large-n LDP experiments
    and is what makes the paper-scale parameter sweeps tractable; the two
    modes are checked against each other statistically in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .base import FrequencyOracle, SupportAccumulator, olh_variance
from .hashing import UniversalHashFamily


class OptimizedLocalHash(FrequencyOracle):
    """ε-LDP frequency oracle using optimized local hashing.

    Parameters
    ----------
    epsilon:
        Per-report privacy budget.
    domain_size:
        Original categorical domain size ``c``.
    mode:
        ``"fast"`` (default) for the aggregate binomial simulation or
        ``"user"`` for the faithful per-user protocol.
    hash_range:
        Optional override of ``c'``; defaults to ``round(e^eps) + 1`` as in
        the paper, never below 2.
    support_chunk_elements:
        Memory budget for ``mode="user"`` aggregation, expressed as the
        maximum number of hash-matrix entries evaluated at once.  The
        aggregator counts supports in report chunks of
        ``support_chunk_elements // domain_size`` rows instead of
        materialising the full ``n x c`` matrix (which at paper scale,
        n = 10^6 reports over a 64 x 64-cell grid, would need tens of
        gigabytes).  Chunking is exact — the support counts are integer
        sums and do not depend on the chunk boundaries.
    """

    #: Default memory budget: 4M int64 entries, ~32 MB per chunk.
    DEFAULT_SUPPORT_CHUNK_ELEMENTS = 1 << 22

    def __init__(self, epsilon: float, domain_size: int,
                 rng: np.random.Generator | None = None,
                 mode: str = "fast", hash_range: int | None = None,
                 support_chunk_elements: int | None = None):
        super().__init__(epsilon, domain_size, rng)
        if mode not in ("fast", "user"):
            raise ValueError(f"mode must be 'fast' or 'user', got {mode!r}")
        self.mode = mode
        if support_chunk_elements is None:
            support_chunk_elements = self.DEFAULT_SUPPORT_CHUNK_ELEMENTS
        if support_chunk_elements < 1:
            raise ValueError("support_chunk_elements must be positive")
        self.support_chunk_elements = int(support_chunk_elements)
        if hash_range is None:
            hash_range = int(round(math.exp(epsilon))) + 1
        self.hash_range = max(2, int(hash_range))
        e_eps = self.e_eps
        # GRR probabilities over the hashed domain [c'].
        self.p = e_eps / (e_eps + self.hash_range - 1)
        self.q = 1.0 / (e_eps + self.hash_range - 1)
        # Probability that a non-holder supports a given value: the hash is
        # uniform over [c'], so support happens w.p. 1/c' regardless of
        # whether the report was kept or randomized.
        self.q_support = 1.0 / self.hash_range

    # ------------------------------------------------------------------
    # Faithful per-user protocol
    # ------------------------------------------------------------------
    def perturb(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Produce per-user reports ``(a_seeds, b_seeds, perturbed_hash)``."""
        values = self._validate_values(values)
        n = values.size
        family = UniversalHashFamily(self.domain_size, self.hash_range, self.rng)
        a, b = family.sample_seeds(n)
        hashed = family.evaluate(a, b, values)
        keep = self.rng.random(n) < self.p
        offsets = self.rng.integers(1, self.hash_range, size=n)
        randomized = (hashed + offsets) % self.hash_range
        reports = np.where(keep, hashed, randomized)
        return a, b, reports

    def aggregate(self, a: np.ndarray, b: np.ndarray,
                  reports: np.ndarray) -> np.ndarray:
        """Aggregate per-user reports into unbiased frequency estimates."""
        return self.estimate_from_accumulator(self.count_supports(a, b, reports))

    def count_supports(self, a: np.ndarray, b: np.ndarray,
                       reports: np.ndarray) -> SupportAccumulator:
        """Count, per candidate value, how many reports support it.

        Reports are processed in fixed-size chunks so memory stays at
        ``support_chunk_elements`` hash evaluations regardless of ``n``;
        the resulting counts are identical to the one-shot evaluation.
        """
        family = UniversalHashFamily(self.domain_size, self.hash_range, self.rng)
        supports = np.zeros(self.domain_size)
        rows_per_chunk = max(1, self.support_chunk_elements // self.domain_size)
        for start in range(0, reports.size, rows_per_chunk):
            stop = start + rows_per_chunk
            hash_matrix = family.evaluate_matrix(a[start:stop], b[start:stop])
            supports += (hash_matrix == reports[start:stop, None]).sum(axis=0)
        return SupportAccumulator(supports, reports.size)

    # ------------------------------------------------------------------
    # Fast aggregate simulation
    # ------------------------------------------------------------------
    def draw_supports(self, true_counts: np.ndarray,
                      n_users: np.ndarray) -> np.ndarray:
        """Supports of ``k`` groups from their value counts and sizes, in
        one call with the draws of two calls per group (fast mode)."""
        trials = np.stack((true_counts,
                           np.asarray(n_users)[:, None] - true_counts), axis=1)
        return self.rng.binomial(
            trials, [[self.p], [self.q_support]]).sum(axis=1)

    def _accumulate_fast(self, values: np.ndarray) -> SupportAccumulator:
        values = self._validate_values(values)
        true_counts = np.bincount(values, minlength=self.domain_size)
        supports = self.draw_supports(true_counts[None], [values.size])[0]
        return SupportAccumulator(supports.astype(float), values.size)

    # ------------------------------------------------------------------
    # FrequencyOracle API
    # ------------------------------------------------------------------
    def accumulate(self, values: np.ndarray) -> SupportAccumulator:
        if self.mode == "fast":
            return self._accumulate_fast(values)
        a, b, reports = self.perturb(values)
        return self.count_supports(a, b, reports)

    def estimate_from_accumulator(self,
                                  accumulator: SupportAccumulator) -> np.ndarray:
        if accumulator.supports.shape != (self.domain_size,):
            raise ValueError(
                f"accumulator covers {accumulator.supports.shape[0]} candidates, "
                f"expected {self.domain_size}")
        if accumulator.n_reports < 1:
            raise ValueError("cannot estimate frequencies from zero reports")
        n = accumulator.n_reports
        return ((accumulator.supports / n - self.q_support)
                / (self.p - self.q_support))

    def estimate_frequencies(self, values: np.ndarray) -> np.ndarray:
        return self.estimate_from_accumulator(self.accumulate(values))

    def variance(self, n: int, true_frequency: float = 0.0) -> float:
        return olh_variance(self.epsilon, n)
