"""Abstract interface shared by all LDP frequency oracles.

A frequency oracle estimates, under ε-LDP, the frequency (fraction of
users) of every value in a categorical domain ``[c]`` given one report per
user.  Every concrete oracle in this package implements
:class:`FrequencyOracle` and exposes a single high-level entry point,
:meth:`FrequencyOracle.estimate_frequencies`, so the grid approaches and
baselines can swap oracles freely.

Every oracle's server side is a *sum over user reports*, so it factors
into two halves:

* :meth:`FrequencyOracle.accumulate` turns a batch of user values into a
  :class:`SupportAccumulator` — raw per-candidate support counts plus the
  report count.  Accumulators from disjoint user batches are exactly
  additive (:meth:`SupportAccumulator.merge`), which is what makes the
  whole collection pipeline shard-mergeable.
* :meth:`FrequencyOracle.estimate_from_accumulator` debiases merged
  support counts into frequency estimates.  It is deterministic, so
  merging shards and estimating once is an unbiased drop-in for the
  one-shot protocol.
"""

from __future__ import annotations

import abc
import dataclasses
import math

import numpy as np


@dataclasses.dataclass(eq=False)
class SupportAccumulator:
    """Additive aggregate-side state of a frequency oracle.

    Parameters
    ----------
    supports:
        Float array of per-candidate support counts.  The meaning of one
        "support" is oracle-specific (a matching report for GRR/OLH, a
        report landing in an output bucket for Square Wave) but is always
        a plain count over users, hence additive across disjoint batches.
    n_reports:
        Number of user reports the supports were counted over.
    """

    supports: np.ndarray
    n_reports: int = 0

    def __post_init__(self) -> None:
        self.supports = np.asarray(self.supports, dtype=float)
        if self.supports.ndim != 1:
            raise ValueError("supports must be a 1-D count vector")
        self.n_reports = int(self.n_reports)
        if self.n_reports < 0:
            raise ValueError("n_reports must be non-negative")

    # ------------------------------------------------------------------
    # Shard algebra
    # ------------------------------------------------------------------
    def merge(self, other: "SupportAccumulator") -> "SupportAccumulator":
        """Add another batch's counts into this accumulator (in place).

        Counts are sums over users, so folding shards in a fixed order
        reproduces the single-process counts exactly.
        """
        if other.supports.shape != self.supports.shape:
            raise ValueError(
                f"cannot merge accumulators over different candidate sets: "
                f"{self.supports.shape} vs {other.supports.shape}")
        self.supports += other.supports
        self.n_reports += other.n_reports
        return self

    def copy(self) -> "SupportAccumulator":
        return SupportAccumulator(self.supports.copy(), self.n_reports)

    def equals(self, other: "SupportAccumulator") -> bool:
        """Exact equality of counts (the shard-merge invariant checked in tests)."""
        return (self.n_reports == other.n_reports
                and self.supports.shape == other.supports.shape
                and bool(np.all(self.supports == other.supports)))

    # ------------------------------------------------------------------
    # Serialization (the pipeline's on-the-wire shard state)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"supports": self.supports.tolist(), "n_reports": self.n_reports}

    @classmethod
    def from_dict(cls, state: dict) -> "SupportAccumulator":
        return cls(np.asarray(state["supports"], dtype=float),
                   int(state["n_reports"]))

    @classmethod
    def empty(cls, size: int) -> "SupportAccumulator":
        return cls(np.zeros(int(size)), 0)


class FrequencyOracle(abc.ABC):
    """Base class for ε-LDP categorical frequency oracles.

    Parameters
    ----------
    epsilon:
        Privacy budget used by each user's single report.
    domain_size:
        Number of categories ``c``; user values are integers in ``[0, c)``.
    rng:
        Randomness source.  Passing an explicitly seeded generator makes the
        whole collection pipeline reproducible.
    """

    def __init__(self, epsilon: float, domain_size: int,
                 rng: np.random.Generator | None = None):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if domain_size < 2:
            raise ValueError(f"domain_size must be >= 2, got {domain_size}")
        self.epsilon = float(epsilon)
        self.domain_size = int(domain_size)
        self.rng = rng if rng is not None else np.random.default_rng()

    # ------------------------------------------------------------------
    # Main API
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def estimate_frequencies(self, values: np.ndarray) -> np.ndarray:
        """Collect perturbed reports for ``values`` and estimate frequencies.

        Parameters
        ----------
        values:
            Integer array of true user values in ``[0, domain_size)``, one
            entry per reporting user.

        Returns
        -------
        numpy.ndarray
            Unbiased frequency estimates of length ``domain_size`` which sum
            to approximately 1 (they may be negative or exceed 1 before
            post-processing).
        """

    @abc.abstractmethod
    def variance(self, n: int, true_frequency: float = 0.0) -> float:
        """Theoretical per-value estimation variance for ``n`` users."""

    # ------------------------------------------------------------------
    # Shard-mergeable aggregation API
    # ------------------------------------------------------------------
    def accumulate(self, values: np.ndarray) -> SupportAccumulator:
        """Collect one batch of reports into an additive accumulator.

        Accumulators for disjoint user batches can be merged exactly
        (:meth:`SupportAccumulator.merge`) and debiased once at the end
        with :meth:`estimate_from_accumulator`; running the two halves
        back-to-back on a single batch reproduces
        :meth:`estimate_frequencies` exactly (same randomness draws).
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded aggregation")

    def estimate_from_accumulator(self,
                                  accumulator: SupportAccumulator) -> np.ndarray:
        """Debias merged support counts into frequency estimates."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded aggregation")

    @property
    def supports_sharding(self) -> bool:
        """Whether this oracle implements the accumulate/estimate split."""
        return type(self).accumulate is not FrequencyOracle.accumulate

    # ------------------------------------------------------------------
    # Helpers shared by implementations
    # ------------------------------------------------------------------
    def _validate_values(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 1:
            raise ValueError("values must be a 1-D array of user reports")
        if values.size == 0:
            raise ValueError("cannot estimate frequencies from zero users")
        if values.min() < 0 or values.max() >= self.domain_size:
            raise ValueError(
                "user values must lie in [0, domain_size); got range "
                f"[{values.min()}, {values.max()}] for domain {self.domain_size}"
            )
        return values

    @property
    def e_eps(self) -> float:
        """Convenience accessor for ``e^epsilon``."""
        return math.exp(self.epsilon)


def grr_variance(epsilon: float, domain_size: int, n: int) -> float:
    """Equation (2): variance of Generalized Randomized Response."""
    e_eps = math.exp(epsilon)
    return (domain_size - 2 + e_eps) / ((e_eps - 1) ** 2 * n)


def olh_variance(epsilon: float, n: int) -> float:
    """Equation (3): variance of Optimized Local Hash."""
    e_eps = math.exp(epsilon)
    return 4.0 * e_eps / ((e_eps - 1) ** 2 * n)
