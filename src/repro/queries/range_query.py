"""Multi-dimensional range query model.

A λ-dimensional range query is a conjunction of per-attribute interval
predicates (Section 3.1 of the paper).  Intervals are closed and expressed
in domain coordinates ``0 <= low <= high < c``; the query's answer is the
fraction of users whose record satisfies every predicate.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Predicate:
    """A closed interval restriction ``low <= value <= high`` on one attribute."""

    attribute: int
    low: int
    high: int

    def __post_init__(self) -> None:
        if self.attribute < 0:
            raise ValueError("attribute index must be non-negative")
        if self.low < 0 or self.high < self.low:
            raise ValueError(
                f"invalid interval [{self.low}, {self.high}] for attribute "
                f"{self.attribute}")

    @property
    def width(self) -> int:
        """Number of domain values covered by the interval."""
        return self.high - self.low + 1

    def covers(self, value: int) -> bool:
        """Whether a single attribute value satisfies this predicate."""
        return self.low <= value <= self.high


def canonical_predicates(predicates) -> tuple[Predicate, ...]:
    """A conjunction's predicates, checked and sorted by attribute.

    Shared by every query class built from predicates, so a range and a
    count over the same conjunction hold the same canonical tuple.
    """
    predicates = tuple(predicates)
    if not predicates:
        raise ValueError("a range query needs at least one predicate")
    attributes = [p.attribute for p in predicates]
    if len(set(attributes)) != len(attributes):
        raise ValueError("each attribute may appear at most once in a query")
    return tuple(sorted(predicates, key=lambda p: p.attribute))


@dataclass(frozen=True)
class RangeQuery:
    """A conjunction of interval predicates over distinct attributes."""

    predicates: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "predicates",
                           canonical_predicates(self.predicates))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, intervals: dict[int, tuple[int, int]]) -> "RangeQuery":
        """Build a query from ``{attribute: (low, high)}``."""
        return cls(tuple(Predicate(a, lo, hi) for a, (lo, hi) in intervals.items()))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dimension(self) -> int:
        """Query dimension λ (number of restricted attributes)."""
        return len(self.predicates)

    @property
    def attributes(self) -> tuple[int, ...]:
        """Sorted tuple of restricted attribute indices."""
        return tuple(p.attribute for p in self.predicates)

    def interval(self, attribute: int) -> tuple[int, int]:
        """Return ``(low, high)`` for a restricted attribute."""
        for predicate in self.predicates:
            if predicate.attribute == attribute:
                return predicate.low, predicate.high
        raise KeyError(f"attribute {attribute} is not restricted by this query")

    def restrict(self, attributes: tuple[int, ...]) -> "RangeQuery":
        """Project the query onto a subset of its attributes.

        Used when splitting a λ-D query into its associated 2-D queries
        (Section 4.4): the projection keeps only the predicates on the
        requested attributes.
        """
        kept = tuple(p for p in self.predicates if p.attribute in attributes)
        if len(kept) != len(attributes):
            missing = set(attributes) - {p.attribute for p in kept}
            raise KeyError(f"attributes {sorted(missing)} not restricted by query")
        return RangeQuery(kept)

    def pairwise_subqueries(self) -> list["RangeQuery"]:
        """All C(λ, 2) associated 2-D sub-queries (λ must be >= 2)."""
        attrs = self.attributes
        if len(attrs) < 2:
            raise ValueError("pairwise decomposition needs a query with λ >= 2")
        pairs = []
        for i in range(len(attrs)):
            for j in range(i + 1, len(attrs)):
                pairs.append(self.restrict((attrs[i], attrs[j])))
        return pairs

    def volume(self, domain_size: int) -> float:
        """Fraction of the λ-D domain the query covers (product of widths / c^λ)."""
        vol = 1.0
        for predicate in self.predicates:
            vol *= predicate.width / domain_size
        return vol

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = [f"a{p.attribute + 1}∈[{p.low},{p.high}]" for p in self.predicates]
        return " ∧ ".join(parts)
