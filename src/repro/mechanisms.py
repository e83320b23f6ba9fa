"""The mechanism registry: paper name → class, and the shard-seed convention.

Every layer that builds a mechanism from its name — the experiment
runner, the query service, the ingest tier's worker processes and
snapshot restore — looks it up in :data:`MECHANISMS` through
:func:`mechanism_class`, so an unknown or non-shardable name fails with
the same message everywhere.

Sharding is a property of the class, not a list: a mechanism is
shardable exactly when it implements ``partial_fit``/``merge``/
``finalize`` (:func:`supports_sharding`).  All but HIO and LHIO are:
grid support counts and MSW's report-bucket counts add up across user
shards, and Uni counts nothing.  HIO and LHIO draw noise lazily while
answering; they are experiment-only, and only shardable names serve.

This module sits just above :mod:`repro.core` and :mod:`repro.baselines`
and imports nothing from the serving, ingest or experiment layers, so a
freshly spawned ingest worker can import it cheaply.
"""

from __future__ import annotations

from .baselines import CALM, HIO, LHIO, MSW, Uniform
from .core import HDG, IHDG, ITDG, TDG, RangeQueryMechanism

#: Mechanism classes keyed by the names used in the paper.
MECHANISMS: dict[str, type[RangeQueryMechanism]] = {
    "TDG": TDG,
    "HDG": HDG,
    "ITDG": ITDG,
    "IHDG": IHDG,
    "CALM": CALM,
    "HIO": HIO,
    "LHIO": LHIO,
    "MSW": MSW,
    "Uni": Uniform,
}

#: Seed stride between shard mechanisms, so shards draw independent noise.
SHARD_SEED_STRIDE = 977


def supports_sharding(cls: type[RangeQueryMechanism]) -> bool:
    """Whether ``cls`` implements ``partial_fit``/``merge``/``finalize``.

    The class-level form of :attr:`RangeQueryMechanism.supports_sharding`.
    """
    return cls._partial_fit is not RangeQueryMechanism._partial_fit


def mechanism_class(name: str, *,
                    sharded: bool = False) -> type[RangeQueryMechanism]:
    """The registered class for ``name``.

    With ``sharded=True`` the class must also support sharded
    aggregation (stream ingest and the ingest tier need it).
    """
    try:
        cls = MECHANISMS[name]
    except KeyError:
        raise ValueError(f"unknown mechanism {name!r}; "
                         f"known: {sorted(MECHANISMS)}") from None
    if sharded and not supports_sharding(cls):
        shardable = sorted(n for n, c in MECHANISMS.items()
                           if supports_sharding(c))
        raise ValueError(
            f"non-shardable mechanism {name!r}: it does not support "
            f"sharded aggregation (shardable: {shardable}); HIO and LHIO "
            "are experiment-only")
    return cls


def build_mechanism(name: str, epsilon: float, seed: int | None = None,
                    **kwargs) -> RangeQueryMechanism:
    """Instantiate a mechanism by its paper name.

    Names of the form ``"HDG(g1,g2)"`` build HDG with explicit
    granularities (the guideline-verification experiments, Figures 7/16).
    """
    if name.startswith("HDG(") and name.endswith(")"):
        g1_str, g2_str = name[len("HDG("):-1].split(",")
        kwargs = dict(kwargs, granularities=(int(g1_str), int(g2_str)))
        return HDG(epsilon, seed=seed, **kwargs)
    return mechanism_class(name)(epsilon, seed=seed, **kwargs)


def shard_seed(base_seed: int, shard_index: int) -> int:
    """Seed for one shard's mechanism, distinct from ``base_seed`` itself.

    Shard 0 is offset too, so a sharded run never shares its perturbation
    noise with the single-shot mechanism built from ``base_seed``.
    """
    return base_seed + SHARD_SEED_STRIDE * (shard_index + 1)
