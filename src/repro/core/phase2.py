"""Phase 2 of TDG/HDG: removing negativity and inconsistency.

The aggregator alternates two steps over the collected grids:

* **Non-negativity** — Norm-Sub on each grid's cell frequencies, making
  them non-negative and summing to 1.
* **Consistency** — for each attribute, the bucket totals (at the 2-D
  granularity ``g2``) implied by every grid containing the attribute are
  replaced by their variance-optimal weighted average.

The two steps can undo each other slightly, so they are interleaved for a
few rounds and the process ends with a non-negativity step (required
because Algorithm 1's multiplicative updates need non-negative inputs).

Both steps run on the layer arrays in place: Norm-Sub is one row-wise
pass per layer (:func:`~repro.postprocess.norm_sub_rows`), and the
consistency step is one gather-reduce-scatter per attribute
(:func:`~repro.postprocess.enforce_consistency`).  The attributes stay
a sequential loop, because each step reads the grids the previous
attribute's step adjusted.
"""

from __future__ import annotations

import numpy as np

from ..postprocess import enforce_consistency, norm_sub_rows


def attribute_pairs(pairs: list[tuple[int, int]],
                    attribute: int) -> tuple[list[int], list[int]]:
    """The rows of the 2-D layer holding ``attribute`` second (on axis
    1), then those holding it first (on axis 0)."""
    second = [index for index, pair in enumerate(pairs)
              if pair[1] == attribute]
    first = [index for index, pair in enumerate(pairs)
             if pair[0] == attribute]
    return second, first


def run_phase2(n_attributes: int, singles: np.ndarray | None,
               pair_grids: np.ndarray, pairs: list[tuple[int, int]],
               rounds: int = 3) -> None:
    """Full Phase 2 over the layer arrays, in place: interleave both
    steps, ending with non-negativity.

    ``singles`` is HDG's ``(d, g1)`` 1-D layer in attribute order
    (``None`` for TDG); ``pair_grids`` is the ``(len(pairs), g2, g2)``
    2-D layer, one grid per pair of ``pairs`` (sorted, lexicographic).
    Both must be C-contiguous.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    n_buckets = pair_grids.shape[1]
    if singles is not None and singles.shape[1] % n_buckets != 0:
        raise ValueError(
            f"1-D granularity {singles.shape[1]} is not a multiple of the "
            f"bucket count {n_buckets}")
    steps = []
    for attribute in range(n_attributes):
        second, first = attribute_pairs(pairs, attribute)
        if len(second) + len(first) + (singles is not None) >= 2:
            steps.append((None if singles is None else singles[attribute],
                          second, first))
    layers = [layer.reshape(len(layer), -1)
              for layer in (singles, pair_grids) if layer is not None]
    for _ in range(rounds):
        for rows in layers:
            norm_sub_rows(rows)
        for single, second, first in steps:
            enforce_consistency(single, pair_grids, second, first, n_buckets)
    for rows in layers:
        norm_sub_rows(rows)
