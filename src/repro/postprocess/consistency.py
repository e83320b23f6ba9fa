"""Cross-grid consistency enforcement (Phase 2, Section 4.2).

Each attribute ``a`` appears in several grids — its own 1-D grid (HDG
only) and the ``d - 1`` 2-D grids of pairs containing it.  Because every
grid is estimated from an independent user group, the marginal frequencies
of ``a`` implied by different grids disagree.  The consistency step
computes, for each coarse bucket ``j`` of ``a`` (the 2-D granularity
``g2`` defines the buckets), the variance-optimal weighted average of the
per-grid bucket totals and then shifts each grid's cells so its bucket
total matches the average.

The weights follow the analysis in the paper / CALM: a grid in which the
bucket total is the sum of ``|S_i|`` cells contributes weight proportional
to ``1 / |S_i|``.

The grids are rows of a mechanism's layer arrays: the attribute's 1-D
grid, then the 2-D grids holding it second (its axis 1) and those
holding it first (axis 0) — pair order, for sorted pairs.
"""

from __future__ import annotations

import numpy as np


def bucket_totals(single: np.ndarray | None, pairs: np.ndarray, second,
                  first, n_buckets: int) -> np.ndarray:
    """Every view's per-bucket totals, one row per view.

    ``single`` is the attribute's 1-D grid (``None`` for TDG), ``pairs``
    the 2-D layer and ``second``/``first`` the indices of the pairs that
    hold the attribute second or first.  A lone 2-D view sums in place
    along its axis.  Several sum as one ``np.concatenate`` copy, the
    grids holding the attribute second transposed; the copy keeps its
    inputs' memory order (bucket-major when every grid holds the
    attribute second, row-major otherwise), and so does the sum.
    """
    n_pair_views = len(second) + len(first)
    totals = np.empty((int(single is not None) + n_pair_views, n_buckets))
    if single is not None:
        totals[0] = single.reshape(n_buckets, -1, 1).sum(axis=(1, 2))
    if n_pair_views == 1:
        grid, axis = (pairs[second[0]], 1) if second else (pairs[first[0]], 0)
        totals[-1] = np.moveaxis(grid, axis, 0).reshape(
            n_buckets, 1, -1).sum(axis=(1, 2))
    elif n_pair_views:
        cells = np.concatenate([part for part in (
            pairs[second].transpose(0, 2, 1), pairs[first]) if len(part)])
        totals[-n_pair_views:] = cells.reshape(
            n_pair_views, n_buckets, 1, -1).sum(axis=(2, 3))
    return totals


def enforce_consistency(single: np.ndarray | None, pairs: np.ndarray, second,
                        first, n_buckets: int) -> np.ndarray:
    """Make all grids holding one attribute agree on its bucket totals.

    ``single`` (a row of the 1-D layer) and ``pairs`` (the 2-D layer)
    are adjusted in place: each view's bucket delta is spread equally
    over the bucket's cells.  Returns the consensus bucket totals.
    """
    n_pair_views = len(second) + len(first)
    if single is None and not n_pair_views:
        raise ValueError("need at least one grid view")
    totals = bucket_totals(single, pairs, second, first, n_buckets)
    # A view whose bucket total sums |S_i| cells weighs 1 / |S_i|.
    sizes = [n_buckets] * n_pair_views
    if single is not None:
        cells_per_bucket = single.size // n_buckets
        sizes.insert(0, cells_per_bucket)
    weights = np.array([1.0 / size for size in sizes])
    weights = weights / weights.sum()
    consensus = weights @ totals
    if single is not None:
        grouped = single.reshape(n_buckets, cells_per_bucket)
        grouped += ((consensus - totals[0]) / cells_per_bucket)[:, None]
    if n_pair_views:
        per_cell = (consensus - totals[-n_pair_views:]) / pairs.shape[2]
        pairs[second] += per_cell[:len(second), None, :]
        pairs[first] += per_cell[len(second):, :, None]
    return consensus
