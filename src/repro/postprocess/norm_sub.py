"""Norm-Sub non-negativity post-processing.

Phase 2 of TDG/HDG (Section 4.2) removes negative noisy frequencies with
Norm-Sub (Wang et al., NDSS 2020): repeatedly set negative estimates to
zero and subtract the average surplus from the positive estimates until
every estimate is non-negative and the vector sums to the target total
(1 for a full distribution).

:func:`norm_sub_rows` projects every row of a grid layer at once.
"""

from __future__ import annotations

import numpy as np


def norm_sub(estimates: np.ndarray, total: float = 1.0,
             max_iterations: int = 1000, tolerance: float = 1e-12) -> np.ndarray:
    """Project noisy frequency estimates onto the simplex of sum ``total``.

    Parameters
    ----------
    estimates:
        Array of noisy frequencies of any shape (flattened internally).
    total:
        Target sum after projection (1.0 for a probability distribution).
    max_iterations:
        Safety cap on the fix-up loop; the procedure converges in at most
        ``len(estimates)`` iterations because each round zeroes at least
        one more entry.
    tolerance:
        Values within ``tolerance`` of zero are treated as zero.

    Returns
    -------
    numpy.ndarray
        Array of the same shape, entry-wise non-negative, summing to
        ``total`` (when ``total > 0``).
    """
    values = np.asarray(estimates, dtype=float)
    original_shape = values.shape
    flat = values.ravel().copy()
    if total < 0:
        raise ValueError("total must be non-negative")
    if flat.size == 0:
        return flat.reshape(original_shape)

    for _ in range(max_iterations):
        flat[flat < 0.0] = 0.0
        positive = flat > tolerance
        n_positive = int(positive.sum())
        if n_positive == 0:
            # Everything was clipped away: fall back to a uniform split.
            flat[:] = total / flat.size
            break
        deficit = flat[positive].sum() - total
        if abs(deficit) <= tolerance:
            break
        flat[positive] -= deficit / n_positive
        if (flat >= -tolerance).all():
            flat[flat < 0.0] = 0.0
            break
    return flat.reshape(original_shape)


def norm_sub_rows(rows: np.ndarray) -> None:
    """:func:`norm_sub` (to total 1) every row of the 2-D array ``rows``,
    in place.  The fix-up loop runs over the rows still moving; a row's
    positive cells are summed compacted, in groups of rows of equal
    positive count, so each row is bitwise :func:`norm_sub` of itself.
    """
    total, tolerance = 1.0, 1e-12
    active = np.arange(rows.shape[0])
    for _ in range(1000):
        if not active.size:
            break
        block = rows[active]
        block[block < 0.0] = 0.0
        positive = block > tolerance
        counts = np.count_nonzero(positive, axis=1)
        sums = np.zeros(active.size)
        for count in np.unique(counts[counts > 0]):
            members = counts == count
            sums[members] = block[members][positive[members]].reshape(
                -1, count).sum(axis=1)
        deficits = sums - total
        empty = counts == 0
        # Everything was clipped away: fall back to a uniform split.
        block[empty] = total / rows.shape[1]
        moving = ~empty & ~(np.abs(deficits) <= tolerance)
        shifts = np.divide(deficits, counts, out=np.zeros(active.size),
                           where=moving)
        np.subtract(block, shifts[:, None], out=block,
                    where=positive & moving[:, None])
        cleared = moving & (block >= -tolerance).all(axis=1)
        block[cleared[:, None] & (block < 0.0)] = 0.0
        rows[active] = block
        active = active[moving & ~cleared]


def clip_to_zero(estimates: np.ndarray) -> np.ndarray:
    """Simple alternative post-processor: clip negatives without rescaling.

    Provided for ablations; Norm-Sub is what the paper (and TDG/HDG) use.
    """
    values = np.asarray(estimates, dtype=float).copy()
    values[values < 0.0] = 0.0
    return values
