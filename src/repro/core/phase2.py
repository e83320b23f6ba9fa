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
"""

from __future__ import annotations

from ..postprocess import GridView, enforce_attribute_consistency, norm_sub
from .grid import Grid1D, Grid2D


def apply_norm_sub(grids_1d: dict[int, Grid1D],
                   grids_2d: dict[tuple[int, int], Grid2D]) -> None:
    """Norm-Sub every grid's frequencies in place."""
    for grid in grids_1d.values():
        grid.set_frequencies(norm_sub(grid.frequencies))
    for grid in grids_2d.values():
        grid.set_frequencies(norm_sub(grid.frequencies))


def attribute_views(attribute: int, grids_1d: dict[int, Grid1D],
                    grids_2d: dict[tuple[int, int], Grid2D],
                    n_buckets: int) -> list[GridView]:
    """Collect consistency views of every grid containing ``attribute``.

    The consistency buckets are the ``g2`` coarse intervals of the
    attribute; a 2-D grid contributes one cell per bucket along the
    attribute's axis while a 1-D grid contributes ``g1 / g2`` cells.
    """
    views: list[GridView] = []
    if attribute in grids_1d:
        grid = grids_1d[attribute]
        if grid.granularity % n_buckets != 0:
            raise ValueError(
                f"1-D granularity {grid.granularity} is not a multiple of the "
                f"bucket count {n_buckets}")
        # The consistency step adjusts the arrays in place.
        views.append(GridView(frequencies=grid.mutable_frequencies(), axis=0,
                              cells_per_bucket=grid.granularity // n_buckets))
    for (attr_a, attr_b), grid in grids_2d.items():
        if attribute == attr_a:
            axis = 0
        elif attribute == attr_b:
            axis = 1
        else:
            continue
        views.append(GridView(frequencies=grid.mutable_frequencies(), axis=axis,
                              cells_per_bucket=1))
    return views


def apply_consistency(n_attributes: int, grids_1d: dict[int, Grid1D],
                      grids_2d: dict[tuple[int, int], Grid2D],
                      n_buckets: int) -> None:
    """Run the attribute-by-attribute consistency step once."""
    for attribute in range(n_attributes):
        views = attribute_views(attribute, grids_1d, grids_2d, n_buckets)
        if len(views) >= 2:
            enforce_attribute_consistency(views, n_buckets)


def run_phase2(n_attributes: int, grids_1d: dict[int, Grid1D],
               grids_2d: dict[tuple[int, int], Grid2D], n_buckets: int,
               rounds: int = 3) -> None:
    """Full Phase 2: interleave both steps, ending with non-negativity."""
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    for _ in range(rounds):
        apply_norm_sub(grids_1d, grids_2d)
        apply_consistency(n_attributes, grids_1d, grids_2d, n_buckets)
    apply_norm_sub(grids_1d, grids_2d)
