"""Post-processing: non-negativity, cross-grid consistency, constrained
inference.  Norm-Sub and consistency run on a grid mechanism's layer
arrays (:func:`norm_sub_rows`, :func:`enforce_consistency`)."""

from .consistency import bucket_totals, enforce_consistency
from .constrained_inference import (constrained_inference,
                                    constrained_inference_2d,
                                    mean_consistency_pass,
                                    weighted_average_pass)
from .norm_sub import clip_to_zero, norm_sub, norm_sub_rows

__all__ = [
    "bucket_totals",
    "clip_to_zero",
    "constrained_inference",
    "constrained_inference_2d",
    "enforce_consistency",
    "mean_consistency_pass",
    "norm_sub",
    "norm_sub_rows",
    "weighted_average_pass",
]
