"""Adaptive bounding-box perturbation for segmentation prompts.

Library + CLI: the adaptive perturbation engine, DSC/NSD metrics with
an exact Euclidean distance transform, the BCE+Dice+weight-decay loss
family, and a toy prompt-conditioned segmenter trained on synthetic
data to compare perturbation strategies end to end.
"""

from .geometry import BoundingBox, Coefficients, box_from_mask, coefficients_for
from .loss import LossReport, bce, combined_loss, dice_loss, loss_gradient
from .metrics import boundary, distance_transform, dsc, nsd
from .perturb import (OffsetQuad, PerturbationConfig, PerturbedBox,
                      compute_offsets, perturbation_stats,
                      sample_baseline_box, sample_perturbed_box)
from .rng import make_rng

__version__ = "0.1.0"

__all__ = [
    "BoundingBox", "Coefficients", "box_from_mask", "coefficients_for",
    "LossReport", "bce", "combined_loss", "dice_loss", "loss_gradient",
    "boundary", "distance_transform", "dsc", "nsd",
    "OffsetQuad", "PerturbationConfig", "PerturbedBox", "compute_offsets",
    "perturbation_stats", "sample_baseline_box", "sample_perturbed_box",
    "make_rng", "__version__",
]
