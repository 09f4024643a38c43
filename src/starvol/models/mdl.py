"""Description-length accounting for a network treated as a volume of models.

The parameter cost is the network's information content −log V_G, where V_G
is the prior mass of its neighborhood (its Gaussian local volume); it is
exactly KL(q ‖ prior) for q the prior restricted to the neighborhood and
renormalized. The data cost is the summed negative log-probability of the
labels under the anchor. Both are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .mlp import MlpParams, forward_logits, log_softmax

__all__ = ["DescriptionLength", "description_length"]


@dataclass(frozen=True)
class DescriptionLength:
    kl_term: float
    data_term: float

    @property
    def total(self) -> float:
        return self.kl_term + self.data_term


def description_length(log_volume: float, anchor: MlpParams, dataset: Dataset) -> DescriptionLength:
    """Two-part code length: ``-log_volume`` plus the data cost, where ``log_volume``
    is the anchor neighborhood's log volume under its init prior (the caller checks)."""
    if dataset.labels is None:
        raise ValueError("description length requires a labeled dataset")
    lp = log_softmax(forward_logits(anchor, dataset.inputs))
    data_term = float(-np.sum(lp[np.arange(dataset.m), dataset.labels]))
    return DescriptionLength(kl_term=-log_volume, data_term=data_term)
