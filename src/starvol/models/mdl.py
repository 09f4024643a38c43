"""Description-length accounting for a network treated as a volume of models.

The parameter cost is the KL divergence from the Gaussian prior to a
uniform code over the estimated neighborhood, collapsed to a plug-in at
the anchor point: (n/2) log 2pi + sum log sigma + Mahalanobis/2 minus the
log Lebesgue volume. The data cost is the summed negative log-probability
of the labels under the anchor network. Both are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geometry import MeasureSpec
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


def description_length(
    log_volume: float,
    anchor: MlpParams,
    measure: MeasureSpec,
    dataset: Dataset,
) -> DescriptionLength:
    """Two-part code length: parameter cost against the prior plus data cost.

    ``log_volume`` is the log Lebesgue volume of the anchor's neighborhood
    (the parameter term divides prior density by it); the caller checks
    that it was estimated under the Lebesgue measure in the anchor's
    dimension. ``measure`` is the Gaussian prior whose stds scale the
    Mahalanobis penalty of the anchor.
    """
    if measure.kind != "gaussian":
        raise ValueError("description length requires a Gaussian prior measure")
    if dataset.labels is None:
        raise ValueError("description length requires a labeled dataset")
    sigma = measure.sigma
    n = anchor.n
    if sigma.size != n:
        raise ValueError("anchor and prior dimensions disagree")
    mahalanobis = float(np.sum((anchor.flat / sigma) ** 2))
    kl_term = (
        0.5 * n * math.log(2.0 * math.pi)
        + float(np.sum(np.log(sigma)))
        + 0.5 * mahalanobis
        - log_volume
    )
    lp = log_softmax(forward_logits(anchor, dataset.inputs))
    data_term = float(-np.sum(lp[np.arange(dataset.m), dataset.labels]))
    return DescriptionLength(kl_term=kl_term, data_term=data_term)
