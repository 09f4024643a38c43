"""Synthetic classification datasets and CSV ingestion."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from ..precondition import _readonly

__all__ = ["Dataset", "load_csv", "make_blobs", "make_spirals", "split_dataset"]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, one non-negative integer label per row, and the class count.

    The class count is given, not inferred, so a subset that lacks a class
    keeps it.
    """

    inputs: np.ndarray  # (m, d)
    labels: np.ndarray  # (m,)
    classes: int

    def __post_init__(self):
        inputs = _readonly(self.inputs)
        if inputs.ndim != 2 or inputs.shape[0] == 0:
            raise ValueError("inputs must be a non-empty (m, d) matrix")
        object.__setattr__(self, "inputs", inputs)
        given = np.asarray(self.labels)
        with np.errstate(invalid="ignore"):  # NaN and inf cast to garbage, refused below
            labels = given.astype(int)
        if labels.shape != (inputs.shape[0],) or not np.array_equal(labels, given):
            raise ValueError("labels must be one integer per row, with no fraction, NaN or inf")
        if labels.min() < 0 or labels.max() >= self.classes:
            raise ValueError(f"labels must lie in [0, {self.classes}), the declared class count's range")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def m(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[idx], self.labels[idx], self.classes)


def make_blobs(
    dim: int,
    classes: int,
    per_class: int,
    noise: float = 1.0,
    center_scale: float = 2.0,
    seed: int = 0,
) -> Dataset:
    """Gaussian clusters: one isotropic blob per class around a random center."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0.0, center_scale, size=(classes, dim))
    labels = np.repeat(np.arange(classes), per_class)
    points = centers[labels] + rng.normal(0.0, noise, size=(labels.size, dim))
    perm = rng.permutation(labels.size)
    return Dataset(points[perm], labels[perm], classes=classes)


def make_spirals(
    per_class: int,
    noise: float = 0.15,
    dim: int = 2,
    seed: int = 0,
) -> Dataset:
    """Two interleaved planar spirals of 1.5 turns, optionally embedded in extra noise dims."""
    if dim < 2:
        raise ValueError("spirals need at least 2 dimensions")
    rng = np.random.default_rng(seed)
    t = np.sqrt(rng.uniform(0.05, 1.0, size=per_class)) * 1.5 * 2.0 * np.pi
    rows = []
    labels = []
    for cls, phase in enumerate((0.0, np.pi)):
        radius = t / (1.5 * 2.0 * np.pi)
        x = radius * np.cos(t + phase) + rng.normal(0.0, noise, per_class)
        y = radius * np.sin(t + phase) + rng.normal(0.0, noise, per_class)
        plane = np.stack([x, y], axis=1)
        if dim > 2:
            extra = rng.normal(0.0, noise, size=(per_class, dim - 2))
            plane = np.concatenate([plane, extra], axis=1)
        rows.append(plane)
        labels.append(np.full(per_class, cls))
    points = np.concatenate(rows)
    y = np.concatenate(labels)
    perm = rng.permutation(y.size)
    return Dataset(points[perm], y[perm], classes=2)


def load_csv(path: str | Path) -> Dataset:
    """Load a comma-separated table whose last column is an integer label.

    Its class count is the whole table's largest label plus one, which a split keeps.
    """
    table = np.loadtxt(path, delimiter=",", ndmin=2)
    if table.shape[1] < 2:
        raise ValueError("csv needs at least one feature column plus a label column")
    labels = table[:, -1]
    if not np.allclose(labels, np.round(labels)):
        raise ValueError("last csv column must hold integer labels")
    labels = np.rint(labels).astype(int)  # astype alone truncates 1.9999999 to 1
    return Dataset(table[:, :-1], labels, classes=int(labels.max()) + 1)


def split_dataset(dataset: Dataset, sizes: Sequence[int], seed: int = 0) -> list[Dataset]:
    """Disjoint random splits of the given sizes, in order."""
    total = int(np.sum(sizes))
    if total > dataset.m:
        raise ValueError(f"requested {total} rows but dataset has {dataset.m}")
    perm = np.random.default_rng(seed).permutation(dataset.m)
    out = []
    start = 0
    for size in sizes:
        out.append(dataset.subset(perm[start : start + size]))
        start += size
    return out
