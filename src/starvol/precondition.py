"""Unit-determinant positive-definite preconditioners for direction sampling.

Isotropic unit directions are mapped through a positive-definite linear map
before renormalization, which oversamples the directions the map stretches;
the pre-normalization length enters the estimator as an importance
correction. Keeping the determinant at one leaves the estimated measure
unchanged, so any such map is purely a variance-reduction device.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

__all__ = [
    "DEFAULT_EPS",
    "Preconditioner",
    "PreconditionerError",
    "from_diagonal",
    "from_hessian",
]

# default damping per construction route, tuned per source of curvature info
DEFAULT_EPS = {
    "none": 0.0,
    "hessian": 0.1,
    "diag": 0.01,
    "adam-nu": 0.001,
    "adam-mu": 0.001,
}

FORMAT_NAME = "starvol-preconditioner"
FORMAT_VERSION = 1

SYMMETRY_ATOL = 1e-8


class PreconditionerError(ValueError):
    """Raised when a preconditioner cannot be constructed or applied."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _max_asymmetry(mat: np.ndarray) -> float:
    diff = mat - mat.T
    return float(np.max(np.abs(diff, out=diff)))


def _cholesky_log_det(mat: np.ndarray) -> float | None:
    """Log determinant from a Cholesky factorization; None if not positive definite."""
    try:
        chol = np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None
    log_det = 2.0 * float(np.sum(np.log(np.diagonal(chol))))
    return log_det if math.isfinite(log_det) else None


def _frozen_dense(mat: np.ndarray, source: str) -> "Preconditioner":
    """Wrap a symmetric matrix that no caller will write again.

    Checks positive definiteness with one Cholesky factorization, then makes
    ``mat`` read-only in place rather than copying it.
    """
    if _cholesky_log_det(mat) is None:
        raise PreconditionerError("matrix not positive definite (Cholesky factorization failed)")
    mat.setflags(write=False)
    return Preconditioner("dense", mat.shape[0], matrix=mat, source=source)


@dataclass(frozen=True)
class Preconditioner:
    """Linear direction-sampling map: identity, positive diagonal, or dense SPD.

    Instances are immutable and safe to share across parallel samplers. Use
    the classmethods (or :func:`from_hessian` / :func:`from_diagonal`) to
    construct; they validate their inputs. ``source`` is a short tag carried
    into run records so outputs say where the map came from.
    """

    kind: str  # "identity" | "diagonal" | "dense"
    dim: int
    scale: np.ndarray | None = None  # (dim,) positive, kind == "diagonal"
    matrix: np.ndarray | None = None  # (dim, dim) SPD, kind == "dense"
    source: str = ""

    @classmethod
    def identity(cls, dim: int) -> "Preconditioner":
        if dim < 1:
            raise PreconditionerError(f"dimension must be >= 1, got {dim}")
        return cls("identity", dim, source="identity")

    @classmethod
    def diagonal(cls, scale: np.ndarray, source: str = "diagonal") -> "Preconditioner":
        arr = np.asarray(scale, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise PreconditionerError("diagonal scale must be a non-empty vector")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise PreconditionerError("diagonal entries must be positive and finite")
        return cls("diagonal", arr.size, scale=_readonly(arr), source=source)

    @classmethod
    def dense(cls, matrix: np.ndarray, source: str = "dense") -> "Preconditioner":
        mat = np.asarray(matrix, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
            raise PreconditionerError("dense preconditioner must be a square matrix")
        asym = _max_asymmetry(mat)
        if asym > SYMMETRY_ATOL:
            raise PreconditionerError(f"matrix not symmetric (max asymmetry {asym:.3e})")
        return _frozen_dense(_readonly(mat), source)

    # -- determinant handling -------------------------------------------------

    def log_det(self) -> float:
        if self.kind == "identity":
            return 0.0
        if self.kind == "diagonal":
            return float(np.sum(np.log(self.scale)))
        log_det = _cholesky_log_det(self.matrix)
        if log_det is None:
            raise PreconditionerError("dense preconditioner lost positive definiteness")
        return log_det

    def normalize_unit_det(self) -> "Preconditioner":
        """Return a copy rescaled so that the determinant is exactly one.

        The determinant is accumulated as a sum of logs, so spectra spanning
        hundreds of orders of magnitude normalize without overflow.
        """
        if self.kind == "identity":
            return self
        shift = math.exp(-self.log_det() / self.dim)
        if self.kind == "diagonal":
            return replace(self, scale=_readonly(self.scale * shift))
        return replace(self, matrix=_readonly(self.matrix * shift))

    # -- application ----------------------------------------------------------

    def apply(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Map a direction of shape (dim,), or each row of a (k, dim) block.

        ``out``, if given, receives the result and may be ``u`` itself. For
        the identity and diagonal kinds that maps a block in place without a
        second block's worth of memory; the dense product cannot overwrite
        its own input, so numpy still buffers a copy of ``u`` there.
        """
        if u.ndim not in (1, 2) or u.shape[-1] != self.dim:
            raise PreconditionerError(
                f"expected shape ({self.dim},) or (k, {self.dim}), got {u.shape}"
            )
        if self.kind == "identity":
            if out is None:
                return u
            np.copyto(out, u)
            return out
        if self.kind == "diagonal":
            return np.multiply(self.scale, u, out=out)
        return np.matmul(u, self.matrix.T, out=out)

    def describe(self) -> str:
        tag = self.source or self.kind
        return f"{tag}[{self.kind},n={self.dim}]"

    # -- serialization --------------------------------------------------------

    def to_json_dict(self) -> dict:
        payload = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "kind": self.kind,
            "dim": self.dim,
            "source": self.source,
            "scale": None if self.scale is None else [float(x) for x in self.scale],
            "matrix": None
            if self.matrix is None
            else [[float(x) for x in row] for row in self.matrix],
        }
        return payload

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "Preconditioner":
        data = json.loads(Path(path).read_text())
        if data.get("format") != FORMAT_NAME:
            raise PreconditionerError(f"not a preconditioner file: {path}")
        if data.get("version") != FORMAT_VERSION:
            raise PreconditionerError(f"unsupported preconditioner version {data.get('version')}")
        kind = data["kind"]
        source = data.get("source", "")
        if kind == "identity":
            return cls.identity(int(data["dim"]))
        if kind == "diagonal":
            return cls.diagonal(np.asarray(data["scale"], dtype=float), source=source)
        if kind == "dense":
            return cls.dense(np.asarray(data["matrix"], dtype=float), source=source)
        raise PreconditionerError(f"unknown preconditioner kind {kind!r}")


def from_hessian(hessian: np.ndarray, eps: float, source: str = "hessian") -> "Preconditioner":
    """Build a unit-determinant dense preconditioner from a curvature matrix.

    Eigenvalues d are mapped to s proportional to 1 / (sqrt(|d|) + eps), so
    stiff directions shrink and flat ones stretch; negative curvature is
    folded in by the absolute value. With eps = 0 on a positive-definite
    quadratic this is the exact inverse-square-root shaping, so eps = 0 is
    allowed as long as no eigenvalue is zero. The unit determinant is set on
    the spectrum in log space, by subtracting the mean of log s, so one
    eigendecomposition suffices. The recomposed matrix is exactly symmetric
    by construction, so only the input's symmetry is checked; the result is
    validated with one Cholesky factorization and frozen without a copy.
    """
    mat = np.asarray(hessian, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise PreconditionerError("hessian must be a square matrix")
    if eps < 0:
        raise PreconditionerError(f"eps must be >= 0, got {eps}")
    asym = _max_asymmetry(mat)
    if asym > SYMMETRY_ATOL:
        raise PreconditionerError(f"hessian not symmetric (max asymmetry {asym:.3e})")
    try:
        eigvals, eigvecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise PreconditionerError(f"eigendecomposition failed: {exc}") from exc
    denom = np.sqrt(np.abs(eigvals)) + eps
    if np.any(denom <= 0) or not np.all(np.isfinite(denom)):
        raise PreconditionerError("zero curvature encountered with eps = 0")
    log_shaped = -np.log(denom)
    shaped = np.exp(log_shaped - np.mean(log_shaped))
    # V s V^T as (V sqrt(s)) (V sqrt(s))^T, a symmetric product
    eigvecs *= np.sqrt(shaped)
    mapped = eigvecs @ eigvecs.T
    del eigvecs  # free it before the validation allocates its own n x n arrays
    return _frozen_dense(mapped, source)


def from_diagonal(
    diag: np.ndarray, eps: float, exponent: float = 0.5, source: str = "diag"
) -> "Preconditioner":
    """Build a unit-determinant diagonal preconditioner from per-coordinate curvature.

    Entries d are mapped to 1 / (|d|^exponent + eps). Negative entries are
    handled by the absolute value; eps = 0 is permitted when every entry is
    nonzero.
    """
    arr = np.asarray(diag, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise PreconditionerError("diagonal curvature must be a non-empty vector")
    if eps < 0:
        raise PreconditionerError(f"eps must be >= 0, got {eps}")
    denom = np.abs(arr) ** exponent + eps
    if np.any(denom <= 0) or not np.all(np.isfinite(denom)):
        raise PreconditionerError("zero curvature entry encountered with eps = 0")
    raw = Preconditioner.diagonal(1.0 / denom, source=source)
    return raw.normalize_unit_det()
