"""Unit-determinant positive-definite preconditioners for direction sampling.

A map is positive scales along orthonormal axes. Isotropic unit directions
are drawn in those axes, scaled, and renormalized, which oversamples the
directions the map stretches; the pre-normalization length enters the
estimator as an importance correction. Keeping the determinant at one
leaves the estimated measure unchanged, so any such map is purely a
variance-reduction device, and the determinant is exact from the scales alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np

from .blas import one_blas_thread

__all__ = [
    "DEFAULT_EPS",
    "Preconditioner",
    "PreconditionerError",
    "eigendecompose",
    "from_diagonal",
    "from_hessian",
]

# default damping per construction route, tuned per source of curvature info
DEFAULT_EPS = {
    "hessian": 0.1,
    "diag": 0.01,
    "adam-nu": 0.001,
}

SYMMETRY_ATOL = 1e-8

# row-block size of the asymmetry scan: 2**20 entries, 8 MB per block
_BLOCK_ENTRIES = 1 << 20
# rows per step when a triangle is mirrored in place
MIRROR_BLOCK = 512


class PreconditionerError(ValueError):
    """Raised when a preconditioner cannot be constructed or sampled."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _max_asymmetry(mat: np.ndarray) -> float:
    """max |mat - mat^T|; not finite if any entry of ``mat`` is not finite.

    The scan takes row blocks, each a fresh array taken over in place, so no
    n x n temporary is made. A NaN in any block makes the result NaN.
    """
    n = len(mat)
    step = max(1, _BLOCK_ENTRIES // n)
    peaks = []
    with np.errstate(invalid="ignore"):  # inf - inf is the NaN reported
        for start in range(0, n, step):
            block = mat[start : start + step] - mat[:, start : start + step].T
            peaks.append(np.max(np.abs(block, out=block)))
    return float(np.max(peaks))


def _mirror_upper(mat: np.ndarray) -> None:
    """Overwrite the lower triangle with the transpose of the upper, in place."""
    n = mat.shape[0]
    for start in range(0, n, MIRROR_BLOCK):
        stop = min(start + MIRROR_BLOCK, n)
        mat[start:stop, :start] = mat[:start, start:stop].T
        rows, cols = np.tril_indices(stop - start, -1)
        mat[start + rows, start + cols] = mat[start + cols, start + rows]


@one_blas_thread("scipy.linalg._flapack")
def eigendecompose(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and read-only orthonormal eigenvectors of a symmetric matrix.

    LAPACK's MRRR driver (dsyevr) needs O(n) workspace and destroys one
    triangle and the diagonal of its input. A writeable, C- or F-contiguous
    matrix that is exactly symmetric (zero asymmetry) is therefore lent to
    LAPACK as that input and restored before return, from its intact
    triangle and a saved diagonal, also when LAPACK fails. The peak is then
    the matrix and the eigenvectors, 2 n^2 floats, and nothing may read or
    write the matrix from another thread during the call. The restored
    matrix equals the input in value; where mirrored entries are zeros of
    opposite sign, the destroyed triangle's zero takes its mirror's sign.
    Any other input is decomposed from a private copy, 3 n^2 floats at peak.
    The eigenvectors are returned as LAPACK writes them, F-ordered.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] == 0:
        raise PreconditionerError("expected a non-empty square matrix")
    asym = _max_asymmetry(mat)
    if not math.isfinite(asym):
        raise PreconditionerError("matrix has a non-finite entry")
    if asym > SYMMETRY_ATOL:
        raise PreconditionerError(f"matrix not symmetric (max asymmetry {asym:.3e})")
    # imported here: scipy.linalg costs about 5 MB of memory, which the maps
    # that need no decomposition should not pay
    from scipy.linalg import eigh

    # LAPACK's F-ordered input: the matrix's own buffer, or a private copy;
    # for an exactly symmetric matrix both hold the same bytes
    borrow = asym == 0.0 and mat.flags.writeable and (mat.flags.c_contiguous or mat.flags.f_contiguous)
    if borrow:
        work = mat if mat.flags.f_contiguous else mat.T
        diag = work.diagonal().copy()
    else:
        work = np.array(mat, order="F")
    try:
        eigvals, eigvecs = eigh(work, driver="evr", overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise PreconditionerError(f"eigendecomposition failed: {exc}") from exc
    finally:
        if borrow:
            # LAPACK read and destroyed work's lower triangle and diagonal
            _mirror_upper(work)
            np.fill_diagonal(work, diag)
    eigvecs.setflags(write=False)
    return eigvals, eigvecs


@dataclass(frozen=True)
class Preconditioner:
    """Direction-sampling map: positive scales s along the orthonormal columns V
    of ``basis`` (the coordinate axes if None); a ``scale`` of None is the
    identity. Directions are drawn as coordinates z in those axes and mapped
    to V (s * z). A dense map is kept as its eigendecomposition and never
    recomposed, so log det = sum(log s).

    Instances are immutable. Use the classmethods (or :func:`from_hessian` /
    :func:`from_diagonal`) to construct; they validate their inputs.
    ``source`` is a short tag carried into run records so outputs say where
    the map came from.
    """

    dim: int
    scale: np.ndarray | None = None  # (dim,) positive
    basis: np.ndarray | None = None  # (dim, dim) orthonormal columns
    source: str = ""

    @property
    def kind(self) -> str:
        if self.scale is None:
            return "identity"
        return "diagonal" if self.basis is None else "dense"

    @classmethod
    def identity(cls, dim: int) -> "Preconditioner":
        if dim < 1:
            raise PreconditionerError(f"dimension must be >= 1, got {dim}")
        return cls(dim, source="identity")

    @classmethod
    def diagonal(cls, scale: np.ndarray, source: str = "diagonal", basis=None) -> "Preconditioner":
        """Scales along the axes or ``basis``'s orthonormal columns (not re-checked).

        A read-only basis is shared rather than copied.
        """
        arr = np.asarray(scale, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise PreconditionerError("diagonal scale must be a non-empty vector")
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0):
            raise PreconditionerError("diagonal entries must be positive and finite")
        if basis is not None:
            basis = np.asarray(basis, dtype=float)
            if basis.shape != (arr.size, arr.size):
                raise PreconditionerError(f"basis shape {basis.shape} does not match {arr.size} scales")
            if basis.flags.writeable:
                basis = _readonly(basis)
        return cls(arr.size, _readonly(arr), basis, source)

    # -- determinant handling -------------------------------------------------

    def log_det(self) -> float:
        return 0.0 if self.scale is None else float(np.sum(np.log(self.scale)))

    def normalize_unit_det(self) -> "Preconditioner":
        """Return a copy rescaled so that the determinant is exactly one.

        The determinant is accumulated as a sum of logs, so spectra spanning
        hundreds of orders of magnitude normalize without overflow.
        """
        if self.scale is None:
            return self
        shift = math.exp(-self.log_det() / self.dim)
        return replace(self, scale=_readonly(self.scale * shift))

    def describe(self) -> str:
        tag = self.source or self.kind
        return f"{tag}[{self.kind},n={self.dim}]"


def from_hessian(hessian: np.ndarray, eps: float, source: str = "hessian") -> "Preconditioner":
    """Build a unit-determinant dense preconditioner from a curvature matrix.

    The eigenvalues are shaped by :func:`from_diagonal` (exponent 1/2) along
    the eigenvectors, so the map is proportional to (sqrt|H| + eps)^-1 and,
    with eps = 0 on a positive-definite quadratic, is the exact
    inverse-square-root shaping. One symmetry check and one
    eigendecomposition; the map keeps the eigenvectors as its basis.
    """
    eigvals, eigvecs = eigendecompose(hessian)
    return from_diagonal(eigvals, eps, 0.5, source=source, basis=eigvecs)


def from_diagonal(
    diag: np.ndarray,
    eps: float,
    exponent: float = 0.5,
    source: str = "diag",
    basis: np.ndarray | None = None,
) -> "Preconditioner":
    """Build a unit-determinant preconditioner from a curvature spectrum.

    ``diag`` is the curvature along the coordinate axes, or along the
    orthonormal columns of ``basis`` (an eigendecomposition). Entries d are
    mapped to 1 / (|d|^exponent + eps), so stiff directions shrink and flat
    ones stretch. Negative entries are handled by the absolute value;
    eps = 0 is permitted when every entry is nonzero. O(n) given the basis.
    """
    arr = np.asarray(diag, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise PreconditionerError("diagonal curvature must be a non-empty vector")
    if not np.all(np.isfinite(arr)):
        raise PreconditionerError("curvature has a non-finite entry")
    if not 0 <= eps < math.inf:
        raise PreconditionerError(f"eps must be finite and >= 0, got {eps}")
    if not math.isfinite(exponent):
        raise PreconditionerError(f"exponent must be finite, got {exponent}")
    with np.errstate(over="ignore", divide="ignore"):
        denom = np.abs(arr) ** exponent + eps
    bad = np.flatnonzero(~((denom > 0) & (denom < math.inf)))
    if bad.size:
        i = int(bad[0])
        d, value = float(arr[i]), float(denom[i])
        if value == 0:
            raise PreconditionerError(f"zero curvature entry encountered with eps = 0: entry {i} (d = {d!r})")
        raise PreconditionerError(f"non-finite denominator |d|^{float(exponent)!r} + eps = {value!r} "
                                  f"at entry {i} (d = {d!r}, eps = {float(eps)!r})")
    raw = Preconditioner.diagonal(1.0 / denom, source=source, basis=basis)
    return raw.normalize_unit_det()
