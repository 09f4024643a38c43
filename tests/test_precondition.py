"""Tests for unit-determinant preconditioner construction, and for the array codec."""

import ctypes
import json
import os
import re
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from starvol import blas, precondition
from starvol.codec import decode_array, write_json
from starvol.geometry import sample_directions
from starvol.models import hessian_full, init_params, make_blobs, make_loss_cost
from starvol.precondition import (
    DEFAULT_EPS,
    Preconditioner,
    PreconditionerError,
    eigendecompose,
    from_diagonal,
    from_hessian,
)


def _matrix(p):
    """The dense map's matrix V diag(s) V^T, recomposed for comparison only."""
    return (p.basis * p.scale) @ p.basis.T


def _dense(mat):
    """A dense map of a symmetric matrix, kept as its eigendecomposition."""
    eigvals, eigvecs = eigendecompose(mat)
    return Preconditioner.diagonal(eigvals, "dense", eigvecs)


def _forbid(monkeypatch, *names):
    """Make the named np.linalg routines raise if called."""
    for name in names:
        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"{_name} called")

        monkeypatch.setattr(np.linalg, name, forbidden)


class TestNormalization:
    def test_diagonal_unit_det(self):
        p = Preconditioner.diagonal(np.array([4.0, 1.0])).normalize_unit_det()
        np.testing.assert_allclose(p.scale, [2.0, 0.5], rtol=1e-15)
        assert p.log_det() == pytest.approx(0.0, abs=1e-15)

    def test_identity_is_fixed_point(self):
        p = Preconditioner.identity(7)
        assert p.normalize_unit_det() is p
        assert p.log_det() == 0.0

    def test_wide_spectrum_normalizes_in_log_space(self):
        # entries span ~200 orders of magnitude; a linear-space determinant
        # would overflow long before the rescale
        rng = np.random.default_rng(11)
        scale = np.exp(rng.uniform(-250.0, 250.0, size=64))
        p = Preconditioner.diagonal(scale).normalize_unit_det()
        assert p.log_det() == pytest.approx(0.0, abs=1e-8)

    def test_dense_unit_det(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6))
        mat = a @ a.T + 0.5 * np.eye(6)
        p = _dense(mat).normalize_unit_det()
        sign, logdet = np.linalg.slogdet(_matrix(p))
        assert sign == 1.0
        assert logdet == pytest.approx(0.0, abs=1e-10)


class TestFromHessian:
    def test_diagonal_hessian_inverse_sqrt(self):
        p = from_hessian(np.diag([4.0, 1.0]), eps=0.0)
        expected = np.diag([np.sqrt(0.5), np.sqrt(2.0)])
        np.testing.assert_allclose(_matrix(p), expected, atol=1e-12)

    def test_eigenvalue_shaping_matches_oracle(self):
        # result spectrum must be the normalized 1/(sqrt(|d|)+eps) image of
        # the input spectrum, computed here independently in log space
        rng = np.random.default_rng(23)
        a = rng.normal(size=(8, 8))
        mat = a @ a.T + 0.1 * np.eye(8)
        eps = 0.3
        p = from_hessian(mat, eps=eps)
        raw = 1.0 / (np.sqrt(np.linalg.eigvalsh(mat)) + eps)
        want = np.sort(raw * np.exp(-np.mean(np.log(raw))))
        np.testing.assert_allclose(np.sort(p.scale), want, rtol=1e-10)
        # the basis diagonalizes the input, column by column with the scales
        rotated = p.basis.T @ mat @ p.basis
        np.testing.assert_allclose(rotated, np.diag(np.diag(rotated)), atol=1e-10)
        shaped = 1.0 / (np.sqrt(np.diag(rotated)) + eps)
        np.testing.assert_allclose(p.scale, shaped * np.exp(-np.mean(np.log(shaped))), rtol=1e-10)

    def test_negative_curvature_folded_by_abs(self):
        p = from_hessian(np.diag([-4.0, 1.0]), eps=0.0)
        q = from_hessian(np.diag([4.0, 1.0]), eps=0.0)
        np.testing.assert_allclose(_matrix(p), _matrix(q), atol=1e-12)

    def test_zero_curvature_without_damping_is_error(self):
        with pytest.raises(PreconditionerError, match="zero curvature"):
            from_hessian(np.diag([0.0, 1.0]), eps=0.0)

    def test_negative_eps_rejected(self):
        with pytest.raises(PreconditionerError, match="eps"):
            from_hessian(np.eye(2), eps=-0.1)

    def test_asymmetric_rejected(self):
        with pytest.raises(PreconditionerError, match="symmetric"):
            from_hessian(np.array([[1.0, 0.5], [0.0, 1.0]]), eps=0.1)


    def test_single_eigendecomposition(self, monkeypatch):
        # the unit determinant is set on the spectrum, so no second
        # eigenvalue pass may run
        _forbid(monkeypatch, "eigvalsh")
        rng = np.random.default_rng(29)
        a = rng.normal(size=(6, 6))
        p = from_hessian(a @ a.T + 0.1 * np.eye(6), eps=0.1)
        assert p.log_det() == pytest.approx(0.0, abs=1e-12)

    def test_one_symmetry_check_and_no_copy(self, monkeypatch):
        # only the input is scanned for asymmetry, and the eigenvectors become
        # the map's basis in place: only the O(n) scale vectors are copied
        calls = []
        real_asym, real_readonly = precondition._max_asymmetry, precondition._readonly

        def counting(mat):
            calls.append(mat.shape)
            return real_asym(mat)

        def vectors_only(arr):
            assert np.ndim(arr) == 1, "a square matrix was copied"
            return real_readonly(arr)

        monkeypatch.setattr(precondition, "_max_asymmetry", counting)
        monkeypatch.setattr(precondition, "_readonly", vectors_only)
        rng = np.random.default_rng(12)
        a = rng.normal(size=(40, 40))
        p = from_hessian(a @ a.T + 0.1 * np.eye(40), eps=0.1)
        assert calls == [(40, 40)]
        assert not p.basis.flags.writeable
        np.testing.assert_allclose(p.basis.T @ p.basis, np.eye(40), atol=1e-12)

    def test_wide_spectrum_has_unit_determinant(self, monkeypatch):
        # 24 decades of curvature; the spectrum is shuffled so eigh must sort
        # it. The determinant comes from the scales alone: no factorization
        # and no second eigenvalue pass
        _forbid(monkeypatch, "cholesky", "eigvalsh")
        spectrum = np.random.default_rng(31).permutation(np.logspace(-12.0, 12.0, 64))
        p = from_hessian(np.diag(spectrum), eps=0.0)
        assert p.log_det() == pytest.approx(0.0, abs=1e-12)
        raw = 1.0 / np.sqrt(np.sort(spectrum))
        np.testing.assert_allclose(p.scale, raw * np.exp(-np.mean(np.log(raw))), rtol=1e-12)


class TestFromDiagonal:
    def test_inverse_power_shaping(self):
        p = from_diagonal(np.array([16.0, 1.0]), eps=0.0, exponent=0.5)
        np.testing.assert_allclose(p.scale, [0.5, 2.0], rtol=1e-14)

    def test_exponent_one(self):
        p = from_diagonal(np.array([4.0, 1.0]), eps=0.0, exponent=1.0)
        np.testing.assert_allclose(p.scale, [0.5, 2.0], rtol=1e-14)

    def test_damping_shrinks_contrast(self):
        sharp = from_diagonal(np.array([100.0, 1.0]), eps=0.0)
        damped = from_diagonal(np.array([100.0, 1.0]), eps=5.0)
        contrast = lambda p: p.scale.max() / p.scale.min()
        assert contrast(damped) < contrast(sharp)

    def test_zero_entry_without_damping_is_error(self):
        with pytest.raises(PreconditionerError, match="zero curvature"):
            from_diagonal(np.array([0.0, 1.0]), eps=0.0)

    @pytest.mark.parametrize("diag, exponent", [([1e300, 1.0], 2.0), ([0.0, 1.0], -0.5)])
    def test_non_finite_denominator_is_named(self, diag, exponent):
        # |d|^exponent overflows, or divides by zero, at a positive eps; each
        # once raised the zero-curvature message and leaked a RuntimeWarning
        message = "^" + re.escape(f"non-finite denominator |d|^{exponent} + eps = inf "
                                  f"at entry 0 (d = {diag[0]!r}, eps = 0.1)") + "$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PreconditionerError, match=message):
                from_diagonal(np.array(diag), eps=0.1, exponent=exponent)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -np.inf, -0.5])
    def test_eps_not_finite_and_nonnegative_is_named(self, eps):
        # a NaN or infinite eps once raised the zero-curvature message
        with pytest.raises(PreconditionerError, match=f"^eps must be finite and >= 0, got {eps}$"):
            from_diagonal(np.array([4.0, 1.0]), eps=eps)

    @pytest.mark.parametrize("exponent", [np.nan, np.inf, -np.inf])
    def test_exponent_not_finite_is_named(self, exponent):
        with pytest.raises(PreconditionerError, match=f"^exponent must be finite, got {exponent}$"):
            from_diagonal(np.array([4.0, 1.0]), eps=0.1, exponent=exponent)

    @pytest.mark.parametrize("diag", [np.ones(0), np.ones((2, 2))], ids=["empty", "matrix"])
    def test_curvature_must_be_a_non_empty_vector(self, diag):
        with pytest.raises(PreconditionerError, match="^diagonal curvature must be a non-empty vector$"):
            from_diagonal(diag, eps=0.1)

    def test_default_eps_table(self):
        assert DEFAULT_EPS == {
            "hessian": 0.1,
            "diag": 0.01,
            "adam-nu": 0.001,
        }


class TestDescribeAndValidation:
    def test_describe_tags(self):
        assert Preconditioner.identity(5).describe() == "identity[identity,n=5]"
        p = from_diagonal(np.array([4.0, 1.0]), eps=0.01)
        assert p.describe() == "diag[diagonal,n=2]"
        h = from_hessian(np.eye(3), eps=0.1, source="adam-nu")
        assert h.describe() == "adam-nu[dense,n=3]"

    def test_diagonal_rejects_nonpositive(self):
        with pytest.raises(PreconditionerError, match="positive"):
            Preconditioner.diagonal(np.array([1.0, 0.0]))
        with pytest.raises(PreconditionerError, match="positive"):
            Preconditioner.diagonal(np.array([1.0, -2.0]))

    def test_dense_rejects_indefinite(self):
        # an indefinite spectrum has a negative scale, refused with its basis
        with pytest.raises(PreconditionerError, match="positive"):
            _dense(np.diag([1.0, -1.0]))

    def test_dense_log_det_without_eigvalsh(self, monkeypatch):
        # one eigendecomposition on construction; log_det is the sum of the
        # log scales, with no factorization and no eigenvalue pass
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 5))
        mat = a @ a.T + 0.5 * np.eye(5)
        want = np.linalg.slogdet(mat)[1]
        _forbid(monkeypatch, "cholesky", "eigvalsh")
        p = _dense(mat)
        assert p.log_det() == pytest.approx(want, rel=1e-12)
        q = p.normalize_unit_det()
        assert q.log_det() == pytest.approx(0.0, abs=1e-12)
        assert q.basis is p.basis

    def test_dense_map_holds_one_square_array(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 6))
        p = from_hessian(a @ a.T + np.eye(6), eps=0.1)
        arrays = [v for v in vars(p).values() if isinstance(v, np.ndarray)]
        assert sorted(arr.shape for arr in arrays) == [(6,), (6, 6)]
        assert p.kind == "dense"

    def test_identity_rejects_bad_dim(self):
        with pytest.raises(PreconditionerError, match="dimension"):
            Preconditioner.identity(0)

    def test_scale_is_readonly(self):
        p = Preconditioner.diagonal(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            p.scale[0] = 99.0

    @pytest.mark.parametrize("scale", [np.ones(0), np.ones((2, 2)), np.float64(2.0)],
                             ids=["empty", "matrix", "scalar"])
    def test_diagonal_scale_must_be_a_non_empty_vector(self, scale):
        with pytest.raises(PreconditionerError, match="^diagonal scale must be a non-empty vector$"):
            Preconditioner.diagonal(scale)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_diagonal_rejects_non_finite(self, value):
        with pytest.raises(PreconditionerError, match="^diagonal entries must be positive and finite$"):
            Preconditioner.diagonal(np.array([1.0, value]))

    @pytest.mark.parametrize("shape", [(2, 3), (3, 4), (3,)], ids=["fewer-rows", "more-columns", "vector"])
    def test_diagonal_refuses_a_basis_of_another_shape(self, shape):
        with pytest.raises(PreconditionerError, match=re.escape(f"basis shape {shape} does not match 3 scales")):
            Preconditioner.diagonal(np.array([1.0, 2.0, 0.5]), basis=np.ones(shape))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_caller_basis_is_kept_bit_for_bit_in_its_layout(self, order):
        # a writeable basis is copied read-only; the caller's array stays writeable
        q, _ = np.linalg.qr(np.random.default_rng(10).normal(size=(5, 5)))
        q = np.array(q, order=order)
        p = Preconditioner.diagonal(np.arange(1.0, 6.0), basis=q)
        np.testing.assert_array_equal(_bits(p.basis), _bits(q))
        assert p.basis.flags[f"{order}_CONTIGUOUS"] and not p.basis.flags.writeable
        assert p.basis is not q and q.flags.writeable

    def test_read_only_basis_is_shared(self):
        _, vecs = eigendecompose(np.diag([3.0, 1.0, 2.0]))
        assert Preconditioner.diagonal(np.ones(3), basis=vecs).basis is vecs


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=float).view(np.uint64)


def _kernel(n):
    """exp(-|x_i - x_j|) on a grid: exactly symmetric and positive definite."""
    x = np.linspace(0.0, 3.0, n)
    mat = np.empty((n, n))  # built in place without temporaries
    np.subtract.outer(x, x, out=mat)
    np.abs(mat, out=mat)
    np.negative(mat, out=mat)
    return np.exp(mat, out=mat)


def _scipy_setter():
    """``openblas_set_num_threads_local`` of scipy's OpenBLAS, or None where it lacks one."""
    from scipy.linalg import _flapack

    try:
        setter = ctypes.CDLL(_flapack.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None
    setter.restype, setter.argtypes = ctypes.c_int, [ctypes.c_int]
    return setter


def _copy_route(mat):
    """The decomposition of a private F-ordered copy, eigenvectors as LAPACK returns them,
    on the calling thread alone where scipy's BLAS allows it."""
    from scipy.linalg import eigh

    setter = _scipy_setter()
    previous = None if setter is None else setter(1)
    try:
        return eigh(np.array(mat, order="F"), driver="evr", check_finite=False)
    finally:
        if setter is not None:
            setter(previous)


def _flags(arr):
    return {name: arr.flags[name] for name in ("C_CONTIGUOUS", "F_CONTIGUOUS", "WRITEABLE", "OWNDATA")}


def _tiny_kl():
    """A tiny MLP's KL Gauss-Newton matrix.

    Six inputs and three classes give rank at most 12 in n = 31, so the
    spectrum has a cluster of 19 zero eigenvalues.
    """
    anchor, _ = init_params(((3, 4), (4, 3)), rng=np.random.default_rng(61))
    inputs = np.random.default_rng(62).normal(size=(6, 3))
    return hessian_full("kl", anchor, (anchor, inputs))


class TestNonFiniteCurvature:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cells", [[(1, 2)], [(2, 1)], [(1, 2), (2, 1)], [(3, 3)]],
                             ids=["upper", "lower", "both", "diagonal"])
    def test_matrix_rejected(self, value, cells):
        # LAPACK reads one triangle only, so a NaN in the other once gave a
        # silently wrong spectrum
        mat = np.eye(4)
        for cell in cells:
            mat[cell] = value
        for build in (eigendecompose, lambda m: from_hessian(m, eps=0.1)):
            with pytest.raises(PreconditionerError, match="non-finite"):
                build(mat)

    def test_found_in_any_row_block(self, monkeypatch):
        monkeypatch.setattr(precondition, "_BLOCK_ENTRIES", 12)  # one row per block
        mat = np.eye(12)
        mat[11, 0] = mat[0, 11] = np.nan
        with pytest.raises(PreconditionerError, match="non-finite"):
            eigendecompose(mat)
        mat[11, 0] = mat[0, 11] = 0.0
        mat[10, 11] = 1e-6
        with pytest.raises(PreconditionerError, match="not symmetric"):
            eigendecompose(mat)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_diagonal_vector_rejected(self, value):
        for eps in (0.0, 0.1):
            with pytest.raises(PreconditionerError, match="non-finite"):
                from_diagonal(np.array([1.0, value, 2.0]), eps=eps)


class TestEigendecompose:
    @staticmethod
    def _check_against_numpy(mat):
        got_vals, got_vecs = eigendecompose(mat)
        want_vals = np.linalg.eigh(mat)[0]
        top = np.max(np.abs(want_vals))
        assert np.max(np.abs(got_vals - want_vals)) <= 1e-13 * top
        residual = mat @ got_vecs - got_vecs * got_vals
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(mat))
        gram = got_vecs.T @ got_vecs
        # MRRR's eigenvectors measured max |V^T V - I| = 4.0e-12 at n = 4,810
        assert np.max(np.abs(gram - np.eye(len(mat)))) <= 1e-10
        assert got_vecs.flags.f_contiguous and not got_vecs.flags.writeable

    @pytest.mark.parametrize("mat", [np.ones((0, 0)), np.ones((2, 3)), np.ones(3)],
                             ids=["empty", "rectangle", "vector"])
    def test_refuses_what_is_not_a_non_empty_square_matrix(self, mat):
        with pytest.raises(PreconditionerError, match="^expected a non-empty square matrix$"):
            eigendecompose(mat)

    def test_rank_deficient_gauss_newton(self):
        hess = _tiny_kl()
        assert np.sum(np.linalg.eigvalsh(hess) < 1e-12) >= 19
        self._check_against_numpy(hess)

    def test_eigenvalue_repeated_100_times(self):
        rng = np.random.default_rng(63)
        q, _ = np.linalg.qr(rng.normal(size=(130, 130)))
        spectrum = np.concatenate([np.full(100, 2.5), np.linspace(0.1, 40.0, 30)])
        mat = (q * spectrum) @ q.T
        mat = 0.5 * (mat + mat.T)
        self._check_against_numpy(mat)

    @pytest.mark.parametrize("case", ["gauss-newton", "kernel", "read-only", "near-symmetric"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_input_restored_and_outputs_bit_identical(self, case, order):
        # an exactly symmetric, writeable matrix is lent to LAPACK and
        # restored; any other is decomposed from a copy. Either way the caller
        # sees its matrix and flags unchanged, and the outputs of the copy route
        if case == "kernel":
            mat = _kernel(1500)  # spans three row blocks of the mirror
        else:
            mat = _tiny_kl()
            if case == "near-symmetric":
                mat[3, 7] += 1e-12
        mat = np.array(mat, order=order)
        if case == "read-only":
            mat.setflags(write=False)
        before, flags = mat.copy(order="K"), _flags(mat)
        vals, vecs = _copy_route(mat)
        want = {"eigendecompose": vals, "from_hessian": from_diagonal(vals, 0.1, basis=vecs).scale}
        builds = {"eigendecompose": eigendecompose, "from_hessian": lambda m: from_hessian(m, eps=0.1)}
        for name, build in builds.items():
            out = build(mat)
            scale, basis = out if isinstance(out, tuple) else (out.scale, out.basis)
            np.testing.assert_array_equal(_bits(scale), _bits(want[name]), err_msg=name)
            np.testing.assert_array_equal(_bits(basis), _bits(vecs), err_msg=name)
            assert basis.flags.f_contiguous and not basis.flags.writeable, name
            np.testing.assert_array_equal(mat.view(np.uint64), before.view(np.uint64), err_msg=name)
            assert _flags(mat) == flags, name

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_restored_when_lapack_fails(self, monkeypatch, order):
        # the stand-in destroys what dsyevr may destroy, the F-ordered
        # input's lower triangle and diagonal, then fails
        import scipy.linalg

        def scribble(a, **kwargs):
            assert kwargs["overwrite_a"] and a.flags.f_contiguous
            a[np.tril_indices(len(a))] = np.nan
            raise np.linalg.LinAlgError("stand-in failure")

        monkeypatch.setattr(scipy.linalg, "eigh", scribble)
        mat = np.array(_kernel(700), order=order)
        before = mat.copy(order="K")
        with pytest.raises(PreconditionerError, match="stand-in failure"):
            eigendecompose(mat)
        np.testing.assert_array_equal(mat.view(np.uint64), before.view(np.uint64))

    def test_opposite_signed_zeros_restored_in_value(self):
        # the asymmetry scan reads -0.0 against +0.0 as symmetric, so the
        # matrix is lent; its destroyed triangle (the upper one of a C-ordered
        # matrix) comes back with the sign of its mirror, equal in value
        mat = np.diag([1.0, 2.0, 3.0])
        mat[0, 1] = mat[1, 2] = -0.0
        before = mat.copy()
        vals, vecs = eigendecompose(mat)
        np.testing.assert_array_equal(mat, before)
        assert not np.signbit(mat[0, 1]) and not np.signbit(mat[1, 2])
        np.testing.assert_array_equal(np.signbit(np.tril(mat)), np.signbit(np.tril(before)))
        want_vals, want_vecs = _copy_route(before)
        np.testing.assert_array_equal(vals, want_vals)
        np.testing.assert_array_equal(vecs, want_vecs)

    def test_memory_growth_is_one_matrix(self):
        # an exactly symmetric, writeable matrix is LAPACK's workspace, so the
        # decomposition adds the eigenvectors only: measured 1.5 n^2 at this
        # n. A read-only input is decomposed from a copy, measured 2.2 n^2
        # (from the same baseline); numpy's divide-and-conquer
        # route measured 4.4 n^2. scipy.linalg is imported before the
        # baseline, so only the decompositions are measured, both from it.
        # The peak is the process's own VmHWM: getrusage's ru_maxrss carries
        # over the pytest process's peak through exec, which hid any growth
        script = """
import re, numpy as np, scipy.linalg
from starvol.precondition import eigendecompose
n = 1500
x = np.linspace(0.0, 3.0, n)
h = np.empty((n, n))  # exp(-|x_i - x_j|), built in place without temporaries
np.subtract.outer(x, x, out=h); np.abs(h, out=h); np.negative(h, out=h); np.exp(h, out=h)
peak = lambda: int(re.search(r"VmHWM:\\s*(\\d+) kB", open("/proc/self/status").read())[1]) * 1024
base = peak()
eigendecompose(h)
print((peak() - base) / (n * n * 8))
h.setflags(write=False)
eigendecompose(h)
print((peak() - base) / (n * n * 8))
"""
        src = Path(precondition.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        writeable, read_only = map(float, proc.stdout.split())
        assert writeable <= 1.7
        assert read_only <= 2.6

    def test_scipy_is_loaded_only_to_decompose(self):
        # importing the package loads numpy alone; the decomposition is the
        # one route that loads scipy (for LAPACK's MRRR driver)
        script = """
import sys
import numpy as np
import starvol, starvol.cli, starvol.models, oracles
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
from starvol.precondition import eigendecompose
eigendecompose(np.diag([1.0, 2.0, 3.0]))
print("scipy.linalg" in sys.modules)
"""
        # the package, and the test oracles beside this file
        path = os.pathsep.join([str(Path(precondition.__file__).resolve().parents[1]),
                                str(Path(__file__).resolve().parent)])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=300, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "True"]


NUMPY_BLAS = "numpy._core._multiarray_umath"


def _numpy_blas_has_local_threads() -> bool:
    """Whether numpy's BLAS exports OpenBLAS's per-thread thread-count setter."""
    try:
        return hasattr(ctypes.CDLL(np._core._multiarray_umath.__file__), "openblas_set_num_threads_local")
    except (AttributeError, OSError):
        return False


def _run_at_one_and_two_threads(script: str) -> list[list[str]]:
    """The script's output lines in subprocesses at OPENBLAS_NUM_THREADS 1 and 2."""
    src = Path(precondition.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.splitlines())
    return outputs


def _householder_map(n: int, rng: np.random.Generator) -> Preconditioner:
    """A dense unit-determinant map on the reflector I - 2 v v^T, built without BLAS."""
    v = rng.normal(size=n)
    v /= np.sqrt(np.sum(v * v))
    return from_diagonal(rng.uniform(0.5, 2.0, size=n), 0.0, basis=np.eye(n) - 2.0 * np.outer(v, v))


class TestBlasThreadCount:
    def test_diag_estimates_reproduce_at_one_and_two_threads(self):
        # the curvature diagonal and the estimates of the identity and
        # diagonal maps are the same at any BLAS thread count
        script = """
import hashlib, numpy as np
from starvol.geometry import NeighborhoodSpec, estimate_local_volume
from starvol.models import hessian_diag, init_params, make_kl_cost
from starvol.precondition import DEFAULT_EPS, Preconditioner, from_diagonal
params, measure = init_params(((64, 64), (64, 10)), rng=np.random.default_rng(71))
x = np.random.default_rng(72).normal(size=(512, 64))
diag = hessian_diag("kl", params, (params, x))
print(hashlib.sha256(diag.tobytes()).hexdigest())
spec = NeighborhoodSpec(anchor=params.flat, cost=make_kl_cost(params, x), cutoff=1e-2, measure=measure)
for pre in (Preconditioner.identity(params.n), from_diagonal(diag, DEFAULT_EPS["diag"])):
    est = estimate_local_volume(spec, pre, 16, seed=3)
    print(repr(est.log_volume), [repr(s.log_term) for s in est.samples])
"""
        outputs = _run_at_one_and_two_threads(script)
        assert len(outputs[0]) == 3 and "-inf" not in outputs[0][1]
        assert outputs[0] == outputs[1]

    def test_dense_map_estimates_reproduce_at_one_and_two_threads(self):
        # one fixed dense map (a reflector basis, formed without BLAS) gives
        # the same log terms at any BLAS thread count: its draw product runs
        # on the calling thread alone; 16 x 1,210 by 1,210 x 1,210 is large
        # enough for OpenBLAS to split over its workers otherwise
        script = """
import numpy as np
from starvol.geometry import NeighborhoodSpec, estimate_local_volume
from starvol.models import hessian_diag, init_params, make_kl_cost
from starvol.precondition import DEFAULT_EPS, from_diagonal
params, measure = init_params(((64, 16), (16, 10)), rng=np.random.default_rng(71))
x = np.random.default_rng(72).normal(size=(512, 64))
v = np.random.default_rng(73).normal(size=params.n)
v /= np.sqrt(np.sum(v * v))
basis = np.eye(params.n) - 2.0 * np.outer(v, v)
pre = from_diagonal(hessian_diag("kl", params, (params, x)), DEFAULT_EPS["hessian"], basis=basis)
spec = NeighborhoodSpec(anchor=params.flat, cost=make_kl_cost(params, x), cutoff=1e-2, measure=measure)
est = estimate_local_volume(spec, pre, 16, seed=3)
print(params.n, pre.kind, est.failed_count)
print([repr(s.log_term) for s in est.samples])
"""
        outputs = _run_at_one_and_two_threads(script)
        assert outputs[0][0] == "1210 dense 0"
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: OpenBLAS starts no workers")
    def test_hessian_maps_built_afresh_are_the_same_at_one_and_two_threads(self):
        # n=1,210 on 512 inputs (KL) and 510 rows (loss): the loss Hessian's
        # products and the eigh are large enough for OpenBLAS to split them
        # over two threads, which changes their last bits, unless held to one
        setters = [blas._thread_setter(NUMPY_BLAS), _scipy_setter()]
        if None in setters:
            pytest.skip("numpy's or scipy's BLAS has no per-thread thread count")
        params, _ = init_params(((64, 16), (16, 10)), rng=np.random.default_rng(71))
        inputs = np.random.default_rng(72).normal(size=(512, 64))
        data = make_blobs(dim=64, classes=10, per_class=51, seed=73)
        builds = []
        previous = [setter(2) for setter in setters]
        try:
            for threads in (2, 1):
                for setter in setters:
                    setter(threads)
                built = []
                for hess in (hessian_full("kl", params, (params, inputs)), hessian_full("loss", params, data)):
                    pre = from_hessian(hess, eps=0.1)
                    built += [hess, pre.scale, pre.basis]
                builds.append(built)
        finally:
            for setter, count in zip(setters, previous):
                setter(count)
        assert builds[0][0].shape == (1210, 1210)
        for two, one in zip(*builds):
            np.testing.assert_array_equal(_bits(two), _bits(one))

    @pytest.mark.skipif(not _numpy_blas_has_local_threads(),
                        reason="numpy's BLAS has no per-thread thread count")
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: OpenBLAS starts no workers")
    def test_dense_draw_leaves_no_blas_worker_spinning(self):
        # a threaded 32 x 256 by 256 x 256 product leaves OpenBLAS's workers
        # busy-waiting for about 0.13 CPU seconds after it returns
        pre = _householder_map(256, np.random.default_rng(5))
        time.sleep(0.4)  # BLAS work of earlier tests goes idle
        sample_directions(pre, [np.random.default_rng(i) for i in range(32)])
        start = time.process_time()
        time.sleep(0.3)
        assert time.process_time() - start <= 0.03

    @pytest.mark.skipif(not _numpy_blas_has_local_threads(),
                        reason="numpy's BLAS has no per-thread thread count")
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: OpenBLAS starts no workers")
    def test_loss_evaluation_leaves_no_blas_worker_spinning(self):
        # on 2,000 rows of a 64 -> 64 -> 10 net both layers' products are
        # large enough for OpenBLAS to split over its workers
        params, _ = init_params(((64, 64), (64, 10)), rng=np.random.default_rng(8))
        cost = make_loss_cost(params.shape, make_blobs(dim=64, classes=10, per_class=200, seed=8))
        time.sleep(0.4)  # BLAS work of earlier tests goes idle
        cost(params.flat)
        start = time.process_time()
        time.sleep(0.3)
        assert time.process_time() - start <= 0.03

    def test_dense_draw_restores_the_thread_count(self):
        setter = blas._thread_setter(NUMPY_BLAS)
        if setter is None:
            pytest.skip("numpy's BLAS has no per-thread thread count")
        pre = _householder_map(256, np.random.default_rng(6))
        previous = setter(2)
        try:
            sample_directions(pre, [np.random.default_rng(i) for i in range(16)])
            assert setter(2) == 2
        finally:
            setter(previous)

    def test_dense_draw_without_the_setter_is_unchanged(self, monkeypatch):
        # under another BLAS, or an older OpenBLAS, the draw runs as it is
        pre = _householder_map(256, np.random.default_rng(7))
        want, want_norms = sample_directions(pre, [np.random.default_rng(i) for i in range(16)])
        monkeypatch.setattr(blas, "_thread_setter", lambda extension: None)
        got, got_norms = sample_directions(pre, [np.random.default_rng(i) for i in range(16)])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
        np.testing.assert_allclose(got_norms, want_norms, rtol=0, atol=1e-14)


class TestScipyBlasPool:
    @pytest.mark.skipif(_scipy_setter() is None, reason="scipy's BLAS has no per-thread thread count")
    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: OpenBLAS starts no workers")
    def test_eigendecompose_leaves_no_blas_worker_spinning(self):
        # a threaded eigh of a 1,500 x 1,500 matrix leaves scipy's OpenBLAS
        # workers busy-waiting for about 0.12 CPU seconds after it returns
        mat = _kernel(1500)
        time.sleep(0.4)  # BLAS work of earlier tests goes idle
        eigendecompose(mat)
        start = time.process_time()
        time.sleep(0.3)
        assert time.process_time() - start <= 0.03

    @pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
    def test_eigh_runs_on_one_thread_and_restores_the_count(self, monkeypatch, fails):
        import scipy.linalg

        counts, during = [], []

        def recorder(threads):
            counts.append(threads)
            return 3

        def eigh(a, **kwargs):
            during.append(list(counts))
            if fails:
                raise np.linalg.LinAlgError("stand-in failure")
            return np.zeros(len(a)), np.eye(len(a), order="F")

        monkeypatch.setattr(blas, "_thread_setter", lambda extension: recorder)
        monkeypatch.setattr(scipy.linalg, "eigh", eigh)
        if fails:
            with pytest.raises(PreconditionerError, match="stand-in failure"):
                eigendecompose(np.eye(4))
        else:
            eigendecompose(np.eye(4))
        assert during == [[1]] and counts == [1, 3]

    def test_without_the_setter_eigenpairs_are_unchanged(self, monkeypatch):
        # under another BLAS the decomposition runs as it is, here with the
        # calling thread's count already 1
        mat = _kernel(700)
        want = eigendecompose(mat)
        monkeypatch.setattr(blas, "_thread_setter", lambda extension: None)
        setter = _scipy_setter()
        previous = None if setter is None else setter(1)
        try:
            got = eigendecompose(mat)
        finally:
            if setter is not None:
                setter(previous)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(_bits(a), _bits(b))


class TestArrayCodec:
    def test_float64_round_trip_is_bit_exact(self, tmp_path):
        values = np.array([-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308,
                           np.inf, -np.inf, np.nan, 1.0 / 3.0, -7.25])
        path = tmp_path / "a.json"
        write_json(path, {"a": values})
        got = decode_array(json.loads(path.read_text())["a"])
        np.testing.assert_array_equal(_bits(got), _bits(values))
        assert not got.flags.writeable

    def test_file_is_json_dumps_with_strings(self, tmp_path):
        rng = np.random.default_rng(64)
        big = rng.normal(size=1000)
        payload = {"z": [1, {"b": 2.5, "a": None}], "big": big, "a": "text", "m": big[:7].reshape(7, 1)}
        path = tmp_path / "p.json"
        write_json(path, payload)
        strings = {key: decode_array(json.loads(path.read_text())[key]) for key in ("big", "m")}
        np.testing.assert_array_equal(_bits(strings["big"]), _bits(big))
        expected = json.loads(path.read_text())
        assert path.read_text() == json.dumps(expected, sort_keys=True) + "\n"
        # any shape is written as its flat C-ordered entries
        np.testing.assert_array_equal(_bits(strings["m"]), _bits(big[:7]))
        # several objects are written one per line
        write_json(path, {"b": 1, "a": big[:2]}, {"c": None})
        first, second = path.read_text().splitlines(keepends=True)
        assert first == json.dumps(json.loads(first), sort_keys=True) + "\n" and second == '{"c": null}\n'
        np.testing.assert_array_equal(_bits(decode_array(json.loads(first)["a"])), _bits(big[:2]))

    @pytest.mark.parametrize("value", [[[1.0, 2.0], [3.0, 4.0]], [1.0], 1.0, None],
                             ids=["nested-list", "list", "float", "none"])
    def test_only_strings_decode(self, value):
        with pytest.raises(ValueError, match="expected a base64 string"):
            decode_array(value)
