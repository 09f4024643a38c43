"""Tests for unit-determinant preconditioner construction and serialization."""

import numpy as np
import pytest

from starvol import precondition
from starvol.precondition import (
    DEFAULT_EPS,
    Preconditioner,
    PreconditionerError,
    from_diagonal,
    from_hessian,
)


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
        p = Preconditioner.dense(mat).normalize_unit_det()
        sign, logdet = np.linalg.slogdet(p.matrix)
        assert sign == 1.0
        assert logdet == pytest.approx(0.0, abs=1e-10)


class TestFromHessian:
    def test_diagonal_hessian_inverse_sqrt(self):
        p = from_hessian(np.diag([4.0, 1.0]), eps=0.0)
        expected = np.diag([np.sqrt(0.5), np.sqrt(2.0)])
        np.testing.assert_allclose(p.matrix, expected, atol=1e-12)

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
        got = np.sort(np.linalg.eigvalsh(p.matrix))
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_negative_curvature_folded_by_abs(self):
        p = from_hessian(np.diag([-4.0, 1.0]), eps=0.0)
        q = from_hessian(np.diag([4.0, 1.0]), eps=0.0)
        np.testing.assert_allclose(p.matrix, q.matrix, atol=1e-12)

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
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        rng = np.random.default_rng(29)
        a = rng.normal(size=(6, 6))
        p = from_hessian(a @ a.T + 0.1 * np.eye(6), eps=0.1)
        assert p.log_det() == pytest.approx(0.0, abs=1e-12)

    def test_one_symmetry_check_and_no_copy(self, monkeypatch):
        # the recomposed matrix is symmetric by construction: only the input
        # is scanned for asymmetry, and the result is frozen in place
        calls = []
        real = precondition._max_asymmetry

        def counting(mat):
            calls.append(mat.shape)
            return real(mat)

        def no_copy(arr):
            raise AssertionError("recomposed matrix copied")

        monkeypatch.setattr(precondition, "_max_asymmetry", counting)
        monkeypatch.setattr(precondition, "_readonly", no_copy)
        rng = np.random.default_rng(12)
        a = rng.normal(size=(40, 40))
        p = from_hessian(a @ a.T + 0.1 * np.eye(40), eps=0.1)
        assert len(calls) == 1
        assert np.array_equal(p.matrix, p.matrix.T)
        assert not p.matrix.flags.writeable

    def test_wide_spectrum_has_unit_determinant(self):
        # 24 decades of curvature; the spectrum is shuffled so eigh must sort
        # it, while the recomposition stays exact
        spectrum = np.random.default_rng(31).permutation(np.logspace(-12.0, 12.0, 64))
        p = from_hessian(np.diag(spectrum), eps=0.0)
        sign, logdet = np.linalg.slogdet(p.matrix)
        assert sign == 1.0
        assert logdet == pytest.approx(0.0, abs=1e-10)


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

    def test_default_eps_table(self):
        assert DEFAULT_EPS == {
            "none": 0.0,
            "hessian": 0.1,
            "diag": 0.01,
            "adam-nu": 0.001,
            "adam-mu": 0.001,
        }


class TestApply:
    def test_identity_passthrough(self):
        u = np.array([1.0, -2.0, 3.0])
        assert Preconditioner.identity(3).apply(u) is u

    def test_diagonal_scales_componentwise(self):
        p = Preconditioner.diagonal(np.array([2.0, 0.5]))
        np.testing.assert_allclose(p.apply(np.array([1.0, 4.0])), [2.0, 2.0])

    def test_dense_matvec(self):
        mat = np.array([[2.0, 1.0], [1.0, 2.0]])
        p = Preconditioner.dense(mat)
        np.testing.assert_allclose(p.apply(np.array([1.0, 1.0])), [3.0, 3.0])

    def test_block_maps_each_row(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4))
        block = rng.normal(size=(5, 4))
        for p in (
            Preconditioner.identity(4),
            Preconditioner.diagonal(np.array([2.0, 0.5, 1.0, 3.0])),
            Preconditioner.dense(a @ a.T + np.eye(4)),
        ):
            mapped = p.apply(block)
            assert mapped.shape == block.shape
            for row, got in zip(block, mapped):
                np.testing.assert_allclose(got, p.apply(row), rtol=1e-14, atol=1e-14)
            in_place = block.copy()
            assert p.apply(in_place, out=in_place) is in_place
            np.testing.assert_array_equal(in_place, mapped)

    def test_shape_mismatch_is_error(self):
        with pytest.raises(PreconditionerError, match="shape"):
            Preconditioner.identity(3).apply(np.zeros(4))
        with pytest.raises(PreconditionerError, match="shape"):
            Preconditioner.identity(3).apply(np.zeros((2, 2, 3)))


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
        with pytest.raises(PreconditionerError, match="positive definite"):
            Preconditioner.dense(np.diag([1.0, -1.0]))

    def test_dense_log_det_without_eigvalsh(self, monkeypatch):
        # validation and log_det use Cholesky factorizations; no eigenvalue pass
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        rng = np.random.default_rng(8)
        a = rng.normal(size=(5, 5))
        mat = a @ a.T + 0.5 * np.eye(5)
        p = Preconditioner.dense(mat)
        assert p.log_det() == pytest.approx(np.linalg.slogdet(mat)[1], rel=1e-12)
        q = p.normalize_unit_det()
        assert q.log_det() == pytest.approx(0.0, abs=1e-12)

    def test_direct_dense_construction_checks_definiteness(self):
        p = Preconditioner("dense", 2, matrix=np.diag([1.0, -1.0]))
        with pytest.raises(PreconditionerError, match="lost positive definiteness"):
            p.log_det()

    def test_identity_rejects_bad_dim(self):
        with pytest.raises(PreconditionerError, match="dimension"):
            Preconditioner.identity(0)

    def test_scale_is_readonly(self):
        p = Preconditioner.diagonal(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            p.scale[0] = 99.0


class TestSerialization:
    def test_diagonal_round_trip(self, tmp_path):
        p = from_diagonal(np.array([3.0, 1.0, 0.25]), eps=0.01)
        path = tmp_path / "precond.json"
        p.save(path)
        q = Preconditioner.load(path)
        assert q.kind == p.kind
        assert q.source == p.source
        np.testing.assert_array_equal(q.scale, p.scale)

    def test_dense_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 4))
        p = from_hessian(a @ a.T + np.eye(4), eps=0.1)
        path = tmp_path / "precond.json"
        p.save(path)
        q = Preconditioner.load(path)
        np.testing.assert_array_equal(q.matrix, p.matrix)
        assert q.describe() == p.describe()

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else", "version": 1}')
        with pytest.raises(PreconditionerError, match="not a preconditioner file"):
            Preconditioner.load(path)
