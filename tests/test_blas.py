"""Tests for ``one_blas_thread``: the calling thread's OpenBLAS count held at 1."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from starvol import blas
from starvol.blas import one_blas_thread
from starvol.geometry import MeasureSpec, NeighborhoodSpec, estimate_local_volume, sample_directions
from starvol.models import (
    TrainConfig,
    adam_train,
    forward_logits,
    hessian_diag,
    hessian_full,
    init_params,
    make_blobs,
    make_kl_cost,
    make_loss_cost,
)
from starvol.models.mlp import loss_value_and_grad
from starvol.precondition import Preconditioner, eigendecompose

NUMPY, SCIPY = "numpy._core._multiarray_umath", "scipy.linalg._flapack"


def _recorded(monkeypatch, previous=3):
    """Every setter call as (extension, thread count); each returns ``previous``."""
    calls = []

    def setter_of(extension):
        def setter(threads):
            calls.append((extension, threads))
            return previous

        return setter

    monkeypatch.setattr(blas, "_thread_setter", setter_of)
    return calls


class TestOneBlasThread:
    def test_sets_one_and_restores_on_return(self, monkeypatch):
        calls = _recorded(monkeypatch)
        during = []

        @one_blas_thread()
        def double(x):
            """Twice x."""
            during.append(list(calls))
            return 2 * x

        assert double(4) == 8
        assert during == [[(NUMPY, 1)]]
        assert calls == [(NUMPY, 1), (NUMPY, 3)]
        assert double.__name__ == "double" and double.__doc__ == "Twice x."

    def test_restores_on_raise(self, monkeypatch):
        calls = _recorded(monkeypatch)

        @one_blas_thread(SCIPY)
        def fail():
            raise ArithmeticError("stand-in failure")

        with pytest.raises(ArithmeticError, match="stand-in failure"):
            fail()
        assert calls == [(SCIPY, 1), (SCIPY, 3)]
        with pytest.raises(ArithmeticError):
            fail()  # the flag went with the raise, so the next call sets the count again
        assert calls == [(SCIPY, 1), (SCIPY, 3)] * 2

    def test_a_nested_call_makes_no_setter_call(self, monkeypatch):
        calls = _recorded(monkeypatch)

        @one_blas_thread()
        def inner():
            return len(calls)

        @one_blas_thread()
        def outer():
            return [inner(), inner()]

        assert outer() == [1, 1]
        assert calls == [(NUMPY, 1), (NUMPY, 3)]
        assert inner() == 3  # outside the outer call, inner sets the count itself
        assert calls == [(NUMPY, 1), (NUMPY, 3)] * 2

    def test_each_library_is_held_apart(self, monkeypatch):
        # numpy's and scipy's OpenBLAS are two libraries, each with its own count
        calls = _recorded(monkeypatch)

        @one_blas_thread(SCIPY)
        def decompose():
            return len(calls)

        @one_blas_thread()
        def build():
            return decompose()

        assert build() == 2
        assert calls == [(NUMPY, 1), (SCIPY, 1), (SCIPY, 3), (NUMPY, 3)]

    def test_the_flag_is_per_thread(self, monkeypatch):
        # a marked call held on one thread leaves another thread's call to set its own count
        calls = _recorded(monkeypatch)
        entered, release = threading.Event(), threading.Event()

        @one_blas_thread()
        def hold():
            entered.set()
            assert release.wait(10)

        @one_blas_thread()
        def other():
            return None

        worker = threading.Thread(target=hold)
        worker.start()
        try:
            assert entered.wait(10)
            other()
        finally:
            release.set()
            worker.join(10)
        assert not worker.is_alive()
        assert calls == [(NUMPY, 1), (NUMPY, 1), (NUMPY, 3), (NUMPY, 3)]

    def test_without_a_setter_the_function_runs_plain(self, monkeypatch):
        monkeypatch.setattr(blas, "_thread_setter", lambda extension: None)

        @one_blas_thread()
        def inner(x):
            return x + 1

        @one_blas_thread()
        def outer(x):
            return inner(x) * 2

        assert outer(1) == 4
        with pytest.raises(TypeError):
            outer(None)
        assert blas._held.__dict__ == {}

    def test_an_extension_that_links_no_openblas_runs_the_function_unchanged(self):
        # numpy.random's generator links no BLAS, so its library has no setter
        extension = "numpy.random._generator"
        assert blas._thread_setter(extension) is None

        @one_blas_thread(extension)
        def double(x):
            """Twice x."""
            return 2 * x

        assert double(4) == 8 and double.__doc__ == "Twice x."
        with pytest.raises(TypeError):
            double(None)
        assert blas._held.__dict__ == {}

    def test_import_resolves_no_setter_and_loads_no_scipy(self):
        # numpy's setter is resolved by the first marked call, and scipy's by
        # the first decomposition, which loads scipy anyway
        script = """
import sys, numpy as np
import starvol.cli
from starvol import blas, geometry
from starvol.precondition import Preconditioner, eigendecompose
print(blas._thread_setter.cache_info().currsize, "scipy" in sys.modules)
rngs = [np.random.default_rng(i) for i in range(2)]
geometry.sample_directions(Preconditioner.diagonal(np.array([2.0, 1.0, 0.5]), basis=np.eye(3)), rngs)
print(blas._thread_setter.cache_info().currsize, "scipy" in sys.modules)
eigendecompose(np.eye(3))
print(blas._thread_setter.cache_info().currsize, "scipy" in sys.modules)
"""
        src = Path(blas.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["0 False", "1 False", "2 True"]


@pytest.fixture
def tiny():
    """A 3 -> 4 -> 2 net, its data, its KL cost and ray forms, and a dense map."""
    anchor, measure = init_params(((3, 4), (4, 2)), rng=np.random.default_rng(0))
    data = make_blobs(dim=3, classes=2, per_class=4, seed=1)
    cost = make_kl_cost(anchor, data.inputs)
    direction = np.full(anchor.n, anchor.n**-0.5)
    line_of = cost.along(anchor.flat)
    line = line_of(direction)
    pre = Preconditioner.diagonal(np.ones(anchor.n), basis=np.eye(anchor.n))
    spec = NeighborhoodSpec(anchor=anchor.flat, cost=cost, cutoff=1e-2, measure=measure)
    return dict(anchor=anchor, data=data, cost=cost, direction=direction, line_of=line_of, line=line,
                pre=pre, spec=spec)


# each function that runs at one BLAS thread, called once with its library named
MARKED = {
    "NeighborhoodSpec": (NUMPY, lambda t: NeighborhoodSpec(anchor=np.zeros(3), cost=lambda x: float(x @ x),
                                                         cutoff=1.0, measure=MeasureSpec())),
    "estimate_local_volume": (NUMPY, lambda t: estimate_local_volume(t["spec"], t["pre"], 2, seed=0)),
    "sample_directions": (NUMPY, lambda t: sample_directions(t["pre"], [np.random.default_rng(0)])),
    "make_kl_cost": (NUMPY, lambda t: make_kl_cost(t["anchor"], t["data"].inputs)),
    "make_loss_cost": (NUMPY, lambda t: make_loss_cost(t["anchor"].shape, t["data"])),
    "handle": (NUMPY, lambda t: t["cost"](t["anchor"].flat)),
    "along": (NUMPY, lambda t: t["cost"].along(t["anchor"].flat)),
    "line": (NUMPY, lambda t: t["line_of"](t["direction"])),
    "ray": (NUMPY, lambda t: t["line"](0.1)),
    "ray-approx": (NUMPY, lambda t: t["line"].approx(0.1)),
    "forward_logits": (NUMPY, lambda t: forward_logits(t["anchor"], t["data"].inputs)),
    "loss_value_and_grad": (NUMPY, lambda t: loss_value_and_grad(t["anchor"].flat, t["anchor"].shape, t["data"])),
    "adam_train": (NUMPY, lambda t: adam_train(t["anchor"], t["data"], TrainConfig(epochs=1, batch_size=8))),
    "hessian_full": (NUMPY, lambda t: hessian_full("kl", t["anchor"], (t["anchor"], t["data"].inputs))),
    "hessian_diag": (NUMPY, lambda t: hessian_diag("kl", t["anchor"], (t["anchor"], t["data"].inputs))),
    "eigendecompose": (SCIPY, lambda t: eigendecompose(np.eye(3))),
}


@pytest.mark.parametrize("name", MARKED)
def test_each_marked_function_sets_its_library_once(monkeypatch, tiny, name):
    extension, call = MARKED[name]
    calls = _recorded(monkeypatch)
    call(tiny)
    assert calls == [(extension, 1), (extension, 3)]
