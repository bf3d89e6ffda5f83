"""Bounded training memory: graph release on backward and the warm heap.

``Tensor.backward`` frees the graph as it walks it (PyTorch's default
``retain_graph=False``), so one step's activations are gone when the next
step starts; :mod:`repro.tensor.allocator` keeps the freed heap mapped so the
next step does not fault it in again.  These tests pin the release semantics,
the one non-leaf gradient the trainer reads afterwards, the allocator
settings, and per-batch peak memory at the paper's fan-out.
"""

from __future__ import annotations

import gc
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import repro
from repro.core import TaserConfig, TaserTrainer
from repro.core import trainer as trainer_module
from repro.graph import CTDGConfig, generate_ctdg
from repro.graph.datasets import load_dataset
from repro.models.minibatch import HopData
from repro.sampling.base import NeighborBatch
from repro.tensor import Tensor
from repro.tensor.allocator import tune_malloc


def _hop(rng, targets: int = 3, budget: int = 4) -> HopData:
    shape = (targets, budget)
    return HopData(batch=NeighborBatch(
        root_nodes=np.arange(targets), root_times=np.ones(targets),
        nodes=rng.integers(0, 9, shape), eids=rng.integers(0, 9, shape),
        times=np.zeros(shape), mask=np.ones(shape, dtype=bool)))


class TestGraphRelease:
    def test_backward_releases_graph_and_keeps_leaf_gate_and_retained_grads(self):
        rng = np.random.default_rng(0)
        hop = _hop(rng)
        gate = hop.make_gate()
        w = Tensor(rng.standard_normal((5, 2)), requires_grad=True)
        feats = Tensor(rng.standard_normal((3, 4, 5)))
        h = feats @ w
        h.retain_grad()
        gated = h * gate.reshape(3, 4, 1)
        act = gated.tanh()
        act_data = weakref.ref(act.data)
        loss = act.sum()
        del act
        loss.backward()

        # Leaves (parameters, the sampler gate) keep their gradient ...
        assert w.grad is not None and w.grad.shape == (5, 2)
        assert hop.gate_sensitivity() is not None
        assert hop.gate_sensitivity().shape == (3, 4)
        # ... an opted-in intermediate keeps its gradient ...
        assert h.grad is not None and h.grad.shape == (3, 4, 2)
        # ... and every other non-leaf gradient and graph edge is dropped.
        assert gated.grad is None and loss.grad is None
        assert h._prev == () and gated._prev == () and loss._prev == ()
        # Reference counting alone freed the unreferenced activation.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert act_data() is None
        finally:
            if gc_was_enabled:
                gc.enable()

    def test_retained_grad_matches_unreleased_value(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((6, 4)))
        h = (x @ w).retain_grad()
        (h.sigmoid() * 2.0).sum().backward()
        s = 1.0 / (1.0 + np.exp(-(x.data @ w.data)))
        np.testing.assert_allclose(h.grad, 2.0 * s * (1.0 - s))

    def test_second_backward_through_released_graph_raises(self):
        rng = np.random.default_rng(2)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        h = Tensor(rng.standard_normal((2, 4))) @ w
        loss = h.relu().sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="backward through the graph a second time"):
            loss.backward()
        # A second loss sharing a released intermediate fails loudly too,
        # instead of silently producing no parameter gradients.
        with pytest.raises(RuntimeError, match="second time"):
            (h * 2.0).sum().backward()


def test_tgat_analytic_sample_loss_sees_embedding_grad(monkeypatch):
    """The Eq. 25 self-term needs ``dL/dh`` when the sample loss is built;
    without the trainer's ``retain_grad()`` the estimator would silently
    drop it."""
    seen = []
    build = trainer_module.build_sample_loss

    def spy(kind, hops, batch_size, embeddings, attention=None, **kwargs):
        seen.append((kind, attention is not None,
                     None if embeddings.grad is None else embeddings.grad.shape,
                     embeddings.shape))
        return build(kind, hops, batch_size, embeddings, attention=attention, **kwargs)

    monkeypatch.setattr(trainer_module, "build_sample_loss", spy)
    cfg = TaserConfig(backbone="tgat", sample_loss="tgat_analytic", hidden_dim=8,
                      time_dim=4, num_neighbors=4, num_candidates=8, batch_size=64,
                      epochs=1, max_batches_per_epoch=2, dropout=0.0)
    graph = generate_ctdg(CTDGConfig(num_src=40, num_dst=25, num_events=1500,
                                     num_communities=4, edge_dim=8, seed=21))
    stats = TaserTrainer(graph, cfg).train_epoch()
    assert np.isfinite(stats.model_loss)
    assert len(seen) == 2
    for kind, has_attention, grad_shape, emb_shape in seen:
        assert kind == "tgat_analytic" and has_attention
        assert grad_shape == emb_shape


def _run_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter with this checkout's ``repro``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestAllocator:
    glibc = platform.libc_ver()[0] == "glibc"

    @pytest.mark.skipif(not glibc, reason="glibc malloc only")
    def test_mallopt_accepts_both_thresholds(self):
        assert tune_malloc() == (1, 1)

    @pytest.mark.skipif(not glibc, reason="glibc malloc only")
    def test_import_keeps_freed_heap_warm(self):
        """After ``import repro`` a freed 64 MiB array is reused without
        page faults (up to 16384 if it were unmapped and faulted in
        again).  Runs in a fresh process so only the import sets malloc up."""
        faults = _run_python(
            "import resource, numpy as np, repro.tensor\n"
            "a = np.ones((64 << 20) // 8)\n"
            "del a\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "b = np.ones((64 << 20) // 8)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        assert int(faults) < 16

    def test_import_survives_unloadable_libc(self):
        assert _run_python(
            "import ctypes\n"
            "def _fail(*args, **kwargs):\n"
            "    raise OSError('no C library')\n"
            "ctypes.CDLL = _fail\n"
            "import repro, repro.tensor\n"
            "from repro.tensor.allocator import tune_malloc\n"
            "assert tune_malloc() is None\n"
            "print('ok')\n") == "ok"


@pytest.mark.parametrize("backbone, budget_mb", [
    ("tgat", 2048),
    ("graphmixer", 256),
])
def test_paper_fanout_peak_memory_is_flat(backbone, budget_mb):
    """TASER at the paper's fan-out (n=10, m=20, batch 200) on wikipedia at
    scale 1.0: with the cyclic collector off, each batch's traced peak stays
    where the second batch's was.  Before the graph was released on backward
    every batch added its whole graph (GraphMixer: 339 -> 2016 MB over six
    batches).  The array backend is pinned to ``reference``: the ``fused``
    backend's workspace arena keeps buffers between batches by design, up to
    its ``MAX_IN_USE_BYTES`` + ``MAX_FREE_BYTES`` caps."""
    trainer = TaserTrainer(load_dataset("wikipedia", scale=1.0, seed=0),
                           TaserConfig(backbone=backbone, seed=0,
                                       array_backend="reference",
                                       max_batches_per_epoch=6))
    peaks = []
    train_prepared = trainer._train_prepared

    def traced(prepared):
        tracemalloc.reset_peak()
        out = train_prepared(prepared)
        peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        return out

    trainer._train_prepared = traced
    gc_was_enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        stats = trainer.train_epoch()
    finally:
        tracemalloc.stop()
        if gc_was_enabled:
            gc.enable()
    assert np.isfinite(stats.model_loss)
    assert len(peaks) == 6
    assert peaks[5] <= 1.1 * peaks[1], peaks
    assert max(peaks) < budget_mb, peaks
