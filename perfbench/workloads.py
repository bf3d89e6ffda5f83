"""The benchmark's three workloads and the instrumentation of their layers.

Every workload builds its inputs from the seed alone (synthetic datasets are
generated in-process), runs the program through its public API with the
default ``TaserConfig`` runtime settings, checks the outputs, and returns a
:class:`RunResult`.  End-to-end metrics are measured with tracing off; with
tracing on, every other operation (training step or serve flush cycle) is
traced, so the same run yields per-layer self times and the tracing overhead.

Constants below were set once from the capacity of the parent commit on a
2-core / 8 GB host; see ``perfbench/README.md`` for the reasoning.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

import repro.core.trainer as trainer_module
from repro.core.config import TaserConfig
from repro.core.neighbor_sampler import AdaptiveNeighborSampler
from repro.core.trainer import TaserTrainer
from repro.device.memory import FeatureStore
from repro.graph.datasets import load_dataset
from repro.graph.tcsr import StreamingTCSR
from repro.models.base import TGNNBackbone
from repro.optim.optimizers import Adam
from repro.serve import LinkQuery, ServeEngine, scores_hash
from repro.tensor import Tensor

from tracer import OP_SCOPE, Tracer

__all__ = ["WORKLOADS", "RunResult", "run_workload", "RANDOM_MRR_FLOOR"]

#: set-up is repeated this many times per run; setup_s reports the median.
SETUP_REPEATS = 3
#: evaluation negatives per positive (the paper's 49).
EVAL_NEGATIVES = 49
#: percentile reported as latency_p90_ms, for step walls and query latencies
#: alike: p99 over a thousand queries rests on ten samples and ranged from 35
#: to 52 ms over four seeds, so the serve p99 is a per-layer metric instead.
TAIL_PCT = 90.0
#: MRR of a random ranking of one positive among 49 negatives: H_50 / 50.
RANDOM_MRR_FLOOR = sum(1.0 / k for k in range(1, EVAL_NEGATIVES + 2)) / (EVAL_NEGATIVES + 1)


@dataclass(frozen=True)
class TrainSpec:
    """A training workload: one backbone on one dataset at scale 1.0."""

    dataset: str
    backbone: str
    taser: bool
    #: training steps measured per requested second; fixing the step count
    #: (rather than stopping on the clock) keeps test_mrr bitwise-repeatable.
    steps_per_second: float
    #: untimed steps before measuring (first-touch allocation, lazy set-up).
    warmup_steps: int = 2


@dataclass(frozen=True)
class ServeSpec:
    """An open-loop serving workload over a model trained in set-up."""

    dataset: str
    #: the warm-up model trains on this share of events; the rest is the
    #: query stream (``repro serve``'s 60/40 split).
    warmup_share: float = 0.6
    #: warm-up training steps, batch size and learning rate (small batches
    #: keep the TGAT + TASER autograd graph within an 8 GB host; the rate is
    #: ``repro serve``'s default).
    warmup_steps: int = 16
    warmup_batch: int = 50
    warmup_lr: float = 2e-3
    #: test edges evaluated for test_mrr, and edges per evaluation chunk.
    eval_edges: int = 200
    eval_batch_edges: int = 10
    max_batch: int = 32
    #: nominal offered rate (queries per second) for the latency metrics.
    nominal_qps: float = 100.0
    #: a partial micro-batch is flushed once its oldest query waited this
    #: long.  2.5 arrival gaps at the nominal rate: a whole multiple put a
    #: query's arrival on the flush deadline, so timer jitter decided which
    #: batch it joined and the latency median jumped between runs.
    max_wait_s: float = 0.025
    #: closed-loop capacity is the median of this many passes of this many
    #: queries (the first pass runs cold; a median of five rides out one
    #: slow pass and a short slow spell of a shared host).
    capacity_passes: int = 5
    capacity_queries: int = 600


WORKLOADS = {
    "train-graphmixer-taser": TrainSpec(dataset="wikipedia", backbone="graphmixer",
                                        taser=True, steps_per_second=4.0),
    "train-tgat-baseline": TrainSpec(dataset="reddit", backbone="tgat",
                                     taser=False, steps_per_second=2.0),
    "serve-tgat-taser": ServeSpec(dataset="wikipedia"),
}


@dataclass
class RunResult:
    metrics: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: (check name, passed, detail) for every correctness check.
    checks: List[tuple] = field(default_factory=list)
    #: run details printed beside the result (step counts, per-step RSS).
    info: Dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str, attempted: int = 1,
              failed: Optional[int] = None) -> None:
        """Record a check over ``attempted`` operations, ``failed`` of which
        failed (default: all of them if the check failed)."""
        self.checks.append((name, bool(ok), detail))
        self.attempted += attempted
        self.failed += (0 if ok else attempted) if failed is None else failed

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# --------------------------------------------------------------------------- helpers


def _rss_mb() -> float:
    with open("/proc/self/statm") as f:
        return int(f.read().split()[1]) * resource.getpagesize() / 2**20


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _gc_gen2():
    stats = gc.get_stats()
    return stats[2]["collections"], sum(s["collected"] for s in stats)


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if len(values) else 0.0




# --------------------------------------------------------------------------- tracing


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry point of every layer the benchmark reports."""
    # ids of tensors returned by the sample-loss builder, so that their
    # backward pass is charged to core.sample_loss, not tensor.backward.
    sample_loss_ids = set()

    def slice_before(args):
        return args[0].snapshot()

    def slice_after(t, args, result, before):
        after = args[0].snapshot()
        t.count("device.rows_requested", after.ids_requested - before.ids_requested)
        t.count("device.rows_unique", after.ids_unique - before.ids_unique)
        t.count("device.cache_hits", after.cache_hits - before.cache_hits)
        t.count("device.cache_misses", after.cache_misses - before.cache_misses)
        if result is not None:
            t.count("device.bytes_gathered", result.nbytes)

    def sampler_after(t, args, result, _):
        t.count("core.neighbor_sampler.calls")
        t.count("core.neighbor_sampler.candidate_rows", args[1].mask.size)

    def sample_loss_after(t, args, result, _):
        if result is not None:
            sample_loss_ids.add(id(result))
            t.count("core.sample_loss.calls")

    def backward_name(tensor, *args):
        if id(tensor) in sample_loss_ids:
            return "core.sample_loss.backward"
        return "tensor.backward"

    def backward_after(t, args, result, _):
        if id(args[0]) in sample_loss_ids:
            sample_loss_ids.discard(id(args[0]))
        else:
            t.count("tensor.backward_calls")

    tracer.wrap(trainer_module, "build_tcsr", "graph.tcsr_build")
    tracer.wrap(StreamingTCSR, "from_graph", "graph.tcsr_build")
    tracer.wrap(ServeEngine, "ingest", "graph.ingest",
                after=lambda t, a, r, s: t.count("graph.ingest_events", len(a[1])))
    tracer.wrap(FeatureStore, "slice_edge_features", "device.slice",
                before=slice_before, after=slice_after)
    tracer.wrap(FeatureStore, "slice_node_features", "device.slice",
                before=slice_before, after=slice_after)
    tracer.wrap(AdaptiveNeighborSampler, "forward", "core.neighbor_sampler.forward",
                after=sampler_after)
    tracer.wrap(trainer_module, "build_sample_loss", "core.sample_loss.build",
                after=sample_loss_after)
    tracer.wrap(Tensor, "backward", backward_name, after=backward_after)
    tracer.wrap(TGNNBackbone, "embed", "models.embed",
                after=lambda t, a, r, s: t.count("models.embed_rows", r.data.shape[0]))
    tracer.wrap(Adam, "step", "optim.step",
                after=lambda t, a, r, s: t.count("optim.calls"))
    tracer.wrap(trainer_module, "clip_grad_norm", "optim.clip_grad_norm")


def instrument_instances(tracer: Tracer, trainer: TaserTrainer) -> None:
    """Wrap the layers whose class is chosen at run time (finder, prep
    pipeline, mini-batch selector) by the class the trainer actually uses."""
    def sample_after(t, args, result, _):
        t.count("sampling.calls")
        t.count("sampling.rows", len(args[1]))
        t.count("sampling.slots", result.mask.size)
        t.count("sampling.valid_slots", int(result.mask.sum()))

    tracer.wrap(type(trainer.finder), "sample", "sampling.sample", after=sample_after)
    tracer.wrap(type(trainer.prep), "finish", "core.prep.finish")
    tracer.wrap(type(trainer.selector), "update", "core.minibatch_selector.update")


#: every per-layer metric, in output order (also the list in BENCHMARK.json).
LAYER_METRICS = [
    "graph.load_s", "graph.tcsr_build_s", "graph.ingest_s", "graph.ingest_events",
    "sampling.sample_s", "sampling.calls", "sampling.rows", "sampling.valid_slot_ratio",
    "device.slice_s", "device.rows_requested", "device.rows_unique",
    "device.cache_hit_rate", "device.bytes_gathered",
    "core.neighbor_sampler.forward_s", "core.neighbor_sampler.calls",
    "core.neighbor_sampler.candidate_rows",
    "core.sample_loss.build_s", "core.sample_loss.backward_s", "core.sample_loss.calls",
    "core.minibatch_selector.update_s", "core.prep.wait_s", "core.prep.finish_s",
    "models.embed_s", "models.embed_rows", "models.eval_embed_s", "models.eval_embed_rows",
    "models.test_mrr",
    "tensor.backward_s", "tensor.backward_calls",
    "mem.rss_growth_mb", "mem.gc_gen2_collections", "mem.gc_collected",
    "optim.step_s", "optim.calls",
    "serve.latency_p99_ms", "serve.flush_ms_p50", "serve.queue_wait_ms_p50",
    "serve.batch_occupancy",
    "serve.embed_cache_hit_rate", "serve.generator_lag_ms_max",
    "trace.ops", "trace.op_wall_s", "trace.other_s", "trace.other_share",
    "trace.reconcile_error_s", "trace.overhead_pct",
]


def layer_metrics(tracer: Tracer, recon: Dict[str, float], op_walls: List[float],
                  op_traced: List[bool], extra: Dict[str, float]) -> Dict[str, float]:
    """Aggregate the trace into the per-layer metrics (``LAYER_METRICS``)."""
    ops = tracer.layer_totals(OP_SCOPE)
    ev = tracer.layer_totals("eval")
    c = tracer.counters(OP_SCOPE)
    ce = tracer.counters("eval")

    def self_s(name, table=ops):
        return table.get(name, [0.0, 0])[0]

    def ratio(num, den):
        return num / den if den else 0.0

    traced = [w for w, t in zip(op_walls, op_traced) if t]
    untraced = [w for w, t in zip(op_walls, op_traced) if not t]
    base = statistics.median(untraced) if untraced else 0.0
    out = {
        "graph.load_s": statistics.median(tracer.durations("graph.load", "setup")),
        "graph.tcsr_build_s": statistics.median(tracer.durations("graph.tcsr_build", "setup")),
        "graph.ingest_s": self_s("graph.ingest"),
        "graph.ingest_events": c.get("graph.ingest_events", 0.0),
        "sampling.sample_s": self_s("sampling.sample"),
        "sampling.calls": c.get("sampling.calls", 0.0),
        "sampling.rows": c.get("sampling.rows", 0.0),
        "sampling.valid_slot_ratio": ratio(c.get("sampling.valid_slots", 0.0),
                                           c.get("sampling.slots", 0.0)),
        "device.slice_s": self_s("device.slice"),
        "device.rows_requested": c.get("device.rows_requested", 0.0),
        "device.rows_unique": c.get("device.rows_unique", 0.0),
        "device.cache_hit_rate": ratio(c.get("device.cache_hits", 0.0),
                                       c.get("device.cache_hits", 0.0)
                                       + c.get("device.cache_misses", 0.0)),
        "device.bytes_gathered": c.get("device.bytes_gathered", 0.0),
        "core.neighbor_sampler.forward_s": self_s("core.neighbor_sampler.forward"),
        "core.neighbor_sampler.calls": c.get("core.neighbor_sampler.calls", 0.0),
        "core.neighbor_sampler.candidate_rows": c.get("core.neighbor_sampler.candidate_rows", 0.0),
        "core.sample_loss.build_s": self_s("core.sample_loss.build"),
        "core.sample_loss.backward_s": self_s("core.sample_loss.backward"),
        "core.sample_loss.calls": c.get("core.sample_loss.calls", 0.0),
        "core.minibatch_selector.update_s": self_s("core.minibatch_selector.update"),
        "core.prep.wait_s": self_s("core.prep.wait"),
        "core.prep.finish_s": self_s("core.prep.finish"),
        "models.embed_s": self_s("models.embed"),
        "models.embed_rows": c.get("models.embed_rows", 0.0),
        "models.eval_embed_s": self_s("models.embed", ev),
        "models.eval_embed_rows": ce.get("models.embed_rows", 0.0),
        "tensor.backward_s": self_s("tensor.backward"),
        "tensor.backward_calls": c.get("tensor.backward_calls", 0.0),
        "optim.step_s": self_s("optim.step") + self_s("optim.clip_grad_norm"),
        "optim.calls": c.get("optim.calls", 0.0),
        "trace.ops": recon["ops"],
        "trace.op_wall_s": recon["wall_s"],
        "trace.other_s": recon["other_s"],
        "trace.other_share": ratio(recon["other_s"], recon["wall_s"]),
        "trace.reconcile_error_s": recon["reconcile_error_s"],
        "trace.overhead_pct": (100.0 * (statistics.median(traced) - base) / base
                               if traced and base else 0.0),
    }
    out.update(extra)
    missing = [k for k in LAYER_METRICS if k not in out]
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return {k: float(out[k]) for k in LAYER_METRICS}


def _record_layers(result: "RunResult", tracer: Tracer, root: str,
                   op_walls: List[float], op_traced: List[bool],
                   extra: Dict[str, float], zero=(), nonzero=()) -> None:
    """Reconcile the trace, aggregate the per-layer metrics, and check the
    counters that must be zero (a bypassed layer) or non-zero (a layer the
    workload exercises, which also proves the wrapper is in place)."""
    try:
        recon = tracer.reconcile(root)
        result.check("trace_reconciles", True,
                     f"{int(recon['ops'])} traced operations, largest error "
                     f"{recon['reconcile_error_s']:.2e} s")
    except RuntimeError as exc:
        recon = {"ops": 0.0, "wall_s": 0.0, "other_s": 0.0, "reconcile_error_s": -1.0}
        result.check("trace_reconciles", False, str(exc))
    extra = dict(extra, **{"models.test_mrr": result.info["test_mrr"]})
    result.layers = layer_metrics(tracer, recon, op_walls, op_traced, extra)
    for name in zero:
        result.check(f"trace_{name}_zero", result.layers[name] == 0,
                     f"{name} = {result.layers[name]:g}")
    for name in ("sampling.calls",) + tuple(nonzero):
        result.check(f"trace_{name}_nonzero", result.layers[name] > 0,
                     f"{name} = {result.layers[name]:g}")


def _serve_defaults() -> Dict[str, float]:
    return {k: 0.0 for k in LAYER_METRICS if k.startswith("serve.")}


# --------------------------------------------------------------------------- training


class _StepLog:
    def __init__(self) -> None:
        self.walls: List[float] = []
        self.traced: List[bool] = []
        self.rss: List[float] = []
        self.positives = 0


def _timed_epochs(trainer: TaserTrainer, log: _StepLog, tracer: Optional[Tracer]) -> None:
    """Time every step of ``trainer.train_epoch`` from the outside.

    Replaces the engine's ``epoch`` generator on the instance with one that
    times the wait for each batch and the training work between batches.
    A step is one iteration of the training loop: wait for the next prepared
    batch, then train on it.  Under tracing every other step is traced, with
    a ``train.step`` root span and a ``core.prep.wait`` child.
    """
    inner = trainer.engine.epoch

    def epoch(max_batches=None):
        it = iter(inner(max_batches))
        while True:
            traced = tracer is not None and len(log.walls) % 2 == 0
            if traced:
                tracer.scope = len(log.walls)
                tracer.enabled = True
                root = tracer.begin("train.step")
                wait = tracer.begin("core.prep.wait")
            t0 = time.perf_counter()
            try:
                batch = next(it)
            except StopIteration:
                if traced:
                    tracer.discard(root)
                    tracer.enabled = False
                return
            if traced:
                tracer.end(wait)
            yield batch
            t1 = time.perf_counter()
            if traced:
                tracer.end(root)
                tracer.enabled = False
            log.walls.append(t1 - t0)
            log.traced.append(traced)
            log.positives += batch.num_positives
            log.rss.append(_rss_mb())

    trainer.engine.epoch = epoch


@contextmanager
def _tracing(tracer: Optional[Tracer], scope: str) -> Iterator[None]:
    """Trace the enclosed calls under ``scope`` ("setup" or "eval")."""
    if tracer is None:
        yield
        return
    tracer.scope, tracer.enabled = scope, True
    try:
        yield
    finally:
        tracer.enabled = False


def _setup_repeats(build) -> tuple:
    """Run ``build()`` SETUP_REPEATS times; return the last result and the
    median wall of one set-up."""
    times = []
    result = None
    for _ in range(SETUP_REPEATS):
        result = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def _load(tracer: Optional[Tracer], dataset: str, seed: int):
    if tracer is None:
        return load_dataset(dataset, scale=1.0, seed=seed)
    with tracer.span("graph.load"):
        return load_dataset(dataset, scale=1.0, seed=seed)


def _check_losses(result: RunResult, losses, steps: int, what: str) -> None:
    bad = [x for x in losses if not math.isfinite(x)]
    result.check(f"{what}_losses_finite", not bad,
                 f"{len(bad)} of {len(losses)} losses not finite",
                 attempted=steps, failed=min(len(bad), steps))


def _evaluate(result: RunResult, trainer: TaserTrainer, tracer: Optional[Tracer],
              **overrides) -> None:
    with _tracing(tracer, "eval"):
        t0 = time.perf_counter()
        metrics = trainer.evaluate("test", num_negatives=EVAL_NEGATIVES, **overrides)
        result.metrics["eval_s"] = time.perf_counter() - t0
    mrr = metrics["mrr"]
    result.info["test_mrr"] = mrr
    result.check("test_mrr_above_random", mrr > RANDOM_MRR_FLOOR,
                 f"test_mrr {mrr:.4f} vs random floor {RANDOM_MRR_FLOOR:.4f}")


def run_train(spec: TrainSpec, seed: int, seconds: float,
              tracer: Optional[Tracer]) -> RunResult:
    result = RunResult()
    config = TaserConfig(backbone=spec.backbone, adaptive_minibatch=spec.taser,
                         adaptive_neighbor=spec.taser, seed=seed)

    def build():
        return TaserTrainer(_load(tracer, spec.dataset, seed), config)

    with _tracing(tracer, "setup"):
        trainer, setup_s = _setup_repeats(build)
    if tracer is not None:
        instrument_instances(tracer, trainer)
    t0 = time.perf_counter()
    trainer.config.max_batches_per_epoch = spec.warmup_steps
    losses = list(trainer.train_epoch().batch_losses)
    result.metrics["setup_s"] = setup_s + time.perf_counter() - t0

    steps = max(1, round(seconds * spec.steps_per_second))
    log = _StepLog()
    _timed_epochs(trainer, log, tracer)
    gc2_0, collected_0 = _gc_gen2()
    t0 = time.perf_counter()
    remaining = steps
    sample_losses = []
    while remaining > 0:
        per_epoch = trainer.selector.num_batches
        trainer.config.max_batches_per_epoch = remaining if remaining < per_epoch else None
        stats = trainer.train_epoch()
        remaining -= len(stats.batch_losses)
        losses.extend(stats.batch_losses)
        sample_losses.append(stats.sample_loss)
    wall = time.perf_counter() - t0
    gc2_1, collected_1 = _gc_gen2()

    _check_losses(result, losses + sample_losses, spec.warmup_steps + steps, "train")
    result.metrics["throughput_per_s"] = log.positives / wall
    result.metrics["latency_p50_ms"] = _pct(log.walls, 50) * 1e3
    result.metrics["latency_p90_ms"] = _pct(log.walls, TAIL_PCT) * 1e3

    _evaluate(result, trainer, tracer)
    result.metrics["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        extra = {"mem.rss_growth_mb": log.rss[-1] - log.rss[0],
                 "mem.gc_gen2_collections": gc2_1 - gc2_0,
                 "mem.gc_collected": collected_1 - collected_0}
        extra.update(_serve_defaults())
        as_layers = ("core.neighbor_sampler.calls", "core.sample_loss.calls")
        _record_layers(result, tracer, "train.step", log.walls, log.traced, extra,
                       zero=() if spec.taser else as_layers,
                       nonzero=("tensor.backward_calls", "optim.calls")
                       + (as_layers if spec.taser else ()))
    result.info.update({"steps": steps,
                        "step_ms": [round(x * 1e3, 1) for x in log.walls],
                        "rss_per_step_mb": [round(x, 1) for x in log.rss]})
    return result


# --------------------------------------------------------------------------- serving


@dataclass
class _Stream:
    """Held-out suffix events, remapped into the warm-up node universe: each
    event is one query and, once scored, one ingested graph write."""

    src: np.ndarray
    dst: np.ndarray
    ts: np.ndarray
    edge_feat: Optional[np.ndarray]

    def __len__(self) -> int:
        return int(self.src.size)

    def query(self, i: int) -> LinkQuery:
        return LinkQuery(int(self.src[i]), int(self.dst[i]), float(self.ts[i]))

    def ingest(self, engine: ServeEngine, idx: List[int]) -> None:
        sel = np.asarray(idx, dtype=np.int64)
        feat = self.edge_feat[sel] if self.edge_feat is not None else None
        engine.ingest(self.src[sel], self.dst[sel], self.ts[sel], feat)


@dataclass
class _ServePass:
    latency: np.ndarray
    queue_wait: np.ndarray
    flushes: List[List[int]]
    cycle_walls: List[float]
    cycle_traced: List[bool]
    flush_walls: List[float]
    results: list
    lag_max: float


def _open_loop(engine: ServeEngine, stream: _Stream, count: int, spec: ServeSpec,
               tracer: Optional[Tracer] = None) -> _ServePass:
    """Offer ``count`` queries at the nominal rate from one thread.

    Query ``i`` is due at ``start + i / rate`` whatever the engine is doing
    (an open loop), and its latency runs from that due time to the end of
    the flush that scored it.  The batcher flushes when ``max_batch`` queries
    are waiting, or when the oldest has waited ``max_wait_s``.  After every
    flush the scored events are ingested, so graph writes run between reads.
    """
    count = min(count, len(stream))
    start = time.perf_counter() + 1e-3
    due = start + np.arange(count) / spec.nominal_qps
    latency = np.zeros(count)
    queue_wait = np.zeros(count)
    waiting: List[int] = []
    flushes: List[List[int]] = []
    cycle_walls, cycle_traced, flush_walls, results = [], [], [], []
    nxt = 0
    lag_max = 0.0
    while nxt < count or waiting:
        now = time.perf_counter()
        while nxt < count and due[nxt] <= now:
            lag_max = max(lag_max, now - due[nxt])
            waiting.append(nxt)
            nxt += 1
        if waiting and (len(waiting) >= spec.max_batch or nxt == count
                        or now - due[waiting[0]] >= spec.max_wait_s):
            take = waiting[:spec.max_batch]
            del waiting[:spec.max_batch]
            traced = tracer is not None and len(cycle_walls) % 2 == 0
            if traced:
                tracer.scope = len(cycle_walls)
                tracer.enabled = True
                root = tracer.begin("serve.cycle")
            t0 = time.perf_counter()
            for i in take:
                engine.submit(stream.query(i))
            scored = engine.flush()
            t1 = time.perf_counter()
            stream.ingest(engine, take)
            t2 = time.perf_counter()
            if traced:
                tracer.end(root)
                tracer.enabled = False
            latency[take] = t1 - due[take]
            queue_wait[take] = t0 - due[take]
            results.extend(scored)
            flushes.append(take)
            flush_walls.append(t1 - t0)
            cycle_walls.append(t2 - t0)
            cycle_traced.append(traced)
            continue
        wake = []
        if nxt < count:
            wake.append(due[nxt])
        if waiting:
            wake.append(due[waiting[0]] + spec.max_wait_s)
        delay = min(wake) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
    return _ServePass(latency=latency, queue_wait=queue_wait, flushes=flushes,
                      cycle_walls=cycle_walls, cycle_traced=cycle_traced,
                      flush_walls=flush_walls, results=results, lag_max=lag_max)


def _replay(engine: ServeEngine, stream: _Stream, flushes: List[List[int]]) -> list:
    """Re-run a recorded flush schedule (same micro-batches, same ingests)."""
    results = []
    for take in flushes:
        for i in take:
            engine.submit(stream.query(i))
        results.extend(engine.flush())
        stream.ingest(engine, take)
    return results


def _capacity(result: RunResult, trainer: TaserTrainer, stream: _Stream,
              spec: ServeSpec) -> float:
    """Closed-loop capacity: queries per second when full micro-batches are
    scored back to back (each followed by its ingest), median over
    ``spec.capacity_passes`` fresh engines over the same stream."""
    count = min(spec.capacity_queries, len(stream))
    schedule = [list(range(i, min(i + spec.max_batch, count)))
                for i in range(0, count, spec.max_batch)]
    rates = []
    for _ in range(spec.capacity_passes):
        engine = ServeEngine.from_trainer(trainer, max_batch=spec.max_batch)
        t0 = time.perf_counter()
        scored = _replay(engine, stream, schedule)
        rates.append(count / (time.perf_counter() - t0))
        _check_scores(result, scored, "capacity")
    return statistics.median(rates)


def _check_scores(result: RunResult, results: list, what: str) -> None:
    bad = [r for r in results if r.status != "ok" or not (0.0 < r.score < 1.0)]
    result.check(f"{what}_scores_in_unit_interval", not bad,
                 f"{len(bad)} of {len(results)} queries not ok or scored "
                 "outside (0, 1)", attempted=len(results), failed=len(bad))


def run_serve(spec: ServeSpec, seed: int, seconds: float,
              tracer: Optional[Tracer]) -> RunResult:
    result = RunResult()
    config = TaserConfig(backbone="tgat", batch_size=spec.warmup_batch,
                         lr=spec.warmup_lr, seed=seed)

    def build():
        graph = _load(tracer, spec.dataset, seed)
        graph = graph if graph.is_chronological else graph.sort_by_time()
        cut = int(graph.num_edges * spec.warmup_share)
        return TaserTrainer(graph.select_events(np.arange(cut)), config), graph, cut

    with _tracing(tracer, "setup"):
        (trainer, graph, cut), setup_s = _setup_repeats(build)
    if tracer is not None:
        instrument_instances(tracer, trainer)
    t0 = time.perf_counter()
    trainer.config.max_batches_per_epoch = spec.warmup_steps
    stats = trainer.train_epoch()
    with _tracing(tracer, "setup"):
        engine = ServeEngine.from_trainer(trainer, max_batch=spec.max_batch)
    # Set-up ends by collecting the warm-up training's autograd garbage, so
    # the collector does not stall the serve measurement freeing it.  The
    # training workloads never collect (that would hide ROADMAP item 1).
    gc.collect()
    result.metrics["setup_s"] = setup_s + time.perf_counter() - t0
    _check_losses(result, list(stats.batch_losses) + [stats.sample_loss],
                  spec.warmup_steps, "warmup")

    n = trainer.graph.num_nodes
    tail = slice(cut, graph.num_edges)
    stream = _Stream(src=graph.src[tail] % n, dst=graph.dst[tail] % n,
                     ts=graph.ts[tail],
                     edge_feat=graph.edge_feat[tail] if graph.edge_feat is not None else None)
    del graph

    # Nominal rate: the latency metrics, the per-layer trace and the replay.
    count = int(spec.nominal_qps * seconds / 2)
    gc2_0, collected_0 = _gc_gen2()
    rss_0 = _rss_mb()
    run = _open_loop(engine, stream, count, spec, tracer)
    rss_1 = _rss_mb()
    gc2_1, collected_1 = _gc_gen2()
    _check_scores(result, run.results, "serve")
    result.metrics["latency_p50_ms"] = _pct(run.latency, 50) * 1e3
    result.metrics["latency_p90_ms"] = _pct(run.latency, TAIL_PCT) * 1e3

    replay = _replay(ServeEngine.from_trainer(trainer, max_batch=spec.max_batch),
                     stream, run.flushes)
    run_hash, replay_hash = scores_hash(run.results), scores_hash(replay)
    result.check("replay_scores_hash_equal", run_hash == replay_hash,
                 f"run {run_hash} vs replay {replay_hash}")

    # Capacity only feeds an end-to-end metric, so traced runs skip it.
    if tracer is None:
        result.metrics["throughput_per_s"] = _capacity(result, trainer, stream, spec)

    _evaluate(result, trainer, tracer, max_edges=spec.eval_edges,
              batch_edges=spec.eval_batch_edges)
    result.metrics["peak_rss_mb"] = _peak_rss_mb()
    if tracer is not None:
        st = engine.stats()
        extra = {"mem.rss_growth_mb": rss_1 - rss_0,
                 "mem.gc_gen2_collections": gc2_1 - gc2_0,
                 "mem.gc_collected": collected_1 - collected_0,
                 "serve.latency_p99_ms": _pct(run.latency, 99) * 1e3,
                 "serve.flush_ms_p50": _pct(run.flush_walls, 50) * 1e3,
                 "serve.queue_wait_ms_p50": _pct(run.queue_wait, 50) * 1e3,
                 "serve.batch_occupancy": st["batch_occupancy"],
                 "serve.embed_cache_hit_rate": st["embedding_cache_hit_rate"],
                 "serve.generator_lag_ms_max": run.lag_max * 1e3}
        _record_layers(result, tracer, "serve.cycle", run.cycle_walls,
                       run.cycle_traced, extra,
                       zero=("tensor.backward_calls", "optim.calls",
                             "core.sample_loss.calls"),
                       nonzero=("core.neighbor_sampler.calls", "graph.ingest_events"))
    result.info.update({"queries": int(run.latency.size), "flushes": len(run.flushes)})
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> RunResult:
    spec = WORKLOADS[name]
    tracer = None
    if trace:
        tracer = Tracer()
        instrument(tracer)
    try:
        if isinstance(spec, TrainSpec):
            return run_train(spec, seed, seconds, tracer)
        return run_serve(spec, seed, seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
