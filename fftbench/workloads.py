"""The benchmark's workloads.

Each workload is closed-loop from this one process, with at most two
caller threads and at most two connections, and every FFT caller waits
for its result.  A workload exposes the same small surface to the runner
(``run.py``):

* ``setup()`` — cold start to ready (timed, repeated; ``close()`` undoes it);
* ``phase_one(seconds, spans)`` — one operation in flight;
* ``phase_two(seconds, spans)`` — the loaded phase;
* ``accuracy()`` — the untimed accuracy pass;
* ``e2e(p1, p2)`` — end-to-end metrics from the two phases;
* ``inplace(spans)`` — per-layer numbers measured in place.

Inputs are generated from the seed before any clock starts; the program
receives only the generated arrays.  See ``NOTES.md`` for why each
workload was chosen.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import threading
from typing import Callable, Optional

import numpy as np

from harness import OpLog, Phase, Spans, accuracy_pass, latency_ms, \
    median, perf, timed_stages

from repro.codegen import get_backend
from repro.frontend import generate_fft
from repro.serve import FFTService, PlanKey, ServeConfig, run_batched
from repro.smp import SequentialRuntime

#: how many setups a run times; ``setup_s`` is their median
SETUP_REPS = 3


def crandn(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def closed_loop(call: Callable[[int], np.ndarray], cursor,
                seconds: float, cpu: int = 0) -> list:
    """Make ``call(next(cursor))`` calls back to back for ``seconds``.

    Returns a one-element list of :class:`OpLog`.  The calling thread runs
    on the ``cpu``-th CPU it may use for the duration: left free, the
    kernel at times stacks both callers of the loaded phase on one vCPU,
    and the loaded tail then doubles.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[cpu % len(cpus)]})
    try:
        return _loop(call, cursor, seconds)
    finally:
        os.sched_setaffinity(0, set(cpus))


def _loop(call, cursor, seconds: float) -> list:
    log = OpLog()
    end = perf() + seconds
    while True:
        t0 = perf()
        if t0 >= end:
            return [log]
        idx = next(cursor)
        try:
            y = call(idx)
        except Exception as exc:  # counted as a failed operation
            log.add(t0, perf(), idx, error=repr(exc))
            continue
        log.add(t0, perf(), idx, y)


def two_callers(calls, cursor, seconds: float) -> list:
    """Two closed-loop callers drawing from one shared ``cursor``."""
    results: list = [[], []]

    def run(k: int) -> None:
        results[k] = closed_loop(calls[k], cursor, seconds, cpu=k)

    other = threading.Thread(target=run, args=(1,), name="bench-caller-1")
    other.start()
    run(0)
    other.join()
    return results[0] + results[1]


def traced(spans: Optional[Spans], layer: str, name: str, fn):
    """``fn`` itself, or a wrapper recording one span per call."""
    if spans is None:
        return fn

    def wrapped(*args, **kw):
        t0 = perf()
        try:
            return fn(*args, **kw)
        finally:
            spans.add(layer, name, t0, perf())

    return wrapped


class Workload:
    """Common bookkeeping: the input pool, its sizes, and the schedule."""

    name = ""
    backend = "numpy"
    #: span layers from outside in; deeper layers own overlapping time
    depth: dict = {}
    #: run on one CPU (the runner pins the process, and so the threads it
    #: starts): request handoffs then stay on one vCPU instead of paying
    #: the VM's cross-vCPU wake-up, which on a shared host swings two- to
    #: threefold with the other tenants' load
    one_cpu = False

    def __init__(self, scratch) -> None:
        self.scratch = scratch
        self.inputs: list = []
        self.keys: list = []
        self.key_of: list = []

    def add_input(self, key: PlanKey, x: np.ndarray) -> int:
        self.inputs.append(x)
        self.key_of.append(key)
        return len(self.inputs) - 1

    def vectors(self, idx: int) -> int:
        x = self.inputs[idx]
        return 1 if x.ndim == 1 else x.shape[0]

    def flops(self, idx: int) -> float:
        n = self.inputs[idx].shape[-1]
        return 5.0 * n * np.log2(n) * self.vectors(idx)

    def cursors(self) -> None:
        """Fresh schedule positions for the two phases (set-up calls it)."""
        half = len(self.schedule) // 2
        self.cursor = {
            1: itertools.cycle(self.schedule),
            2: itertools.cycle(self.schedule[half:] + self.schedule[:half]),
        }

    def e2e(self, p1: Phase, p2: Phase) -> dict:
        """End-to-end metrics, each pooled over all slots of its phase.

        Throughput comes from phase one, where one operation is in flight.
        The typical latency is the mean, not the median: on a host whose
        CPU alternates between a fast and a slow state within a second,
        per-operation times are bimodal and the median jumps between the
        two modes from run to run (see ``NOTES.md``).
        """
        good = p1.good_inputs().tolist()
        return {
            "ops_per_s": sum(map(self.vectors, good)) / p1.wall,
            "mflops": sum(map(self.flops, good)) / p1.wall / 1e6,
            "latency_mean_ms": latency_ms(p1.logs),
            "latency_p95_ms": latency_ms(p1.logs, 95),
            "loaded_mean_ms": latency_ms(p2.logs),
            "loaded_p95_ms": latency_ms(p2.logs, 95),
        }

    def sample_counts(self, p1: Phase, p2: Phase) -> dict:
        """Operations per phase, and the percentiles the end-to-end set
        leaves out."""
        return {
            "phase_one_ops": p1.count,
            "phase_two_ops": p2.count,
            "latency_p50_ms": latency_ms(p1.logs, 50),
            "loaded_p50_ms": latency_ms(p2.logs, 50),
            "latency_p99_ms": latency_ms(p1.logs, 99),
            "loaded_p99_ms": latency_ms(p2.logs, 99),
        }

    def inplace(self, spans: Optional[Spans]) -> dict:
        return {}

    def close(self) -> None:
        pass


# -- bulk-compiled -----------------------------------------------------------


class BulkCompiled(Workload):
    """The library path with the paper's plans: compiled codelets, batched.

    ``generate_fft(n, threads=2, mu=4, nu=4)`` planned and compiled through
    the registry's ``compiled`` backend, then run as stacked batches with
    ``run_batched``.  Every batch holds the same number of complex points,
    so each size does equal work.  Phase one is one caller on a
    ``SequentialRuntime``; phase two is two callers, each on its own, so
    two transforms run at once on the two CPUs.

    ``PThreadsRuntime(2)``, one transform split over two threads, is timed
    by the traced run's layer probe (``smp.*``) and not here: on a shared
    VM its throughput swings up to threefold from run to run with the
    other tenants' load, more than any bound this benchmark may set.
    """

    name = "bulk-compiled"
    backend = "compiled"
    depth = {"smp": 0, "codegen": 1}
    SIZES = (1024, 16384, 65536)
    POINTS = 1 << 17      # complex points per batch: 2 MiB in, 2 MiB out
    POOL = 2              # distinct input batches per size
    SCHEDULE = 4096

    def __init__(self, rng, scratch, small: bool = False) -> None:
        super().__init__(scratch)
        sizes, points = ((64, 256, 1024), 4096) if small else (
            self.SIZES, self.POINTS)
        self.keys = [PlanKey(n, threads=2, mu=4, nu=4) for n in sizes]
        ids = [[self.add_input(k, crandn(rng, (points // k.n, k.n)))
                for _ in range(self.POOL)] for k in self.keys]
        picks = rng.integers(self.POOL, size=self.SCHEDULE)
        self.schedule = [ids[i % len(ids)][p] for i, p in enumerate(picks)]

    def setup(self) -> None:
        self.scratch.fresh_codelet_cache()
        compiled = get_backend("compiled")
        self.stages = {}
        for k in self.keys:
            gen = generate_fft(k.n, threads=k.threads, mu=k.mu, nu=k.nu)
            self.stages[k.n] = compiled.build_stages(gen.program,
                                                     fallback=False)
        self.cursors()

    def _fn(self, stages):
        runtime = SequentialRuntime()

        def run(X: np.ndarray) -> np.ndarray:
            n = X.shape[-1]
            return run_batched(stages[n], n, X, runtime)[0]

        return run

    def _calls(self, count: int, spans) -> list:
        """``count`` callers, each with its own runtime."""
        stages = self.stages if spans is None else {
            n: timed_stages(st, spans) for n, st in self.stages.items()}
        fns = [traced(spans, "smp", "run_batched", self._fn(stages))
               for _ in range(count)]
        return [lambda i, f=f: f(self.inputs[i]) for f in fns]

    def phase_one(self, seconds, spans=None) -> list:
        return closed_loop(self._calls(1, spans)[0], self.cursor[1], seconds)

    def phase_two(self, seconds, spans=None) -> list:
        return two_callers(self._calls(2, spans), self.cursor[2], seconds)

    def accuracy(self):
        fn = self._fn(self.stages)
        return accuracy_pass((X, fn) for X in self.inputs)


# -- plan-churn --------------------------------------------------------------


class PlanChurn(Workload):
    """An in-process compiled service whose plan cache is too small.

    Twelve keys (n = 2^6..2^11 x threads {1, 2}) compete for a plan cache
    of eleven entries under Zipf popularity, so misses (``generate_fft``,
    ``emit_plan_source``, an eviction) run beside hits (stage execution on
    the service's runtimes only).  Each request is a ``(b, n)`` stack of
    2^17 complex points, so a hit's time goes to the compiled kernels and
    every key does equal work per request.  The popularity ranking is
    fixed; the seed draws the request sequence and the payloads.  The
    loaded phase runs two callers against the same service.
    """

    name = "plan-churn"
    backend = "compiled"
    one_cpu = True
    depth = {"service": 0, "plan_cache": 1, "codegen": 2}
    CAPACITY = 11
    ZIPF_S = 2.0
    BLOCK = 200           # requests per block with exact Zipf counts
    POINTS = 1 << 17      # complex points per request: 2 MiB in, 2 MiB out
    POOL = 2              # distinct payloads per key
    SCHEDULE = 1 << 16
    #: fixed popularity ranking, most popular first
    RANKING = ((512, 1), (64, 1), (256, 1), (128, 1), (1024, 1), (2048, 1),
               (1024, 2), (64, 2), (2048, 2), (256, 2), (128, 2), (512, 2))

    def __init__(self, rng, scratch, small: bool = False) -> None:
        super().__init__(scratch)
        ranking, self.capacity, points = (
            self.RANKING, self.CAPACITY, self.POINTS)
        if small:
            ranking, self.capacity, points = (
                ((64, 1), (128, 2), (64, 2), (128, 1)), 2, 1024)
        self.keys = [PlanKey(n, threads=t, mu=4) for n, t in ranking]
        ids = [[self.add_input(k, crandn(rng, (points // k.n, k.n)))
                for _ in range(self.POOL)] for k in self.keys]
        # two callers may each have their largest stack queued
        self.queue_limit = 2 * points // min(k.n for k in self.keys)
        ranks = zipf_blocks(rng, len(self.keys), self.ZIPF_S, self.BLOCK,
                            self.SCHEDULE)
        picks = rng.integers(self.POOL, size=self.SCHEDULE)
        self.schedule = [ids[r][q] for r, q in zip(ranks, picks)]
        self.svc: Optional[FFTService] = None

    def setup(self) -> None:
        self.scratch.fresh_codelet_cache()
        self.svc = FFTService(ServeConfig(backend="compiled",
                                          cache_capacity=self.capacity,
                                          queue_limit=self.queue_limit))
        for k in self.keys:  # fills the codelet disk cache
            self.svc.prewarm(k.n, threads=k.threads)
        self._start = self.svc.stats()
        self.cursors()

    def _call(self, idx: int) -> np.ndarray:
        return self.svc.transform(self.inputs[idx],
                                  threads=self.key_of[idx].threads)

    def _instrument(self, spans: Optional[Spans]) -> None:
        """Record plan-cache lookups and stage kernels of the service.

        Wraps the service's ``PlanCache.get`` on this instance only: each
        lookup becomes a ``plan_cache`` span named ``hit`` or ``miss``,
        and the plan it returns runs through span-recording stage copies.
        ``spans=None`` removes the wrapper.
        """
        cache = self.svc.plans
        if spans is None:
            cache.__dict__.pop("get", None)
            return
        get = type(cache).get
        copies: dict = {}  # id(plan) -> (plan, its span-recording copy)

        def traced_get(key):
            misses = cache.stats.misses
            t0 = perf()
            plan = get(cache, key)
            spans.add("plan_cache",
                      "miss" if cache.stats.misses != misses else "hit",
                      t0, perf())
            entry = copies.get(id(plan))
            if entry is None or entry[0] is not plan:
                if len(copies) > 4 * self.capacity:
                    copies.clear()
                entry = copies[id(plan)] = (plan, dataclasses.replace(
                    plan, stages=timed_stages(plan.stages, spans)))
            return entry[1]

        cache.get = traced_get

    def phase_one(self, seconds, spans=None) -> list:
        call = traced(spans, "service", "transform", self._call)
        self._instrument(spans)
        try:
            return closed_loop(call, self.cursor[1], seconds)
        finally:
            self._instrument(None)

    def phase_two(self, seconds, spans=None) -> list:
        calls = [traced(spans, "service", "transform", self._call)] * 2
        self._instrument(spans)
        try:
            return two_callers(calls, self.cursor[2], seconds)
        finally:
            self._instrument(None)

    def accuracy(self):
        return accuracy_pass(
            (x, lambda v, t=key.threads: self.svc.transform(v, threads=t))
            for x, key in zip(self.inputs, self.key_of))

    def inplace(self, spans: Optional[Spans]) -> dict:
        return service_counters(self._start, self.svc.stats(), spans)

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None


def zipf_blocks(rng, keys: int, s: float, block: int, total: int) -> list:
    """Zipf(``s``) ranks in shuffled blocks holding exact expected counts.

    Each block of ``block`` requests holds every rank's expected count
    (largest-remainder rounding), shuffled by ``rng``.  Compared with
    independent draws this keeps the miss rate of an LRU in front of the
    keys nearly the same for every seed, so seeds differ in order only.
    """
    p = np.arange(1, keys + 1, dtype=float) ** -s
    share = p / p.sum() * block
    counts = np.floor(share).astype(int)
    counts[np.argsort(counts - share)[:block - counts.sum()]] += 1
    one = np.repeat(np.arange(keys), counts)
    out: list = []
    while len(out) < total:
        out.extend(rng.permutation(one).tolist())
    return out[:total]


def service_counters(before: dict, after: dict,
                     spans: Optional[Spans] = None) -> dict:
    """Plan-cache and batcher counters between two ``stats()`` snapshots."""
    pb, pa = before["plan_cache"], after["plan_cache"]
    hits = pa["hits"] - pb["hits"]
    misses = pa["misses"] - pb["misses"]
    batches = after["batches"] - before["batches"]
    out = {
        "plan_cache.hit_rate": hits / max(1, hits + misses),
        "plan_cache.evictions": pa["evictions"] - pb["evictions"],
        "plan_cache.plans_built": pa["plans_built"] - pb["plans_built"],
        "service.avg_batch_occupancy":
            (after["batched_vectors"] - before["batched_vectors"])
            / max(1, batches),
        "service.max_queue_depth": after["max_queue_depth"],
        "service.rejected": after["rejected"] - before["rejected"],
    }
    if spans is not None:
        for kind, scale, name in (("hit", 1e6, "plan_cache.get_hit_us"),
                                  ("miss", 1e3, "plan_cache.get_miss_ms")):
            durs = [t1 - t0 for layer, nm, _, t0, t1 in spans.items
                    if layer == "plan_cache" and nm == kind]
            if durs:
                out[name] = median(durs) * scale
    return out


WORKLOADS = {
    "bulk-compiled": BulkCompiled,
    "plan-churn": PlanChurn,
}
