"""Per-layer timings of one workload's plans, each layer timed alone.

The traced run calls :func:`probe` after its phases.  For every plan key
of the workload, on the workload's own batch shape, it times each layer
through its public functions:

``frontend``   ``generate_fft`` and its parts ``spiral_formula`` (rewrite),
               ``lower`` (sigma) and ``generate`` (codegen);
``codegen``    ``emit_plan_source``, a cold ``compile_plan``, and every
               ``PlanStage`` alone on ``SequentialRuntime``;
``smp``        ``run_batched`` of one vector on ``PThreadsRuntime(2)`` and
               sequentially (the batch shape's speedup goes to the detail);
``batch_exec`` the NumPy interpreter's stages at b = 1;
``plan_cache`` ``PlanCache.get`` misses and hits;
``service``    ``FFTService.transform`` in process;
``protocol``   ``write_frame`` + ``read_frame`` on memory buffers;
``wire``       ``ServeClient.fft`` against an in-process ``FFTServer``.

Time metrics are means over the workload's keys of per-key medians;
per-key figures go to the detail block.
"""

from __future__ import annotations

import io
import sys

import numpy as np

from harness import perf, timed_median

from repro.codegen import build_stages, emit_plan_source, generate
from repro.codegen.compiled_backend import compile_plan
from repro.frontend import generate_fft, spiral_formula
from repro.serve import FFTServer, FFTService, PlanCache, ServeClient, \
    ServeConfig, batched_stages, run_batched
from repro.serve.protocol import read_frame, write_frame
from repro.sigma import lower
from repro.smp import PThreadsRuntime, SequentialRuntime


def _reps(points: int) -> int:
    """Repetitions per timed median: fewer for large batches."""
    return 5 if points >= 1 << 16 else 15


def _frontend(key, reps: int) -> tuple[dict, object]:
    n, t, mu, nu = key.n, key.threads, key.mu, key.nu
    f = spiral_formula(n, t, mu, nu=nu)
    prog = lower(f, barrier_mu=mu)
    return {
        "frontend.generate_fft_ms": timed_median(
            lambda: generate_fft(n, threads=t, mu=mu, nu=nu), reps) * 1e3,
        "rewrite.spiral_formula_ms": timed_median(
            lambda: spiral_formula(n, t, mu, nu=nu), reps) * 1e3,
        "sigma.lower_ms": timed_median(
            lambda: lower(f, barrier_mu=mu), reps) * 1e3,
        "codegen.generate_ms": timed_median(
            lambda: generate(prog), reps) * 1e3,
    }, prog


def _codegen(prog, X, backend: str, reps: int) -> tuple[dict, list]:
    src = emit_plan_source(prog)
    out = {
        "codegen.emit_plan_source_ms": timed_median(
            lambda: emit_plan_source(prog), min(reps, 5)) * 1e3,
        "codegen.source_kb": len(src) / 1024.0,
    }
    t0 = perf()
    compile_plan(prog)  # cold: the probe's codelet cache starts empty
    out["codegen.compile_plan_cold_ms"] = (perf() - t0) * 1e3
    stages = build_stages(prog, backend=backend, strict=True)
    seq = SequentialRuntime()
    flat = np.ascontiguousarray(X).reshape(-1)
    per_stage = {
        f"{i}:{st.name}": timed_median(
            lambda st=st: seq.execute([st], flat, flat.size), reps) * 1e6
        for i, st in enumerate(stages)
    }
    npfft = timed_median(lambda: np.fft.fft(X, axis=-1), reps) * 1e6
    out["codegen.stages_us"] = sum(per_stage.values())
    out["codegen.vs_npfft"] = out["codegen.stages_us"] / npfft
    out["ref.npfft_us"] = npfft
    out["codegen.stage_us"] = per_stage
    return out, stages


def _smp(prog, stages, X, pool, reps: int) -> dict:
    """Pool against sequential on one vector (the paper's per-transform
    speedup), and on the workload's batch shape (detail only)."""
    n = prog.size
    seq = SequentialRuntime()
    x1 = X[:1]

    def speed(Y):
        return (timed_median(lambda: run_batched(stages, n, Y, pool), reps),
                timed_median(lambda: run_batched(stages, n, Y, seq), reps))

    pool_s, seq_s = speed(x1)
    _, stats = run_batched(stages, n, x1, pool)
    batch_pool, batch_seq = speed(X) if X.shape[0] > 1 else (pool_s, seq_s)
    numpy_stages = batched_stages(prog)
    return {
        "smp.execute_us": pool_s * 1e6,
        "smp.seq_execute_us": seq_s * 1e6,
        "smp.barriers_per_execute": stats.barriers,
        "smp.batch": {"rows": int(X.shape[0]), "pool_us": batch_pool * 1e6,
                      "seq_us": batch_seq * 1e6,
                      "speedup": batch_seq / batch_pool},
        "batch_exec.run_batched_us": timed_median(
            lambda: run_batched(numpy_stages, n, x1, seq), reps) * 1e6,
    }


def _protocol(X, reps: int) -> float:
    def roundtrip():
        buf = io.BytesIO()
        write_frame(buf, {"op": "fft", "id": 1}, X)
        buf.seek(0)
        read_frame(buf)

    return timed_median(roundtrip, reps) * 1e6


def _plan_cache(keys, backend: str, reps: int) -> dict:
    """Miss then hits per key, through a one-entry cache (every key evicts)."""
    cache = PlanCache(capacity=1, backend=backend)
    miss, hit = [], []
    for key in keys:
        t0 = perf()
        cache.get(key)
        miss.append(perf() - t0)
        hit.append(timed_median(lambda: cache.get(key), reps * 4))
    s = cache.stats_snapshot()
    return {
        "plan_cache.get_miss_ms": float(np.mean(miss)) * 1e3,
        "plan_cache.get_hit_us": float(np.mean(hit)) * 1e6,
        "plan_cache.hit_rate": s["hit_rate"],
        "plan_cache.evictions": s["evictions"],
        "plan_cache.plans_built": s["plans_built"],
    }


def _service_and_wire(keys, inputs, backend: str, reps: int) -> dict:
    """``FFTService.transform`` in process, then over TCP to the same service."""
    rows = max(np.atleast_2d(X).shape[0] for X in inputs)
    config = ServeConfig(backend=backend, nu=keys[0].nu,
                         queue_limit=max(rows, ServeConfig.queue_limit))
    transform, rtt, wall = [], [], []
    old_switch = sys.getswitchinterval()
    with FFTService(config) as svc:
        for key, X in zip(keys, inputs):
            transform.append(timed_median(
                lambda: svc.transform(X, threads=key.threads), reps))
        out = {"service.transform_us": transform}
        stats = svc.stats()
        out.update({
            "service.avg_batch_occupancy": stats["avg_batch_occupancy"],
            "service.max_queue_depth": stats["max_queue_depth"],
            "service.rejected": stats["rejected"],
        })
        server = FFTServer(("127.0.0.1", 0), svc)
        thread = server.serve_background()
        try:
            with ServeClient("127.0.0.1", server.port) as client:
                for key, X in zip(keys, inputs):
                    client.fft(X, threads=key.threads)  # warm-up
                    before = svc.stats()
                    times = []
                    for _ in range(reps):
                        t0 = perf()
                        client.fft(X, threads=key.threads)
                        times.append(perf() - t0)
                    after = svc.stats()
                    rtt.append(float(np.mean(times)))
                    wall.append(
                        (after["request_wall_s"] - before["request_wall_s"])
                        / max(1, after["requests"] - before["requests"]))
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10)
            sys.setswitchinterval(old_switch)
        out["server.request_wall_us"] = float(np.mean(wall)) * 1e6
        out["wire.rtt_minus_service_us"] = (
            float(np.mean(rtt)) - float(np.mean(wall))) * 1e6
    return out


def probe(keys, inputs, backend: str, scratch):
    """Per-layer metrics and per-key detail for ``keys`` on ``inputs``.

    ``inputs[i]`` is one representative input of ``keys[i]`` in the
    workload's batch shape.  Returns ``(metrics, detail)``.
    """
    rows: dict = {}
    per_key: dict = {}
    seq_by_n: dict = {}
    scratch.fresh_codelet_cache()
    pool = PThreadsRuntime(2)
    try:
        for key, X in zip(keys, inputs):
            X = np.atleast_2d(X)
            reps = _reps(X.size)
            m, prog = _frontend(key, reps)
            cg, stages = _codegen(prog, X, backend, reps)
            m.update(cg)
            m.update(_smp(prog, stages, X, pool, reps))
            m["protocol.frame_roundtrip_us"] = _protocol(X, reps)
            s, p = seq_by_n.get(key.n, (0.0, 0.0))
            seq_by_n[key.n] = (s + m["smp.seq_execute_us"],
                               p + m["smp.execute_us"])
            per_key[key.label()] = m
            for name, v in m.items():
                if not isinstance(v, dict):
                    rows.setdefault(name, []).append(v)
    finally:
        pool.close()
    out = {name: float(np.mean(v)) for name, v in rows.items()}
    out["smp.speedup"] = (sum(s for s, _ in seq_by_n.values())
                          / sum(p for _, p in seq_by_n.values()))
    lo, hi = min(seq_by_n), max(seq_by_n)
    out["smp.speedup_smallest_n"] = seq_by_n[lo][0] / seq_by_n[lo][1]
    out["smp.speedup_largest_n"] = seq_by_n[hi][0] / seq_by_n[hi][1]
    out.update(_plan_cache(keys, backend, 5))
    svc = _service_and_wire(keys, inputs, backend, _reps(
        max(np.size(x) for x in inputs)))
    transform = svc.pop("service.transform_us")
    for key, t_us in zip(keys, transform):
        per_key[key.label()]["service.transform_us"] = t_us * 1e6
    out["service.transform_us"] = float(np.mean(transform)) * 1e6
    # what the service adds over the same plan's stages on the same kind
    # of runtime (the pool for threads > 1, sequential otherwise)
    overhead = [
        t * 1e6 - per_key[k.label()]["smp.batch"][
            "pool_us" if k.threads > 1 else "seq_us"]
        for k, t in zip(keys, transform)
    ]
    out["service.overhead_us"] = float(np.mean(overhead))
    out.update(svc)
    detail = {
        "per_key": per_key,
        "smp.speedup_by_n": {str(n): s / p
                             for n, (s, p) in sorted(seq_by_n.items())},
    }
    return out, detail
