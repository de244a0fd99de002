#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 fftbench/run.py --workload bulk-compiled --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a separate traced run.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
(prefixed ``#``) carry the host block, a human-readable table and the
per-size / per-key detail.  See ``fftbench/NOTES.md``.

Every input is generated from ``--seed`` before a clock starts; every
output is checked after the clock stops.  The program is imported from
the checkout's ``src`` directory and driven only through its public
functions; its own ``repro.trace`` tracer stays off.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH_ROOT = ROOT / ".fftbench_tmp"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measured time of the run (setup not included)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny sizes, for the benchmark's own self-test")
    return ap.parse_args(argv)


#: rounds per run; each round runs one slot of every phase in turn
ROUNDS = 10
#: untimed pause after set-up, and untimed warm-up of each phase
SETTLE_S = 2.0
WARMUP_S = 1.0


def measure(plan, seconds: float) -> list:
    """Interleave the phases of ``plan`` in ``ROUNDS`` rounds of slots.

    ``plan`` lists ``(phase_fn, spans)``; every slot runs for the same
    share of ``seconds``.  Returns one :class:`Phase` per entry.
    """
    from harness import Phase, perf

    phases = [Phase() for _ in plan]
    slot = seconds / (ROUNDS * len(plan))
    for _ in range(ROUNDS):
        for (fn, spans), phase in zip(plan, phases):
            t0 = perf()
            logs = fn(slot, spans)
            phase.slots.append((t0, perf(), logs))
    return phases


def run(wl, args, spec: dict) -> None:
    import numpy as np

    from harness import EPS, Spans, count_wrong, emit_result, reference, \
        host_block, hygiene_problems, median, perf, self_peak_rss_mb
    from layers import probe
    from workloads import SETUP_REPS

    trace = bool(args.trace)
    cpus = os.sched_getaffinity(0)
    if wl.one_cpu:
        os.sched_setaffinity(0, {min(cpus)})
    setups = []
    for i in range(1 if trace else SETUP_REPS):
        if i:
            wl.close()
        t0 = perf()
        wl.setup()
        setups.append(perf() - t0)
    # untimed: let the host settle after set-up, then warm both phases
    time.sleep(SETTLE_S)
    wl.phase_one(WARMUP_S)
    wl.phase_two(WARMUP_S)

    plan = [(wl.phase_one, None), (wl.phase_two, None)]
    if trace:
        spans = [Spans(), Spans()]
        plan += [(wl.phase_one, spans[0]), (wl.phase_two, spans[1])]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    every = measure(plan, args.seconds)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    phases = every[-2:]
    untraced = every[:2]

    # -- the clock has stopped: verify, then measure what is untimed ------
    acc = wl.accuracy()
    rss = self_peak_rss_mb()
    inplace = wl.inplace(spans[0] if trace else None)
    refs = {i: reference(np.fft.fft(x, axis=-1))
            for i, x in enumerate(wl.inputs)}
    logs = [log for ph in every for log in ph.logs]
    wrong_ops = count_wrong(logs, refs)
    attempted = sum(map(len, logs)) + 2 * acc.vectors
    failed = wrong_ops + acc.gross

    e2e = wl.e2e(*phases)
    detail = {
        "samples": wl.sample_counts(*phases),
        "accuracy": acc.detail(),
        "wrong_ops": wrong_ops,
        "minor_faults_per_op": faults / max(1, sum(map(len, logs))),
        "gross_accuracy_failures": acc.gross,
    }
    if trace:
        base = wl.e2e(*untraced)
        metrics = dict(inplace)
        wl.close()
        os.sched_setaffinity(0, cpus)  # the probe's pool needs both CPUs
        layer, layer_detail = probe(
            wl.keys,
            [wl.inputs[wl.key_of.index(k)] for k in wl.keys],
            wl.backend, wl.scratch)
        for name, value in layer.items():
            metrics.setdefault(name, value)
        shares = []
        for sp, ph in zip(spans, phases):
            total: dict = {}
            for start, end, _ in ph.slots:
                for k, v in sp.self_times(wl.depth, start, end).items():
                    total[k] = total.get(k, 0.0) + v
            shares.append(total)
        metrics["unattributed_frac"] = (shares[0]["unattributed"]
                                        / phases[0].wall)
        metrics["accuracy.rel_err_ratio"] = acc.ratio_max
        metrics["accuracy.roundtrip_err_max"] = max(acc.roundtrip.values())
        metrics["trace_overhead.ops_per_s_frac"] = (
            (base["ops_per_s"] - e2e["ops_per_s"]) / base["ops_per_s"])
        for name, m in (("latency_mean_frac", "latency_mean_ms"),
                        ("loaded_mean_frac", "loaded_mean_ms")):
            metrics["trace_overhead." + name] = (e2e[m] - base[m]) / base[m]
        detail.update({
            "untraced": base,
            "traced": e2e,
            "self_time_frac": [
                {k: v / ph.wall for k, v in sh.items()}
                for sh, ph in zip(shares, phases)],
            "layers": layer_detail,
        })
        kind = "per_layer"
    else:
        metrics = dict(e2e, setup_s=median(setups), rel_err_max=acc.rel_err_max,
                       rss_mb=rss)
        detail["setup_s_each"] = setups
        detail["rel_err_over_eps_log2n_max"] = acc.ratio_max
        kind = "end_to_end"
    wl.close()
    wl.scratch.remove()
    problems = hygiene_problems(wl.scratch)
    for p in problems:
        print(f"fftbench: hygiene: {p}", file=sys.stderr)
    detail["hygiene"] = problems
    host = host_block(args.seed, wl.name, args.seconds, trace)
    host.update(eps=EPS, affinity=len(cpus), one_cpu=wl.one_cpu)
    emit_result(spec, metrics, attempted=attempted, failed=failed,
                correct=failed == 0 and not problems, host=host,
                detail=detail, kind=kind)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"fftbench: program source not found at {SRC}/repro; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"fftbench: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    from harness import Scratch
    from repro.trace import get_tracer
    from workloads import WORKLOADS

    if get_tracer().enabled:
        print("fftbench: the program's tracer must be off", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    scratch = Scratch(SCRATCH_ROOT)
    wl = None
    try:
        wl = WORKLOADS[args.workload](rng, scratch, small=args.small)
        run(wl, args, spec)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if wl is not None:
            wl.close()
        scratch.remove()
    return 0


if __name__ == "__main__":
    sys.exit(main())
