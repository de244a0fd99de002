"""Shared machinery of the repository benchmark.

Everything here is workload-independent: the span recorder used by
traced runs, latency statistics, the untimed accuracy pass, the host and
toolchain block, the peak-RSS reader and the hygiene check that fails a run which
leaves a thread or a temporary directory behind.

The benchmark measures the program from outside.  Spans are recorded by
this module around calls into the program's public functions; the
program's own ``repro.trace`` tracer stays off.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

import numpy as np

EPS = float(np.finfo(np.float64).eps)

#: a relative L2 error above this is a wrong answer (scrambled indices,
#: a corrupted twiddle, NaN), six orders of magnitude above the rounding
#: error any size here reaches; rounding growth is reported, never failed
GROSS_REL_ERR = 1e-6

#: complex points of each output sampled for its signature
DIGEST_POINTS = 64

#: fixed random weights of the signature (not drawn from the workload seed)
_WEIGHTS = (np.random.default_rng(2006).standard_normal((DIGEST_POINTS, 2))
            @ np.array([1.0, 1j]))

perf = time.perf_counter


# -- statistics ----------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


def timed_median(fn: Callable[[], object], reps: int) -> float:
    """Median wall time of ``reps`` calls of ``fn`` (seconds), one warm-up."""
    fn()
    times = []
    for _ in range(reps):
        t0 = perf()
        fn()
        times.append(perf() - t0)
    return median(times)


# -- outputs and accuracy ------------------------------------------------


def _sample(y) -> np.ndarray:
    flat = np.asarray(y).reshape(-1)
    step = max(1, flat.size // DIGEST_POINTS)
    return flat[::step][:DIGEST_POINTS]


def signature(y) -> complex:
    """A random projection of a strided sample of ``y``: one complex number.

    Kept for every timed operation, so the benchmark's own memory grows by
    a few bytes per operation and ``rss_mb`` stays the program's.  A
    scrambled or non-finite output moves it by about a tenth of the
    sample's norm; rounding error moves it by about 1e-13 of it.
    """
    d = _sample(y)
    return complex(d @ _WEIGHTS[:d.size])


def reference(y) -> tuple:
    """``(signature, scale)`` of a correct output ``y``.

    :func:`count_wrong` divides a signature's distance from the reference
    by ``scale``, which bounds it by the sample's relative error.
    """
    d = _sample(y)
    return complex(d @ _WEIGHTS[:d.size]), float(
        np.linalg.norm(_WEIGHTS[:d.size]) * max(np.linalg.norm(d), EPS))


def rel_errors(Y: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Per-vector ``||y - fft(x)|| / ||fft(x)||`` of a ``(b, n)`` stack."""
    Y = np.atleast_2d(Y)
    ref = np.fft.fft(np.atleast_2d(X), axis=-1)
    if Y.shape != ref.shape:
        return np.full(ref.shape[0], np.inf)
    err = np.linalg.norm(Y - ref, axis=-1) / np.linalg.norm(ref, axis=-1)
    return np.where(np.isfinite(err), err, np.inf)


def roundtrip_errors(Z: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``FFT(FFT(x)) = n * x[-k mod n]`` per vector, relative L2 error."""
    X = np.atleast_2d(X)
    Z = np.atleast_2d(Z)
    n = X.shape[-1]
    want = n * X[:, (-np.arange(n)) % n]
    if Z.shape != want.shape:
        return np.full(X.shape[0], np.inf)
    err = np.linalg.norm(Z - want, axis=-1) / np.linalg.norm(want, axis=-1)
    return np.where(np.isfinite(err), err, np.inf)


@dataclasses.dataclass
class Accuracy:
    """Result of the untimed accuracy pass, per transform size."""

    rel_err: dict = dataclasses.field(default_factory=dict)
    roundtrip: dict = dataclasses.field(default_factory=dict)
    vectors: int = 0
    gross: int = 0

    def add(self, n: int, fwd: np.ndarray, rt: np.ndarray) -> None:
        self.vectors += len(fwd)
        self.gross += int(np.sum(~(fwd <= GROSS_REL_ERR)))
        self.gross += int(np.sum(~(rt <= GROSS_REL_ERR)))
        self.rel_err[n] = max(self.rel_err.get(n, 0.0), float(fwd.max()))
        self.roundtrip[n] = max(self.roundtrip.get(n, 0.0), float(rt.max()))

    @property
    def rel_err_max(self) -> float:
        return max(self.rel_err.values())

    @property
    def ratio_max(self) -> float:
        """Largest ``rel_err / (eps * log2 n)`` over the sizes checked."""
        return max(e / (EPS * np.log2(n)) for n, e in self.rel_err.items())

    def detail(self) -> dict:
        return {
            str(n): {
                "rel_err": self.rel_err[n],
                "rel_err_over_eps_log2n": self.rel_err[n] / (EPS * np.log2(n)),
                "roundtrip_err": self.roundtrip[n],
            }
            for n in sorted(self.rel_err)
        }


def accuracy_pass(pairs) -> Accuracy:
    """Forward and round-trip errors over ``(input, transform)`` pairs.

    Runs after the clock stops.  Each input is a ``(b, n)`` stack or a
    vector; its ``transform`` maps it to its output through the same path
    the workload timed, and is applied twice for the round trip.
    """
    acc = Accuracy()
    for X, transform in pairs:
        Y = transform(X)
        Z = transform(np.reshape(Y, np.shape(X)))
        X2 = np.atleast_2d(X)
        acc.add(X2.shape[-1], rel_errors(Y, X2), roundtrip_errors(Z, X2))
    return acc


class OpLog:
    """The timed operations of one caller in one slot, kept compactly.

    Per operation: start, end, input index and output signature (about 40
    bytes, no Python object), so neither memory nor the garbage collector's
    work grows much with the number of operations a run completes.
    """

    def __init__(self) -> None:
        self.t0 = array("d")
        self.t1 = array("d")
        self.inp = array("q")
        self.sig = array("d")     # real, imaginary
        self.errors: dict = {}    # position -> repr of the exception

    def __len__(self) -> int:
        return len(self.inp)

    def add(self, t0: float, t1: float, idx: int, y=None,
            error: Optional[str] = None) -> None:
        if error is not None:
            self.errors[len(self.inp)] = error
            sig = complex(math.nan, math.nan)
        else:
            sig = signature(y)
        self.t0.append(t0)
        self.t1.append(t1)
        self.inp.append(idx)
        self.sig.append(sig.real)
        self.sig.append(sig.imag)

    def ok(self) -> np.ndarray:
        """Mask of the operations that returned (right or wrong)."""
        mask = np.ones(len(self), dtype=bool)
        mask[list(self.errors)] = False
        return mask


def count_wrong(logs, refs: dict) -> int:
    """Operations that raised, or whose signature is grossly wrong.

    ``refs`` maps an input index to :func:`reference` of its correct output.
    """
    bad = 0
    for log in logs:
        if not len(log):
            continue
        sig = np.frombuffer(log.sig, dtype=np.complex128)
        want = np.array([refs[i][0] for i in log.inp])
        scale = np.array([refs[i][1] for i in log.inp])
        err = np.abs(sig - want) / scale
        bad += int(np.sum(~(err <= GROSS_REL_ERR)))
    return bad


def latency_ms(logs, q: Optional[float] = None) -> float:
    """Latency of the successful operations in ms: the mean, or the
    ``q``-th percentile."""
    lat = [(np.frombuffer(log.t1) - np.frombuffer(log.t0))[log.ok()]
           for log in logs if len(log)]
    lat = np.concatenate(lat) * 1e3 if lat else np.empty(0)
    if not lat.size:
        return float("nan")
    return float(lat.mean()) if q is None else percentile(lat, q)


@dataclasses.dataclass
class Phase:
    """The timed slots ``(start, end, logs)`` of one phase.

    A run interleaves the slots of its phases in rounds, so the host's
    drift in speed over a run falls on every phase alike; a phase's
    metrics pool all of its slots.  ``logs`` holds one :class:`OpLog`
    per caller.
    """

    slots: list = dataclasses.field(default_factory=list)

    @property
    def logs(self) -> list:
        return [log for _, _, logs in self.slots for log in logs]

    @property
    def count(self) -> int:
        return sum(map(len, self.logs))

    def good_inputs(self) -> np.ndarray:
        """Input indices of the operations that returned."""
        got = [np.frombuffer(log.inp, dtype=np.int64)[log.ok()]
               for log in self.logs if len(log)]
        return np.concatenate(got) if got else np.empty(0, dtype=np.int64)

    @property
    def wall(self) -> float:
        return sum(end - start for start, end, _ in self.slots)


# -- spans -----------------------------------------------------------------


class Spans:
    """In-memory span store of a traced phase (thread-safe appends).

    A span is ``(layer, name, thread, start, end)``.  The store is kept in
    memory and summarized when the phase ends.
    """

    def __init__(self) -> None:
        self.items: list = []

    def add(self, layer: str, name: str, t0: float, t1: float) -> None:
        self.items.append((layer, name, threading.get_ident(), t0, t1))

    def self_times(self, depth: dict, start: float, end: float) -> dict:
        """Exclusive time per layer on the phase's timeline.

        Sweeps every span of every thread: each instant between ``start``
        and ``end`` is attributed to the deepest layer (``depth`` maps
        layer to depth) with a span open at that instant, or to
        ``"unattributed"`` when none is.
        """
        events = []
        for layer, _name, _tid, t0, t1 in self.items:
            t0, t1 = max(t0, start), min(t1, end)
            if t1 > t0:
                events.append((t0, 1, layer))
                events.append((t1, -1, layer))
        events.sort(key=lambda e: (e[0], e[1]))
        open_count = {layer: 0 for layer in depth}
        out = {layer: 0.0 for layer in depth}
        out["unattributed"] = 0.0
        prev = start
        for t, kind, layer in events:
            if t > prev:
                live = [lay for lay, c in open_count.items() if c > 0]
                owner = (max(live, key=depth.__getitem__) if live
                         else "unattributed")
                out[owner] += t - prev
                prev = t
            open_count[layer] += kind
        if end > prev:
            out["unattributed"] += end - prev
        return out


def timed_stages(stages, spans: Spans, layer: str = "codegen"):
    """Copies of ``stages`` whose work records a span per call."""
    out = []
    for st in stages:
        def work(proc, src, dst, _work=st.work, _name=st.name):
            t0 = perf()
            try:
                _work(proc, src, dst)
            finally:
                spans.add(layer, _name, t0, perf())

        out.append(dataclasses.replace(st, work=work))
    return out


# -- host and memory --------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> list:
    out = []
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            out.append("L{} {} {}".format(
                (idx / "level").read_text().strip(),
                (idx / "type").read_text().strip(),
                (idx / "size").read_text().strip(),
            ))
        except OSError:
            continue
    return out


def host_block(seed: int, workload: str, seconds: float, trace: bool) -> dict:
    """Host and toolchain identity; results from different blocks differ."""
    from repro.codegen import compiler_fingerprint, optimization_tier
    from repro.codegen.flags import NO_SIMD_ENV

    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "compiler": compiler_fingerprint(),
        "optimization_tier": list(optimization_tier()),
        NO_SIMD_ENV: os.environ.get(NO_SIMD_ENV, ""),
    }


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- scratch directories and hygiene ----------------------------------------


class Scratch:
    """Temporary directories of one run, all under one root in the checkout.

    Every codelet cache the run uses is a fresh subdirectory here, so the
    user's cache (``~/.cache/repro``) is never read or written.
    """

    def __init__(self, root: Path) -> None:
        root.mkdir(parents=True, exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=str(root)))
        # the compiler's intermediate files stay inside the checkout too
        os.environ["TMPDIR"] = str(self.path)
        tempfile.tempdir = str(self.path)

    def fresh_codelet_cache(self) -> None:
        """Point ``REPRO_CODELET_CACHE`` at a new empty directory."""
        from repro.codegen.compiled_backend import CACHE_ENV, \
            clear_compiled_memo

        os.environ[CACHE_ENV] = tempfile.mkdtemp(prefix="codelets-",
                                                 dir=str(self.path))
        clear_compiled_memo()

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()  # only when no other run uses it
        except OSError:
            pass


def hygiene_problems(scratch: Scratch, grace_s: float = 3.0) -> list:
    """What this run left behind: live threads, temporary directories."""
    problems = []
    deadline = time.monotonic() + grace_s
    while threading.active_count() > 1 and time.monotonic() < deadline:
        time.sleep(0.01)
    extra = [t.name for t in threading.enumerate()
             if t is not threading.current_thread()]
    if extra:
        problems.append(f"threads still alive: {extra}")
    if scratch.path.exists():
        problems.append(f"temporary directory left: {scratch.path}")
    return problems


# -- result ---------------------------------------------------------------


def emit_result(spec: dict, metrics: dict, *, attempted: int, failed: int,
                correct: bool, host: dict, detail: dict,
                kind: str) -> None:
    """Print the report and, as the last stdout line, the result object.

    ``spec`` is the parsed ``BENCHMARK.json``; ``kind`` selects its
    ``end_to_end`` or ``per_layer`` list, and the printed metrics are
    exactly that list, in its order.
    """
    wanted = spec[kind]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"workload did not produce metrics {missing}")
    bad = [m["name"] for m in wanted
           if not math.isfinite(float(metrics[m["name"]]))]
    if bad:
        raise RuntimeError(f"metrics without a finite value: {bad}")
    print("# host " + json.dumps(host, sort_keys=True))
    print("# detail " + json.dumps(detail, sort_keys=True, default=float))
    frac = failed / attempted if attempted else float("nan")
    print(f"# {'metric':34s} {'value':>14s} {'unit':8s} better")
    for m in wanted:
        print(f"# {m['name']:34s} {metrics[m['name']]:14.6g} "
              f"{m['unit']:8s} {m['better']}")
    print(f"# {'failed_frac':34s} {frac:14.6g} {'ratio':8s} lower")
    out = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    sys.stdout.flush()
    print(json.dumps(out))
