#!/usr/bin/env python3
"""Self-test of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 fftbench/selftest.py

Checks, in order:

1. the verifier catches wrong answers: a scrambled output and a NaN
   output fed to it raise the failed count (and so ``failed_frac``);
2. each workload runs end to end at a tiny size, traced and untraced,
   reports ``correct``, fails nothing, and prints exactly the metric
   names of ``BENCHMARK.json``, in order;
3. no temporary directory is left behind;
4. without the program's source next to it, the benchmark exits non-zero
   without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH_ROOT = ROOT / ".fftbench_tmp"


def check_verifier() -> None:
    """Corrupted results must count as failed operations."""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    from harness import OpLog, accuracy_pass, count_wrong, reference
    from repro.frontend import generate_fft

    rng = np.random.default_rng(0)
    prog = generate_fft(64)
    xs = [rng.standard_normal(64) + 1j * rng.standard_normal(64)
          for _ in range(4)]
    refs = {i: reference(np.fft.fft(x)) for i, x in enumerate(xs)}

    def logged(outputs) -> OpLog:
        log = OpLog()
        for i, y in enumerate(outputs):
            log.add(0.0, 1.0, i, y)
        return log

    outs = [prog.run(x) for x in xs]
    assert count_wrong([logged(outs)], refs) == 0, \
        "clean results counted as wrong"

    outs[1] = outs[1][::-1]                     # scrambled indices
    outs[2] = np.full(64, np.nan, complex)      # non-finite
    log = logged(outs)
    wrong = count_wrong([log], refs)
    assert wrong == 2, f"corrupted results not caught ({wrong} of 2)"
    assert wrong / len(log) == 0.5

    clean = accuracy_pass((x, prog.run) for x in xs)
    assert clean.gross == 0 and clean.rel_err_max < 1e-12
    bad = accuracy_pass((x, lambda v: prog.run(v)[::-1]) for x in xs)
    assert bad.gross > 0, "accuracy pass missed scrambled indices"


def run_bench(args, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "fftbench/run.py", *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=300,
    )


def check_smoke(spec: dict) -> None:
    """Every workload, tiny, traced and untraced: correct, exact names."""
    for w in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            p = run_bench(["--workload", w["name"], "--seed", "7",
                           "--seconds", "1", "--trace", trace, "--small"],
                          ROOT)
            where = f"{w['name']} --trace {trace}"
            assert p.returncode == 0, f"{where}: exit {p.returncode}\n" \
                + p.stderr[-3000:]
            res = json.loads(p.stdout.strip().splitlines()[-1])
            assert sorted(res) == ["attempted", "correct", "failed",
                                   "metrics"], f"{where}: keys {sorted(res)}"
            assert res["correct"] and res["failed"] == 0, \
                f"{where}: {res['failed']} failed\n{p.stderr[-3000:]}"
            assert res["attempted"] >= 1
            want = [m["name"] for m in spec[kind]]
            assert list(res["metrics"]) == want, \
                f"{where}: metric names differ from BENCHMARK.json"
            units = {m["name"]: m["unit"] for m in spec[kind]}
            for name, m in res["metrics"].items():
                assert m["unit"] == units[name], f"{where}: unit of {name}"
                assert isinstance(m["value"], float), f"{where}: {name}"
            print(f"ok   smoke {where}")


def check_no_leftovers() -> None:
    left = list(SCRATCH_ROOT.iterdir()) if SCRATCH_ROOT.exists() else []
    assert not left, f"temporary directories left: {left}"


def check_refuses_without_source() -> None:
    """Only BENCHMARK.json and the benchmark: exit non-zero, no result."""
    SCRATCH_ROOT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="selftest-", dir=str(SCRATCH_ROOT)))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        p = run_bench(["--workload", "plan-churn", "--seed", "1",
                       "--seconds", "1", "--trace", "0"], bare)
        assert p.returncode != 0, "ran without the program's source"
        assert '"correct"' not in p.stdout, "printed a result without source"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:
            pass


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [
        ("verifier catches corrupted results", check_verifier),
        ("smoke runs", lambda: check_smoke(spec)),
        ("no leftover temporary directories", check_no_leftovers),
        ("refuses to run without the source", check_refuses_without_source),
    ]
    failed = 0
    for name, fn in checks:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
