"""Golden hashes of the C emitted for the benchmark's plans.

``sha256(emit_plan_source(program))`` is the content half of every
compiled codelet's cache key, so these hashes pin the emitted source of
the plans the repository benchmark runs:

* ``bulk-compiled``: n in {1024, 16384, 65536}, threads=2, mu=4, nu=4;
* ``plan-churn``: the keys n=64/threads=1 and n=2048/threads=2, mu=4.

They change only when code generation changes on purpose: a refactor of
the emitters must leave them alone.  A deliberate change to the emitted
C updates them here, in the same commit, and invalidates every cached
shared object.
"""

import hashlib

import pytest

from repro.codegen import emit_plan_source
from repro.codegen.flags import NO_SIMD_ENV
from repro.frontend import generate_fft

GOLDEN = {
    (1024, 2, 4): "a2a72699ea44ee273e9319c0302055ba"
                  "30a6e51d0dc9af9965164b058e81fcdc",
    (16384, 2, 4): "4d2de26286b004e05894dfae68f90b0f"
                   "48dc5110cb370942ba2b7df1e2f1d600",
    (65536, 2, 4): "f9a2eee0cf88bc5a30adb29d0779bc13"
                   "f5bd6f2a6ad22180898329c3f5a1bd1a",
    (64, 1, 1): "e49974ec3efce326810278744a9c939b"
                "33da9cbfb89ffc264cbce9b4602b5da1",
    (2048, 2, 1): "e3c6bf5f73232d83523495f08d07f7e6"
                  "c9edddcc8f6ae54ffe4158976ccdf083",
}


@pytest.mark.parametrize("n,threads,nu", sorted(GOLDEN),
                         ids=[f"n{n}-t{t}-nu{nu}" for n, t, nu in
                              sorted(GOLDEN)])
def test_emitted_plan_source_is_pinned(monkeypatch, n, threads, nu):
    monkeypatch.delenv(NO_SIMD_ENV, raising=False)
    program = generate_fft(n, threads=threads, mu=4, nu=nu).program
    digest = hashlib.sha256(emit_plan_source(program).encode()).hexdigest()
    assert digest == GOLDEN[(n, threads, nu)]
