"""One plan through every executor: the emitters must agree.

The plan (DFT_256 on 2 threads, µ = 4: parallel stages, merged twiddles,
an elided barrier) runs through

* the standalone C program of ``generate_c``, sequential and pthreads
  drivers, compiled and run;
* the compiled backend's shared-object stages;
* the NumPy interpreter at b = 1 and at b = 5;
* the simulator backend (the literal per-row oracle).

Every result must match the simulator's.  The ``unroll_max > 0`` case
unrolls the plan's DFT leaves from their fast Cooley-Tukey expansion
into the standalone program.
"""

import re

import numpy as np
import pytest

from repro.codegen import compile_and_run, compiler_available, generate, \
    generate_c, get_backend
from repro.codegen.compiled_backend import clear_compiled_memo, \
    compile_plan, compiled_available
from repro.frontend import generate_fft
from repro.serve.batch_exec import run_batched
from repro.smp import SequentialRuntime

N = 256
ATOL = 1e-9


@pytest.fixture(scope="module")
def program():
    return generate_fft(N, threads=2, mu=4).program


@pytest.fixture(scope="module")
def X():
    rng = np.random.default_rng(7)
    return rng.standard_normal((5, N)) + 1j * rng.standard_normal((5, N))


@pytest.fixture(scope="module")
def oracle(program, X):
    stages = get_backend("simulator").build_stages(program)
    return run_batched(stages, N, X, SequentialRuntime())[0]


def test_plan_exercises_the_interesting_paths(program):
    assert any(st.parallel for st in program.stages)
    assert not all(st.needs_barrier for st in program.stages)
    assert any(lp.pre_scale is not None
               for st in program.stages for lp in st.loops)


def test_simulator_matches_numpy_fft(oracle, X):
    np.testing.assert_allclose(oracle, np.fft.fft(X, axis=-1), atol=1e-8)


@pytest.mark.parametrize("b", [1, 5])
def test_numpy_interpreter(program, X, oracle, b):
    gen = generate(program)
    if b == 1:
        got = gen.run(X[0])[np.newaxis]
    else:
        got = run_batched(gen.stages, N, X, SequentialRuntime())[0]
    np.testing.assert_allclose(got, oracle[:b], atol=ATOL)


@pytest.mark.skipif(not compiled_available(), reason="no C compiler")
def test_compiled_shared_object(program, X, oracle, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODELET_CACHE", str(tmp_path))
    clear_compiled_memo()
    stages = compile_plan(program).plan_stages()
    got = run_batched(stages, N, X, SequentialRuntime())[0]
    clear_compiled_memo()
    np.testing.assert_allclose(got, oracle, atol=ATOL)


@pytest.mark.skipif(not compiler_available(), reason="no C compiler")
@pytest.mark.parametrize("mode", ["sequential", "pthreads"])
@pytest.mark.parametrize("unroll_max", [0, 16])
def test_standalone_c_program(program, X, oracle, mode, unroll_max):
    gen = generate_c(program, mode=mode, unroll_max=unroll_max)
    ops = re.findall(r"unrolled size-16 codelet: (\d+) complex ops",
                     gen.source)
    if unroll_max:
        # from the Cooley-Tukey expansion: far below the 404 ops the
        # dense DFT_16 definition unrolls to
        assert ops and all(int(k) < 100 for k in ops)
    else:
        assert not ops
    np.testing.assert_allclose(compile_and_run(gen, X[0]), oracle[0],
                               atol=ATOL)
