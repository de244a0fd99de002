"""Batched execution must match numpy.fft row-for-row on every runtime."""

import numpy as np
import pytest

from repro.frontend import generate_fft
from repro.serve.batch_exec import run_batched
from repro.smp import PThreadsRuntime, SequentialRuntime


def _stack(b, n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))


@pytest.mark.parametrize("n,threads,mu", [
    (64, 1, 4),
    (256, 1, 4),
    (64, 2, 2),
    (256, 2, 4),
    (1024, 2, 4),
])
@pytest.mark.parametrize("batch", [1, 3, 8])
def test_batched_matches_fft_sequential(n, threads, mu, batch):
    gen = generate_fft(n, threads=threads, mu=mu)
    stages = gen.stages
    X = _stack(batch, n)
    Y, stats = run_batched(stages, n, X, SequentialRuntime())
    np.testing.assert_allclose(Y, np.fft.fft(X, axis=-1), atol=1e-6)
    assert Y.shape == X.shape


def test_batched_on_pthreads_pool():
    n, threads = 256, 2
    gen = generate_fft(n, threads=threads, mu=4)
    stages = gen.stages
    X = _stack(6, n, seed=1)
    with PThreadsRuntime(threads) as pool:
        Y, stats = run_batched(stages, n, X, pool)
        # pool reuse across requests
        Y2, _ = run_batched(stages, n, X * 2, pool)
    np.testing.assert_allclose(Y, np.fft.fft(X, axis=-1), atol=1e-6)
    np.testing.assert_allclose(Y2, 2 * np.fft.fft(X, axis=-1), atol=1e-6)
    assert stats.threads_spawned == 0  # persistent pool


def test_batched_preserves_schedule_structure():
    gen = generate_fft(256, threads=2, mu=4)
    stages = gen.stages
    assert len(stages) == len(gen.program.stages)
    for b, s in zip(stages, gen.program.stages):
        assert b.parallel == s.parallel
        assert b.needs_barrier == s.needs_barrier
        assert b.nprocs == (len(s.procs) if s.parallel else 1)
        assert b.name == s.name


def test_one_dim_input_promoted():
    gen = generate_fft(64, threads=1, mu=4)
    stages = gen.stages
    x = _stack(1, 64)[0]
    Y, _ = run_batched(stages, 64, x, SequentialRuntime())
    np.testing.assert_allclose(Y[0], np.fft.fft(x), atol=1e-6)


def test_shape_mismatch_rejected():
    gen = generate_fft(64, threads=1, mu=4)
    stages = gen.stages
    with pytest.raises(ValueError, match="stack"):
        run_batched(stages, 64, _stack(2, 32), SequentialRuntime())
