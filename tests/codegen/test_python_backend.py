"""Tests for the NumPy interpreter of Σ-SPL programs."""

import numpy as np
import pytest

from repro.codegen import generate
from repro.codegen.python_backend import _block
from repro.rewrite import (
    cooley_tukey_step,
    derive_multicore_ct,
    derive_sequential_ct,
    expand_dft,
    six_step,
)
from repro.serve.batch_exec import run_batched
from repro.sigma import lower
from repro.sigma.loops import BlockLoop, SigmaProgram, Stage
from repro.smp import PThreadsRuntime, SequentialRuntime
from repro.spl import DFT, F2, Tensor
from tests.conftest import random_vector


class TestGeneratedCorrectness:
    @pytest.mark.parametrize("n", [4, 8, 16, 64, 256, 1024])
    def test_sequential_sizes(self, rng, n):
        gen = generate(lower(expand_dft(DFT(n), "radix2")))
        x = random_vector(rng, n)
        np.testing.assert_allclose(gen.run(x), np.fft.fft(x), atol=1e-6)

    @pytest.mark.parametrize("n,p,mu", [(64, 2, 2), (256, 2, 4), (1024, 4, 4)])
    def test_parallel_formulas(self, rng, n, p, mu):
        f = expand_dft(derive_multicore_ct(n, p, mu), "balanced", min_leaf=16)
        gen = generate(lower(f))
        x = random_vector(rng, n)
        np.testing.assert_allclose(gen.run(x), np.fft.fft(x), atol=1e-6)

    def test_mixed_radix(self, rng):
        gen = generate(lower(expand_dft(DFT(48), "balanced", min_leaf=8)))
        x = random_vector(rng, 48)
        np.testing.assert_allclose(gen.run(x), np.fft.fft(x), atol=1e-7)

    def test_unmerged_six_step(self, rng):
        prog = lower(
            six_step(8, 8), merge_permutations=False, merge_diagonals=False
        )
        gen = generate(prog)
        x = random_vector(rng, 64)
        np.testing.assert_allclose(gen.run(x), np.fft.fft(x), atol=1e-7)

    def test_callable_interface(self, rng):
        gen = generate(lower(cooley_tukey_step(4, 4)))
        x = random_vector(rng, 16)
        np.testing.assert_allclose(gen(x), np.fft.fft(x), atol=1e-8)


def _stacked(rng, b, n):
    return rng.standard_normal((b, n)) + 1j * rng.standard_normal((b, n))


def _assert_runs_like_reference(gen, rng, atol=1e-9):
    """b = 1 and b = 5 stacked runs both match the Σ-SPL reference.

    Returns how often the stages called ``np.fft.fft`` (the library
    kernel) while running.
    """
    n = gen.size
    x = random_vector(rng, n)
    X = _stacked(rng, 5, n)
    calls = []
    real_fft = np.fft.fft
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.fft, "fft",
                   lambda *a, **k: calls.append(1) or real_fft(*a, **k))
        y = gen.run(x)
        Y, _ = run_batched(gen.stages, n, X, SequentialRuntime())
    np.testing.assert_allclose(y, gen.program.apply(x), atol=atol)
    want = np.stack([gen.program.apply(row) for row in X])
    np.testing.assert_allclose(Y, want, atol=atol)
    return len(calls)


class TestGeneratedSource:
    """Each kernel and indexing path of the interpreter, by behaviour."""

    def test_stages_serve_single_and_stacked_buffers(self, rng):
        gen = generate(lower(cooley_tukey_step(4, 4)))
        _assert_runs_like_reference(gen, rng)

    def test_codelets_emitted_as_matmul(self, rng):
        gen = generate(lower(cooley_tukey_step(4, 4)), codelet_max=4)
        # DFT_4 leaves are dense codelets, not the library kernel
        assert _assert_runs_like_reference(gen, rng) == 0

    def test_f2_unrolled(self, rng):
        prog = lower(expand_dft(DFT(8), "radix2"))
        assert {type(lp.kernel) for st in prog.stages for lp in st.loops} \
            == {F2}
        _assert_runs_like_reference(generate(prog), rng)

    def test_merged_twiddles_visible(self, rng):
        prog = lower(cooley_tukey_step(4, 4))
        assert any(lp.pre_scale is not None
                   for st in prog.stages for lp in st.loops)
        _assert_runs_like_reference(generate(prog), rng)

    def test_library_kernel_flagged_for_large_leaves(self, rng):
        gen = generate(lower(cooley_tukey_step(64, 64)), codelet_max=32)
        # DFT_64 leaves exceed codelet_max: one library call per stage
        # and shape (b = 1, then b = 5)
        calls = _assert_runs_like_reference(gen, rng, atol=1e-8)
        assert calls == 2 * len(gen.stages)

    def test_expression_kernel_above_codelet_max(self, rng):
        kernel = Tensor(F2(), F2())
        idx = np.arange(8).reshape(2, 4)
        prog = SigmaProgram(8, [Stage([BlockLoop(kernel, idx, idx[::-1])])])
        _assert_runs_like_reference(generate(prog, codelet_max=2), rng)

    def test_contiguous_scatter_uses_slices(self, rng):
        f = expand_dft(derive_multicore_ct(256, 2, 4), "balanced", min_leaf=16)
        prog = lower(f)
        blocks = [_block(lp.scatter) for st in prog.stages for lp in st.loops]
        assert any(isinstance(b, slice) for b in blocks)
        _assert_runs_like_reference(generate(prog), rng)

    def test_barrier_elision_annotated(self, rng):
        f = expand_dft(derive_multicore_ct(256, 2, 4), "balanced", min_leaf=16)
        gen = generate(lower(f))
        assert [s.needs_barrier for s in gen.stages] == [False, True]
        x = random_vector(rng, 256)
        with PThreadsRuntime(2) as pool:
            y, stats = gen.run_with_stats(x, pool)
        np.testing.assert_allclose(y, np.fft.fft(x), atol=1e-9)
        assert stats.barriers == 1  # the elided first stage waits for none

    def test_proc_branches_cover_all_processors(self, rng):
        f = expand_dft(derive_multicore_ct(1024, 4, 4), "balanced", min_leaf=8)
        prog = lower(f)
        gen = generate(prog)
        x = random_vector(rng, 1024)
        for stage, plan in zip(prog.stages, gen.stages):
            assert plan.nprocs == 4
            dst = np.full(1024, np.nan, dtype=complex)
            for proc in range(4):
                plan.work(proc, x, dst)
                # each share writes exactly its own loops' scatter indices
                mine = stage.writes(proc)
                assert not np.isnan(dst[mine]).any()
            assert not np.isnan(dst).any()

    def test_plan_is_deterministic(self, rng):
        prog = lower(cooley_tukey_step(8, 8))
        x = random_vector(rng, 64)
        np.testing.assert_array_equal(generate(prog).run(x),
                                      generate(prog).run(x))

    def test_stage_count_matches_program(self):
        prog = lower(cooley_tukey_step(8, 8))
        gen = generate(prog)
        assert len(gen.stages) == len(prog.stages)
        assert [s.needs_barrier for s in gen.stages] == [
            s.needs_barrier for s in prog.stages
        ]
