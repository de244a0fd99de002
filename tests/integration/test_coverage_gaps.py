"""Targeted tests for less-traveled paths across the stack."""

import numpy as np
import pytest

from repro.cli import main
from repro.machine import all_machine_specs, cmp8, machine
from repro.sigma import lower
from repro.spl import Compose, DFT, DiagFunc, I, Tensor, Twiddle
from tests.conftest import random_vector


class TestCmp8Machine:
    def test_spec_sane(self):
        spec = cmp8()
        assert spec.p == 8
        assert spec.mu == 4
        assert spec.mem_speedup(8) > spec.mem_speedup(4)

    def test_lookup_includes_extension(self):
        assert machine("cmp8").p == 8
        assert "cmp8" in all_machine_specs()

    def test_cli_bench_cmp8(self, capsys):
        assert main(["bench", "cmp8", "--kmin", "6", "--kmax", "7"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 3

    def test_eight_way_derivation(self, rng):
        from repro.rewrite import derive_multicore_ct
        from repro.spl import is_fully_optimized

        f = derive_multicore_ct(1 << 10, 8, 4)
        assert is_fully_optimized(f, 8, 4)
        x = random_vector(rng, 1 << 10)
        np.testing.assert_allclose(f.apply(x), np.fft.fft(x), atol=1e-6)


class TestLoweringEdgeCases:
    def test_diagfunc_stage_folds(self, rng):
        d = DiagFunc(16, lambda k: np.exp(-1j * np.pi * k / 16), tag=("w",))
        f = Compose(d, Tensor(I(4), DFT(4)))
        prog = lower(f, validate=True)
        assert len(prog.stages) == 1
        x = random_vector(rng, 16)
        np.testing.assert_allclose(prog.apply(x), f.apply(x), atol=1e-9)

    def test_only_diagonals_unmerged(self, rng):
        """merge_diagonals=False alone: explicit diag pass, merged perms."""
        from repro.rewrite import cooley_tukey_step

        f = cooley_tukey_step(4, 4)
        prog = lower(f, merge_diagonals=False, validate=True)
        assert any("explicit-diag" in s.name for s in prog.stages)
        x = random_vector(rng, 16)
        np.testing.assert_allclose(prog.apply(x), np.fft.fft(x), atol=1e-8)

    def test_diag_then_perm_pending_interaction(self, rng):
        """Diag arriving when a permutation is already pending must scale at
        the right (source) positions."""
        from repro.spl import L

        f = Compose(Tensor(I(4), DFT(4)), Twiddle(4, 4), L(16, 4))
        prog = lower(f, validate=True)
        x = random_vector(rng, 16)
        np.testing.assert_allclose(prog.apply(x), f.apply(x), atol=1e-9)

    def test_perm_after_diag_pending(self, rng):
        from repro.spl import L

        f = Compose(Tensor(I(4), DFT(4)), L(16, 4), Twiddle(4, 4))
        prog = lower(f, validate=True)
        x = random_vector(rng, 16)
        np.testing.assert_allclose(prog.apply(x), f.apply(x), atol=1e-9)


class TestEngineLimits:
    def test_normal_forms_limit(self):
        from repro.rewrite import (
            RewriteLimitExceeded,
            breakdown_rules,
            normal_forms,
        )

        with pytest.raises(RewriteLimitExceeded):
            list(normal_forms(DFT(64), breakdown_rules(), limit=3))


class TestGeneratedProgramExtras:
    def test_run_with_default_runtime(self, rng):
        from repro.frontend import generate_fft

        gen = generate_fft(32)
        x = random_vector(rng, 32)
        np.testing.assert_allclose(gen.run(x), np.fft.fft(x), atol=1e-7)

    def test_program_attribute_roundtrip(self):
        from repro.frontend import generate_fft

        gen = generate_fft(32)
        assert gen.program.size == 32
        assert gen.size == 32

    def test_stages_run_without_a_runtime(self, rng):
        """Driving every stage's processor shares by hand, double-buffered,
        computes the transform: the stages carry the whole program."""
        from repro.frontend import generate_fft

        gen = generate_fft(256, threads=2, mu=4)
        x = random_vector(rng, 256)
        cur, nxt = x.copy(), np.empty_like(x)
        for stage in gen.stages:
            for proc in range(stage.nprocs):
                stage.work(proc, cur, nxt)
            cur, nxt = nxt, cur
        np.testing.assert_allclose(cur, np.fft.fft(x), atol=1e-9)


class TestFormatTree:
    def test_tree_of_parallel_formula(self):
        from repro.rewrite import derive_multicore_ct
        from repro.spl import format_tree

        out = format_tree(derive_multicore_ct(256, 2, 4))
        assert "ParTensor" in out and "LinePerm" in out
