"""NumPy interpreter for Sigma-SPL programs.

:func:`generate` turns a lowered loop program into one
:class:`~repro.smp.runtime.PlanStage` per pipeline stage, wrapped in
:class:`GeneratedProgram`.  Stage closures read a flat buffer of ``b``
stacked length-``n`` vectors and recover ``b`` from its length, so one
stage list serves a single vector and a ``(b, n)`` request stack alike, on
any :mod:`repro.smp` runtime (sequential, persistent pthreads pool, or
fork-join OpenMP style) and inside :mod:`repro.mp` workers.

Each :class:`~repro.sigma.loops.BlockLoop` becomes one fused closure —
gather, pre-scale, kernel, post-scale, scatter — built for two shapes
whose dimensions are fixed when the closure is built:

* ``b = 1``: the flat ``(n,)`` buffer is indexed 1-D; a contiguous
  gather/scatter grid is a plain ``src[lo:hi].reshape(rows, cols)`` view,
  any other table one fancy index;
* ``b > 1``: the buffers are viewed as ``(b, n)`` and every loop is
  vectorized over the batch axis (``S[:, lo:hi]`` or ``S[:, table]``).

Kernel policy (``codelet_max`` is shared with the compiled backend):

* ``F_2`` is an explicit butterfly and ``I_1`` a copy;
* leaf kernels up to ``codelet_max`` become dense codelet matrices applied
  as one matrix product over all loop iterations;
* larger ``DFT`` leaves fall back to the library kernel (``np.fft``) and
  other large kernels to their expression's ``apply`` — fully expanded
  formulas never need either.

Parallel stages keep the schedule's processor shares and barrier-elision
flags.  Elision stays sound for stacked buffers: each processor touches
the same column-index sets in every batch row, so per-processor access
sets remain pairwise disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..sigma.index_map import recover_grid
from ..sigma.loops import BlockLoop, SigmaProgram, Stage
from ..smp.runtime import PlanStage, Runtime, SequentialRuntime
from ..spl.expr import COMPLEX
from ..spl.matrices import DFT, F2, I
from ..trace import get_tracer
from .unroll import CODELET_MAX


@dataclass
class GeneratedProgram:
    """A lowered transform program plus its executable NumPy stages."""

    size: int
    stages: list[PlanStage]
    program: SigmaProgram

    def run(
        self, x: np.ndarray, runtime: Optional[Runtime] = None
    ) -> np.ndarray:
        """Apply the transform to ``x`` on ``runtime`` (sequential default)."""
        runtime = runtime or SequentialRuntime()
        out, _ = runtime.execute(self.stages, x, self.size)
        return out

    def run_with_stats(self, x: np.ndarray, runtime: Runtime):
        """Like :meth:`run` but returns ``(result, ExecutionStats)``."""
        return runtime.execute(self.stages, x, self.size)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.run(x)


def _block(table: np.ndarray) -> Optional[slice]:
    """The slice ``table`` reads when it is one contiguous row-major block."""
    rows, cols = table.shape
    grid = recover_grid(table)
    if grid and grid.col_stride == 1 and grid.row_stride == cols:
        return slice(grid.base, grid.base + rows * cols)
    return None


def _butterfly(t: np.ndarray) -> np.ndarray:
    return np.concatenate((t[:, :1] + t[:, 1:], t[:, :1] - t[:, 1:]), axis=1)


def _butterfly_stacked(t: np.ndarray) -> np.ndarray:
    return np.concatenate(
        (t[:, :, :1] + t[:, :, 1:], t[:, :, :1] - t[:, :, 1:]), axis=2
    )


class _Kernels:
    """Kernel applications along the last axis, one per distinct kernel."""

    def __init__(self, codelet_max: int) -> None:
        self.codelet_max = codelet_max
        self._fns: dict = {}

    def fn(self, kernel, stacked: bool) -> Optional[Callable]:
        """``t -> kernel(t)`` row-wise, or None for the ``I_1`` copy."""
        if isinstance(kernel, I) and kernel.n == 1:
            return None
        if isinstance(kernel, F2):
            return _butterfly_stacked if stacked else _butterfly
        key = kernel._key()
        if key not in self._fns:
            if kernel.cols <= self.codelet_max:
                # dense codelet matrix, transposed for row-batched apply
                mat = np.ascontiguousarray(kernel.to_matrix().T.astype(COMPLEX))
                self._fns[key] = lambda t: t @ mat
            elif isinstance(kernel, DFT):
                self._fns[key] = lambda t: np.fft.fft(t, axis=-1)
            else:
                self._fns[key] = kernel.apply  # batched over leading axes
        return self._fns[key]


def _loop_fn(loop: BlockLoop, kernels: _Kernels, stacked: bool) -> Callable:
    """``run(src, dst)`` for one loop: ``(n,)`` buffers, or ``(b, n)``."""
    rows, k = loop.gather.shape
    kout = loop.scatter.shape[1]
    # a contiguous grid is a slice (always truthy), anything else None
    gblock, sblock = _block(loop.gather), _block(loop.scatter)
    gather = np.ascontiguousarray(loop.gather)
    scatter = np.ascontiguousarray(loop.scatter)
    pre, post = loop.pre_scale, loop.post_scale
    kfn = kernels.fn(loop.kernel, stacked)

    if stacked:
        size = rows * kout

        def run(S, D):
            t = S[:, gblock].reshape(-1, rows, k) if gblock else S[:, gather]
            if pre is not None:
                t = t * pre
            if kfn is not None:
                t = kfn(t)
            if post is not None:
                t = t * post
            if sblock:
                D[:, sblock] = t.reshape(-1, size)
            else:
                D[:, scatter] = t
    else:
        def run(s, d):
            t = s[gblock].reshape(rows, k) if gblock else s[gather]
            if pre is not None:
                t = t * pre
            if kfn is not None:
                t = kfn(t)
            if post is not None:
                t = t * post
            if sblock:
                d[sblock] = t.reshape(-1)
            else:
                d[scatter] = t

    return run


def _plan_stage(stage: Stage, n: int, kernels: _Kernels) -> PlanStage:
    """One executable stage; parallel stages branch on ``proc``."""
    parallel = bool(stage.parallel and stage.procs)
    shares = (
        {p: [lp for lp in stage.loops if lp.proc == p] for p in stage.procs}
        if parallel
        else {None: list(stage.loops)}
    )
    single = {p: [_loop_fn(lp, kernels, False) for lp in lps]
              for p, lps in shares.items()}
    stacked = {p: [_loop_fn(lp, kernels, True) for lp in lps]
               for p, lps in shares.items()}

    def work(proc, src, dst):
        share = proc if parallel else None
        if src.size == n:
            for fn in single.get(share, ()):
                fn(src, dst)
        else:
            S, D = src.reshape(-1, n), dst.reshape(-1, n)
            for fn in stacked.get(share, ()):
                fn(S, D)

    return PlanStage(
        work=work,
        parallel=stage.parallel,
        needs_barrier=stage.needs_barrier,
        name=stage.name,
        nprocs=len(stage.procs) if parallel else 1,
    )


def batched_stages(
    program: SigmaProgram, codelet_max: int = CODELET_MAX
) -> list[PlanStage]:
    """The executable NumPy stages of a lowered program.

    The returned :class:`PlanStage` list mirrors the program's schedule
    (parallel flags, barrier elision, processor shares); each stage takes
    flat buffers holding any number ``b`` of stacked length-``n`` vectors.
    """
    kernels = _Kernels(codelet_max)
    return [_plan_stage(st, program.size, kernels) for st in program.stages]


def generate(
    program: SigmaProgram,
    codelet_max: int = CODELET_MAX,
) -> GeneratedProgram:
    """Build the NumPy stages of ``program`` into a :class:`GeneratedProgram`."""
    tr = get_tracer()
    with tr.span("codegen.python", "codegen", size=program.size,
                 stages=len(program.stages)):
        return GeneratedProgram(
            size=program.size,
            stages=batched_stages(program, codelet_max),
            program=program,
        )
