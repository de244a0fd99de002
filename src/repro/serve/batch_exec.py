"""Batched plan execution: one stacked ndarray through the SMP runtimes.

The serving layer coalesces many requests for the same plan and pays the
interpreter overhead once per stage per batch, not once per vector.  Every
backend's stages already take flat buffers of ``b`` stacked length-``n``
vectors (the NumPy interpreter, :func:`batched_stages`, is
:mod:`repro.codegen.python_backend`); :func:`run_batched` validates a
``(b, n)`` stack, flattens it, and runs it through a runtime.
"""

from __future__ import annotations

import numpy as np

from ..codegen.python_backend import batched_stages
from ..smp.runtime import ExecutionStats, PlanStage, Runtime
from ..spl.expr import COMPLEX


def run_batched(
    stages: list[PlanStage],
    n: int,
    X: np.ndarray,
    runtime: Runtime,
) -> tuple[np.ndarray, ExecutionStats]:
    """Execute a ``(b, n)`` stack through batched stages on ``runtime``."""
    X = np.asarray(X, dtype=COMPLEX)
    if X.ndim == 1:
        X = X[np.newaxis, :]
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"expected a (batch, {n}) stack, got {X.shape}")
    flat = np.ascontiguousarray(X).reshape(-1)
    out, stats = runtime.execute(stages, flat, flat.size)
    return out.reshape(X.shape), stats


__all__ = ["batched_stages", "run_batched"]
