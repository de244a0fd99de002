"""ν-wide loop emission: Σ-SPL loops with ``nu > 1`` as SIMD-shaped C.

The ``vec(ν)`` rewriting (:mod:`repro.vector`) guarantees that a vectorized
:class:`~repro.sigma.loops.BlockLoop` executes its kernel on blocks of ν
consecutive iterations.  This module turns that structural fact into C the
compiler's auto-vectorizer actually likes:

* the iteration space is blocked ``for (jb) { for (l < ν) ... }`` with the
  lane loop ``l`` innermost and branch-free;
* working data lives in **split re/im planes** laid out element-major /
  lane-minor (``t[u][l]`` at ``u*ν + l``), so every lane-loop access has
  unit stride — no ``double complex`` arithmetic, no ``__muldc3`` calls;
* gathers and scatters detect **lane contiguity** (after permutation
  folding, ν consecutive rows usually address ν consecutive elements) and
  emit contiguous deinterleaving loads; the one stage per plan that
  absorbed the :class:`~repro.vector.constructs.InRegisterTranspose` takes
  the table-driven general path instead;
* twiddle scales (:class:`~repro.vector.constructs.VecDiag` diagonals
  folded by lowering) are emitted as lane-transposed ``(block, u, lane)``
  real/imag tables so the multiply is also unit-stride;
* local buffers are 64-byte aligned and all pointers are
  ``restrict``-qualified (stage source/dest never alias: the drivers
  double-buffer).

:func:`emit_vec_loop` writes into the emitter's ``tables``/``lines``
lists, with the codelet and dense kernel registries passed in as
callables: :mod:`repro.codegen.compiled_backend` (the C emitter, also
behind :mod:`repro.codegen.c_backend`'s standalone programs) routes its
``nu > 1`` loops here and keeps its scalar loop emitter as the
``devectorize`` fallback for shapes ν does not divide.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..sigma.index_map import recover_grid
from ..sigma.loops import BlockLoop
from ..spl.matrices import F2, I


def fmt_real_table(name: str, values: np.ndarray) -> str:
    """A flat ``static const double`` array (one plane, not interleaved)."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    body = ",".join(repr(float(v)) for v in flat)
    return f"static const double {name}[{flat.size}] = {{{body}}};"


def lane_contiguous(table: np.ndarray, nu: int) -> bool:
    """Do ν consecutive rows address ν consecutive elements columnwise?

    True iff ``table[jb*ν + l, u] == table[jb*ν, u] + l`` for every block
    ``jb``, column ``u``, lane ``l`` — the condition under which a ν-lane
    gather/scatter is a contiguous (de)interleaving copy.  Permutation
    folding preserves this for every stage except the one that absorbed
    the in-register transpose (whose lanes sit ν apart).
    """
    rows = table.shape[0]
    if rows % nu:
        return False
    blocks = table.reshape(rows // nu, nu, -1)
    expect = blocks[:, :1, :] + np.arange(nu, dtype=table.dtype)[None, :, None]
    return bool(np.array_equal(blocks, expect))


def _block_addr(
    table: np.ndarray, nu: int, name: str, tables: list[str], fmt_int
) -> Callable[[str, str], str]:
    """C expression factory for the block-level address ``A(jb, u)``.

    ``A(jb, u) = table[jb*ν, u]`` — closed-form when the subsampled table
    is a recovered grid, otherwise a ``static const int`` block-base
    table emitted into ``tables``.
    """
    sub = table[::nu]
    grid = recover_grid(sub)
    if grid is not None:
        base, rs, cs = int(grid.base), int(grid.row_stride), int(grid.col_stride)

        def addr(jb: str, u: str) -> str:
            return f"{base} + {jb}*{rs} + {u}*{cs}"

        return addr
    k = sub.shape[1]
    tables.append(fmt_int(name, sub))

    def addr(jb: str, u: str) -> str:
        return f"{name}[{jb}*{k} + {u}]"

    return addr


def _full_addr(
    table: np.ndarray, name: str, tables: list[str], fmt_int
) -> Callable[[str, str], str]:
    """C expression factory for the per-row address ``table[j, u]``."""
    grid = recover_grid(table)
    if grid is not None:
        base, rs, cs = int(grid.base), int(grid.row_stride), int(grid.col_stride)

        def addr(j: str, u: str) -> str:
            return f"{base} + {j}*{rs} + {u}*{cs}"

        return addr
    k = table.shape[1]
    tables.append(fmt_int(name, table))

    def addr(j: str, u: str) -> str:
        return f"{name}[({j})*{k} + {u}]"

    return addr


def _lane_tables(
    scale: np.ndarray, nu: int, prefix: str, tables: list[str]
) -> tuple[str, str]:
    """Emit a scale vector as lane-transposed re/im planes.

    The loop stores scales row-major ``(j, u)``; the vector body wants
    ``(block, u, lane)`` so the lane loop reads unit-stride.  Returns the
    (re, im) table names; index with ``(jb*k + u)*ν + l``.
    """
    rows, k = scale.shape
    blocked = scale.reshape(rows // nu, nu, k).transpose(0, 2, 1)
    tables.append(fmt_real_table(f"{prefix}re", blocked.real))
    tables.append(fmt_real_table(f"{prefix}im", blocked.imag))
    return f"{prefix}re", f"{prefix}im"


def emit_vec_loop(
    tables: list[str],
    lines: list[str],
    loop: BlockLoop,
    sid: int,
    lid: int,
    ind: str,
    src: str,
    dst: str,
    vec_codelet: Callable[[object, int], Optional[str]],
    dense: Callable[[object], str],
    fmt_int,
) -> None:
    """One ν-blocked gather→scale→kernel→scale→scatter loop nest.

    ``src``/``dst`` name the in-scope ``cplx`` pointers for the current
    row; ``vec_codelet(kernel, ν)`` returns the name of a ν-lane split
    re/im codelet (or None to force the dense path); ``dense(kernel)``
    returns the name of an interleaved coefficient table; ``fmt_int`` is
    the backend's integer-table formatter.
    """
    nu = loop.nu
    rows, k = loop.gather.shape
    kout = loop.scatter.shape[1]
    nb = rows // nu
    base = f"{sid}_{lid}"
    o = lines

    g_contig = lane_contiguous(loop.gather, nu)
    s_contig = lane_contiguous(loop.scatter, nu)
    if g_contig:
        g_addr = _block_addr(loop.gather, nu, f"gvb{base}", tables, fmt_int)
    else:
        g_addr = _full_addr(loop.gather, f"gv{base}", tables, fmt_int)
    if s_contig:
        s_addr = _block_addr(loop.scatter, nu, f"svb{base}", tables, fmt_int)
    else:
        s_addr = _full_addr(loop.scatter, f"sv{base}", tables, fmt_int)

    w_names = (
        _lane_tables(loop.pre_scale, nu, f"wv{base}", tables)
        if loop.pre_scale is not None
        else None
    )
    v_names = (
        _lane_tables(loop.post_scale, nu, f"vv{base}", tables)
        if loop.post_scale is not None
        else None
    )

    kernel = loop.kernel
    cname = None
    kname = None
    if not isinstance(kernel, (F2, I)):
        cname = vec_codelet(kernel, nu)
        if cname is None:
            kname = dense(kernel)

    o.append(f"{ind}/* nu={nu} lanes x {nb} blocks"
             f" (gather {'contig' if g_contig else 'strided'},"
             f" scatter {'contig' if s_contig else 'strided'}) */")
    o.append(f"{ind}for (int jb = 0; jb < {nb}; ++jb) {{")
    o.append(
        f"{ind}  double tre[{k * nu}] __attribute__((aligned(64)));"
        f" double tim[{k * nu}] __attribute__((aligned(64)));"
    )

    # gather: deinterleave ν complex elements per column into the planes
    if g_contig:
        o.append(f"{ind}  for (int u = 0; u < {k}; ++u) {{")
        o.append(
            f"{ind}    const double *restrict p = (const double *)"
            f"({src} + ({g_addr('jb', 'u')}));"
        )
        o.append(
            f"{ind}    for (int l = 0; l < {nu}; ++l)"
            f" {{ tre[u*{nu}+l] = p[2*l]; tim[u*{nu}+l] = p[2*l+1]; }}"
        )
        o.append(f"{ind}  }}")
    else:
        o.append(
            f"{ind}  const double *restrict sd = (const double *){src};"
        )
        o.append(f"{ind}  for (int u = 0; u < {k}; ++u)")
        o.append(
            f"{ind}    for (int l = 0; l < {nu}; ++l)"
            f" {{ const long a = {g_addr(f'(jb*{nu}+l)', 'u')};"
            f" tre[u*{nu}+l] = sd[2*a]; tim[u*{nu}+l] = sd[2*a+1]; }}"
        )

    if w_names is not None:
        wre, wim = w_names
        o.append(f"{ind}  for (int u = 0; u < {k}; ++u)")
        o.append(
            f"{ind}    for (int l = 0; l < {nu}; ++l) {{"
            f" const double xr = tre[u*{nu}+l], xi = tim[u*{nu}+l];"
            f" const double cr = {wre}[(jb*{k}+u)*{nu}+l],"
            f" ci = {wim}[(jb*{k}+u)*{nu}+l];"
            f" tre[u*{nu}+l] = xr*cr - xi*ci;"
            f" tim[u*{nu}+l] = xr*ci + xi*cr; }}"
        )

    # kernel: ν lanes at once
    out_re, out_im = "tre", "tim"
    if isinstance(kernel, F2):
        o.append(
            f"{ind}  for (int l = 0; l < {nu}; ++l) {{"
            f" const double ar = tre[l] + tre[{nu}+l],"
            f" ai = tim[l] + tim[{nu}+l];"
            f" const double br = tre[l] - tre[{nu}+l],"
            f" bi = tim[l] - tim[{nu}+l];"
            f" tre[l] = ar; tim[l] = ai;"
            f" tre[{nu}+l] = br; tim[{nu}+l] = bi; }} /* F_2 x {nu} */"
        )
    elif isinstance(kernel, I):
        pass  # pure ν-block move: gather/scatter carry the permutation
    elif cname is not None:
        o.append(
            f"{ind}  double yre[{kout * nu}] __attribute__((aligned(64)));"
            f" double yim[{kout * nu}] __attribute__((aligned(64)));"
        )
        o.append(f"{ind}  {cname}(tre, tim, yre, yim);")
        out_re, out_im = "yre", "yim"
    else:  # dense fallback, lane loop innermost for unit-stride FMA chains
        o.append(
            f"{ind}  double yre[{kout * nu}] __attribute__((aligned(64)));"
            f" double yim[{kout * nu}] __attribute__((aligned(64)));"
        )
        o.append(f"{ind}  for (int v = 0; v < {kout * nu}; ++v)"
                 f" {{ yre[v] = 0; yim[v] = 0; }}")
        o.append(f"{ind}  for (int v = 0; v < {kout}; ++v)")
        o.append(f"{ind}    for (int u = 0; u < {k}; ++u) {{")
        o.append(
            f"{ind}      const double cr = {kname}[2*(v*{k}+u)],"
            f" ci = {kname}[2*(v*{k}+u)+1];"
        )
        o.append(
            f"{ind}      for (int l = 0; l < {nu}; ++l) {{"
            f" yre[v*{nu}+l] += cr*tre[u*{nu}+l] - ci*tim[u*{nu}+l];"
            f" yim[v*{nu}+l] += cr*tim[u*{nu}+l] + ci*tre[u*{nu}+l]; }}"
        )
        o.append(f"{ind}    }}")
        out_re, out_im = "yre", "yim"

    # scatter (+ post-scale): re-interleave the planes
    post_re = f"{out_re}[v*{nu}+l]"
    post_im = f"{out_im}[v*{nu}+l]"
    scale_stmt = ""
    if v_names is not None:
        vre, vim = v_names
        scale_stmt = (
            f" const double pr = {vre}[(jb*{kout}+v)*{nu}+l],"
            f" pi = {vim}[(jb*{kout}+v)*{nu}+l];"
            f" const double zr = rr*pr - zi_*pi;"
            f" zi_ = rr*pi + zi_*pr; rr = zr;"
        )
    if s_contig:
        o.append(f"{ind}  for (int v = 0; v < {kout}; ++v) {{")
        o.append(
            f"{ind}    double *restrict q = (double *)"
            f"({dst} + ({s_addr('jb', 'v')}));"
        )
        o.append(
            f"{ind}    for (int l = 0; l < {nu}; ++l) {{"
            f" double rr = {post_re}; double zi_ = {post_im};"
            f"{scale_stmt}"
            f" q[2*l] = rr; q[2*l+1] = zi_; }}"
        )
        o.append(f"{ind}  }}")
    else:
        o.append(f"{ind}  double *restrict dd = (double *){dst};")
        o.append(f"{ind}  for (int v = 0; v < {kout}; ++v)")
        o.append(
            f"{ind}    for (int l = 0; l < {nu}; ++l) {{"
            f" double rr = {post_re}; double zi_ = {post_im};"
            f"{scale_stmt}"
            f" const long a = {s_addr(f'(jb*{nu}+l)', 'v')};"
            f" dd[2*a] = rr; dd[2*a+1] = zi_; }}"
        )
    o.append(f"{ind}}}")


__all__ = ["emit_vec_loop", "fmt_real_table", "lane_contiguous"]
