"""Walkthrough: from DFT_mn to the multicore Cooley-Tukey FFT (Eq. 14).

Reproduces Section 3 of the paper step by step:

1. start from the Cooley-Tukey factorization (Eq. 1),
2. tag it with smp(p, mu),
3. watch the Table 1 rules fire until all tags are discharged,
4. check Definition 1 (load balanced + free of false sharing),
5. confirm the result *is* the paper's Eq. (14), and
6. run the NumPy stages and show the generated pthreads C.

Run:  python examples/derivation_walkthrough.py
"""

import numpy as np

from repro import build_eq14, format_expr
from repro.codegen import generate, generate_c
from repro.rewrite import (
    RewriteTrace,
    choose_ct_split,
    cooley_tukey_step,
    derive_multicore_ct,
    expand_dft,
)
from repro.sigma import lower
from repro.spl import check_fully_optimized, smp


def main() -> None:
    n, p, mu = 256, 2, 4
    m, k = choose_ct_split(n, p, mu)

    print(f"Target: DFT_{n} on p={p} processors, cache line mu={mu}\n")

    ct = cooley_tukey_step(m, k)
    print("Eq. (1), Cooley-Tukey FFT:")
    print("  " + format_expr(ct), "\n")

    print(f"Tagged for rewriting:  {format_expr(smp(p, mu, ct))}\n")

    trace = RewriteTrace()
    result = derive_multicore_ct(n, p, mu, trace=trace)

    print(f"Rewriting fired {len(trace)} steps; Table 1 rules used:")
    for name in sorted(set(trace.rule_names())):
        count = trace.rule_names().count(name)
        print(f"  {name:<26} x{count}")
    print("\nFirst rewriting steps:")
    for step in trace.steps[:4]:
        print("  " + str(step))

    print("\nResult — the multicore Cooley-Tukey FFT (Eq. 14):")
    print("  " + format_expr(result))

    check = check_fully_optimized(result, p, mu)
    print(f"\nDefinition 1 (load-balanced, no false sharing): {bool(check)}")

    assert result == build_eq14(m, k, p, mu)
    print("Matches the paper's printed Eq. (14) verbatim: True")

    x = np.random.default_rng(0).standard_normal(n) + 0j
    print(
        "Numerically exact vs numpy.fft:",
        np.allclose(result.apply(x), np.fft.fft(x), atol=1e-7),
    )

    # implementation level: loop merging + code generation
    expanded = expand_dft(result, "balanced", min_leaf=16)
    program = lower(expanded)
    print(f"\nAfter loop merging: {len(program.stages)} loop stages "
          f"({program.barrier_count()} need a barrier)")
    print(program.summary())

    gen = generate(program)
    x = np.random.default_rng(1).standard_normal(program.size) + 0j
    print(f"\nNumPy stages ({len(gen.stages)}) match numpy.fft:",
          np.allclose(gen.run(x), np.fft.fft(x), atol=1e-7))

    gen_c = generate_c(program, mode="pthreads")
    lines = gen_c.source.splitlines()
    start = next(i for i, l in enumerate(lines) if "repro_stage0(" in l)
    print("\n--- generated pthreads C (excerpt) ---")
    print("\n".join(lines[start : start + 12]))
    print(f"... ({len(lines)} lines total; compiles with gcc -lpthread)")


if __name__ == "__main__":
    main()
