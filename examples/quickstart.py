"""Quickstart: generate a multithreaded FFT and run it.

The one-call API mirrors using Spiral: specify the transform (DFT_n), the
machine parameters (p processors, cache line of mu complex elements), get
back an optimized program, and execute it — here on a real pthreads-style
worker pool.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import generate_fft
from repro.smp import PThreadsRuntime, SequentialRuntime


def main() -> None:
    n, threads, mu = 1024, 2, 4

    # 1. Generate: Cooley-Tukey formula -> Table 1 rewriting -> loop
    #    merging -> NumPy stages (fft.program is the lowered loop program).
    fft = generate_fft(n, threads=threads, mu=mu)
    print(f"generated DFT_{n} for p={threads}, mu={mu}: "
          f"{len(fft.stages)} pipeline stages, "
          f"{sum(1 for s in fft.stages if s.needs_barrier)} barriers")

    # 2. Run it — sequentially...
    rng = np.random.default_rng(42)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    y_seq = fft.run(x, SequentialRuntime())

    # ...and on a persistent pool of worker threads (the paper's pthreads
    # backend: SPMD workers synchronized by a sense-reversing barrier).
    with PThreadsRuntime(threads) as pool:
        y_par, stats = fft.run_with_stats(x, pool)
    print(f"pthreads execution: {stats.barriers} barrier waits, "
          f"{stats.parallel_stages} parallel stages")

    # 3. Verify against numpy's FFT.
    assert np.allclose(y_seq, np.fft.fft(x), atol=1e-6)
    assert np.allclose(y_par, np.fft.fft(x), atol=1e-6)
    print("results match numpy.fft.fft ✓")

    # 4. Peek at the lowered program the stages execute.
    print("\n--- the lowered stage pipeline ---")
    print(fft.program.summary())


if __name__ == "__main__":
    main()
