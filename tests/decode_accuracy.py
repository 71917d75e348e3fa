"""Decode random supports past N = 64 and print README's "Decoding accuracy" table.

    PYTHONPATH=src python tests/decode_accuracy.py --seed S

For N = 128, 256 and 512 and weights w = N/16, N/8, 3N/16 and N/4, on
default_nodes(2N) and default_nodes(4N), the script draws 100 random
representations per cell with random_sparse_rep (values of modulus
0.5..2 with random phases), from np.random.default_rng([S, N, M, w]),
and decodes their signals.  Each row gives, per M, the number decoded
exactly ("ok" with the true support) and the median process time per
decode in milliseconds, and the wrong "ok" answers (another support) of
both M summed.  Times depend on the host and on the BLAS thread count;
run it with OPENBLAS_NUM_THREADS=1 to compare with the table.

The file is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

import vframe as vf

COUNT = 100


def cell(seed: int, n: int, m: int, w: int) -> tuple[int, int, float]:
    """(exact, wrong "ok", median ms) over COUNT random weight-w signals."""
    frame = vf.make_vandermonde_frame(vf.default_nodes(m), n)
    rng = np.random.default_rng([seed, n, m, w])
    exact = wrong = 0
    times = []
    for _ in range(COUNT):
        rep = vf.random_sparse_rep(m, w, rng)
        signal = vf.synthesize(frame, rep)
        start = time.process_time()
        out = vf.decode(frame, signal)
        times.append(time.process_time() - start)
        if out.status == vf.STATUS_OK:
            exact += out.rep.support == rep.support
            wrong += out.rep.support != rep.support
    return exact, wrong, 1e3 * float(np.median(times))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(f"| N | w | exact of {COUNT}, M = 2N | exact of {COUNT}, M = 4N | wrong `\"ok\"` "
          "| median ms, M = 2N | median ms, M = 4N |")
    print("| --- | --- | --- | --- | --- | --- | --- |")
    for n in (128, 256, 512):
        for w in (n // 16, n // 8, 3 * n // 16, n // 4):
            (e2, w2, t2), (e4, w4, t4) = (cell(args.seed, n, f * n, w) for f in (2, 4))
            print(f"| {n} | {w} | {e2} | {e4} | {w2 + w4} | {t2:.2f} | {t4:.2f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
