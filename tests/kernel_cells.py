"""Time the exact search on README's kernel cells and print the table.

    PYTHONPATH=src python tests/kernel_cells.py --seed S [LABEL=SRC ...]

For each (N, M, L) of CELLS, on the roots-of-unity frame default_nodes(M)
and on make_gaussian_frame(M, N, seed=(S, N, M)), the script times
estimate_distortion(frame, L, samples, (S, N, M, L)) in process time and
keeps the fastest of RUNS runs; samples is 1,000, or 200 at
(64, 256, 2).  A last row times SWEEP, one in-process
`vframe sweep` of the cells (64, 128, 1) and (64, 128, 2) in one pass,
the same way; its mean is the sum of the sweep's est_mean column.
BLAS runs one thread: OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS are set to 1 before numpy loads.
With no LABEL=SRC the script times the vframe it imports.  Each SRC is
a directory holding a vframe package, such as the src of another
checkout; the script times each in a child process and prints one
column of milliseconds per LABEL, then the largest relative difference
between their estimates' means.

The file is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import csv
import json
import subprocess
import sys
import tempfile
import time

import vframe as vf
from vframe import cli

CELLS = ((12, 48, 2), (16, 32, 3), (16, 64, 3), (32, 64, 2), (48, 96, 2), (64, 128, 1),
         (64, 256, 2))
RUNS = 3
SWEEP = ["sweep", "--n-list", "64", "--m-factors", "2", "--l", "1,2", "--samples", "1000"]


def time_cells(seed: int) -> list[list]:
    """[kind, N, M, L, samples, ms, mean] for every cell and frame kind."""
    rows = []
    for n, m, l in CELLS:
        samples = 200 if (n, m, l) == (64, 256, 2) else 1000
        for kind, frame in (("roots", vf.make_vandermonde_frame(vf.default_nodes(m), n)),
                            ("gaussian", vf.make_gaussian_frame(m, n, seed=(seed, n, m)))):
            times = []
            for _ in range(RUNS):
                start = time.process_time()
                est = vf.estimate_distortion(frame, l, samples, (seed, n, m, l))
                times.append(time.process_time() - start)
            rows.append([kind, n, m, l, samples, 1e3 * min(times), est.mean])
    return rows + [time_sweep(seed)]


def time_sweep(seed: int) -> list:
    """[kind, N, M, L, samples, ms, mean] for RUNS runs of SWEEP at seed."""
    times = []
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "sweep.csv")
        for _ in range(RUNS):
            start = time.process_time()
            if cli.main(SWEEP + ["--seed", str(seed), "--out", out]) != 0:
                raise RuntimeError(f"vframe {' '.join(SWEEP)} failed")
            times.append(time.process_time() - start)
        with open(out, encoding="utf-8") as fh:
            next(fh)                                    # the config echo
            means = [float(row["est_mean"]) for row in csv.DictReader(fh)]
    return ["sweep", 64, 128, "1,2", 1000, 1e3 * min(times), sum(means)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--json", action="store_true", help="print the raw rows as JSON")
    parser.add_argument("trees", nargs="*", metavar="LABEL=SRC")
    args = parser.parse_args(argv)
    if args.json:
        json.dump(time_cells(args.seed), sys.stdout)
        return 0
    labels, columns = ["ms"], [time_cells(args.seed)]
    if args.trees:
        labels, columns = [], []
        for tree in args.trees:
            label, src = tree.split("=", 1)
            child = subprocess.run([sys.executable, __file__, "--seed", str(args.seed), "--json"],
                                   env={**os.environ, "PYTHONPATH": src}, check=True,
                                   capture_output=True, text=True)
            labels.append(f"ms, {label}")
            columns.append(json.loads(child.stdout))
    diff = ["rel. diff of means"] if len(columns) > 1 else []
    print("| frame | N | M | L | samples | " + " | ".join(labels + diff) + " |")
    print("| --- " * (5 + len(labels + diff)) + "|")
    for cells in zip(*columns):
        means = [cell[6] for cell in cells]
        spread = [f"{(max(means) - min(means)) / abs(means[0]):.1e}"] if diff else []
        print("| " + " | ".join([str(v) for v in cells[0][:5]]
                                + [f"{cell[5]:.1f}" for cell in cells] + spread) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
