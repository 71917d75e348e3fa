"""Time the exact search on README's kernel cells and print the table.

    PYTHONPATH=src python tests/kernel_cells.py --seed S [--large] [--pairs K] [LABEL=SRC ...]

For each (N, M, L) of CELLS, on the roots-of-unity frame default_nodes(M)
and on make_gaussian_frame(M, N, seed=(S, N, M)), the script times
estimate_distortion(frame, L, samples, (S, N, M, L)) in process time and
keeps the fastest of RUNS runs; samples is 1,000, or 200 at
(64, 256, 2).  --large adds LARGE, roots frames only, one run each:
(128, 512, 1) with 256 samples and (256, 1024, 1) with 64.  A last row
times SWEEP, one in-process `vframe sweep` of the cells (64, 128, 1)
and (64, 128, 2) in one pass, the same way; its mean is the sum of the
sweep's est_mean column.  BLAS runs one thread: OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS are set to 1 before numpy loads.
With no LABEL=SRC the script times the vframe it imports.  Each SRC is
a directory holding a vframe package, such as the src of another
checkout; the script times each in a child process and prints one
column of milliseconds per LABEL, then the number of runs in which the
last tree was the fastest and the largest relative difference between
their estimates' means.  --pairs K runs the trees K times each, a fresh
child process per run, the order of the trees reversed on every other
round; each column then gives the median of the K runs with the
quartiles in brackets.

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

import numpy as np

import vframe as vf
from vframe import cli

CELLS = ((12, 48, 2), (16, 32, 3), (16, 64, 3), (32, 64, 2), (48, 96, 2), (64, 128, 1),
         (64, 256, 2))
RUNS = 3
# (N, M, L, samples), roots frames only, timed once: the large-N search cells.
LARGE = ((128, 512, 1, 256), (256, 1024, 1, 64))
SWEEP = ["sweep", "--n-list", "64", "--m-factors", "2", "--l", "1,2", "--samples", "1000"]


def time_estimate(kind, frame, l, samples, seed, runs) -> list:
    """[kind, N, M, L, samples, ms, mean], the fastest of runs estimates."""
    times = []
    for _ in range(runs):
        start = time.process_time()
        est = vf.estimate_distortion(frame, l, samples, (seed, frame.n, frame.m, l))
        times.append(time.process_time() - start)
    return [kind, frame.n, frame.m, l, samples, 1e3 * min(times), est.mean]


def time_cells(seed: int, large: bool = False) -> list[list]:
    """[kind, N, M, L, samples, ms, mean] for every cell and frame kind."""
    rows = []
    for n, m, l in CELLS:
        samples = 200 if (n, m, l) == (64, 256, 2) else 1000
        for kind, frame in (("roots", vf.make_vandermonde_frame(vf.default_nodes(m), n)),
                            ("gaussian", vf.make_gaussian_frame(m, n, seed=(seed, n, m)))):
            rows.append(time_estimate(kind, frame, l, samples, seed, RUNS))
    for n, m, l, samples in LARGE if large else ():
        frame = vf.make_vandermonde_frame(vf.default_nodes(m), n)
        rows.append(time_estimate("roots", frame, l, samples, seed, 1))
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


def run_tree(src: str, seed: int, large: bool) -> list[list]:
    """time_cells of the vframe under src, in a fresh child process."""
    child = subprocess.run([sys.executable, __file__, "--seed", str(seed), "--json"]
                           + ["--large"] * large, env={**os.environ, "PYTHONPATH": src},
                           check=True, capture_output=True, text=True)
    return json.loads(child.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--large", action="store_true", help="add the LARGE cells")
    parser.add_argument("--pairs", type=int, default=1, metavar="K",
                        help="run the trees K times each, alternating their order")
    parser.add_argument("--json", action="store_true", help="print the raw rows as JSON")
    parser.add_argument("trees", nargs="*", metavar="LABEL=SRC")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.json:
        json.dump(time_cells(args.seed, args.large), sys.stdout)
        return 0
    trees = [tree.split("=", 1) for tree in args.trees]
    # runs[t][k][c] is row c of run k of tree t.
    runs = [[] for _ in trees]
    for k in range(args.pairs if trees else 0):
        for t in range(len(trees))[::-1 if k % 2 else 1]:
            runs[t].append(run_tree(trees[t][1], args.seed, args.large))
    labels = [f"ms, {label}" for label, _ in trees] or ["ms"]
    runs = runs or [[time_cells(args.seed, args.large)]]
    extra = ([f"{trees[-1][0]} fastest of {args.pairs}", "rel. diff of means"]
             if len(trees) > 1 else [])
    print("| frame | N | M | L | samples | " + " | ".join(labels + extra) + " |")
    print("| --- " * (5 + len(labels + extra)) + "|")
    for c, row in enumerate(runs[0][0]):
        ms = [[run[c][5] for run in tree] for tree in runs]
        cols = [f"{np.median(t):.1f}" + (" [{:.1f}, {:.1f}]".format(*np.percentile(t, [25, 75]))
                                          if len(t) > 1 else "") for t in ms]
        if len(trees) > 1:
            means = [tree[0][c][6] for tree in runs]
            cols += [str(sum(times[-1] < min(times[:-1]) for times in zip(*ms))),
                     f"{(max(means) - min(means)) / abs(means[0]):.1e}"]
        print("| " + " | ".join([str(v) for v in row[:5]] + cols) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
