"""Time decode stage by stage on decode-sparse-like signals and print the table.

    PYTHONPATH=src python tests/decode_stages.py --seed S [--n N] [--m M]
                                                 [--weights LO..HI | W,W,...]

The signals are drawn like the decode-sparse benchmark and the sparse
group of decode_corpus.py: on the N x M roots-of-unity frame (N = 64,
M = 256 by default), weights cycling through --weights (1..8), values of
magnitude 0.5..2 with random phases on random supports, all from
np.random.default_rng([S, 0]).  COUNT signals (3,000) are decoded
twice, after one warm-up decode: once by decode as it is, and once with
the decoder module's stage functions wrapped in timers.  The outcomes of
the two passes must agree.

The table gives wall time in microseconds per decode (perf_counter,
averaged over every decode) for each stage:

    pre-checks          _check_tol, syndromes and the signal's _norm;
    key equation        solve_key_equation;
    root location       find_error_locations;
    valuation           _candidate, every candidate valued;
    spectrum            _subspace_supports, on the inputs that fall
                        back to it: the QR and SVD, then each subspace
                        candidate it yields;
    outcome             SparseRep and DecodeOutcome;
    rest                decode's own lines: the gate and the scan.

A call made inside another stage counts to the outer one (the _norm of
a residual to valuation).  It then counts the inputs that the Euclid
candidate settles, with no spectrum computed, and those that fall back,
with the fallbacks' share of the instrumented decode time.  Times depend
on the host and on the BLAS thread count, which the script leaves as
the environment sets it.

The file is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

import numpy as np

import vframe as vf
from vframe import decoder

COUNT = 3000  # signals decoded per pass

# (stage, the decoder module's names it times), in table order.
STAGES = (("pre-checks", ("_check_tol", "syndromes", "_norm")),
          ("key equation", ("solve_key_equation",)),
          ("root location", ("find_error_locations",)),
          ("valuation", ("_candidate",)),
          ("spectrum", ()),
          ("outcome", ("SparseRep", "DecodeOutcome")))


def signals(seed: int, count: int, n: int, m: int, weights: list[int]):
    """(frame, [signal, ...]) as decode-sparse draws them."""
    frame = vf.make_vandermonde_frame(vf.default_nodes(m), n)
    rng = np.random.default_rng([seed, 0])
    out = []
    for i in range(count):
        w = weights[i % len(weights)]
        idx = np.sort(rng.choice(m, size=w, replace=False))
        values = rng.uniform(0.5, 2.0, w) * np.exp(2j * np.pi * rng.uniform(size=w))
        out.append(values @ frame.matrix[idx])
    return frame, out


def digest(outcome) -> tuple:
    return (outcome.status, outcome.rep.support, outcome.rep.values.tobytes(),
            outcome.residual)


class Stages:
    """Timers for the decoder module's stage functions, outermost call only."""

    def __init__(self):
        self.spent = Counter()
        self.depth = 0
        self.fell_back = False

    def timed(self, stage, fn):
        def call(*args, **kwargs):
            if self.depth:
                return fn(*args, **kwargs)
            self.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[stage] += time.perf_counter() - start
                self.depth -= 1
        return call

    def spectrum(self, subspace_supports):
        step = self.timed("spectrum", next)

        def supports(frame, s):
            gen = subspace_supports(frame, s)
            self.fell_back = True
            while (support := step(gen, None)) is not None:
                yield support
        return supports

    def install(self) -> dict:
        """Wrap the decoder module's stage functions; returns the originals."""
        saved = {name: getattr(decoder, name) for _, names in STAGES for name in names}
        for stage, names in STAGES:
            for name in names:
                setattr(decoder, name, self.timed(stage, saved[name]))
        saved["_subspace_supports"] = decoder._subspace_supports
        decoder._subspace_supports = self.spectrum(saved["_subspace_supports"])
        return saved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, default=64)
    parser.add_argument("--m", type=int, default=256)
    parser.add_argument("--weights", default="1..8", help="LO..HI or a comma-separated list")
    args = parser.parse_args(argv)
    lo, dots, hi = args.weights.partition("..")
    weights = (list(range(int(lo), int(hi) + 1)) if dots
               else [int(w) for w in args.weights.split(",")])
    frame, batch = signals(args.seed, COUNT, args.n, args.m, weights)
    decoder.decode(frame, batch[0])

    start = time.perf_counter()
    plain = [decoder.decode(frame, r) for r in batch]
    plain_us = 1e6 * (time.perf_counter() - start) / len(batch)

    stages = Stages()
    saved = stages.install()
    took, fell_back = [], []
    try:
        for r, expect in zip(batch, plain):
            stages.fell_back = False
            start = time.perf_counter()
            outcome = decoder.decode(frame, r)
            took.append(time.perf_counter() - start)
            fell_back.append(stages.fell_back)
            if digest(outcome) != digest(expect):
                raise RuntimeError("the timed pass changed an outcome")
    finally:
        for name, fn in saved.items():
            setattr(decoder, name, fn)

    took, fell_back = np.array(took), np.array(fell_back)
    per = 1e6 / len(batch)
    rest = took.sum() - sum(stages.spent.values())
    print(f"N = {args.n}, M = {args.m}, weights {args.weights}, {len(batch)} signals, "
          f"seed {args.seed}")
    print("| stage | us per decode |")
    print("| --- | --- |")
    for stage, _ in STAGES:
        print(f"| {stage} | {per * stages.spent[stage]:.1f} |")
    print(f"| rest | {per * rest:.1f} |")
    print(f"| decode, timed | {per * took.sum():.1f} |")
    print(f"| decode, untimed | {plain_us:.1f} |")
    settled = int((~fell_back).sum())
    print(f"Euclid settles {settled} inputs; {len(batch) - settled} fall back to the spectrum, "
          f"taking {took[fell_back].sum() / took.sum():.1%} of decode time "
          f"({1e6 * took[fell_back].mean() if fell_back.any() else 0.0:.0f} us each, against "
          f"{1e6 * took[~fell_back].mean() if settled else 0.0:.0f} us).")
    print("Outcomes:", dict(Counter(o.status for o in plain)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
