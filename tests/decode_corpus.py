"""Regenerate the decode corpus and digest every outcome.

    PYTHONPATH=src python tests/decode_corpus.py --seed S [--out FILE] [--against FILE]

The corpus is seeded by S and has three groups:

    sparse  3,000 signals like the decode-sparse benchmark: N = 64,
            M = 256, weights cycling through 1..8, values of magnitude
            0.5..2 with random phases, on random supports;
    hard    for N = 8..64 and M in (2N, 4N), weights 1, 2, N//4,
            N//2 - 1 and N//2, three supports of each shape: random,
            contiguous (a run of adjacent nodes at a random start) and
            half-clustered (half of the support a contiguous run, the
            rest random); then unit values on nodes 1..w for every
            w in 1..N//2;
    large   for N = 128, 256 and 512, M in (2N, 4N) and weights N//8
            and N//4, five random supports with the sparse group's
            values.

Every input lies inside the decoding radius.  The script prints one
sha256 over each outcome's status, support, value bytes and repr of
the residual, per group and overall, and counts the outcomes by
class: exact (ok with the true support), superset, subset,
other (ok with another support) and rejected (any status but ok), per
group and per shape of the true support (random, contiguous, half or
unit, the last for unit values on nodes 1..w; sparse inputs are random).
It also counts, per group, the classes of the inputs whose true support
is well conditioned: 1/cond of its frame rows at least WELL_CONDITIONED.
--out writes one line per input (group, index, class, outcome digest,
shape, residual, 1/cond of the true support's rows, and the outcome's
support and values as space-separated loc:re:im entries, re and im in
float.hex), so that a failure can be told apart from an ill-posed
input; --against reads such a file from another run on the same seed
and counts the inputs of both files whose outcome changed, by group,
shape, class before -> after and the band of the new residual: strict
(<= STRICT_RESIDUAL), tol (<= RESIDUAL_TOL) or over.  Inputs that only
one of the two files holds (a group the other run lacks) are counted
apart.  It then prints, per group, the largest relative value
difference, max |new - old| / max |old| over an outcome's values, among
the inputs whose class and support did not change; a file of seven
fields, which holds no values, skips that report.

The file is a script, not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import sys
from collections import Counter

import numpy as np

import vframe as vf
from vframe.decoder import RESIDUAL_TOL, STRICT_RESIDUAL

CLASSES = ("exact", "superset", "subset", "other", "rejected")
SPARSE_COUNT = 3000
HARD_REPEATS = 3
LARGE_REPEATS = 5
WELL_CONDITIONED = 1e-2


def _values(rng, w):
    return rng.uniform(0.5, 2.0, w) * np.exp(2j * np.pi * rng.uniform(size=w))


def _sparse(seed):
    frame = vf.make_vandermonde_frame(vf.default_nodes(256), 64)
    rng = np.random.default_rng([seed, 0])
    for i in range(SPARSE_COUNT):
        w = 1 + i % 8
        idx = np.sort(rng.choice(frame.m, size=w, replace=False))
        yield frame, idx, _values(rng, w), "random"


def _hard(seed):
    rng = np.random.default_rng([seed, 1])
    for n in range(8, 65):
        for m in (2 * n, 4 * n):
            frame = vf.make_vandermonde_frame(vf.default_nodes(m), n)
            for w, _ in itertools.product(sorted({1, 2, n // 4, n // 2 - 1, n // 2}),
                                          range(HARD_REPEATS)):
                yield (frame, np.sort(rng.choice(m, size=w, replace=False)), _values(rng, w),
                       "random")
                start = int(rng.integers(m))
                yield frame, np.sort((start + np.arange(w)) % m), _values(rng, w), "contiguous"
                run = w - w // 2
                head = (start + np.arange(run)) % m
                rest = rng.choice(np.setdiff1d(np.arange(m), head), size=w - run,
                                  replace=False)
                yield frame, np.sort(np.concatenate((head, rest))), _values(rng, w), "half"
            for w in range(1, n // 2 + 1):
                yield frame, np.arange(w), np.ones(w, dtype=complex), "unit"


def _large(seed):
    rng = np.random.default_rng([seed, 2])
    for n in (128, 256, 512):
        for m in (2 * n, 4 * n):
            frame = vf.make_vandermonde_frame(vf.default_nodes(m), n)
            for w, _ in itertools.product((n // 8, n // 4), range(LARGE_REPEATS)):
                yield (frame, np.sort(rng.choice(m, size=w, replace=False)), _values(rng, w),
                       "random")


def corpus(seed):
    """(group, shape, frame, true support, signal) for every input, in order."""
    for group, inputs in (("sparse", _sparse(seed)), ("hard", _hard(seed)),
                          ("large", _large(seed))):
        for frame, idx, values, shape in inputs:
            yield (group, shape, frame, tuple(int(j) + 1 for j in idx),
                   values @ frame.matrix[idx])


def outcome_bytes(out) -> bytes:
    return repr((out.status, out.rep.support, out.rep.values.tobytes(),
                 repr(out.residual))).encode()


def classify(out, support) -> str:
    if out.status != vf.STATUS_OK:
        return "rejected"
    found, true = set(out.rep.support), set(support)
    if found == true:
        return "exact"
    if found > true:
        return "superset"
    if found < true:
        return "subset"
    return "other"


def inverse_condition(frame, support) -> float:
    """1/cond of the frame rows on a support: its smallest singular value
    over its largest."""
    sing = np.linalg.svd(frame.matrix[np.asarray(support) - 1], compute_uv=False)
    return float(sing[-1] / sing[0])


def value_entries(out) -> str:
    """The outcome's support and values as space-separated loc:re:im
    entries, re and im in float.hex."""
    return " ".join(f"{loc}:{float(v.real).hex()}:{float(v.imag).hex()}"
                    for loc, v in zip(out.rep.support, out.rep.values))


def parse_entries(field: str) -> tuple[tuple[int, ...], np.ndarray]:
    """The support and values that value_entries wrote."""
    entries = [e.split(":") for e in field.split()]
    return (tuple(int(loc) for loc, _, _ in entries),
            np.array([complex(float.fromhex(re), float.fromhex(im)) for _, re, im in entries]))


def band(residual) -> str:
    if residual <= STRICT_RESIDUAL:
        return "strict"
    return "tol" if residual <= RESIDUAL_TOL else "over"


def _table(counter) -> str:
    return " ".join(f"{c}={counter[c]}" for c in CLASSES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", help="write one line per input to this file")
    parser.add_argument("--against", help="count changed outcomes against this --out file")
    args = parser.parse_args(argv)

    total = hashlib.sha256()
    digests = {}
    counts: dict[str, Counter] = {}
    by_shape: dict[tuple[str, str], Counter] = {}
    conditioned: dict[str, Counter] = {}
    lines = []
    for group, shape, frame, support, signal in corpus(args.seed):
        out = vf.decode(frame, signal)
        data = outcome_bytes(out)
        total.update(data)
        digests.setdefault(group, hashlib.sha256()).update(data)
        cls = classify(out, support)
        counts.setdefault(group, Counter())[cls] += 1
        by_shape.setdefault((group, shape), Counter())[cls] += 1
        inv_cond = inverse_condition(frame, support)
        if inv_cond >= WELL_CONDITIONED:
            conditioned.setdefault(group, Counter())[cls] += 1
        lines.append(f"{group}\t{len(lines)}\t{cls}\t{hashlib.sha256(data).hexdigest()}"
                     f"\t{shape}\t{out.residual!r}\t{inv_cond!r}\t{value_entries(out)}")

    for group, digest in digests.items():
        print(f"{group}\t{sum(counts[group].values())} inputs\t{digest.hexdigest()}"
              f"\t{_table(counts[group])}")
    for (group, shape), counter in by_shape.items():
        print(f"shape\t{group}\t{shape}\t{sum(counter.values())} inputs\t{_table(counter)}")
    for group, counter in conditioned.items():
        print(f"conditioned\t{group}\t{sum(counter.values())} inputs with 1/cond >= "
              f"{WELL_CONDITIONED:g}\t{_table(counter)}")
    print(f"all\t{len(lines)} inputs\t{total.hexdigest()}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            rows = (line.split("\t") for line in fh.read().splitlines())
            before = {tuple(f[:2]): f for f in rows}
        moved, shared, value_diff = Counter(), 0, {}
        for new in (line.split("\t") for line in lines):
            old = before.pop(tuple(new[:2]), None)
            if old is None:
                continue
            shared += 1
            if old[3] != new[3]:
                moved[(new[0], new[4], f"{old[2]} -> {new[2]}", band(float(new[5])))] += 1
            if len(old) < 8 or old[2] != new[2]:
                continue
            (old_support, old_values), (new_support, new_values) = map(parse_entries,
                                                                       (old[7], new[7]))
            if old_support == new_support and old_values.size:
                diff = np.abs(new_values - old_values).max() / np.abs(old_values).max()
                value_diff[new[0]] = max(value_diff.get(new[0], (-1.0, "")), (diff, new[1]))
        for (group, shape, change, where), count in sorted(moved.items()):
            print(f"changed\t{group}\t{shape}\t{change}\t{where}\t{count}")
        print(f"changed\tall\t{sum(moved.values())} of {shared} inputs in both runs; "
              f"{len(lines) - shared} only in this run, {len(before)} only in {args.against}")
        for group, (diff, index) in value_diff.items():
            print(f"values\t{group}\tlargest relative difference {diff:.3g} at input {index}, "
                  f"over inputs whose class and support did not change")
    return 0


if __name__ == "__main__":
    sys.exit(main())
