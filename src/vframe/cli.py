"""Command-line interface: frame generation, encode/decode round trips,
bound evaluation, Monte-Carlo simulation and grid sweeps.

Every run echoes its fully resolved configuration (including defaulted
values and the seed) so it can be reproduced exactly.  Output is JSON
on stdout for frame/encode/decode/roundtrip/simulate and CSV for
bound/sweep (config echoed as a leading ``#`` comment line).  Exit
codes: 0 success, 1 domain error (bad input data; decode failures are
reported as data, not errors), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import bounds as bnd
from . import decoder, frames, montecarlo
from .errors import VframeError

JSON_KIND = "json"
CSV_KIND = "csv"


def _resolve_seed(seed):
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().entropy) & (2**63 - 1)


def _parse_int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _emit_json(payload, out_path):
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _config(subcommand, fmt, seed=None, **extra):
    cfg = {"subcommand": subcommand, "format": fmt}
    if seed is not None:
        cfg["seed"] = seed
    cfg.update(extra)
    return cfg


def _build_frame(kind, n, m, seed):
    """An N x M frame of `kind` ('vandermonde' or 'gaussian')."""
    if kind == "vandermonde":
        return frames.make_vandermonde_frame(frames.default_nodes(m), n)
    return frames.make_gaussian_frame(m, n, (seed, 0x46524d45))


def _resolve_frame(args, seed):
    """Frame from --frame (path, 'vandermonde' or 'gaussian') and --n/--m."""
    source = args.frame
    if source not in ("vandermonde", "gaussian"):
        return frames.load_frame(source), source
    if args.n is None or args.m is None:
        raise VframeError("--n and --m are required unless --frame is a file path")
    return _build_frame(source, args.n, args.m, seed), source


# -- subcommands -------------------------------------------------------------

def cmd_frame(args):
    seed = _resolve_seed(args.seed)
    frame = _build_frame(args.kind, args.n, args.m, seed)
    payload = {
        "config": _config("frame", JSON_KIND, seed, n=args.n, m=args.m, kind=args.kind),
        "frame": frames.frame_to_json(frame),
    }
    if args.out:
        # the file holds the bare frame schema, loadable by `--frame PATH`
        frames.save_frame(frame, args.out)
        print(json.dumps(payload["config"]))
    else:
        _emit_json(payload, None)
    return 0


def cmd_encode(args):
    seed = _resolve_seed(args.seed)
    frame, source = _resolve_frame(args, seed)
    if args.rep_json:
        obj = json.loads(args.rep_json)
        rep = frames.SparseRep(
            frame.m, tuple(int(i) for i in obj["support"]), frames.pairs_to_complex(obj["values"])
        )
    elif args.weight is not None:
        rng = montecarlo.sample_rng(seed, 0)
        rep = frames.random_sparse_rep(frame.m, args.weight, rng)
    else:
        raise VframeError("provide --rep-json or --weight")
    signal = frames.synthesize(frame, rep)
    payload = {
        "config": _config(
            "encode", JSON_KIND, seed,
            frame=source, n=frame.n, m=frame.m, weight=args.weight,
        ),
        "rep": {"support": list(rep.support), "values": frames.complex_to_pairs(rep.values)},
        "signal": frames.complex_to_pairs(signal),
    }
    _emit_json(payload, args.out)
    return 0


def _read_signal(args):
    if args.signal_json:
        pairs = json.loads(args.signal_json)
    elif args.signal_file:
        with open(args.signal_file, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        pairs = obj["signal"] if isinstance(obj, dict) else obj
    else:
        raise VframeError("provide --signal-json or --signal-file")
    return frames.pairs_to_complex(pairs)


def cmd_decode(args):
    seed = _resolve_seed(args.seed)
    frame, source = _resolve_frame(args, seed)
    r = _read_signal(args)
    outcome = decoder.decode(frame, r, tol=args.tol)
    payload = {
        "config": _config(
            "decode", JSON_KIND, seed,
            frame=source, n=frame.n, m=frame.m, tol=args.tol,
        ),
        "outcome": decoder.outcome_to_json(outcome),
    }
    _emit_json(payload, args.out)
    return 0


def cmd_roundtrip(args):
    seed = _resolve_seed(args.seed)
    frame = frames.make_vandermonde_frame(frames.default_nodes(args.m), args.n)
    successes = 0
    statuses: dict[str, int] = {}
    max_rel_error = 0.0
    times = []
    for trial in range(args.trials):
        rng = montecarlo.sample_rng(seed, trial)
        rep = frames.random_sparse_rep(
            frame.m, args.weight, rng, (args.mag_min, args.mag_max)
        )
        r = frames.synthesize(frame, rep)
        t0 = time.perf_counter()
        outcome = decoder.decode(frame, r, tol=args.tol)
        times.append(time.perf_counter() - t0)
        statuses[outcome.status] = statuses.get(outcome.status, 0) + 1
        if outcome.status == decoder.STATUS_OK and outcome.rep.support == rep.support:
            err = float(
                np.linalg.norm(outcome.rep.values - rep.values)
                / np.linalg.norm(rep.values)
            ) if rep.weight else 0.0
            max_rel_error = max(max_rel_error, err)
            if err <= args.tol:
                successes += 1
    payload = {
        "config": _config(
            "roundtrip", JSON_KIND, seed,
            n=args.n, m=args.m, weight=args.weight, trials=args.trials,
            tol=args.tol, mag_min=args.mag_min, mag_max=args.mag_max,
        ),
        "trials": args.trials,
        "successes": successes,
        "statuses": statuses,
        "max_value_rel_error": max_rel_error,
        "median_decode_ms": 1e3 * float(np.median(times)) if times else 0.0,
    }
    _emit_json(payload, args.out)
    return 0


def _bound_row(inp):
    report = bnd.distortion_lower_bound(inp)
    return report, [
        inp.n, inp.m, inp.l, inp.log2_t,
        report.kappa_c, report.rho_0, report.branch, report.lower_bound,
    ]

BOUND_HEADER = ["N", "M", "L", "T_log2", "kappa_c", "rho_0", "branch", "lower_bound"]
ASYMPTOTIC_HEADER = ["r", "eps", "kappa0", "bound"]


def _write_csv(rows, header, cfg, out_path):
    fh = open(out_path, "w", newline="", encoding="utf-8") if out_path else io.StringIO()
    fh.write(f"# config: {json.dumps(cfg)}\n")
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
    if out_path:
        fh.close()
    else:
        print(fh.getvalue(), end="")


def cmd_bound(args):
    if args.asymptotic:
        if args.r is None or args.eps is None:
            raise VframeError("--asymptotic needs --r and --eps")
        cfg = _config("bound", CSV_KIND, asymptotic=True, r=args.r, eps=args.eps)
        k0 = bnd.asymptotic_kappa0(args.r, args.eps)
        rows = [[args.r, args.eps, k0, bnd.asymptotic_bound(args.r, args.eps)]]
        _write_csv(rows, ASYMPTOTIC_HEADER, cfg, args.out)
        return 0
    if args.n is None or args.m is None or args.l is None:
        raise VframeError("bound needs --n, --m and --l (or --asymptotic)")
    cfg = _config("bound", CSV_KIND, n=args.n, m=args.m, l=args.l)
    _, row = _bound_row(bnd.BoundInput(args.n, args.m, args.l))
    _write_csv([row], BOUND_HEADER, cfg, args.out)
    return 0


def cmd_simulate(args):
    seed = _resolve_seed(args.seed)
    frame, source = _resolve_frame(args, seed)
    inp = bnd.BoundInput(frame.n, frame.m, args.l)
    report = bnd.distortion_lower_bound(inp)
    est = montecarlo.estimate_distortion(
        frame, args.l, args.samples, seed,
        budget=args.budget, fallback_greedy=args.greedy,
    )
    payload = {
        "config": _config(
            "simulate", JSON_KIND, seed,
            frame=source, n=frame.n, m=frame.m, l=args.l,
            samples=args.samples, budget=args.budget, greedy=args.greedy,
        ),
        "estimate": {
            "mean": est.mean,
            "stderr": est.stderr,
            "n_samples": est.n_samples,
            "frame_id": est.config.frame_id,
            "approximate": est.approximate,
        },
        "bound": {
            "kappa_c": report.kappa_c,
            "rho_0": report.rho_0,
            "branch": report.branch,
            "lower_bound": report.lower_bound,
        },
    }
    if est.approximate:
        payload["verdict"] = None
    else:
        verdict = montecarlo.compare_to_bound(est, report)
        payload["verdict"] = {"passed": verdict.passed, "margin": verdict.margin}
    if args.samples_csv:
        with open(args.samples_csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "residual_ratio"])
            writer.writerows(enumerate(est.ratios.tolist()))
    _emit_json(payload, args.out)
    return 0


def _sweep_progress(path):
    """The config echoed at the top of a sweep file and the (N, M, L)
    cells it holds rows for; (None, empty set) when the file is missing
    or empty."""
    done = set()
    if not os.path.exists(path):
        return None, done
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            return None, done
        cfg = json.loads(first[len("# config: "):]) if first.startswith("# config: ") else {}
        if cfg.get("subcommand") != "sweep":
            raise VframeError(f"{path} does not start with a sweep '# config:' line")
        for line in fh:
            if line.startswith("#") or line.startswith("N,"):
                continue
            parts = line.strip().split(",")
            if len(parts) >= 3:
                done.add((int(parts[0]), int(parts[1]), int(parts[2])))
    return cfg, done


def cmd_sweep(args):
    if args.resume and not args.out:
        raise VframeError("--resume needs --out")
    # Appended rows must share the file's config: take its seed when
    # --seed is omitted, and refuse a different --seed or --samples.
    prior, done = _sweep_progress(args.out) if args.resume else (None, set())
    if prior is not None:
        for flag, value in (("samples", args.samples), ("seed", args.seed)):
            if value is not None and value != prior[flag]:
                raise VframeError(
                    f"--{flag} {value} differs from {flag} {prior[flag]} in {args.out}"
                )
        seed = prior["seed"]
    else:
        seed = _resolve_seed(args.seed)
    n_list = _parse_int_list(args.n_list)
    factors = _parse_int_list(args.m_factors)
    cfg = _config(
        "sweep", CSV_KIND, seed,
        n_list=n_list, m_factors=factors, l=args.l,
        samples=args.samples, resume=args.resume,
    )
    header = list(BOUND_HEADER)
    if args.samples > 0:
        header += ["est_mean", "est_stderr", "margin", "passed"]
    # Refuse the whole grid up front, an invalid cell or one over budget,
    # rather than after the cells before it have been written.
    cells = [
        bnd.BoundInput(n, factor * n, l)
        for n in n_list
        for factor in factors
        for l in (range(0, n + 1) if args.l == "all" else _parse_int_list(args.l))
        if (n, factor * n, l) not in done
    ]
    if args.samples > 0:
        for inp in cells:
            if inp.l > 0 and math.comb(inp.m, inp.l) > args.budget:
                raise VframeError(
                    f"cell (N,M,L)=({inp.n},{inp.m},{inp.l}) needs C({inp.m},{inp.l}) = "
                    f"{math.comb(inp.m, inp.l)} supports, over --budget {args.budget}"
                )
    fh = open(args.out, "w" if prior is None else "a", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        if prior is None:
            fh.write(f"# config: {json.dumps(cfg)}\n")
            csv.writer(fh).writerow(header)
        writer = csv.writer(fh)
        frame = batch = None
        for inp in cells:
            report, row = _bound_row(inp)
            if args.samples > 0:
                if frame is None or (frame.n, frame.m) != (inp.n, inp.m):
                    frame = frames.make_vandermonde_frame(frames.default_nodes(inp.m), inp.n)
                # Every (M, L) cell of one N scores the same (N, samples, seed)
                # stream and cells are N-major, so the first cell of an N with
                # L >= 1 draws the batch and the others reuse it.
                if batch is not None and batch.shape[1] == inp.n:
                    est = montecarlo.estimate_from_samples(
                        frame, inp.l, batch, seed, budget=args.budget
                    )
                else:
                    est = montecarlo.estimate_distortion(
                        frame, inp.l, args.samples, seed, budget=args.budget
                    )
                    batch = est.samples
                verdict = montecarlo.compare_to_bound(est, report)
                row += [est.mean, est.stderr, verdict.margin, verdict.passed]
            writer.writerow(row)
            fh.flush()
    finally:
        if args.out:
            fh.close()
    return 0


# -- parser ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vframe",
        description="Sparse representations over redundant Vandermonde frames.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, frame_flag=True):
        p.add_argument("--seed", type=int, default=None, help="RNG seed (random if omitted, echoed in config)")
        p.add_argument("--out", default=None, help="write output to this file instead of stdout")
        if frame_flag:
            p.add_argument("--frame", default="vandermonde",
                           help="'vandermonde', 'gaussian', or a frame JSON path")
            p.add_argument("--n", type=int, default=None, help="ambient dimension N")
            p.add_argument("--m", type=int, default=None, help="frame size M")

    p = sub.add_parser("frame", help="generate a frame and print its JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--kind", choices=["vandermonde", "gaussian"], default="vandermonde")
    add_common(p, frame_flag=False)
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("encode", help="synthesize a signal from a sparse representation")
    add_common(p)
    p.add_argument("--rep-json", default=None,
                   help='JSON {"support": [1-based], "values": [[re,im],...]}')
    p.add_argument("--weight", type=int, default=None,
                   help="draw a random representation of this weight instead")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="recover the sparsest representation of a signal")
    add_common(p)
    p.add_argument("--signal-json", default=None, help="signal as JSON [[re,im],...]")
    p.add_argument("--signal-file", default=None, help="file with the signal JSON")
    p.add_argument("--tol", type=float, default=decoder.RESIDUAL_TOL)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("roundtrip", help="random encode/decode trials with a summary")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--tol", type=float, default=decoder.RESIDUAL_TOL)
    p.add_argument("--mag-min", type=float, default=0.5)
    p.add_argument("--mag-max", type=float, default=2.0)
    add_common(p, frame_flag=False)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("bound", help="evaluate the distortion lower bound (CSV)")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--asymptotic", action="store_true",
                   help="evaluate the large-N bound at --r/--eps instead")
    p.add_argument("--r", type=float, default=None, help="redundancy ratio M/N")
    p.add_argument("--eps", type=float, default=None, help="sparsity fraction L/N")
    add_common(p, frame_flag=False)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="Monte-Carlo distortion estimate vs the bound")
    add_common(p)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--budget", type=int, default=montecarlo.DEFAULT_BUDGET)
    p.add_argument("--greedy", action="store_true",
                   help="fall back to the greedy search past the budget (estimate labeled approximate)")
    p.add_argument("--samples-csv", default=None,
                   help="also write per-sample residual ratios to this CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="bound (and optional simulation) over an (N, M, L) grid")
    p.add_argument("--n-list", required=True, help="comma-separated N values")
    p.add_argument("--m-factors", default="4", help="comma-separated M/N factors")
    p.add_argument("--l", default="all", help="'all' or comma-separated L values")
    p.add_argument("--samples", type=int, default=0,
                   help="per-cell Monte-Carlo samples (0 = bounds only)")
    p.add_argument("--budget", type=int, default=montecarlo.DEFAULT_BUDGET)
    p.add_argument("--resume", action="store_true",
                   help="skip (N, M, L) rows already present in --out")
    add_common(p, frame_flag=False)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VframeError, ValueError, OSError) as exc:
        # domain errors (bad frames, malformed JSON, missing files) exit 1;
        # decode failures are data, not errors
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
