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
import itertools
import json
import os
import sys
import time

import numpy as np

from . import bounds as bnd
from . import decoder, frames, montecarlo
from .errors import BudgetExceeded, VframeError

JSON_KIND = "json"
CSV_KIND = "csv"
CONFIG_PREFIX = "# config: "


def _resolve_seed(seed):
    if seed is not None:
        return int(seed)
    return int(np.random.SeedSequence().entropy) & (2**63 - 1)


def _parse_int_list(text):
    return [int(tok) for tok in str(text).split(",") if tok.strip()]


def _parse_l(text):
    """A sweep's --l: "all", or the list of its weights."""
    return text if text == "all" else _parse_int_list(text)


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
        support = frames.json_field(obj, "support")
        if not all(isinstance(i, int) and not isinstance(i, bool) for i in support):
            raise VframeError("'support' must hold 1-based integer indices")
        rep = frames.SparseRep(
            frame.m, tuple(support), frames.pairs_to_complex(frames.json_field(obj, "values"))
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
        pairs = frames.json_field(obj, "signal") if isinstance(obj, dict) else obj
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
    if args.trials < 0:
        raise VframeError(f"--trials must be >= 0, got {args.trials}")
    # decode would refuse it too, but --trials 0 never decodes.
    decoder._check_tol(args.tol)
    seed = _resolve_seed(args.seed)
    frame = _build_frame("vandermonde", args.n, args.m, seed)
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


def _write_csv(path, header, rows, config=None, append=False, flush_rows=False):
    """Write `rows` as CSV to `path` (stdout when None).  A new file starts
    with the `config` echo, when given, and the header; an appended one
    gets neither.  With flush_rows each row is flushed as it is written,
    so a row is on disk once its generator moves on (sweep --resume reads
    the finished cells back); otherwise the rows go out in one call."""
    fh = open(path, "a" if append else "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(fh)
        if not append:
            if config is not None:
                fh.write(f"{CONFIG_PREFIX}{json.dumps(config)}\n")
            writer.writerow(header)
        if flush_rows:
            for row in rows:
                writer.writerow(row)
                fh.flush()
        else:
            writer.writerows(rows)
    finally:
        if path:
            fh.close()


def cmd_bound(args):
    if args.asymptotic:
        if args.r is None or args.eps is None:
            raise VframeError("--asymptotic needs --r and --eps")
        cfg = _config("bound", CSV_KIND, asymptotic=True, r=args.r, eps=args.eps)
        k0 = bnd.asymptotic_kappa0(args.r, args.eps)
        rows = [[args.r, args.eps, k0, bnd.asymptotic_bound(args.r, args.eps)]]
        _write_csv(args.out, ASYMPTOTIC_HEADER, rows, cfg)
        return 0
    if args.n is None or args.m is None or args.l is None:
        raise VframeError("bound needs --n, --m and --l (or --asymptotic)")
    cfg = _config("bound", CSV_KIND, n=args.n, m=args.m, l=args.l)
    _, row = _bound_row(bnd.BoundInput(args.n, args.m, args.l))
    _write_csv(args.out, BOUND_HEADER, [row], cfg)
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
        _write_csv(args.samples_csv, ["index", "residual_ratio"], enumerate(est.ratios.tolist()))
    _emit_json(payload, args.out)
    return 0


def _sweep_progress(path):
    """The config echoed at the top of a sweep file, the (N, M, L) cells
    of the rows after its header, and the bytes up to its last line
    feed; a line cut by an interrupted write counts for nothing.
    (None, empty set, 0) when the file is missing or empty."""
    data = b""
    if os.path.exists(path):
        with open(path, "rb") as fh:
            data = fh.read()
    if not data:
        return None, set(), 0
    end = data.rfind(b"\n") + 1
    first, newline, rest = data[:end].decode("utf-8").partition("\n")
    if not newline:
        raise VframeError(f"{path} ends inside its first line: no complete '# config:' line")
    cfg = json.loads(first[len(CONFIG_PREFIX):]) if first.startswith(CONFIG_PREFIX) else {}
    if not isinstance(cfg, dict) or cfg.get("subcommand") != "sweep" \
            or not {"seed", "samples", "n_list", "m_factors", "l"} <= cfg.keys():
        raise VframeError(f"{path} does not start with a sweep '# config:' line "
                          "holding its seed, samples and grid")
    if cfg.get("stream") != montecarlo.STREAM:
        raise VframeError(f"{path} was written under sample stream {cfg.get('stream')!r}, "
                          f"not {montecarlo.STREAM!r}: its rows came from other samples")
    rows = list(csv.reader(rest.splitlines()))[1:]
    return cfg, {(int(r[0]), int(r[1]), int(r[2])) for r in rows if len(r) >= 3}, end


def cmd_sweep(args):
    if args.samples < 0:
        raise VframeError(f"--samples must be >= 0, got {args.samples}")
    if args.resume and not args.out:
        raise VframeError("--resume needs --out")
    n_list = _parse_int_list(args.n_list)
    factors = _parse_int_list(args.m_factors)
    # Appended rows must share the file's config: take its seed when
    # --seed is omitted, and refuse a different --seed, --samples or grid.
    prior, done, end = _sweep_progress(args.out) if args.resume else (None, set(), 0)
    if prior is not None:
        for key, value, recorded in (
                ("samples", args.samples, prior["samples"]),
                ("seed", args.seed, prior["seed"]),
                ("n_list", n_list, prior["n_list"]),
                ("m_factors", factors, prior["m_factors"]),
                ("l", _parse_l(args.l), _parse_l(prior["l"]))):
            if value is not None and value != recorded:
                raise VframeError(f"--{key.replace('_', '-')} {value} differs from "
                                  f"{key} {recorded} in {args.out}")
        seed = prior["seed"]
    else:
        seed = _resolve_seed(args.seed)
    cfg = prior or _config(
        "sweep", CSV_KIND, seed,
        n_list=n_list, m_factors=factors, l=args.l,
        samples=args.samples, resume=args.resume, stream=montecarlo.STREAM,
    )
    header = list(BOUND_HEADER)
    if args.samples > 0:
        header += ["est_mean", "est_stderr", "margin", "passed"]
    # Refuse the whole grid up front, an invalid cell, one past the
    # log-gamma range or one whose search (1 <= L < N) is over budget,
    # rather than after the cells before it have been written.
    cells = [
        bnd.BoundInput(n, factor * n, l)
        for n in n_list
        for factor in factors
        for l in (range(0, n + 1) if args.l == "all" else _parse_int_list(args.l))
        if (n, factor * n, l) not in done
    ]
    for inp in cells:
        bnd.log_binomial(inp.m, inp.l)
        if args.samples > 0 and 0 < inp.l < inp.n:
            try:
                frames._over_budget(inp.m, inp.l, args.budget)
            except BudgetExceeded as exc:
                raise BudgetExceeded(f"cell (N,M,L)=({inp.n},{inp.m},{inp.l}) is over "
                                     f"--budget {args.budget}: {exc}") from None
    # Every cell of one N reads the same stream, in chunks whose size may
    # differ by cell: the last chunk drawn is kept, read-only, and a later
    # one inside it is a slice of it, so no more than one is held.  A row
    # does not depend on the rows drawn with it, so the slice is the draw.
    last = {}

    def draw(n, rows, seed, start):
        first, chunk = last.get((n, seed), (0, None))
        if chunk is None or not first <= start <= start + rows <= first + len(chunk):
            last.clear()
            first, chunk = start, montecarlo.sample_sphere_batch(n, rows, seed, start)
            chunk.flags.writeable = False
            last[n, seed] = first, chunk
        return chunk[start - first:start - first + rows]

    # The cells of one (N, M) are estimated together, in one pass over
    # each chunk of samples, before their rows are written.  A group of one
    # cell is that cell's estimate_distortion, the call through which
    # perfbench's tracer counts Monte-Carlo work.
    def cell_rows():
        for (n, m), group in itertools.groupby(cells, key=lambda inp: (inp.n, inp.m)):
            group = list(group)
            if args.samples > 0:
                frame = _build_frame("vandermonde", n, m, seed)
                ls = [inp.l for inp in group]
                ests = ([montecarlo.estimate_distortion(frame, ls[0], args.samples, seed,
                                                        args.budget)] if len(ls) == 1 else
                        montecarlo._estimates(frame, ls, args.samples, seed, args.budget, draw))
            for i, inp in enumerate(group):
                report, row = _bound_row(inp)
                if args.samples > 0:
                    verdict = montecarlo.compare_to_bound(ests[i], report)
                    row += [ests[i].mean, ests[i].stderr, verdict.margin, verdict.passed]
                yield row

    # Resume after the last complete row, dropping a row cut by an
    # interrupted write; with no complete row, write the file anew.
    if done:
        os.truncate(args.out, end)
    _write_csv(args.out, header, cell_rows(), cfg, append=bool(done), flush_rows=True)
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
    p.add_argument("--out", default=None, help="write output to this file instead of stdout")
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
