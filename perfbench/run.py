"""Run one vframe benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the vframe under ./src is measured.  With
--trace 0 the workload runs untraced for S seconds and the end-to-end
metrics of BENCHMARK.json are reported.  With --trace 1 a fixed number
of the workload's operations runs once untraced and once traced, and
the per-layer metrics are reported; the spans go to
perfbench/out/trace-<workload>-seed<N>.tsv.

--workload decode-radius, which BENCHMARK.json does not list, runs decode
at the decoding radius, where the gate finds wrong answers (NOTES.md).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it record the
environment and print every metric by name with its unit.  The exit
code is 0 only when every output passed the correctness gate.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# Set-up is timed in this process and in this many fresh processes;
# the median is reported.
SETUP_PROBES = 4


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def cap_blas_threads() -> None:
    """Keep BLAS and OpenMP threads within the CPUs this process may use.

    Must run before numpy is imported.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def import_workloads():
    """Import the workloads, and with them the vframe of this checkout."""
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import workloads
    import vframe

    if not Path(vframe.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"error: imported vframe from {vframe.__file__}, not from {SRC}")
    return workloads


def timed_setup(name: str, seed: int, workdir: str):
    """Import, build the frames and make one warm-up call; (seconds, module, state)."""
    t0 = time.perf_counter()
    workloads = import_workloads()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {name!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    state = workloads.WORKLOADS[name].setup(seed, workdir)
    return time.perf_counter() - t0, workloads, state


def probe_setup(args) -> float:
    """Set-up time of a fresh interpreter running this script with --setup-only."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


# -- measurement -------------------------------------------------------------

def measure(wl, state, seed: int, seconds: float, tally):
    """Closed loop, one caller, no think time: run cases until `seconds`
    of wall time have passed and check every output.

    Calls are grouped into timing windows: one call each, or for decode
    at least hostspeed.WINDOW_S of calls with the reference loop timed
    between windows.  Returns each call's duration, the factor that
    scales it to nominal host speed (NOMINAL_S over the mean reference
    time around its window; 1 for the Monte-Carlo calls, which the
    reference does not track), and per window the work done and its
    scaled time.
    """
    from perfbench import hostspeed

    host_scaled = wl.kind == "decode"
    durations, scales, windows = [], [], []
    start = time.perf_counter()
    ref_before = hostspeed.reference_time() if host_scaled else 0.0
    window, work = 0.0, tally.work
    for case in wl.cases(seed):
        t0 = time.perf_counter()
        out = wl.run(state, case)
        durations.append(time.perf_counter() - t0)
        window += durations[-1]
        tally.add(wl.check(state, case, out))
        done = time.perf_counter() - start >= seconds
        if not host_scaled or window >= hostspeed.WINDOW_S or done:
            scale = 1.0
            if host_scaled:
                ref_after = hostspeed.reference_time()
                scale = hostspeed.NOMINAL_S / (0.5 * (ref_before + ref_after))
                ref_before = ref_after
            scales += [scale] * (len(durations) - len(scales))
            windows.append((tally.work - work, window * scale))
            window, work = 0.0, tally.work
        if done:
            return durations, scales, windows


def trace_pass(wl, state, seed: int, workdir: str, tally, trace_path, header: str):
    """Run the first wl.trace_ops cases untraced, then set up again and
    run them traced; check both sets of outputs after tracing ends.
    Returns the per-layer metrics."""
    from perfbench import hostspeed
    from perfbench.tracing import Tracer, layer_metrics

    def speed():
        return hostspeed.reference_time() if wl.kind == "decode" else 1.0

    cases = list(islice(wl.cases(seed), wl.trace_ops))
    plain = 0.0
    refs = [speed()]
    for case in cases:
        t0 = time.perf_counter()
        out = wl.run(state, case)
        plain += time.perf_counter() - t0
        tally.add(wl.check(state, case, out))
    refs.append(speed())
    tracer = Tracer()
    traced, outs = 0.0, []
    with tracer.installed():
        state = wl.setup(seed, workdir)          # spans of operation 0
        for case in cases:
            tracer.begin_op()
            t0 = time.perf_counter()
            outs.append(wl.run(state, case))
            traced += time.perf_counter() - t0
    refs.append(speed())
    for case, out in zip(cases, outs):
        tally.add(wl.check(state, case, out))
    tracer.write(trace_path, header)
    # Both passes scaled to the host speed measured around them.
    overhead = (traced / (refs[1] + refs[2])) / (plain / (refs[0] + refs[1]))
    return layer_metrics(tracer, overhead)


# -- environment -------------------------------------------------------------

def _blas_threads() -> dict:
    """Thread count of each loaded OpenBLAS, asked through its C API."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return out
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(lib)] = fn()
                break
    return out


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(index, name).read_text().strip()
                                 for name in ("level", "type", "size"))
        except OSError:
            continue
        if level in ("2", "3") and kind != "Instruction":
            sizes[f"l{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


# -- reporting ---------------------------------------------------------------

def end_to_end(wl, durations, scales, windows, tally, setups) -> tuple[dict, list[str]]:
    """End-to-end metric values and the report lines that name them.

    Throughput is the median over timing windows of work per second,
    which a window slowed by the host cannot drag.  Call latencies are
    printed with their sample counts but not gated: their median sits
    between the fast and slow kinds of decode, whose speeds the host
    shifts differently, and moved by up to 16% between runs of one seed.
    """
    scaled = [d * f for d, f in zip(durations, scales)]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_per_s": statistics.median(w / t for w, t in windows),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    n, raw_busy = len(durations), sum(durations)
    p50 = 1e3 * statistics.median(scaled)
    if wl.kind == "decode":
        p99 = (f"{1e3 * statistics.quantiles(scaled, n=100)[98]:.4f} ms"
               if n >= 1000 else "n/a (needs 1000 decodes)")
        lines = [
            f"decode_per_s {values['throughput_per_s']:.2f} 1/s at nominal host speed "
            f"(median of {len(windows)} windows; {tally.work} decodes; "
            f"{tally.work / raw_busy:.2f} 1/s unscaled, mean scale {sum(scaled) / raw_busy:.3f})",
            f"decode_p50_ms {p50:.4f} ms (n={n}; "
            f"{1e3 * statistics.median(durations):.4f} ms unscaled)",
            f"decode_p99_ms {p99} (n={n})",
        ]
    else:
        lines = [
            f"mc_samples_per_s {values['throughput_per_s']:.1f} 1/s "
            f"(median of {n} calls; {tally.work} samples in {raw_busy:.3f} s)",
            f"mc_call_p50_ms {p50:.1f} ms (n={n})",
        ]
    lines += [
        f"{wl.kind}_fail_ratio {tally.failed / tally.attempted:.6f} ratio "
        f"({tally.failed} of {tally.attempted} {'decodes' if wl.kind == 'decode' else 'cells'})",
        f"peak_rss_mb {values['peak_rss_mb']:.1f} MB",
        f"setup_s {values['setup_s']:.4f} s (median of "
        f"{', '.join(f'{s:.3f}' for s in setups)})",
    ]
    return values, lines


def result_line(spec_metrics, values, tally) -> str:
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec_metrics}
    return json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                       "failed": tally.failed, "metrics": metrics})


def main(argv=None) -> int:
    spec = load_spec()
    args = parse_args(argv)
    if not (SRC / "vframe" / "__init__.py").is_file():
        print(f"error: no vframe sources under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        seconds, workloads, state = timed_setup(args.workload, args.seed, workdir)
        if args.setup_only:
            print(seconds)
            return 0
        wl = workloads.WORKLOADS[args.workload]
        env = environment(args.seed)
        print(json.dumps({"env": env}))
        tally = workloads.Tally()
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.tsv"
            values = trace_pass(wl, state, args.seed, workdir, tally, trace_path,
                                json.dumps({"workload": args.workload, "env": env}))
            spec_metrics = spec["per_layer"]
            lines = [f"{m['name']} {values[m['name']]:.6g} {m['unit']}" for m in spec_metrics]
            lines.append(f"spans written to {trace_path.relative_to(ROOT)}")
        else:
            setups = [seconds] + [probe_setup(args) for _ in range(SETUP_PROBES)]
            timings = measure(wl, state, args.seed, args.seconds, tally)
            spec_metrics = spec["end_to_end"]
            values, lines = end_to_end(wl, *timings, tally, setups)
    for line in lines:
        print(line)
    for problem in tally.wrong[:20]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    print(result_line(spec_metrics, values, tally))
    return 0 if not tally.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
