import csv
import io
import json
import math

import numpy as np
import pytest

import vframe as vf
from vframe import cli, montecarlo


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(lines))))


def config_line(text):
    for ln in text.splitlines():
        if ln.startswith("# config:"):
            return json.loads(ln.split(":", 1)[1])
    raise AssertionError("missing config echo")


# -- frame ---------------------------------------------------------------------

def test_frame_subcommand_schema(capsys):
    code, out, _ = run(capsys, ["frame", "--n", "2", "--m", "4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["config"]["subcommand"] == "frame"
    assert "seed" in obj["config"]
    assert obj["frame"]["kind"] == "vandermonde"
    assert obj["frame"]["n"] == 2 and obj["frame"]["m"] == 4
    frame = vf.frame_from_json(obj["frame"])
    assert frame.m == 4


def test_frame_out_file_loadable(tmp_path, capsys):
    path = tmp_path / "frame.json"
    code, out, _ = run(capsys, ["frame", "--n", "2", "--m", "4", "--out", str(path)])
    assert code == 0
    assert json.loads(out)["subcommand"] == "frame"  # config echo on stdout
    frame = vf.load_frame(path)  # file holds the bare schema
    assert (frame.m, frame.n) == (4, 2)
    code, out, _ = run(capsys, ["decode", "--frame", str(path), "--signal-json", "[[2,0],[-2,0]]"])
    assert code == 0 and json.loads(out)["outcome"]["support"] == [3]


def test_missing_frame_file_is_domain_error(capsys):
    code, _, err = run(capsys, ["decode", "--frame", "/no/such/frame.json",
                                "--signal-json", "[[1,0]]"])
    assert code == 1 and "error:" in err


def test_frame_gaussian_seeded(capsys):
    code1, out1, _ = run(capsys, ["frame", "--n", "3", "--m", "6", "--kind", "gaussian", "--seed", "5"])
    code2, out2, _ = run(capsys, ["frame", "--n", "3", "--m", "6", "--kind", "gaussian", "--seed", "5"])
    assert code1 == code2 == 0
    assert json.loads(out1)["frame"] == json.loads(out2)["frame"]


# -- encode / decode -------------------------------------------------------------

def test_encode_worked_example(capsys):
    code, out, _ = run(
        capsys,
        ["encode", "--n", "2", "--m", "4",
         "--rep-json", '{"support": [3], "values": [[2, 0]]}'],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["signal"] == [[2.0, 0.0], [-2.0, 2.4492935982947064e-16]]


def test_decode_subcommand_ok(capsys):
    code, out, _ = run(
        capsys,
        ["decode", "--n", "2", "--m", "4", "--signal-json", "[[2, 0], [-2, 0]]"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["outcome"]["status"] == "ok"
    assert obj["outcome"]["support"] == [3]


def test_decode_failure_is_data_not_crash(capsys):
    # weight floor(N/2)+1 synthesis: exit 0, status in the payload
    frame = vf.make_vandermonde_frame(vf.default_nodes(16), 8)
    rep = vf.random_sparse_rep(16, 5, vf.sample_rng(6, 0))
    r = vf.synthesize(frame, rep)
    signal = json.dumps([[v.real, v.imag] for v in r])
    code, out, _ = run(capsys, ["decode", "--n", "8", "--m", "16", "--signal-json", signal])
    assert code == 0
    obj = json.loads(out)
    assert obj["outcome"]["status"] == "weight_exceeds_half_n"


def test_encode_by_weight_round_trips_through_signal_files(tmp_path, capsys):
    encoded = tmp_path / "encoded.json"
    code, out, _ = run(capsys, ["encode", "--n", "8", "--m", "16", "--weight", "3",
                                "--seed", "4", "--out", str(encoded)])
    assert code == 0 and out == ""
    obj = json.loads(encoded.read_text())
    assert obj["config"]["weight"] == 3 and len(obj["rep"]["support"]) == 3
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(obj["signal"]))
    for signal_file in (encoded, bare):               # an object, then a bare list
        decoded = tmp_path / "decoded.json"
        code, out, _ = run(capsys, ["decode", "--n", "8", "--m", "16", "--signal-file",
                                    str(signal_file), "--out", str(decoded)])
        assert code == 0 and out == ""
        outcome = json.loads(decoded.read_text())["outcome"]
        assert outcome["status"] == "ok" and outcome["support"] == obj["rep"]["support"]


def test_decode_frame_file(tmp_path, capsys):
    path = tmp_path / "frame.json"
    vf.save_frame(vf.make_vandermonde_frame(vf.default_nodes(4), 2), path)
    code, out, _ = run(capsys, ["decode", "--frame", str(path), "--signal-json", "[[2,0],[-2,0]]"])
    assert code == 0
    assert json.loads(out)["outcome"]["support"] == [3]


def test_decode_non_finite_signal_is_an_input_error(capsys):
    code, out, err = run(
        capsys,
        ["decode", "--n", "4", "--m", "8", "--signal-json", "[[Infinity, 0], [1, 0], [0, 0], [0, 0]]"],
    )
    assert code == 1 and out == ""
    assert err == "error: signal must be finite, with a finite norm\n"



@pytest.mark.parametrize("argv", [
    ["encode", "--n", "2", "--m", "4", "--rep-json", '{"values": []}'],
    ["encode", "--n", "2", "--m", "4", "--rep-json", '{"support": [null], "values": [[1, 0]]}'],
    ["encode", "--n", "2", "--m", "4", "--rep-json", '{"support": [1], "values": [1]}'],
    ["decode", "--n", "2", "--m", "4", "--signal-json", "[1, 2, 3, 4]"],
    ["decode", "--n", "2", "--m", "4", "--signal-json", '{"a": 1}'],
    ["decode", "--n", "2", "--m", "4", "--signal-json", '[[1, "a"], [0, 0]]'],
], ids=["rep-without-support", "support-not-ints", "values-not-pairs",
        "signal-not-pairs", "signal-object-without-signal", "signal-pair-not-numbers"])
def test_malformed_json_input_is_an_input_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("text", [
    '{"kind": "vandermonde", "n": 2}',
    '{"kind": "vandermonde", "n": null, "m": 2, "nodes": [[1, 0], [-1, 0]]}',
    '{"kind": "vandermonde", "n": 2, "m": 99, "nodes": [[1, 0], [-1, 0]]}',
    '{"kind": "vandermonde", "n": 2, "nodes": [[1, 0], [-1, 0]]}',
    '{"kind": "general", "rows": 5}',
    '{"n": 2, "nodes": [[1, 0], [-1, 0]]}',
    "[1, 2]",
], ids=["no-nodes", "n-not-int", "m-not-node-count", "no-m", "rows-not-list", "no-kind",
        "not-an-object"])
def test_malformed_frame_file_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "frame.json"
    path.write_text(text)
    code, out, err = run(capsys, ["decode", "--frame", str(path), "--signal-json", "[[1, 0], [0, 0]]"])
    assert code == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("tol", ["nan", "-1", "0", "1", "inf"])
@pytest.mark.parametrize("argv", [
    ["decode", "--n", "2", "--m", "4", "--signal-json", "[[2, 0], [-2, 0]]"],
    ["roundtrip", "--n", "4", "--m", "8", "--weight", "1", "--seed", "1"],
    ["roundtrip", "--n", "4", "--m", "8", "--weight", "1", "--seed", "1", "--trials", "0"],
], ids=["decode", "roundtrip", "roundtrip-no-trials"])
def test_a_tolerance_outside_the_open_unit_interval_is_an_input_error(tmp_path, capsys, argv, tol):
    out_path = tmp_path / "out.json"
    code, out, err = run(capsys, argv + ["--tol", tol, "--out", str(out_path)])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "tol" in err
    assert not out_path.exists()


def test_usage_error_exit_code_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["decode", "--n", "2", "--m", "4", "--bogus-flag", "1"])
    assert exc.value.code == 2


def test_domain_error_exit_code_one(capsys):
    for argv, message in (
        (["decode", "--n", "2", "--m", "4"], "--signal-json"),
        (["decode", "--frame", "vandermonde", "--signal-json", "[[1, 0]]"], "--n and --m"),
    ):
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err.startswith("error:") and message in err


# -- roundtrip --------------------------------------------------------------------

def test_roundtrip_summary(capsys):
    code, out, _ = run(
        capsys,
        ["roundtrip", "--n", "16", "--m", "64", "--weight", "8",
         "--trials", "100", "--seed", "7"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["trials"] == 100
    assert obj["successes"] == 100
    assert obj["statuses"] == {"ok": 100}
    assert obj["max_value_rel_error"] <= 1e-6
    assert obj["config"]["seed"] == 7



def test_roundtrip_refuses_a_negative_trial_count(capsys):
    code, out, err = run(capsys, ["roundtrip", "--n", "4", "--m", "8", "--weight", "1",
                                  "--trials", "-1", "--seed", "1"])
    assert code == 1 and out == ""
    assert "--trials" in err


# -- bound -----------------------------------------------------------------------

def test_bound_csv_row(tmp_path, capsys):
    code, out, _ = run(capsys, ["bound", "--n", "6", "--m", "12", "--l", "2"])
    assert code == 0
    out_path = tmp_path / "bound.csv"
    assert run(capsys, ["bound", "--n", "6", "--m", "12", "--l", "2", "--out", str(out_path)]) \
        == (0, "", "")
    assert out_path.read_bytes() == out.encode()
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert (row["N"], row["M"], row["L"], row["branch"]) == ("6", "12", "2", "mid")
    assert float(row["lower_bound"]) == pytest.approx(0.0521, abs=5e-5)
    expect = vf.distortion_lower_bound(vf.BoundInput(6, 12, 2)).lower_bound
    assert float(row["lower_bound"]) == pytest.approx(expect, rel=1e-15)
    cfg = config_line(out)
    assert cfg["subcommand"] == "bound" and cfg["format"] == "csv"


def test_bound_at_large_m(capsys):
    # log C(1e17, 1) = log(1e17): three log-gamma values near M log M
    # would leave 0.0 of it.
    code, out, _ = run(capsys, ["bound", "--n", "10", "--m", str(10**17), "--l", "1"])
    assert code == 0
    assert float(parse_csv(out)[0]["T_log2"]) == pytest.approx(17 * math.log2(10), rel=1e-15)


def test_bound_asymptotic(capsys):
    code, out, _ = run(capsys, ["bound", "--asymptotic", "--r", "2", "--eps", "0.5"])
    assert code == 0
    row = parse_csv(out)[0]
    assert float(row["kappa0"]) == pytest.approx(0.05273, abs=1e-5)
    assert float(row["bound"]) == pytest.approx(0.02708, abs=5e-6)


def test_bound_takes_no_seed():
    # A bound draws nothing, so a seed would change no byte of its output.
    with pytest.raises(SystemExit) as exc:
        cli.main(["bound", "--n", "6", "--m", "12", "--l", "2", "--seed", "1"])
    assert exc.value.code == 2


def test_bound_missing_args(capsys):
    for argv in (["bound", "--n", "6"], ["bound", "--asymptotic"],
                 ["bound", "--asymptotic", "--r", "2"]):
        code, _, err = run(capsys, argv)
        assert code == 1 and "error:" in err


# -- simulate ---------------------------------------------------------------------

def test_simulate_verdict(capsys):
    code, out, _ = run(
        capsys,
        ["simulate", "--n", "4", "--m", "8", "--l", "2",
         "--samples", "200", "--seed", "9"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["estimate"]["n_samples"] == 200
    assert obj["verdict"]["passed"] is True
    assert obj["bound"]["branch"] == "mid"
    assert obj["config"]["seed"] == 9


def test_simulate_random_seed_echoed(capsys):
    code, out, _ = run(
        capsys,
        ["simulate", "--n", "3", "--m", "6", "--l", "1", "--samples", "50"],
    )
    assert code == 0
    assert isinstance(json.loads(out)["config"]["seed"], int)


def test_simulate_samples_csv(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    code, out, _ = run(
        capsys,
        ["simulate", "--n", "3", "--m", "6", "--l", "1", "--samples", "25",
         "--seed", "3", "--samples-csv", str(path)],
    )
    assert code == 0
    rows = list(csv.DictReader(path.open()))
    assert len(rows) == 25
    mean = np.mean([float(r["residual_ratio"]) for r in rows])
    assert mean == pytest.approx(json.loads(out)["estimate"]["mean"], abs=1e-12)


def test_simulate_samples_csv_draws_once_and_follows_greedy(tmp_path, capsys, monkeypatch):
    from vframe import montecarlo

    draws = []
    batch = montecarlo.sample_sphere_batch
    monkeypatch.setattr(montecarlo, "sample_sphere_batch",
                        lambda *a, **k: draws.append(a) or batch(*a, **k))
    path = tmp_path / "samples.csv"
    # C(8, 2) = 28 supports over --budget 3: the estimate and the rows are greedy
    code, out, err = run(
        capsys,
        ["simulate", "--n", "4", "--m", "8", "--l", "2", "--samples", "20", "--budget", "3",
         "--greedy", "--seed", "1", "--samples-csv", str(path)],
    )
    assert code == 0, err
    assert len(draws) == 1
    est = json.loads(out)["estimate"]
    assert est["approximate"] is True
    rows = list(csv.DictReader(path.open()))
    assert [int(r["index"]) for r in rows] == list(range(20))
    mean = np.mean([float(r["residual_ratio"]) for r in rows])
    assert mean == pytest.approx(est["mean"], abs=1e-12)


# -- sweep ------------------------------------------------------------------------

def test_sweep_grid_complete(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(
        capsys,
        ["sweep", "--n-list", "3,4", "--m-factors", "2", "--seed", "1",
         "--out", str(out_path)],
    )
    assert code == 0
    rows = parse_csv(out_path.read_text())
    assert len(rows) == (3 + 1) + (4 + 1)
    keys = {(r["N"], r["M"], r["L"]) for r in rows}
    assert ("3", "6", "0") in keys and ("4", "8", "4") in keys


def test_sweep_puts_each_row_on_disk_before_the_next_cell(tmp_path, capsys, monkeypatch):
    # --resume reads back the rows of finished cells, so each row is
    # flushed as it is written, not when the file closes.
    out_path = tmp_path / "sweep.csv"
    on_disk = []
    bound_row = cli._bound_row

    def recording(inp):
        on_disk.append(len(parse_csv(out_path.read_text())))
        return bound_row(inp)

    monkeypatch.setattr(cli, "_bound_row", recording)
    code, _, err = run(capsys, ["sweep", "--n-list", "3", "--m-factors", "2", "--seed", "1",
                                "--out", str(out_path)])
    assert code == 0, err
    assert on_disk == [0, 1, 2, 3]


def test_sweep_resume_idempotent(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    run(capsys, ["sweep", "--n-list", "3", "--m-factors", "2", "--seed", "1",
                 "--out", str(out_path)])
    full = out_path.read_text()
    # truncate: keep config + header + first two rows, then resume
    lines = full.splitlines()
    out_path.write_text("\n".join(lines[:4]) + "\n")
    code, _, _ = run(
        capsys,
        ["sweep", "--n-list", "3", "--m-factors", "2", "--seed", "1",
         "--out", str(out_path), "--resume"],
    )
    assert code == 0
    rows = parse_csv(out_path.read_text())
    assert len(rows) == 4
    assert len({(r["N"], r["M"], r["L"]) for r in rows}) == 4
    # a second resume adds nothing
    run(capsys, ["sweep", "--n-list", "3", "--m-factors", "2", "--seed", "1",
                 "--out", str(out_path), "--resume"])
    assert len(parse_csv(out_path.read_text())) == 4


def count_draws(monkeypatch):
    draws = []
    batch = montecarlo.sample_sphere_batch
    monkeypatch.setattr(montecarlo, "sample_sphere_batch",
                        lambda *a, **k: draws.append(a) or batch(*a, **k))
    return draws


SWEEP_34 = ["sweep", "--n-list", "3,4", "--m-factors", "2,4", "--l", "all",
            "--samples", "40", "--seed", "8"]


def test_sweep_draws_each_n_once_and_matches_per_cell_estimates(tmp_path, capsys, monkeypatch):
    draws = count_draws(monkeypatch)
    out_path = tmp_path / "sweep.csv"
    code, _, err = run(capsys, SWEEP_34 + ["--out", str(out_path)])
    assert code == 0, err
    # The 10 cells with 1 <= L < N, over both M factors, share one draw
    # per (N, samples, seed).
    assert draws == [(3, 40, 8, 0), (4, 40, 8, 0)]
    rows = parse_csv(out_path.read_text())
    assert len(rows) == 2 * 4 + 2 * 5
    del draws[:]
    for r in rows:
        n, m, l = int(r["N"]), int(r["M"]), int(r["L"])
        est = vf.estimate_distortion(vf.make_vandermonde_frame(vf.default_nodes(m), n), l, 40, 8)
        report = vf.distortion_lower_bound(vf.BoundInput(n, m, l))
        verdict = vf.compare_to_bound(est, report)
        assert (float(r["est_mean"]), float(r["est_stderr"]), float(r["margin"]), r["passed"]) == (
            est.mean, est.stderr, verdict.margin, str(verdict.passed))
    # Per cell, only the 10 with 1 <= L < N draw: at L = 0 and L = N no
    # sample is read.
    assert len(draws) == 10


def test_sweep_lifts_and_checks_each_chunk_once_per_n_and_m(tmp_path, capsys, monkeypatch):
    # On the validate-sweep grid (N = 3..6, M = 2N, every L, 5,000 samples)
    # one chunk holds every sample.  Each (N, M) checks and norms it once
    # per chunk size, twice where the stacked-basis L = 1 cell (N = 5, 6)
    # takes larger chunks, and lifts it once for all of its real-weight
    # cells: 4 lifts and 6 checks, where an estimate per cell takes 12 and 14.
    lifts, checks = [], []
    for name in ("_real_features", "_gram_features"):
        monkeypatch.setattr(montecarlo, name, lambda xs, pairs, name=name,
                            lift=getattr(montecarlo, name):
                            lifts.append((name, len(xs))) or lift(xs, pairs))
    signals = montecarlo._signals
    monkeypatch.setattr(montecarlo, "_signals", lambda frame, X, l:
                        checks.append((frame.n, len(X))) or signals(frame, X, l))
    code, _, err = run(capsys, ["sweep", "--n-list", "3,4,5,6", "--m-factors", "2", "--l", "all",
                                "--samples", "5000", "--seed", "3",
                                "--out", str(tmp_path / "sweep.csv")])
    assert code == 0, err
    assert lifts == [("_real_features", 5000)] * 4
    assert checks == [(3, 5000), (4, 5000), (5, 5000), (5, 5000), (6, 5000), (6, 5000)]


def test_sweep_reads_a_smaller_chunk_out_of_the_one_it_holds(tmp_path, capsys, monkeypatch):
    # At N = 8 an estimate scores 32 blocks of rows at once for stacked
    # bases (L = 1) but 14 for real-symmetric weights (L = 2, 3): the
    # later cells read their two chunks out of the first cell's draw.
    draws = count_draws(monkeypatch)
    out_path = tmp_path / "sweep.csv"
    samples = 14 * 1024 + 1
    code, _, err = run(capsys, ["sweep", "--n-list", "8", "--m-factors", "2", "--l", "1,2,3",
                                "--samples", str(samples), "--seed", "5", "--out", str(out_path)])
    assert code == 0, err
    assert draws == [(8, samples, 5, 0)]
    frame = vf.make_vandermonde_frame(vf.default_nodes(16), 8)
    for r in parse_csv(out_path.read_text()):
        est = vf.estimate_distortion(frame, int(r["L"]), samples, 5)
        assert (float(r["est_mean"]), float(r["est_stderr"])) == (est.mean, est.stderr)


def test_sweep_csv_equals_one_drawn_per_sample(tmp_path, capsys, monkeypatch):
    # The CSV is byte for byte the one of a sampler that draws every sample
    # on its own, as row `start` of its block.
    argv = ["sweep", "--n-list", "3,4,6", "--m-factors", "2", "--l", "all",
            "--samples", "1100", "--seed", "4242"]
    batch_path, reference_path = tmp_path / "batch.csv", tmp_path / "reference.csv"
    assert run(capsys, argv + ["--out", str(batch_path)])[0] == 0
    batch = montecarlo.sample_sphere_batch

    def per_sample(n, n_samples, seed, start):
        drawn.append(n)
        return np.concatenate([batch(n, 1, seed, start + i) for i in range(n_samples)])

    drawn = []
    monkeypatch.setattr(montecarlo, "sample_sphere_batch", per_sample)
    assert run(capsys, argv + ["--out", str(reference_path)])[0] == 0
    assert drawn == [3, 4, 6]
    assert batch_path.read_bytes() == reference_path.read_bytes()


@pytest.mark.parametrize("kept,expected_draws", [(2, [3, 4]), (8, [4]), (9, [4]), (18, [])])
def test_sweep_resume_draws_only_for_cells_left(tmp_path, capsys, monkeypatch, kept, expected_draws):
    out_path = tmp_path / "sweep.csv"
    run(capsys, SWEEP_34 + ["--out", str(out_path)])
    full = out_path.read_text()
    # keep config + header + the first `kept` rows, then resume
    out_path.write_text("\n".join(full.splitlines()[:2 + kept]) + "\n")
    draws = count_draws(monkeypatch)
    code, _, err = run(capsys, SWEEP_34 + ["--out", str(out_path), "--resume"])
    assert code == 0, err
    assert [a[0] for a in draws] == expected_draws
    assert out_path.read_text() == full


@pytest.mark.parametrize("stream", [None, "per-sample"])
def test_sweep_resume_refuses_rows_of_another_sample_stream(tmp_path, capsys, stream):
    # A file whose config names no stream (as written before the block
    # contract) or another one holds rows drawn from other samples.
    out_path = tmp_path / "sweep.csv"
    cfg = {"subcommand": "sweep", "format": "csv", "seed": 8, "n_list": [3], "m_factors": [2],
           "l": "all", "samples": 40, "resume": False}
    if stream is not None:
        cfg["stream"] = stream
    text = (f"# config: {json.dumps(cfg)}\n"
            "N,M,L,T_log2,kappa_c,rho_0,branch,lower_bound,est_mean,est_stderr,margin,passed\n"
            "3,6,0,0.0,nan,nan,L0,1.0,1.0,0.0,0.0,True\n")
    out_path.write_text(text)
    code, _, err = run(capsys, ["sweep", "--n-list", "3", "--m-factors", "2", "--samples", "40",
                                "--seed", "8", "--out", str(out_path), "--resume"])
    assert code == 1
    assert str(out_path) in err and "other samples" in err and repr(stream) in err
    assert out_path.read_text() == text
    # A file written now names the stream it was drawn from.
    out_path.unlink()
    assert run(capsys, ["sweep", "--n-list", "3", "--m-factors", "2", "--samples", "40",
                        "--seed", "8", "--out", str(out_path)])[0] == 0
    first = out_path.read_text().splitlines()[0]
    assert json.loads(first[len("# config: "):])["stream"] == montecarlo.STREAM == "philox-block-1024"


def test_sweep_with_samples(capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--n-list", "3", "--m-factors", "2", "--samples", "100",
         "--seed", "2"],
    )
    assert code == 0
    rows = parse_csv(out)
    assert all(r["passed"] == "True" for r in rows)
    assert float(rows[0]["est_mean"]) == 1.0  # L = 0 row


def test_sweep_checks_every_budget_before_writing(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys,
        ["sweep", "--n-list", "3,4", "--m-factors", "2", "--samples", "50",
         "--budget", "20", "--seed", "1", "--out", str(out_path)],
    )
    assert code == 1
    assert "(N,M,L)=(4,8,2)" in err and "--budget 20" in err
    assert not out_path.exists()


def test_sweep_charges_only_searched_cells_to_the_budget(tmp_path, capsys):
    # At L = N no support is scored, so C(8, 4) = 70 over --budget 69 is not
    # refused, in the sweep as in simulate: the estimate is an exact 0.
    out_path = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys,
        ["sweep", "--n-list", "4", "--m-factors", "2", "--l", "1,4", "--samples", "50",
         "--budget", "69", "--seed", "1", "--out", str(out_path)],
    )
    assert code == 0, err
    rows = parse_csv(out_path.read_text())
    assert [r["L"] for r in rows] == ["1", "4"]
    assert rows[1]["est_mean"] == "0.0" and rows[1]["passed"] == "True"
    for greedy in ([], ["--greedy"]):
        code, out, err = run(capsys, ["simulate", "--n", "4", "--m", "8", "--l", "4",
                                      "--samples", "10", "--budget", "69", "--seed", "1",
                                      *greedy])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["estimate"]["mean"] == 0.0
        assert payload["estimate"]["approximate"] is False
        assert payload["verdict"]["passed"]


# M = 1e309 is past a double; the sweep's second cell has it.
@pytest.mark.parametrize("argv", [
    ["encode", "--n", "4", "--m", "8", "--seed", "1"],
    ["bound", "--n", "10", "--m", str(10**309), "--l", "1"],
    ["sweep", "--n-list", "10", "--m-factors", f"1,{10**308}", "--l", "1"],
], ids=["encode-without-rep-or-weight", "bound-past-a-double", "sweep-past-a-double"])
def test_refused_input_exits_1_and_writes_nothing(argv, tmp_path, capsys):
    out_path = tmp_path / "out"
    code, out, err = run(capsys, argv + ["--out", str(out_path)])
    assert code == 1 and err.startswith("error: ")
    assert out == "" and not out_path.exists()


def test_sweep_checks_every_cell_before_writing(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    code, _, err = run(
        capsys,
        ["sweep", "--n-list", "3,2", "--m-factors", "2", "--l", "3", "--out", str(out_path)],
    )
    assert code == 1 and "need 0 <= L <= N" in err
    assert not out_path.exists()


def test_sweep_resume_requires_out(capsys):
    code, _, err = run(capsys, ["sweep", "--n-list", "3", "--resume"])
    assert code == 1 and "error:" in err



def test_sweep_refuses_a_negative_sample_count(tmp_path, capsys):
    code, out, err = run(capsys, ["sweep", "--n-list", "3", "--samples", "-5", "--seed", "1"])
    assert code == 1 and out == ""
    assert "--samples" in err
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, ["sweep", "--n-list", "3", "--samples", "-5", "--out", str(out_path)])
    assert code == 1 and not out_path.exists()


SWEEP_4 = ["sweep", "--n-list", "4", "--m-factors", "2", "--samples", "50"]


def truncated_sweep(capsys, out_path, argv, kept=2):
    """Run a sweep to `out_path`, then keep config, header and `kept` rows."""
    code, _, err = run(capsys, argv + ["--out", str(out_path)])
    assert code == 0, err
    full = out_path.read_text()
    out_path.write_text("\n".join(full.splitlines()[:2 + kept]) + "\n")
    return full


SWEEP_CUT = ["sweep", "--n-list", "3,4", "--m-factors", "2", "--samples", "30", "--seed", "1"]


def test_sweep_resume_after_a_cut_at_any_byte_equals_the_uninterrupted_file(tmp_path, capsys):
    # An interrupted write may stop anywhere after the config line: inside
    # the header, inside a row, or between a row's "\r" and "\n".
    whole_path, out_path = tmp_path / "whole.csv", tmp_path / "sweep.csv"
    assert run(capsys, SWEEP_CUT + ["--out", str(whole_path)])[0] == 0
    whole = whole_path.read_bytes()
    differs = []
    for cut in range(whole.index(b"\n") + 1, len(whole) + 1):
        out_path.write_bytes(whole[:cut])
        code, _, _ = run(capsys, SWEEP_CUT + ["--out", str(out_path), "--resume"])
        if (code, out_path.read_bytes()) != (0, whole):
            differs.append(cut)
    assert differs == []


def test_sweep_resume_refuses_a_config_line_without_its_line_end(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    assert run(capsys, SWEEP_CUT + ["--out", str(out_path)])[0] == 0
    whole = out_path.read_bytes()
    for cut in range(1, whole.index(b"\n") + 1):
        out_path.write_bytes(whole[:cut])
        code, out, err = run(capsys, SWEEP_CUT + ["--out", str(out_path), "--resume"])
        assert (code, out) == (1, "") and err.startswith("error:") and "config" in err
        assert out_path.read_bytes() == whole[:cut]


def test_sweep_resume_takes_the_seed_of_the_file(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    truncated_sweep(capsys, out_path, SWEEP_4)
    seed = config_line(out_path.read_text())["seed"]
    code, _, err = run(capsys, SWEEP_4 + ["--out", str(out_path), "--resume"])
    assert code == 0, err
    again = tmp_path / "again.csv"
    run(capsys, SWEEP_4 + ["--seed", str(seed), "--out", str(again)])
    assert out_path.read_text() == again.read_text()


@pytest.mark.parametrize("first,resume,flag", [
    ([], ["--seed", "9", "--samples", "200"], "--samples 200"),
    (["--seed", "1"], ["--seed", "9"], "--seed 9"),
    (["--samples", "0", "--seed", "1"], ["--seed", "1"], "--samples 50"),
])
def test_sweep_resume_refuses_another_config(tmp_path, capsys, first, resume, flag):
    out_path = tmp_path / "sweep.csv"
    truncated_sweep(capsys, out_path, SWEEP_4 + first)
    before = out_path.read_text()
    code, _, err = run(capsys, SWEEP_4 + resume + ["--out", str(out_path), "--resume"])
    assert code == 1 and flag in err
    assert out_path.read_text() == before


@pytest.mark.parametrize("resume,flag", [
    (["--n-list", "4", "--m-factors", "4", "--l", "1"], "--n-list [4]"),
    (["--n-list", "3", "--m-factors", "4"], "--m-factors [4]"),
    (["--n-list", "3", "--m-factors", "2", "--l", "1"], "--l [1]"),
    (["--n-list", "3,4", "--m-factors", "2"], "--n-list [3, 4]"),
])
def test_sweep_resume_refuses_another_grid(tmp_path, capsys, resume, flag):
    # Rows of another grid would sit under a config line that does not
    # name them.
    out_path = tmp_path / "sweep.csv"
    first = ["sweep", "--n-list", "3", "--m-factors", "2", "--seed", "1"]
    truncated_sweep(capsys, out_path, first)
    before = out_path.read_text()
    code, out, err = run(capsys, ["sweep", "--seed", "1"] + resume + ["--out", str(out_path), "--resume"])
    assert (code, out) == (1, "") and flag in err
    assert out_path.read_text() == before
    # The same grid, --l spelled out or left to its default, resumes.
    code, _, err = run(capsys, first + ["--l", "all", "--out", str(out_path), "--resume"])
    assert code == 0, err
    assert len(parse_csv(out_path.read_text())) == 4


@pytest.mark.parametrize("existing", [None, ""], ids=["missing", "empty"])
def test_sweep_resume_starts_a_missing_or_empty_file(tmp_path, capsys, existing):
    fresh = tmp_path / "fresh.csv"
    run(capsys, SWEEP_4 + ["--seed", "1", "--out", str(fresh)])
    out_path = tmp_path / "sweep.csv"
    if existing is not None:
        out_path.write_text(existing)
    code, _, err = run(capsys, SWEEP_4 + ["--seed", "1", "--out", str(out_path), "--resume"])
    assert code == 0, err
    text = out_path.read_text()
    assert config_line(text)["resume"] is True
    assert parse_csv(text) == parse_csv(fresh.read_text())


def test_sweep_resume_refuses_a_file_without_sweep_config(tmp_path, capsys):
    out_path = tmp_path / "sweep.csv"
    out_path.write_text("N,M,L\n4,8,1\n")
    code, _, err = run(capsys, SWEEP_4 + ["--seed", "1", "--out", str(out_path), "--resume"])
    assert code == 1 and "config" in err
    assert out_path.read_text() == "N,M,L\n4,8,1\n"


@pytest.mark.parametrize("config", [
    [1],
    {"subcommand": "sweep", "format": "csv", "samples": 50},
    {"subcommand": "sweep", "format": "csv", "seed": 1},
], ids=["not-an-object", "no-seed", "no-samples"])
def test_sweep_resume_refuses_a_malformed_config_line(tmp_path, capsys, config):
    out_path = tmp_path / "sweep.csv"
    text = f"# config: {json.dumps(config)}\nN,M,L\n4,8,1\n"
    out_path.write_text(text)
    code, _, err = run(capsys, SWEEP_4 + ["--seed", "1", "--out", str(out_path), "--resume"])
    assert code == 1 and err.startswith("error:") and "config" in err
    assert "Traceback" not in err
    assert out_path.read_text() == text
