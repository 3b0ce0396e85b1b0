"""End-to-end command-line runs against temporary files."""

import json

import numpy as np
import pytest

from curvejoin.cli import main
from curvejoin.curves import write_series_1d, write_trajectories_2d

from helpers import clustered_dataset, curve1, dataset_of

RADIUS = "1.0"


@pytest.fixture()
def series_path(tmp_path):
    rng = np.random.default_rng(13)
    data, _ = clustered_dataset(rng, 3, 4, 1, 1.0)
    path = tmp_path / "series.txt"
    write_series_1d(data, path)
    return str(path)


@pytest.fixture()
def identical_path(tmp_path):
    data = dataset_of([curve1(i, [0.0, 2.0, 1.0]) for i in range(4)])
    path = tmp_path / "same.txt"
    write_series_1d(data, path)
    return str(path)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_pairs(path):
    lines = path.read_text().splitlines()
    assert lines[0] == "idA,idB"
    return {tuple(map(int, ln.split(","))) for ln in lines[1:]}


class TestSelfJoinCmd:
    def test_writes_all_reports(self, series_path, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        queries = tmp_path / "queries.jsonl"
        pairs = tmp_path / "pairs.csv"
        code, out, err = run(
            ["self-join", "--data", series_path, "--radius", RADIUS,
             "--L", "64", "--tau", "1", "--seed", "3",
             "--out-summary", str(summary), "--out-queries", str(queries),
             "--out-pairs", str(pairs)],
            capsys)
        assert code == 0, err
        doc = json.loads(out)
        assert doc == json.loads(summary.read_text())
        assert doc["n_curves"] == 15
        assert doc["predicted_pairs"] == len(read_pairs(pairs))
        rows = [json.loads(ln) for ln in queries.read_text().splitlines()]
        assert [row["query_id"] for row in rows] == list(range(15))
        assert all("timings" in row for row in rows)

    def test_no_timings_runs_are_byte_identical(self, series_path, tmp_path,
                                                capsys):
        outs = []
        for name in ("a", "b"):
            summary = tmp_path / f"{name}.json"
            queries = tmp_path / f"{name}.jsonl"
            code, out, _ = run(
                ["self-join", "--data", series_path, "--radius", RADIUS,
                 "--L", "64", "--seed", "3", "--no-timings",
                 "--out-summary", str(summary), "--out-queries", str(queries)],
                capsys)
            assert code == 0
            outs.append((summary.read_bytes(), queries.read_bytes(), out))
        assert outs[0] == outs[1]
        assert b"timings" not in outs[0][0]

    def test_threads_flag_is_refused(self, series_path, tmp_path, capsys):
        # self-join has no --threads flag: an old command line that passes
        # one exits 2 as argparse refuses it, before any output is written
        summary = tmp_path / "summary.json"
        with pytest.raises(SystemExit) as exc:
            run(["self-join", "--data", series_path, "--radius", RADIUS,
                 "--threads", "1", "--out-summary", str(summary)], capsys)
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 1" in capsys.readouterr().err
        assert not summary.exists()

    def test_full_tau_pairs_subset_of_exact(self, series_path, tmp_path,
                                            capsys):
        approx = tmp_path / "approx.csv"
        exact = tmp_path / "exact.csv"
        code, _, _ = run(
            ["self-join", "--data", series_path, "--radius", RADIUS,
             "--L", "64", "--tau", "1", "--out-pairs", str(approx)], capsys)
        assert code == 0
        code, _, _ = run(
            ["exact-join", "--data", series_path, "--radius", RADIUS,
             "--out-pairs", str(exact)], capsys)
        assert code == 0
        assert read_pairs(approx) <= read_pairs(exact)

    def test_truth_flag_adds_metrics(self, series_path, tmp_path, capsys):
        exact = tmp_path / "exact.csv"
        run(["exact-join", "--data", series_path, "--radius", RADIUS,
             "--out-pairs", str(exact)], capsys)
        code, out, _ = run(
            ["self-join", "--data", series_path, "--radius", RADIUS,
             "--L", "64", "--tau", "1", "--truth", str(exact)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["metrics"]["precision"] == 1.0
        assert doc["metrics"]["fp"] == 0

    def test_missing_dataset_exits_3_without_outputs(self, tmp_path, capsys):
        summary = tmp_path / "summary.json"
        code, _, err = run(
            ["self-join", "--data", str(tmp_path / "absent.txt"),
             "--radius", RADIUS, "--out-summary", str(summary)], capsys)
        assert code == 3
        assert err
        assert not summary.exists()

    @pytest.mark.parametrize("extra", [
        ["--tau", "1.5"],
        ["--epsilons", "1,10"],
        ["--epsilons", "abc"],
        ["--radius", "-2"],
        ["--k", "0"],
        ["--grid-factor", "0"],
        ["--grid-factor", "nan"],
        ["--epsilons", "1,nan"],
        ["--epsilons", "1,0"],
        ["--tau", "-0.5"],
        ["--densify", "0"],
        ["--densify", "nan"],
    ])
    def test_bad_config_exits_2(self, series_path, extra, capsys):
        argv = ["self-join", "--data", series_path, "--L", "16"] + extra
        if "--radius" not in extra:
            argv += ["--radius", RADIUS]
        code, _, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_densify_past_the_vertex_cap_exits_2_without_outputs(
            self, tmp_path, capsys):
        demo = tmp_path / "demo.txt"  # the README demo
        demo.write_text("0.0,1.0,2.0\n0.05,1.05,2.05\n8.0,9.0,10.0\n")
        outs = [tmp_path / name for name in ("s.json", "q.jsonl", "p.csv")]
        code, out, err = run(
            ["self-join", "--data", str(demo), "--radius", "0.5", "--L", "16",
             "--tau", "1", "--densify", "1e-9",
             "--out-summary", str(outs[0]), "--out-queries", str(outs[1]),
             "--out-pairs", str(outs[2])], capsys)
        assert code == 2
        assert err.startswith("error:") and "densify" in err
        assert out == ""
        assert not any(path.exists() for path in outs)

    def test_counters_block_is_stable_across_reruns(
            self, series_path, tmp_path, capsys):
        blocks = []
        for _ in range(2):
            code, out, _ = run(
                ["self-join", "--data", series_path, "--radius", RADIUS,
                 "--L", "64", "--tau", "0.5", "--seed", "3", "--no-timings"],
                capsys)
            assert code == 0
            blocks.append(json.dumps(json.loads(out)["counters"]))
        assert blocks[0] == blocks[1]
        assert list(json.loads(blocks[0])) == [
            "candidates", "selected", "pairs_verified", "simplified_copies"]

    def test_percentile_radius_resolves(self, series_path, capsys):
        code, out, _ = run(
            ["self-join", "--data", series_path, "--percentile", "1",
             "--L", "16", "--seed", "3"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["r"] > 0

    def test_percentile_zero_radius_exits_2(self, identical_path, capsys):
        code, _, err = run(
            ["self-join", "--data", identical_path, "--percentile", "1"],
            capsys)
        assert code == 2
        assert "percentile" in err

    def test_radius_and_percentile_conflict(self, series_path, capsys):
        with pytest.raises(SystemExit):
            main(["self-join", "--data", series_path, "--radius", RADIUS,
                  "--percentile", "1"])

    def test_featured_defaults(self):
        from curvejoin.cli import build_parser
        args = build_parser().parse_args(
            ["self-join", "--data", "x", "--radius", "1"])
        assert (args.k, args.L, args.tau, args.grid_factor) == (2, 1024, 0.0, 4.0)
        assert args.slack == "none"
        assert args.epsilons == "10,1,0.1"


class TestExactJoinCmd:
    def test_identical_curves_yield_all_pairs(self, identical_path, tmp_path,
                                              capsys):
        out_pairs = tmp_path / "pairs.csv"
        code, out, _ = run(
            ["exact-join", "--data", identical_path, "--radius", "0.5",
             "--out-pairs", str(out_pairs)], capsys)
        assert code == 0
        assert read_pairs(out_pairs) == {(a, b) for a in range(4)
                                         for b in range(a + 1, 4)}
        assert json.loads(out.splitlines()[0])["pairs"] == 6

    def test_radius_below_gaps_yields_empty(self, tmp_path, capsys):
        data = dataset_of([curve1(0, [0.0]), curve1(1, [10.0])])
        path = tmp_path / "far.txt"
        write_series_1d(data, path)
        out_pairs = tmp_path / "pairs.csv"
        code, _, _ = run(["exact-join", "--data", str(path), "--radius", "1",
                          "--out-pairs", str(out_pairs)], capsys)
        assert code == 0
        assert read_pairs(out_pairs) == set()

    def test_deterministic_bytes(self, series_path, tmp_path, capsys):
        blobs = []
        for name in ("a.csv", "b.csv"):
            target = tmp_path / name
            code, _, _ = run(["exact-join", "--data", series_path,
                              "--radius", RADIUS, "--out-pairs", str(target)],
                             capsys)
            assert code == 0
            blobs.append(target.read_bytes())
        assert blobs[0] == blobs[1]


class TestMetricsCmd:
    def test_matches_hand_counts(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        tru = tmp_path / "truth.csv"
        pred.write_text("idA,idB\n0,1\n2,3\n")
        tru.write_text("idA,idB\n1,0\n1,2\n")
        code, out, _ = run(["metrics", "--predicted", str(pred),
                            "--truth", str(tru)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert (doc["tp"], doc["fp"], doc["fn"]) == (1, 1, 1)
        assert doc["recall"] == 0.5 and doc["precision"] == 0.5

    def test_missing_file_exits_3(self, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("idA,idB\n")
        code, _, _ = run(["metrics", "--predicted", str(pred),
                          "--truth", str(tmp_path / "nope.csv")], capsys)
        assert code == 3


class TestCollisionProbCmd:
    def test_report_shape_and_summary(self, series_path, tmp_path, capsys):
        out_csv = tmp_path / "rows.csv"
        code, out, _ = run(
            ["collision-prob", "--data", series_path, "--delta", "4",
             "--trials", "300", "--sample", "5", "--out", str(out_csv)],
            capsys)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].startswith("id_a,id_b,d_df,trials")
        assert len(lines) == 6
        summary = json.loads(out.splitlines()[-1])
        assert summary["pairs"] == 5
        assert summary["hard_violations"] == 0

    def test_deterministic_rows(self, series_path, tmp_path, capsys):
        blobs = []
        for name in ("a.csv", "b.csv"):
            target = tmp_path / name
            code, _, _ = run(
                ["collision-prob", "--data", series_path, "--delta", "4",
                 "--trials", "200", "--sample", "4", "--seed", "9",
                 "--out", str(target)], capsys)
            assert code == 0
            blobs.append(target.read_bytes())
        assert blobs[0] == blobs[1]

    def test_bad_delta_exits_2(self, series_path, capsys):
        code, _, _ = run(["collision-prob", "--data", series_path,
                          "--delta", "0"], capsys)
        assert code == 2

    @pytest.mark.parametrize("extra", [
        ["--delta", "nan"],
        ["--delta", "4", "--trials", "0"],
        ["--delta", "4", "--k", "0"],
        ["--delta", "inf"],
        ["--delta", "4", "--seed", "-1"],
        ["--delta", "4", "--sample", "0"],
        ["--delta", "4", "--sample", "-1"],
    ])
    def test_bad_config_exits_2(self, series_path, tmp_path, extra, capsys):
        out_csv = tmp_path / "rows.csv"
        code, _, err = run(["collision-prob", "--data", series_path,
                            "--sample", "2", "--out", str(out_csv)] + extra,
                           capsys)
        assert code == 2, err
        assert err.startswith("error:")
        assert not out_csv.exists()


class TestVerifyPairCmd:
    def test_endpoint_gap_prints_far(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0.0,1.0\n")
        b.write_text("5.0,6.0\n")
        code, out, _ = run(["verify-pair", str(a), str(b), "--radius", "1"],
                           capsys)
        assert code == 0
        assert out.strip() == "Far endpoints"

    def test_identical_files_print_near_at_first_simplification(
            self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("0.0,3.0,1.0,4.0\n")
        code, out, _ = run(["verify-pair", str(a), str(a), "--radius", "1"],
                           capsys)
        assert code == 0
        assert out.strip() == "Near simpl-10"

    def test_trajectory_format(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0.0 0.0\n1.0 1.0\n")
        b.write_text("0.1 0.0\n1.0 0.9\n")
        code, out, _ = run(["verify-pair", str(a), str(b), "--radius", "0.5",
                            "--format", "traj2d"], capsys)
        assert code == 0
        assert out.startswith("Near")

    def test_two_files_loaded_with_one_id_are_decided_apart(self, tmp_path, capsys):
        # both trajectories load as curve 0; each keeps its own simplified
        # copies, so the pair is Far at the coarsest level
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0 0\n1 0.01\n2 0\n2.5 1\n3 0\n4 0\n")
        b.write_text("0 0\n1 1\n2 0\n3 1\n3.5 0\n4 0\n")
        code, out, _ = run(["verify-pair", "--format", "traj2d", str(a), str(b),
                            "--radius", "0.5"], capsys)
        assert code == 0
        assert out == "Far simpl-10\n"

    def test_malformed_file_exits_3(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0.0,oops\n")
        b.write_text("0.0,1.0\n")
        code, _, err = run(["verify-pair", str(a), str(b), "--radius", "1"],
                           capsys)
        assert code == 3
        assert "a.txt" in err

    def test_nonfinite_trajectory_exits_3(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0.0 0.0\nnan 1.0\n")
        b.write_text("0.0 0.0\n1.0 1.0\n")
        code, _, err = run(["verify-pair", str(a), str(b), "--radius", "1",
                            "--format", "traj2d"], capsys)
        assert code == 3
        assert "a.txt" in err

    def test_negative_radius_exits_2(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("0.0,1.0\n")
        code, _, _ = run(["verify-pair", str(a), str(a), "--radius", "-1"],
                         capsys)
        assert code == 2


class TestTrajectoryDataset:
    def test_self_join_on_2d_trajectories(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        data, _ = clustered_dataset(rng, 2, 3, 2, 1.0, with_ring=False)
        list_file = write_trajectories_2d(data, tmp_path / "traj")
        pairs = tmp_path / "pairs.csv"
        code, out, _ = run(
            ["self-join", "--data", str(list_file), "--format", "traj2d",
             "--radius", RADIUS, "--L", "16", "--tau", "1",
             "--out-pairs", str(pairs)], capsys)
        assert code == 0
        assert json.loads(out)["n_curves"] == 6
        assert read_pairs(pairs)


@pytest.mark.parametrize("radius", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command", ["self-join", "exact-join", "verify-pair"])
def test_bad_radius_exits_2(command, radius, series_path, capsys):
    if command == "verify-pair":
        argv = [command, series_path, series_path]
    else:
        argv = [command, "--data", series_path]
    code, _, err = run(argv + ["--radius", radius], capsys)
    assert code == 2, err


# Every numeric flag of every subcommand, with the outputs it may write.
# --threads is no longer a flag; it stays listed so that an old command line
# that passes it still exits 2 and writes nothing.
NUMERIC_FLAGS = {
    "self-join": ["--densify", "--radius", "--percentile", "--k", "--L", "--tau",
                  "--grid-factor", "--epsilons", "--seed", "--threads"],
    "exact-join": ["--densify", "--radius", "--percentile", "--epsilons", "--seed"],
    "collision-prob": ["--densify", "--delta", "--k", "--trials", "--sample",
                       "--seed"],
    "verify-pair": ["--radius", "--epsilons"],
}
OUT_FLAGS = {
    "self-join": ["--out-summary", "--out-queries", "--out-pairs"],
    "exact-join": ["--out-pairs"],
    "collision-prob": ["--out"],
    "verify-pair": [],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in NUMERIC_FLAGS.items() for flag in flags])
def test_numeric_flag_never_exits_4(command, flag, value, series_path, tmp_path,
                                    capsys):
    if command == "verify-pair":
        argv = [command, series_path, series_path]
    else:
        argv = [command, "--data", series_path]
    base = {"--radius": RADIUS, "--L": "16", "--delta": "4", "--trials": "20",
            "--sample": "2"}
    for name, default in base.items():
        if name in NUMERIC_FLAGS[command] and name != flag and not (
                name == "--radius" and flag == "--percentile"):
            argv += [name, default]
    outs = [tmp_path / f"out{i}" for i in range(len(OUT_FLAGS[command]))]
    for name, path in zip(OUT_FLAGS[command], outs):
        argv += [name, str(path)]
    try:
        code, _, err = run(argv + [flag, value], capsys)
    except SystemExit as exc:  # argparse refuses the value's type or choice
        code, err = exc.code, capsys.readouterr().err
    assert code in (0, 2), err
    if code == 2:
        assert err
        assert not any(path.exists() for path in outs)


class TestNonUtf8Input:
    """Every file the CLI reads exits 3 on a byte that is not UTF-8, and
    the message names the file."""

    BAD = b"0.0 1.0\n\xff 2.0\n"

    def test_series_dataset(self, tmp_path, capsys):
        data = tmp_path / "bad.txt"
        data.write_bytes(self.BAD)
        code, _, err = run(["self-join", "--data", str(data), "--radius", RADIUS], capsys)
        assert code == 3
        assert "bad.txt: not UTF-8 text" in err

    @pytest.mark.parametrize("bad_name", ["files.txt", "a.txt"])
    def test_trajectory_dataset(self, bad_name, tmp_path, capsys):
        (tmp_path / "a.txt").write_text("0.0 0.0\n1.0 1.0\n")
        (tmp_path / "files.txt").write_text("a.txt\n")
        (tmp_path / bad_name).write_bytes(self.BAD)
        code, _, err = run(["self-join", "--data", str(tmp_path / "files.txt"),
                            "--format", "traj2d", "--radius", RADIUS], capsys)
        assert code == 3
        assert f"{bad_name}: not UTF-8 text" in err

    @pytest.mark.parametrize("fmt", ["series1d", "traj2d"])
    def test_verify_pair_input(self, fmt, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        a.write_text("0.0 0.0\n1.0 1.0\n")
        b.write_bytes(self.BAD)
        code, _, err = run(["verify-pair", str(a), str(b), "--radius", "1",
                            "--format", fmt], capsys)
        assert code == 3
        assert "b.txt: not UTF-8 text" in err

    def test_truth_file(self, series_path, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        truth.write_bytes(b"idA,idB\n0,1\n\xff,2\n")
        code, _, err = run(["self-join", "--data", series_path, "--radius", RADIUS,
                            "--L", "16", "--truth", str(truth)], capsys)
        assert code == 3
        assert "truth.csv: not UTF-8 text" in err
