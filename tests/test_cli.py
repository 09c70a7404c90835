import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from rareval import (
    MetricSpec,
    StabilityConfig,
    SubsetExperimentConfig,
    load_campaign,
    stability,
    subset_experiment,
)
from rareval.cli import _threads, build_parser, dispatch

TOY_RUNS = {
    "A": ["d1", "d2", "d4"],
    "B": ["d1", "d3", "d5"],
    "C": ["d1", "d2", "d6"],
    "D": ["d1", "d4", "d5"],
}
TOY_QRELS = "t1 0 d1 1\nt1 0 d2 1\nt1 0 d3 1\n"


@pytest.fixture
def toy_files(tmp_path):
    paths = []
    for system, docs in TOY_RUNS.items():
        lines = [
            f"t1 Q0 {doc} {i + 1} {float(len(docs) - i)} {system}"
            for i, doc in enumerate(docs)
        ]
        path = tmp_path / f"{system}.run"
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path))
    qrels = tmp_path / "qrels.txt"
    qrels.write_text(TOY_QRELS)
    return paths, str(qrels)


def run_cli(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_happy_path_tsv(self, toy_files, capsys):
        runs, qrels = toy_files
        code, out, _ = run_cli(
            ["eval", "--runs", *runs, "--qrels", qrels,
             "--metric", "P@3_rareness", "--alpha", "1"],
            capsys,
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert all(r[0] == "P@3_rareness(alpha=1,rarity=eq2)" for r in rows)
        by_system = {r[1]: r[3] for r in rows}
        assert by_system["B"] == "0.9167"
        assert all(r[2] == "ALL" for r in rows)

    def test_directory_input(self, toy_files, tmp_path, capsys):
        _, qrels = toy_files
        code, out, _ = run_cli(
            ["eval", "--runs", str(tmp_path), "--qrels", qrels, "--metric", "P@3"],
            capsys,
        )
        # the qrels file sits in the same directory and is not a run file
        assert code == 1

    def test_unknown_metric_exits_2_and_lists_names(self, toy_files, capsys):
        runs, qrels = toy_files
        code, _, err = run_cli(
            ["eval", "--runs", *runs, "--qrels", qrels, "--metric", "nDCG@10"],
            capsys,
        )
        assert code == 2
        assert "valid names" in err

    def test_missing_file_exits_1(self, toy_files, capsys):
        runs, _ = toy_files
        code, _, err = run_cli(
            ["eval", "--runs", *runs, "--qrels", "nope.txt", "--metric", "AP"],
            capsys,
        )
        assert code == 1
        assert "error" in err

    def test_malformed_run_exits_1_with_line(self, tmp_path, toy_files, capsys):
        _, qrels = toy_files
        bad = tmp_path / "bad.run"
        bad.write_text("t1 Q0 d1 1 9.5\n")
        code, _, err = run_cli(
            ["eval", "--runs", str(bad), "--qrels", qrels, "--metric", "AP"], capsys
        )
        assert code == 1
        assert ":1" in err

    def test_usage_error_exits_2(self, capsys):
        code, _, _ = run_cli(["eval", "--qrels", "q"], capsys)
        assert code == 2

    def test_stdin_runs(self, toy_files, capsys, monkeypatch):
        _, qrels = toy_files
        text = "t1 Q0 d1 1 2.0 solo\nt1 Q0 d9 2 1.0 solo\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, _ = run_cli(
            ["eval", "--runs", "-", "--qrels", qrels, "--metric", "P@2"], capsys
        )
        assert code == 0
        assert "solo\tALL\t0.5000" in out

    def test_per_topic_rows(self, toy_files, capsys):
        runs, qrels = toy_files
        code, out, _ = run_cli(
            ["eval", "--runs", *runs, "--qrels", qrels, "--metric", "P@3",
             "--per-topic"],
            capsys,
        )
        assert code == 0
        topics = {line.split("\t")[2] for line in out.strip().splitlines()}
        assert topics == {"ALL", "t1"}

    def test_json_matches_tsv_to_displayed_precision(self, toy_files, capsys):
        runs, qrels = toy_files
        argv = ["eval", "--runs", *runs, "--qrels", qrels, "--metric", "AP_rareness",
                "--alpha", "0.5"]
        code, tsv_out, _ = run_cli(argv, capsys)
        assert code == 0
        code, json_out, _ = run_cli(argv + ["--json"], capsys)
        assert code == 0
        payload = json.loads(json_out)
        tsv_rows = [line.split("\t") for line in tsv_out.strip().splitlines()]
        assert len(payload["rows"]) == len(tsv_rows)
        for row, tsv_row in zip(payload["rows"], tsv_rows):
            assert f"{row['score']:.4f}" == tsv_row[3]

    def test_dedup_first_flag(self, tmp_path, toy_files, capsys):
        _, qrels = toy_files
        dup = tmp_path / "dup.run"
        dup.write_text("t1 Q0 d1 1 2.0 s\nt1 Q0 d1 2 1.0 s\n")
        code, _, _ = run_cli(
            ["eval", "--runs", str(dup), "--qrels", qrels, "--metric", "P@1"], capsys
        )
        assert code == 1
        code, out, _ = run_cli(
            ["eval", "--runs", str(dup), "--qrels", qrels, "--metric", "P@1",
             "--dedup", "first"],
            capsys,
        )
        assert code == 0
        assert "1.0000" in out

    def test_byte_identical_reruns(self, toy_files, capsys):
        runs, qrels = toy_files
        argv = ["eval", "--runs", *runs, "--qrels", qrels, "--metric",
                "P@3_rareness", "--alpha", "0.5"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestCompare:
    def test_alpha_zero_row_is_exactly_one(self, toy_files, capsys):
        runs, qrels = toy_files
        code, out, _ = run_cli(
            ["compare", "--runs", *runs, "--qrels", qrels, "--alphas", "0,0.5,1",
             "--cutoff", "3"],
            capsys,
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        zero_rows = [r for r in rows if r[0] == "0.0000"]
        assert len(zero_rows) == 2  # both metric families
        assert all(r[2] == "1.0000" for r in zero_rows)


class TestReport:
    def test_toy_report_golden(self, toy_files, capsys):
        runs, qrels = toy_files
        code, out, _ = run_cli(
            ["report", "--runs", *runs, "--qrels", qrels, "--topic", "t1"], capsys
        )
        assert code == 0
        assert out.splitlines() == [
            "t1\td3\t1\t1\t0.7500",
            "t1\td2\t1\t2\t0.5000",
            "t1\td1\t1\t4\t0.0000",
        ]

    def test_revised_variant(self, toy_files, capsys):
        runs, qrels = toy_files
        code, out, _ = run_cli(
            ["report", "--runs", *runs, "--qrels", qrels, "--rarity", "revised"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[0] == "t1\td3\t1\t1\t1.0000"


class TestSynthCommand:
    def test_written_files_load_back_identically(self, tmp_path, capsys):
        out_dir = tmp_path / "campaign"
        argv = ["synth", "--systems", "4", "--topics", "2", "--relevant", "6",
                "--pool", "80", "--depth", "10", "--bias", "0.5",
                "--seed", "11", "--out", str(out_dir)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        paths = out.strip().splitlines()
        assert len(paths) == 5
        run_paths = [p for p in paths if p.endswith(".run")]
        qrels_path = [p for p in paths if p.endswith("qrels.txt")][0]
        campaign = load_campaign(run_paths, qrels_path)

        from rareval import SynthSpec, generate_campaign

        reference = generate_campaign(
            SynthSpec(4, 2, 6, 80, overlap_bias=0.5, run_depth=10, seed=11)
        )
        assert campaign.qrels.judgments == reference.qrels.judgments
        for loaded, generated in zip(campaign.runs, reference.runs):
            assert loaded == generated


class TestStabilityCommand:
    def test_thread_counts_do_not_change_output(self, toy_files, capsys):
        runs, qrels = toy_files
        base = ["stability", "--runs", *runs, "--qrels", qrels, "--cutoff", "3",
                "--metric", "P@3_rareness(alpha=1)", "--trials", "50",
                "--sample-size", "1", "--per-pair"]
        _, one, _ = run_cli(base + ["--threads", "1"], capsys)
        _, four, _ = run_cli(base + ["--threads", "4"], capsys)
        assert one == four
        assert one.startswith("P@3_rareness(alpha=1,rarity=eq2)\toverall\t")

    def test_env_threads_override(self, toy_files, capsys, monkeypatch):
        runs, qrels = toy_files
        monkeypatch.setenv("RAREVAL_THREADS", "2")
        code, out, _ = run_cli(
            ["stability", "--runs", *runs, "--qrels", qrels, "--cutoff", "3",
             "--metric", "P@3", "--trials", "20", "--sample-size", "1"],
            capsys,
        )
        assert code == 0
        assert out.startswith("P@3\toverall\t")


class TestThreadCap:
    def _args(self, *extra):
        return build_parser().parse_args(
            ["stability", "--runs", "r", "--qrels", "q", *extra]
        )

    def test_flag_and_env_are_capped_at_the_cpu_count(self, monkeypatch):
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        monkeypatch.delenv("RAREVAL_THREADS", raising=False)
        assert _threads(self._args()) == 1
        assert _threads(self._args("--threads", "1000000")) == 2
        assert _threads(self._args("--threads", "0")) == 1
        monkeypatch.setenv("RAREVAL_THREADS", "1000000")
        assert _threads(self._args()) == 2
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _threads(self._args()) == 1

    def test_pool_never_exceeds_the_trial_count(self, toy_files, monkeypatch):
        sizes = []

        class RecordingPool:
            """Records the requested pool size and runs trials inline."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("rareval.stats.ThreadPoolExecutor", RecordingPool)
        runs, qrels = toy_files
        campaign = load_campaign([Path(p) for p in runs], Path(qrels))
        spec = MetricSpec.parse("P@3_rareness")
        stability(campaign, spec, StabilityConfig(1, trials=3), threads=1000)
        subset_experiment(campaign, spec, SubsetExperimentConfig(2, trials=5), threads=1000)
        stability(campaign, spec, StabilityConfig(1, trials=1), threads=1000)
        assert sizes == [3, 5]


class TestSubsetCommand:
    @pytest.mark.parametrize("sizes, token", [("a", "'a'"), ("", "''"), ("2,,4", "''")])
    def test_bad_sizes_exit_2_naming_the_token(self, toy_files, capsys, sizes, token):
        runs, qrels = toy_files
        code, out, err = run_cli(
            ["subset", "--runs", *runs, "--qrels", qrels, "--cutoff", "3",
             "--sizes", sizes, "--trials", "5"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--sizes" in err and f"token {token}" in err

    def test_full_size_row_is_one(self, toy_files, capsys):
        runs, qrels = toy_files
        code, out, _ = run_cli(
            ["subset", "--runs", *runs, "--qrels", qrels, "--cutoff", "3",
             "--sizes", "2,4", "--trials", "30"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("2\t")
        assert lines[1] == "4\t1.0000\t30"


class TestTrajectoryCommand:
    def test_rows_and_json_d_star(self, toy_files, capsys):
        runs, qrels = toy_files
        argv = ["trajectory", "--runs", *runs, "--qrels", qrels, "--cutoff", "3",
                "--kind", "common", "--topic", "t1", "--alphas", "0,1",
                "--d-max", "3"]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert len(rows) == 6
        assert rows[0][:2] == ["0.0000", "1"]
        assert "d_star" in err
        code, json_out, _ = run_cli(argv + ["--json"], capsys)
        payload = json.loads(json_out)
        assert set(payload["d_star"]) == {"0.0", "1.0"}


class TestDiscpowerCommand:
    def test_table_shape(self, tmp_path, capsys):
        out_dir = tmp_path / "c"
        code, out, _ = run_cli(
            ["synth", "--systems", "4", "--topics", "3", "--relevant", "6",
             "--pool", "60", "--depth", "10", "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        paths = out.strip().splitlines()
        runs = [p for p in paths if p.endswith(".run")]
        qrels = [p for p in paths if p.endswith("qrels.txt")][0]
        code, out, _ = run_cli(
            ["discpower", "--runs", *runs, "--qrels", qrels, "--cutoff", "10"],
            capsys,
        )
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert len(rows) == 12  # six table metrics x two levels
        assert {r[1] for r in rows} == {"95%", "99%"}
        assert all(r[3] == "6" for r in rows)  # C(4,2) pairs

    def test_single_topic_campaign_is_a_data_error(self, toy_files, capsys):
        runs, qrels = toy_files
        code, _, err = run_cli(
            ["discpower", "--runs", *runs, "--qrels", qrels, "--cutoff", "3"],
            capsys,
        )
        assert code == 1
        assert "2 systems and 2 topics" in err


class TestNonFiniteAlpha:
    @pytest.mark.parametrize(
        "argv, value",
        [
            (["eval", "--metric", "P@3_rareness", "--alpha", "nan"], "nan"),
            (["compare", "--alphas", "0,inf"], "inf"),
            (["eval", "--metric", "P@10_rareness(alpha=nan)"], "nan"),
        ],
    )
    def test_exits_2_naming_the_value(self, toy_files, capsys, argv, value):
        runs, qrels = toy_files
        code, out, err = run_cli([*argv, "--runs", *runs, "--qrels", qrels], capsys)
        assert code == 2
        assert out == ""
        assert f"alpha must be a finite number, got {value}" in err


class TestImportFootprint:
    REPORT = (
        "import sys\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
    )

    def _scipy_modules(self, body):
        """Run ``body`` in a fresh interpreter; return its scipy modules on stderr."""
        result = subprocess.run(
            [sys.executable, "-c", body + "\n" + self.REPORT],
            capture_output=True, text=True,
        )
        return result.returncode, result.stdout, result.stderr.strip()

    def test_import_and_help_load_no_scipy(self):
        code, _, loaded = self._scipy_modules("import rareval, rareval.cli")
        assert (code, loaded) == (0, "")
        code, out, loaded = self._scipy_modules(
            "from rareval.cli import dispatch\ndispatch(['--help'])"
        )
        assert (code, loaded) == (0, "")
        assert "discpower" in out

    def test_discpower_still_loads_scipy_and_runs(self, tmp_path):
        body = (
            "from rareval.cli import dispatch\n"
            f"out = {str(tmp_path)!r}\n"
            "assert dispatch(['synth', '--systems', '4', '--topics', '3', '--relevant', '6',"
            " '--pool', '60', '--depth', '10', '--out', out]) == 0\n"
            "runs = [f'{out}/sys{i:03d}.run' for i in range(4)]\n"
            "assert dispatch(['discpower', '--runs', *runs, '--qrels',"
            " f'{out}/qrels.txt', '--cutoff', '10']) == 0"
        )
        code, out, loaded = self._scipy_modules(body)
        assert code == 0
        assert len(out.strip().splitlines()) == 5 + 12
        assert "scipy.special" in loaded.split()


class TestConsoleEntryPoint:
    def test_module_invocation(self, toy_files):
        runs, qrels = toy_files
        result = subprocess.run(
            [sys.executable, "-m", "rareval", "eval", "--runs", *runs,
             "--qrels", qrels, "--metric", "P@3"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "B\tALL\t0.6667" in result.stdout
