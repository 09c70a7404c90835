import io
import json
import os
import random
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rareval.cli
import rareval.rarity
import rareval.stats
import rareval.trec_io
from rareval import (
    MetricSpec,
    StabilityConfig,
    SubsetExperimentConfig,
    SynthSpec,
    generate_campaign,
    load_campaign,
    stability,
    subset_experiment,
)
from rareval.cli import dispatch
from rareval.errors import ConfigError
from rareval.rng import MAX_SEED, substream

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

    def test_two_run_files_with_one_tag_are_both_named(self, tmp_path, toy_files, capsys):
        _, qrels = toy_files
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        first.write_text("t1 Q0 d1 1 2.0 A\n")
        second.write_text("t1 Q0 d2 1 2.0 A\n")
        code, _, err = run_cli(
            ["eval", "--runs", str(first), str(second), "--qrels", qrels, "--metric", "P@2"],
            capsys,
        )
        assert code == 1
        assert err == f"error: duplicate system id 'A' in {first} and {second}\n"

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


class TestAlphaGrid:
    @pytest.mark.parametrize("command", [
        ["compare"],
        ["trajectory", "--kind", "common", "--topic", "t1", "--d-max", "2"],
    ], ids=["compare", "trajectory"])
    @pytest.mark.parametrize("alphas, token", [("", "''"), (",", "''"), ("0,,1", "''")])
    def test_empty_token_exits_2_naming_it(self, toy_files, capsys, command, alphas, token):
        runs, qrels = toy_files
        code, out, err = run_cli(
            [*command, "--runs", *runs, "--qrels", qrels, "--cutoff", "3",
             "--alphas", alphas],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "--alphas" in err and f"token {token}" in err


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


class TestWarnings:
    """Library warnings reach stderr as one line each; stdout is unchanged."""

    def test_eval_alpha_above_one(self, toy_files, capsys):
        runs, qrels = toy_files
        code, out, err = run_cli(
            ["eval", "--runs", *runs, "--qrels", qrels,
             "--metric", "P@10_rareness(alpha=2)"],
            capsys,
        )
        assert code == 0
        assert err == "warning: alpha=2.0 > 1 exceeds the recommended [0, 1] range\n"
        assert out.splitlines()[0] == "P@10_rareness(alpha=2,rarity=eq2)\tA\tALL\t0.3000"

    def test_report_revised_rarity_on_one_system(self, tmp_path, capsys):
        run = tmp_path / "solo.run"
        run.write_text("t1 Q0 d1 1 2.0 solo\nt1 Q0 d2 2 1.0 solo\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("t1 0 d1 1\n")
        code, out, err = run_cli(
            ["report", "--runs", str(run), "--qrels", str(qrels), "--rarity", "revised"],
            capsys,
        )
        assert code == 0
        assert err == (
            "warning: revised rarity is meaningless with a single system; returning 1.0\n"
        )
        assert out == "t1\td1\t1\t1\t1.0000\n"

    def test_warning_raised_as_error_is_one_line(self, toy_files, capsys):
        # As under `python -W error` or PYTHONWARNINGS=error.
        runs, qrels = toy_files
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["eval", "--runs", *runs, "--qrels", qrels,
                 "--metric", "P@10_rareness(alpha=2)"],
                capsys,
            )
        assert code == 1
        assert out == ""
        assert err == "error: alpha=2.0 > 1 exceeds the recommended [0, 1] range\n"


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


class TestStabilityDrawsAreShared:
    def test_six_table_metrics_build_one_generator_per_trial_and_topic_count(
        self, tmp_path, capsys, monkeypatch
    ):
        # t4 is judged but has no relevant document: the P family samples 2
        # of 4 topics, the AP family, which skips t4, 1 of 3.
        topics = ["t1", "t2", "t3", "t4"]
        runs = []
        for s, system in enumerate("ABCD"):
            lines = [
                f"{t} Q0 d{(s + i + n) % 5} {i + 1} {float(3 - i)} {system}"
                for n, t in enumerate(topics)
                for i in range(3)
            ]
            path = tmp_path / f"{system}.run"
            path.write_text("\n".join(lines) + "\n")
            runs.append(str(path))
        qrels = tmp_path / "qrels.txt"
        qrels.write_text(
            "t1 0 d1 1\nt1 0 d2 1\nt2 0 d0 1\nt3 0 d3 1\nt3 0 d4 1\nt4 0 d1 0\n"
        )
        built = []

        def counting(*args):
            built.append(args)
            return substream(*args)

        rareval.stats._trial_samples.cache_clear()
        monkeypatch.setattr(rareval.stats, "substream", counting)
        code, out, _ = run_cli(
            ["stability", "--runs", *runs, "--qrels", str(qrels), "--cutoff", "3",
             "--trials", "40"],
            capsys,
        )
        assert code == 0
        assert len(out.splitlines()) == 6
        assert len(built) == 80  # 2 topic counts x 40 trials, not 6 metrics x 40


class TestSeedRange:
    """A seed is an unsigned 64-bit integer; nothing wraps modulo 2**64."""

    @pytest.mark.parametrize("seed", [str(MAX_SEED + 1), "-1", "seven"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["stability", "--runs", "missing.run", "--qrels", "missing.txt",
             "--trials", "5"],
            ["subset", "--runs", "missing.run", "--qrels", "missing.txt",
             "--sizes", "2", "--trials", "5"],
            ["synth", "--systems", "2", "--topics", "1", "--relevant", "1",
             "--pool", "5", "--depth", "2", "--out", "never-written"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_of_range_seed_exits_2_naming_the_flag(self, capsys, tmp_path, argv, seed):
        code, out, err = run_cli([*argv, "--seed", seed], capsys)
        assert code == 2
        assert out == ""
        assert "--seed" in err and "missing" not in err
        assert not (tmp_path / "never-written").exists()

    def test_largest_seed_is_accepted(self, toy_files, capsys):
        runs, qrels = toy_files
        code, out, _ = run_cli(
            ["stability", "--runs", *runs, "--qrels", qrels, "--cutoff", "3",
             "--metric", "P@3", "--trials", "5", "--seed", str(MAX_SEED)],
            capsys,
        )
        assert code == 0
        assert out.startswith("P@3\toverall\t")

    @pytest.mark.parametrize("seed", [MAX_SEED + 1, -1])
    def test_library_rejects_the_seed(self, toy4, seed):
        with pytest.raises(ConfigError, match="seed"):
            substream(seed, 1)
        with pytest.raises(ConfigError, match="seed"):
            stability(toy4, MetricSpec.parse("P@3"), StabilityConfig(1, trials=5, seed=seed))
        with pytest.raises(ConfigError, match="seed"):
            subset_experiment(
                toy4, MetricSpec.parse("P@3"), SubsetExperimentConfig(2, trials=5, seed=seed)
            )
        with pytest.raises(ConfigError, match="seed"):
            generate_campaign(SynthSpec(2, 1, 1, 5, overlap_bias=0.5, run_depth=2, seed=seed))


class TestThreadsEnvironment:
    """RAREVAL_THREADS is not read: no value of it changes an output."""

    @pytest.mark.parametrize("value", ["x", "2"])
    @pytest.mark.parametrize("command", ["stability", "subset"])
    def test_the_variable_changes_nothing(self, toy_files, capsys, monkeypatch, command, value):
        runs, qrels = toy_files
        extra = ["--sizes", "2"] if command == "subset" else ["--sample-size", "1"]
        argv = [command, "--runs", *runs, "--qrels", qrels, "--cutoff", "3",
                "--metric", "P@3", "--trials", "5", *extra]
        monkeypatch.delenv("RAREVAL_THREADS", raising=False)
        expected = run_cli(argv, capsys)
        assert expected[0] == 0 and expected[1]
        monkeypatch.setenv("RAREVAL_THREADS", value)
        assert run_cli(argv, capsys) == expected


def _address_space_limit():
    """Cap a child's address space at 2 GiB: a budget that failed to hold
    would end in a MemoryError, not in an exhausted host."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _past_the_budget(argv):
    """stdout and stderr of ``rareval argv`` in a child with a capped address
    space, asserting it exits 2."""
    result = subprocess.run(
        [sys.executable, "-m", "rareval", *argv],
        capture_output=True, text=True, timeout=60, preexec_fn=_address_space_limit,
    )
    assert result.returncode == 2
    return result.stdout, result.stderr


BIG = str(2**64)


class TestTrialCellBudget:
    @pytest.mark.parametrize(
        "argv, field",
        [
            (["stability", "--trials", BIG], f"trial count {BIG} x sample size 1"),
            (["stability", "--sample-size", BIG, "--trials", "1"],
             f"trial count 1 x sample size {BIG}"),
            (["subset", "--sizes", "2", "--trials", BIG], f"trial count {BIG} x subset size 2"),
            (["subset", "--sizes", BIG], f"trial count 1000 x subset size {BIG}"),
        ],
        ids=["stability-trials", "stability-sample-size", "subset-trials", "subset-sizes"],
    )
    def test_a_count_past_the_budget_exits_2_with_one_error_line(self, toy_files, argv, field):
        runs, qrels = toy_files
        out, err = _past_the_budget(
            [*argv, "--runs", *runs, "--qrels", qrels, "--cutoff", "3", "--metric", "P@3"]
        )
        assert out == ""
        assert err == (
            f"error: {field} exceeds the budget of {rareval.rarity.CELL_BUDGET} trial cells\n"
        )

    @pytest.mark.parametrize(
        "flag, field",
        [
            ("--systems", f"n_systems {BIG} x n_topics 3 x run_depth 5"),
            ("--topics", f"n_systems 4 x n_topics {BIG} x run_depth 5"),
            ("--pool", f"doc_pool_size {BIG}"),
        ],
        ids=["systems", "topics", "pool"],
    )
    def test_a_synth_count_past_the_budget_exits_2_and_writes_nothing(
        self, tmp_path, flag, field
    ):
        shape = {"--systems": "4", "--topics": "3", "--relevant": "2", "--pool": "20",
                 "--depth": "5", flag: BIG}
        out, err = _past_the_budget(
            ["synth", *[token for item in shape.items() for token in item],
             "--out", str(tmp_path / "out")]
        )
        assert out == ""
        assert err == f"error: {field} exceeds the budget of {rareval.rarity.CELL_BUDGET} cells\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["rare", "common"])
    def test_a_trajectory_d_max_past_the_budget_exits_2(self, toy_files, kind):
        runs, qrels = toy_files
        out, err = _past_the_budget(
            ["trajectory", "--kind", kind, "--topic", "t1", "--d-max", BIG,
             "--runs", *runs, "--qrels", qrels, "--cutoff", "3"]
        )
        assert out == ""
        assert err == (
            f"error: d_max {BIG} x 5 systems with the probe exceeds the budget of "
            f"{rareval.rarity.CELL_BUDGET} cells\n"
        )


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


class TestFlagsEachCommandReads:
    """A command takes only the flags it reads: a flag no code path of it reads
    is a usage error, not silently ignored."""

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("eval", "--seed", "1"),
            ("compare", "--seed", "1"),
            ("discpower", "--seed", "1"),
            ("trajectory", "--seed", "1"),
            ("report", "--seed", "1"),
            ("trajectory", "--ap-depth", "full"),
            ("report", "--ap-depth", "full"),
            ("report", "--alpha", "0.5"),
            # Would change nothing: trials run serially, and probes pad one way.
            *[(command, "--threads", "1") for command in (
                "eval", "compare", "discpower", "stability", "subset", "trajectory", "report"
            )],
            ("trajectory", "--pad", "none"),
            ("trajectory", "--pad", "pool-nonrel"),
            ("trajectory", "--freeze-n-rel", None),
        ],
    )
    def test_unread_flag_exits_2(self, tmp_path, capsys, command, flag, value):
        code, out, _ = run_cli(
            ["synth", "--systems", "4", "--topics", "3", "--relevant", "6",
             "--pool", "60", "--depth", "10", "--out", str(tmp_path / "c")],
            capsys,
        )
        assert code == 0
        paths = out.split()
        argv = [command, "--runs", *[p for p in paths if p.endswith(".run")],
                "--qrels", paths[-1], "--cutoff", "10"]
        if command == "trajectory":
            argv += ["--kind", "rare", "--topic", "t000", "--d-max", "3"]
        code, out, err = run_cli([*argv, flag, *([] if value is None else [value])], capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err and flag in err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("eval", "--metr", "P@5"),  # --metric
            ("stability", "--tri", "2"),  # --trials
            ("stability", "--sample", "3"),  # --sample-size
            ("compare", "--alpha", "1"),  # --alphas
            ("trajectory", "--alpha", "1"),  # --alphas
        ],
    )
    def test_an_abbreviated_flag_exits_2(self, toy_files, capsys, command, flag, value):
        runs, qrels = toy_files
        argv = [command, "--runs", *runs, "--qrels", qrels, "--cutoff", "3"]
        if command == "trajectory":
            argv += ["--kind", "rare", "--topic", "t1", "--d-max", "2"]
        code, out, err = run_cli([*argv, flag, value], capsys)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err and flag in err


class TestInputOrderInvariance:
    """The run-file order and the line order within files change nothing:
    every doc-id gets its code only once all files are read."""

    def write_campaign(self, folder, order, shuffle_seed):
        campaign = generate_campaign(SynthSpec(6, 3, 8, 60, 0.5, 15, seed=2))
        rng = random.Random(shuffle_seed)
        folder.mkdir()
        paths = []
        for i, run in enumerate(campaign.runs):
            lines = [  # scores tie in threes, so the doc-id breaks ties
                f"{topic} Q0 {doc} {rank} {(15 - rank) // 3}.5 {run.system_id}"
                for topic in run.topics
                for rank, doc in enumerate(run.docs(topic), 1)
            ]
            rng.shuffle(lines)
            path = folder / f"{run.system_id}.run"
            # CRLF sends one file to the line-by-line parser, with its own vocabulary.
            path.write_bytes(("\r\n" if i == 2 else "\n").join(lines).encode() + b"\n")
            paths.append(str(path))
        qrels = folder / "qrels.txt"
        qrels.write_text("".join(
            f"{topic} 0 {doc} 1\n" for topic, by_doc in campaign.qrels.judgments.items()
            for doc in by_doc
        ))
        return [paths[i] for i in order], str(qrels)

    def test_eval_and_compare_print_the_same_bytes(self, tmp_path, capsys):
        outputs = set()
        for k, order in enumerate([range(6), reversed(range(6)), [3, 0, 5, 1, 4, 2]]):
            runs, qrels = self.write_campaign(tmp_path / str(k), list(order), k)
            inputs = ["--runs", *runs, "--qrels", qrels, "--cutoff", "5"]
            printed = []
            for command in (
                ["eval", "--metric", "P@5_rareness", "--metric", "AP_rareness", "--per-topic"],
                ["eval", "--metric", "P@5", "--order", "rank-field", "--rarity-depth", "4"],
                ["compare"],
            ):
                code, out, _ = run_cli([*command, *inputs], capsys)
                assert code == 0
                printed.append(out)
            outputs.add(tuple(printed))
        assert len(outputs) == 1


class TestLoadCache:
    """Commands that read a campaign keep its parsed runs under
    ``$XDG_CACHE_HOME/rareval``; a warm run reads them back and prints the
    bytes a cold run prints."""

    SYNTH = ["synth", "--systems", "6", "--topics", "3", "--relevant", "8",
             "--pool", "60", "--depth", "12", "--seed", "3"]
    COMMANDS = {
        "eval": ["--metric", "P@10_rareness", "--metric", "AP", "--per-topic"],
        "compare": [],
        "discpower": [],
        "stability": ["--trials", "20"],
        "subset": ["--sizes", "2,4", "--trials", "10"],
        "trajectory": ["--kind", "rare", "--topic", "t000", "--d-max", "3"],
        "report": ["--topic", "t000"],
        "synth": [],
    }

    @pytest.fixture
    def setup(self, tmp_path, capsys, monkeypatch):
        """The synth campaign's inputs, and the cache directory, still absent."""
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-home"))
        code, out, _ = run_cli([*self.SYNTH, "--out", str(tmp_path / "c")], capsys)
        assert code == 0
        paths = out.split()
        inputs = ["--runs", *paths[:-1], "--qrels", paths[-1], "--cutoff", "10"]
        return inputs, tmp_path / "cache-home" / "rareval"

    @pytest.mark.parametrize("command, output", [  # synth has no --json
        (command, output) for command in COMMANDS for output in ("tsv", "json")
        if (command, output) != ("synth", "json")
    ])
    def test_a_warm_run_prints_the_cold_run_bytes(
        self, setup, tmp_path, capsys, monkeypatch, command, output
    ):
        inputs, cache = setup
        if command == "synth":
            argv = [*self.SYNTH, "--out", str(tmp_path / "again")]
        else:
            argv = [command, *self.COMMANDS[command], *inputs]
        argv += ["--json"] if output == "json" else []
        cold = run_cli(argv, capsys)
        assert cold[0] == 0 and cold[1]
        entries = sorted(cache.glob("*.npz")) if cache.exists() else []
        assert len(entries) == (0 if command == "synth" else 1)

        def refuse(*args):
            raise AssertionError("a warm run parsed a run file")

        monkeypatch.setattr(rareval.trec_io, "_read_run", refuse)
        assert run_cli(argv, capsys) == cold
        assert (sorted(cache.glob("*.npz")) if cache.exists() else []) == entries

    def test_runs_from_standard_input_write_no_entry(self, setup, capsys, monkeypatch):
        inputs, cache = setup
        runs = inputs[1:7]
        with open(runs[0], encoding="utf-8") as handle:
            monkeypatch.setattr(sys, "stdin", io.StringIO(handle.read()))
        code, out, _ = run_cli(["eval", "--runs", "-", *runs[1:], *inputs[7:]], capsys)
        assert code == 0 and out
        assert not cache.exists()

    def test_a_cache_home_that_is_a_file_changes_nothing(self, setup, tmp_path, capsys,
                                                         monkeypatch):
        inputs, _ = setup
        expected = run_cli(["compare", *inputs], capsys)
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert run_cli(["compare", *inputs], capsys) == expected
        assert blocker.read_text() == ""

    def test_no_home_directory_means_no_cache(self, setup, capsys, monkeypatch):
        inputs, cache = setup
        expected = run_cli(["compare", *inputs], capsys)
        monkeypatch.delenv("XDG_CACHE_HOME")

        def no_home(cls):  # as without $HOME and without a passwd entry
            raise RuntimeError("Could not determine home directory.")

        monkeypatch.setattr(rareval.cli.Path, "home", classmethod(no_home))
        assert rareval.cli._cache_dir() is None
        assert run_cli(["compare", *inputs], capsys) == expected


class TestFileFuzzing:
    """A run or qrels file with a few bytes edited ends in exit 0, or in exit 1
    with one ``error:`` line that names an edited file; never in a traceback."""

    RUN = b"t1 Q0 d1 1 3.5 A\nt1 Q0 d2 2 2.0 A\nt2 Q0 d3 1 1.25 A\nt2 Q0 d1 2 -1 A\n"
    OTHER = b"t1 Q0 d2 1 9.0 B\nt2 Q0 d3 1 8.0 B\n"
    QRELS = b"t1 0 d1 1\nt1 0 d2 2\nt1 0 d9 0\nt2 0 d3 1\nt2 0 d4 1\n"
    # Line breaks, control bytes and whitespace that text readers disagree on,
    # bytes that are not UTF-8, NEL and NBSP, number spellings, and b"" (a deletion).
    TOKENS = [b"\r", b"\x00", b"\x0b", b"\x1c", b"\xff", b"\xc2\x85", b"\xc2\xa0",
              *(str(digit).encode() for digit in range(10)), b".", b"-", b"nan", b" ",
              b"\n", b""]

    @staticmethod
    def _edited(data, edits):
        for position, token, replace in edits:
            at = position % (len(data) + 1)
            data = data[:at] + token + data[at + replace:]
        return data

    def test_edited_files_exit_0_or_1_with_one_error_line_naming_the_file(self, capsys):
        edits = st.lists(
            st.tuples(st.integers(0, 200), st.sampled_from(self.TOKENS), st.booleans()),
            max_size=3,
        )

        @settings(max_examples=100, derandomize=True, deadline=None, database=None)
        @given(edits, edits)
        def check(run_edits, qrels_edits):
            with tempfile.TemporaryDirectory() as home:
                run, other, qrels = (Path(home, name) for name in ("A.run", "B.run", "qrels"))
                run.write_bytes(self._edited(self.RUN, run_edits))
                other.write_bytes(self.OTHER)
                qrels.write_bytes(self._edited(self.QRELS, qrels_edits))
                with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": home}):
                    capsys.readouterr()
                    code = dispatch(["eval", "--runs", str(run), str(other),
                                     "--qrels", str(qrels)])
                    out, err = capsys.readouterr()
            assert code in (0, 1), err
            if code == 1:
                assert err.startswith("error: ") and err.count("\n") == 1, err
                edited = [path for path, e in ((run, run_edits), (qrels, qrels_edits)) if e]
                assert any(str(path) in err for path in edited), err
            else:
                assert out and "error:" not in err

        check()


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


class TestNoCommandBuildsAnIndex:
    COMMANDS = (
        "eval --metric P@5_rareness --metric AP_rareness --per-topic",
        "compare", "discpower", "stability --trials 20", "subset --sizes 2,4 --trials 10",
        "report", "report --topic t000 --rarity revised --rarity-depth 3 --json",
        "trajectory --kind rare --topic t000 --d-max 2",
        "trajectory --kind common --topic t000 --d-max 2",
        "trajectory --kind common --topic t000 --d-max 2 --rarity-depth 5 --multi-topic",
    )

    def test_every_command_exits_0_with_the_builder_refusing(self, tmp_path, capsys,
                                                             monkeypatch):
        # discpower needs two topics, so the campaign is synth's rather than the toy's.
        def refuse(*args, **kwargs):
            raise AssertionError("a command built a rarity index")

        # Patching the class too catches a copy of the builder imported by name.
        monkeypatch.setattr(rareval.rarity, "build_rarity_index", refuse)
        monkeypatch.setattr(rareval.rarity, "RarityIndex", refuse)
        out = tmp_path / "synth"
        assert dispatch(["synth", "--systems", "4", "--topics", "2", "--relevant", "4",
                         "--pool", "12", "--depth", "6", "--out", str(out)]) == 0
        inputs = ["--runs", *map(str, sorted(out.glob("*.run"))),
                  "--qrels", str(out / "qrels.txt"), "--cutoff", "5"]
        for command in self.COMMANDS:
            assert run_cli([*command.split(), *inputs], capsys)[0] == 0, command


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

    # Each flag's valid values, then the values every flag must survive.
    VALID = {
        "--cutoff": ["3", "10"],
        "--rarity-depth": ["4"],
        "--ap-depth": ["cutoff", "full"],
        "--metric": ["P@5", "AP_rareness", "P@3_mixture(alpha=0.5)"],
    }
    BAD = ["0", "-1", "", "ten", str(2**64), "nan", "inf"]

    def test_bad_flag_values_end_in_one_error_line(self, tmp_path, capsys):
        out_dir = str(tmp_path / "c")
        assert dispatch(["synth", "--systems", "4", "--topics", "3", "--relevant", "6",
                         "--pool", "60", "--depth", "10", "--out", out_dir]) == 0
        inputs = ["--runs", *(f"{out_dir}/sys{i:03d}.run" for i in range(4)),
                  "--qrels", f"{out_dir}/qrels.txt"]
        flag_values = st.one_of(*(
            st.tuples(st.just(flag), st.sampled_from(valid + self.BAD))
            for flag, valid in self.VALID.items()
        ))

        @settings(max_examples=40, derandomize=True, deadline=None, database=None)
        @given(st.lists(flag_values, max_size=3))
        def check(flags):
            capsys.readouterr()
            code = dispatch(["discpower", *inputs, *(part for pair in flags for part in pair)])
            out, err = capsys.readouterr()
            assert code in (0, 1, 2)
            assert "Traceback" not in err
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == (0 if code == 0 else 1), err
            assert (code == 0) == bool(out)

        check()


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


class TestMetricParameters:
    @pytest.mark.parametrize(
        "metric, message",
        [
            ("P@3(alpha=9)",
             "metric parameter 'alpha' does not apply to the base metric in 'P@3(alpha=9)'"),
            ("P@3_rareness(alpha=0.5,alpha=1)",
             "metric parameter 'alpha' given twice in 'P@3_rareness(alpha=0.5,alpha=1)'"),
        ],
    )
    def test_exit_2_naming_the_parameter(self, toy_files, capsys, metric, message):
        runs, qrels = toy_files
        code, out, err = run_cli(
            ["eval", "--metric", metric, "--runs", *runs, "--qrels", qrels], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"


class TestRarityDepthFlag:
    @pytest.mark.parametrize("depth", ["0", "-3"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--metric", "P@3"],
            ["compare"],
            ["discpower"],
            ["stability", "--trials", "5"],
            ["subset", "--metric", "P@3", "--sizes", "2", "--trials", "5"],
            ["trajectory", "--kind", "rare", "--topic", "t1", "--d-max", "2"],
            ["report"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_nonpositive_depth_exits_2_naming_the_flag(self, toy_files, capsys, argv, depth):
        runs, qrels = toy_files
        code, out, err = run_cli(
            [*argv, "--runs", *runs, "--qrels", qrels, "--cutoff", "3",
             "--rarity-depth", depth],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert f"--rarity-depth must be >= 1, got {depth}" in err

    def test_relevant_hit_below_the_depth_is_one_data_error_line(self, toy_files, capsys):
        # d2 is A's and C's relevant hit at rank 2; at depth 1 only d1 is counted.
        runs, qrels = toy_files
        code, out, err = run_cli(
            ["eval", "--metric", "P@10_rareness", "--runs", *runs, "--qrels", qrels,
             "--rarity-depth", "1"],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert err == (
            "error: no scored system retrieved 'd2' for topic 't1' within count depth 1\n"
        )


class TestFlagsBelowOne:
    @pytest.mark.parametrize("cutoff", ["0", "-1"])
    @pytest.mark.parametrize("command", ["eval", "compare", "discpower", "stability"])
    def test_cutoff_exits_2_naming_the_flag(self, toy_files, capsys, command, cutoff):
        runs, qrels = toy_files
        code, out, err = run_cli(
            [command, "--runs", *runs, "--qrels", qrels, "--cutoff", cutoff], capsys
        )
        assert (code, out, err) == (2, "", f"error: --cutoff must be >= 1, got {cutoff}\n")

    @pytest.mark.parametrize("d_max", ["0", "-2"])
    def test_trajectory_d_max_exits_2_naming_the_flag(self, toy_files, capsys, d_max):
        runs, qrels = toy_files
        code, out, err = run_cli(
            ["trajectory", "--kind", "rare", "--topic", "t1", "--d-max", d_max,
             "--runs", *runs, "--qrels", qrels, "--cutoff", "3"],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: --d-max must be >= 1, got {d_max}\n")


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

    def test_discpower_loads_no_scipy_and_runs(self, tmp_path):
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
        assert loaded == ""

    def test_quantile_loads_no_scipy(self):
        code, out, loaded = self._scipy_modules(
            "from rareval.stats import studentized_range_quantile\n"
            "print(studentized_range_quantile(0.95, 5, 20))"
        )
        assert (code, loaded) == (0, "")
        assert float(out) == pytest.approx(4.23, abs=0.01)  # the published table value


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
