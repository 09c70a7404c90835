"""Tests of the benchmark itself, at the smoke scale.

Run from the root of a checkout: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import layers
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = gen.CampaignShape(6, 3, 120, 10, 300, 0.35)


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.BUILDERS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]


def test_generator_is_seeded_and_trec_like(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((a, 5), (b, 5), (c, 6)):
        gen.write(gen.generate(SMOKE, seed), out)
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert all((a / f).read_bytes() == (b / f).read_bytes() for f in files)
    assert any((a / f).read_bytes() != (c / f).read_bytes() for f in files)

    campaign = gen.generate(SMOKE, 5)
    lines = [line.split() for line in (a / "runs" / f"input.{campaign.tags[0]}").read_text()
             .splitlines()]
    keys = [(t, -float(score)) for t, _q, _d, _r, score, _tag in lines]
    assert keys != sorted(keys), "lines are not in canonical order"
    assert len(set(keys)) < len(keys), "scores tie"
    assert all(re.fullmatch(r"(AP|WSJ|FT|LA|FBIS)\d{6}-\d{4}", d) for _t, _q, d, *_ in lines)
    grades = {g for by_doc in campaign.qrels.values() for g in by_doc.values()}
    assert grades == {0, 1, 2}
    assert campaign.qrels[campaign.zero_topic] and not campaign.relevant(campaign.zero_topic)
    judged = {(t, d) for t, by_doc in campaign.qrels.items() for d in by_doc}
    assert any((t, d) not in judged for t, _q, d, *_ in lines), "some retrieved docs are unjudged"


def test_self_time_subtracts_children():
    spans = [
        {"name": "cli.dispatch", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "campaign.evaluate", "parent": 0, "start": 1.0, "end": 5.0},
        {"name": "rarity.index", "parent": 1, "start": 1.5, "end": 2.5},
        {"name": "stats.tau", "parent": 0, "start": 6.0, "end": 7.0},
    ]
    assert layers.self_times(spans) == [5.0, 3.0, 1.0, 1.0]


def test_import_times_reads_importtime_lines():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       300 |        400 |   scipy.stats",
        "import time:        50 |       2000 | rareval",
        "note: not an import line",
    ])
    assert layers.import_times(stderr) == {"importtime_rareval_s": 0.002,
                                           "importtime_scipy_s": 0.0004}


@pytest.fixture
def smoke_plans(tmp_path):
    oracles = run.load_oracles()
    plans = {}
    for name in workloads.BUILDERS:
        workdir = tmp_path / name
        workdir.mkdir()
        plans[name] = (workloads.plan(name, "smoke", 4, workdir, oracles), workdir)
    return plans


def _corrupt_eval(out: bytes) -> bytes:
    payload = json.loads(out)
    row = next(r for r in payload["rows"] if r["topic"] != "ALL" and r["score"] > 0)
    row["score"] += 1e-9
    return json.dumps(payload).encode()


def _corrupt_compare(out: bytes) -> bytes:
    payload = json.loads(out)
    payload["rows"][0]["tau"] = 0.9999999
    return json.dumps(payload).encode()


def _corrupt_subset(out: bytes) -> bytes:
    payload = json.loads(out)
    payload["rows"][-1]["mean_tau"] = 1.5
    return json.dumps(payload).encode()


@pytest.mark.parametrize("workload,label,corrupt", [
    ("trec-ingest", "eval", _corrupt_eval),
    ("trec-ingest", "compare", _corrupt_compare),
    ("meta-desk", "subset-p", _corrupt_subset),
])
def test_corrupted_output_is_a_failed_op(smoke_plans, workload, label, corrupt):
    plan, workdir = smoke_plans[workload]
    cmd = next(c for c in plan.commands if c.label == label)
    tally = run.Tally()
    inv = run.run_cli(tally, cmd.label, cmd.argv, cmd.check, workdir, run.child_env())
    assert inv.ok, inv.error
    stdout = (workdir / f"{label}.out").read_bytes()
    process = {"exit_code": 0, "wall_s": 1.0, "maxrss_mb": 1.0, "stderr_tail": ""}
    bad = tally.judge(cmd.label, list(cmd.argv), process, corrupt(stdout), cmd.check)
    assert not bad.ok and "check failed" in bad.error
    assert (tally.attempted, tally.failed) == (2, 1)


def test_synth_missing_line_is_a_failed_op(smoke_plans):
    plan, workdir = smoke_plans["trec-ingest"]
    cmd = next(c for c in plan.commands if c.label == "synth")
    env = run.child_env()
    out = workdir / cmd.out_dir
    result = subprocess.run([sys.executable, "-m", "rareval", *cmd.argv], cwd=workdir, env=env,
                            capture_output=True, check=True)
    tally = run.Tally()
    assert tally.judge(cmd.label, [], {"exit_code": 0, "wall_s": 1, "maxrss_mb": 1},
                       result.stdout, cmd.check).ok
    first_run = next(out.glob("*.run"))
    first_run.write_text("".join(first_run.read_text().splitlines(keepends=True)[1:]))
    bad = tally.judge(cmd.label, [], {"exit_code": 0, "wall_s": 1, "maxrss_mb": 1},
                      result.stdout, cmd.check)
    assert not bad.ok and tally.failed == 1


def test_changed_rerun_output_is_a_failed_op():
    tally = run.Tally()
    process = {"exit_code": 0, "wall_s": 1.0, "maxrss_mb": 1.0, "stderr_tail": ""}
    assert tally.judge("help", [], process, b"usage: rareval a", run.checks.check_help).ok
    again = tally.judge("help", [], process, b"usage: rareval b", run.checks.check_help)
    assert not again.ok and "differs" in again.error


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "2", "--seconds", "0", "--trace", "0",
                 "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(result["metrics"]) == names
    assert all(result["metrics"][n]["value"] > 0 for n in names)
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload,exercised", [
    ("trec-ingest", ["trec_io.parse_s", "trec_io.write_s", "synth.generate_s"]),
    ("meta-desk", ["stats.stability_s", "synth.trajectory_s"]),
])
def test_smoke_traced_run_reports_every_per_layer_metric(workload, exercised):
    proc = bench("--workload", workload, "--seed", "2", "--seconds", "0", "--trace", "1",
                 "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert "trace.overhead_ratio" in result["metrics"]
    assert all(result["metrics"][name]["value"] > 0 for name in exercised)


def test_bare_benchmark_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "meta-desk", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
