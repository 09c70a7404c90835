"""The rareval benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload trec-ingest --seed 1 --seconds 40 --trace 0

It generates the workload's inputs from ``--seed`` under ``.perfbench/``,
then drives the ``rareval`` CLI (``python -m rareval`` with the checkout's
``src`` on ``PYTHONPATH``) as a closed loop: one client, one subprocess at a
time, each command started after the previous one exits, ``--threads`` at
its default and ``RAREVAL_THREADS`` unset. With ``--trace 0`` it times
``rareval --help`` five times (``setup_s`` is their median), then repeats
the workload's commands in turn until ``--seconds`` have passed and every
command ran at least once, checks every output, and reports medians of the
end-to-end metrics. ``total_s`` sums the commands' median wall times: on a
shared host one invocation's wall time varies by 20-30%, so a run repeats
each command and the sum spans many invocations.

With ``--trace 1`` it runs each command once untraced and once through
``perfbench/traced.py``, and reports the per-layer metrics, the tracing
overhead and a coverage check instead. Human-readable lines
come first; the last stdout line is one JSON object. A full record
(environment, generator parameters, every invocation with its stdout
sha256, spans) goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

sys.dont_write_bytecode = True  # leave no bytecode next to tests/oracles.py

import numpy as np  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1
SETUP_REPEATS = 5
THREAD_VARS = ("RAREVAL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Traced accounting (interpreter start, import, dispatch spans, exit) must
# explain the traced commands' wall time to within this share; what it leaves
# out is the tracer's own set-up, under 1% of the wall time.
COVERAGE_TOLERANCE = 0.05


@dataclass
class Invocation:
    label: str
    argv: list[str]
    wall_s: float
    maxrss_mb: float
    exit_code: int
    sha256: str
    ok: bool
    error: str | None = None
    traced: bool = False


class Tally:
    """Counts operations and failures; a failed check fails its invocation."""

    def __init__(self) -> None:
        self.invocations: list[Invocation] = []
        self.digests: dict[str, str] = {}

    def judge(self, label: str, argv: list[str], run: dict, stdout: bytes, check,
              traced: bool = False) -> Invocation:
        digest = hashlib.sha256(stdout).hexdigest()
        error = None
        if run["exit_code"] != 0:
            error = f"exit code {run['exit_code']}: {run['stderr_tail']}"
        else:
            try:
                files_digest = check(stdout)
                if files_digest:
                    digest = hashlib.sha256((digest + files_digest).encode()).hexdigest()
            except (checks.CheckError, KeyError, TypeError, ValueError) as exc:
                error = f"check failed: {exc!r}"
        if error is None:
            first = self.digests.setdefault(label, digest)
            if first != digest:
                error = f"output differs from the first run of {label} (sha256 {digest})"
        inv = Invocation(label, argv, run["wall_s"], run["maxrss_mb"], run["exit_code"],
                         digest, error is None, error, traced)
        self.invocations.append(inv)
        return inv

    @property
    def attempted(self) -> int:
        return len(self.invocations)

    @property
    def failed(self) -> int:
        return sum(not inv.ok for inv in self.invocations)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "RAREVAL_THREADS"}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], cwd: Path, stdout_path: Path, env: dict) -> dict:
    """Run one process to completion; its wall time, peak RSS and exit code."""
    stderr_path = stdout_path.with_suffix(".err")
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=env,
                                stdin=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = stderr_path.read_bytes()
    return {"wall_s": wall, "start": start, "end": start + wall,
            "maxrss_mb": usage.ru_maxrss / 1024.0,
            "exit_code": proc.returncode, "stderr": stderr,
            "stderr_tail": stderr[-400:].decode(errors="replace")}


def run_cli(tally: Tally, label: str, args: tuple[str, ...], check, workdir: Path,
            env: dict, out_dir: str | None = None) -> Invocation:
    if out_dir:
        shutil.rmtree(workdir / out_dir, ignore_errors=True)
    stdout_path = workdir / f"{label}.out"
    argv = [sys.executable, "-m", "rareval", *args]
    run = spawn(argv, workdir, stdout_path, env)
    inv = tally.judge(label, list(args), run, stdout_path.read_bytes(), check)
    if out_dir:
        shutil.rmtree(workdir / out_dir, ignore_errors=True)
    return inv


def measure(plan: workloads.Plan, tally: Tally, workdir: Path, env: dict,
            seconds: float) -> tuple[list[float], dict[str, list[float]]]:
    """Setup samples, then the closed loop over the commands for ``seconds``."""
    setup = [run_cli(tally, "help", ("--help",), checks.check_help, workdir, env).wall_s
             for _ in range(SETUP_REPEATS)]
    walls: dict[str, list[float]] = {c.label: [] for c in plan.commands}
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < len(plan.commands):
        cmd = plan.commands[i % len(plan.commands)]
        inv = run_cli(tally, cmd.label, cmd.argv, cmd.check, workdir, env, cmd.out_dir)
        walls[cmd.label].append(inv.wall_s)
        i += 1
    return setup, walls


def traced_pass(plan: workloads.Plan, tally: Tally, workdir: Path,
                env: dict) -> tuple[list[dict], dict[str, float]]:
    """Replay each command once, traced in its own interpreter.

    Each traced run directly follows an untraced run of the same command,
    the reference for the tracing overhead, so a slow spell of a shared
    machine tends to hit both alike.
    """
    per_command, reference = [], {}
    for cmd in plan.commands:
        untraced = run_cli(tally, cmd.label, cmd.argv, cmd.check, workdir, env, cmd.out_dir)
        spans_path = workdir / f"{cmd.label}.spans.json"
        stdout_path = workdir / f"{cmd.label}.traced.out"
        argv = [sys.executable, "-X", "importtime", str(BENCH_DIR / "traced.py"),
                str(spans_path), "--", *cmd.argv]
        run = spawn(argv, workdir, stdout_path, env)
        inv = tally.judge(cmd.label, list(cmd.argv), run, stdout_path.read_bytes(), cmd.check,
                          traced=True)
        if cmd.out_dir:
            shutil.rmtree(workdir / cmd.out_dir, ignore_errors=True)
        reference[cmd.label] = untraced.wall_s
        trace = json.loads(spans_path.read_text()) if spans_path.exists() else {"spans": []}
        trace.update(label=cmd.label, kind=cmd.kind, wall_s=inv.wall_s,
                     spawned=run["start"], reaped=run["end"],
                     **layers.import_times(run["stderr"].decode(errors="replace")))
        per_command.append(trace)
    return per_command, reference


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        from importlib.metadata import PackageNotFoundError, version
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "children_unset": ["RAREVAL_THREADS"],
    }


def git_commit() -> str | None:
    """The checkout's commit, read from ``.git`` without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        return None
    return None


def end_to_end(plan: workloads.Plan, tally: Tally, setup: list[float],
               walls: dict[str, list[float]]) -> tuple[dict, dict]:
    """The gated metrics, and every per-command time for the record."""
    medians = {label: statistics.median(w) for label, w in walls.items()}
    per_kind: dict[str, float] = {}
    for cmd in plan.commands:
        per_kind[f"{cmd.kind}_s"] = per_kind.get(f"{cmd.kind}_s", 0.0) + medians[cmd.label]
    total = sum(medians.values())
    peak = max(inv.maxrss_mb for inv in tally.invocations if not inv.traced)
    gated = {
        "setup_s": (statistics.median(setup), "s"),
        "total_s": (total, "s"),
        "peak_rss_mb": (peak, "MB"),
        "op_success_ratio": (1.0 - tally.failed / tally.attempted, "ratio"),
    }
    extra = {**{k: (v, "s") for k, v in per_kind.items()},
             "op_fail_ratio": (tally.failed / tally.attempted, "ratio")}
    return gated, extra


def stored_digests(plan: workloads.Plan, scale: str, seed: int, tally: Tally) -> str:
    if seed != DEFAULT_SEED:
        return "not stored for this seed"
    path = BENCH_DIR / "digests.json"
    stored = json.loads(path.read_text()).get(scale, {}).get(plan.workload) if path.exists() else None
    if not stored:
        return "none stored"
    changed = sorted(k for k, v in tally.digests.items() if stored.get(k) != v)
    return "identical to stored" if not changed else "CHANGED: " + ", ".join(changed)


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke runs every workload in seconds, for the benchmark's tests")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/rareval/cli.py", "tests/oracles.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a rareval checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    name = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    workdir = ROOT / ".perfbench" / "work" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        plan = workloads.plan(args.workload, args.scale, args.seed, workdir, load_oracles())
        env = child_env()
        tally = Tally()
        gated, extra, walls, traces, per_layer, coverage_ok = {}, {}, {}, [], {}, True
        if args.trace:
            traces, reference = traced_pass(plan, tally, workdir, env)
            walls = {label: [wall] for label, wall in reference.items()}
            per_layer = layers.per_layer_metrics(traces, reference)
            coverage = per_layer["trace.coverage"][0]
            coverage_ok = abs(coverage - 1.0) <= COVERAGE_TOLERANCE
        else:
            setup, walls = measure(plan, tally, workdir, env, args.seconds)
            gated, extra = end_to_end(plan, tally, setup, walls)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest_status = stored_digests(plan, args.scale, args.seed, tally)
    record = {
        "workload": plan.workload, "why": workloads.WHY[plan.workload], "scale": args.scale,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(), "inputs": plan.inputs,
        "closed_loop": {"clients": 1, "threads": "default (1)"},
        "samples": {label: len(w) for label, w in walls.items()},
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in {**gated, **extra}.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()},
        "coverage_tolerance": COVERAGE_TOLERANCE,
        "digests": tally.digests, "digests_vs_stored": digest_status,
        "invocations": [asdict(inv) for inv in tally.invocations],
        "traces": traces,
    }
    results = ROOT / ".perfbench" / "results" / f"{name}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1))

    print(f"perfbench {plan.workload} scale={args.scale} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} (closed loop, 1 client)")
    for section in ("inputs", "environment"):
        print(f"{section}: " + " ".join(f"{k}={v}" for k, v in record[section].items()))
    for inv in tally.invocations:
        if not inv.ok:
            print(f"FAILED {inv.label}{' (traced)' if inv.traced else ''}: {inv.error}")
    for label, w in walls.items():
        print(f"  {label:<18} n={len(w)} median={statistics.median(w):.3f} s "
              f"sha256={tally.digests.get(label, '-')[:16]}")
    for key, (value, unit) in {**gated, **extra, **per_layer}.items():
        print(f"{key} = {value:.6g} {unit}")
    print(f"digests: {digest_status}")
    if args.trace:
        print(f"trace coverage {'ok' if coverage_ok else 'OUTSIDE'} "
              f"tolerance {COVERAGE_TOLERANCE:g}")
    print(f"results: {results.relative_to(ROOT)}")
    metrics = per_layer if args.trace else gated
    print(json.dumps({"correct": tally.failed == 0 and coverage_ok,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
