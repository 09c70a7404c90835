"""The benchmark's workloads: their inputs, the rareval commands they run,
and the check applied to each command's output.

* ``trec-ingest`` -- one TREC-shaped campaign (40 systems x 8 topics x
  depth 1000, 320 k run lines) through ``eval`` and ``compare``, then
  ``rareval synth`` writing a campaign of that shape: parsing,
  formatting/writing and memory dominate.
* ``meta-desk``   -- a desk campaign shaped like acceptance c6 through the
  meta-evaluation commands: import, statistics and re-scoring dominate,
  parsing is small.

``rareval synth`` at the ``trec-ingest`` shape runs inside ``trec-ingest``
rather than in a workload of its own: the benchmark's time limit buys each
run of two workloads 40 s, of three only about 25 s, and on a shared host
a run needs many invocations to be steady.

The ``smoke`` scale keeps every workload's shape but shrinks it so the
benchmark's own tests run in seconds per workload.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

WHY = {
    "trec-ingest": "320 k run lines through eval and compare, and synth writing as many: "
    "parsing, writing, the rarity index and peak memory dominate; stats do almost nothing",
    "meta-desk": "c6-shaped desk campaign through compare, discpower, stability, subset and "
    "trajectory: import, stats and re-scoring dominate; parsing is small",
}

# 8 topics rather than a TREC track's 25 to 50: at 1 M lines eval and
# compare take 10 s each, too long to repeat within one run. Parsing keeps
# most of eval's wall time at 320 k lines.
_TREC = {
    "full": gen.CampaignShape(40, 8, 1000, 100, 5000, 0.35, first_topic=401),
    "smoke": gen.CampaignShape(6, 3, 120, 10, 300, 0.35, first_topic=401),
}
_DESK = {
    "full": gen.CampaignShape(64, 6, 80, 40, 1200, 0.35, first_topic=301),
    "smoke": gen.CampaignShape(8, 4, 20, 8, 100, 0.35, first_topic=301),
}
# Trial counts and d-max give each meta-desk command about as much work of
# its own as the ~1.6 s every invocation pays for interpreter start and
# imports, so that a run repeats each command at least twice.
_DESK_SIZING = {
    "full": {"stability": 2000, "subset": 100, "sizes": [2, 4, 8, 16, 32, 64],
             "ap_sizes": [4, 16, 64], "d_rare": 24, "d_common": 24},
    "smoke": {"stability": 40, "subset": 10, "sizes": [2, 4, 8],
              "ap_sizes": [4, 8], "d_rare": 4, "d_common": 4},
}
_COMPARE_GRID = [i / 20 for i in range(21)]
_TRAJECTORY_COMMON_GRID = [i / 10 for i in range(11)]
_DEFAULT_ALPHAS = [0.0, 0.25, 0.5, 0.75, 1.0]
_TABLE_METRICS = 6  # discpower and stability's default metric table


@dataclass(frozen=True)
class Command:
    """One rareval invocation of a workload and the check of its output."""

    label: str  # unique within the workload
    kind: str  # the subcommand; its per-command time sums the workload's invocations
    argv: tuple[str, ...]
    check: Callable[[bytes], str | None]  # raises checks.CheckError; may return a digest
    out_dir: str | None = None  # a directory the command writes, emptied before each run


@dataclass
class Plan:
    """A workload's generated inputs and the commands run over them."""

    workload: str
    inputs: dict
    commands: list[Command]


def _alphas(grid: list[float]) -> str:
    return ",".join(f"{a:g}" for a in grid)


def _generated(shape: gen.CampaignShape, seed: int, workdir: Path) -> tuple[gen.Campaign, list[str]]:
    campaign = gen.generate(shape, seed)
    runs_dir, qrels = gen.write(campaign, workdir)
    source = ["--runs", runs_dir.name, "--qrels", qrels.name, "--json"]
    return campaign, source


def _trec_ingest(scale: str, seed: int, workdir: Path, oracles) -> Plan:
    shape = _TREC[scale]
    campaign, source = _generated(shape, seed, workdir)
    metrics = ["--metric", "P@100", "--metric", "AP", "--metric", "P@100_rareness",
               "--metric", "AP_rareness"]
    out = "synth-out"
    synth = ("synth", "--systems", str(shape.systems), "--topics", str(shape.topics),
             "--relevant", str(shape.relevant), "--pool", str(shape.pool),
             "--depth", str(shape.depth), "--bias", str(shape.bias), "--seed", str(seed),
             "--out", out)

    def check_synth(stdout: bytes) -> str:
        return checks.check_synth(stdout, workdir / out, shape.systems, shape.topics,
                                  shape.depth, shape.relevant)

    return Plan("trec-ingest", campaign.params(), [
        Command("eval", "eval", ("eval", *source, *metrics, "--per-topic"),
                functools.partial(checks.check_eval, campaign=campaign, oracles=oracles,
                                  sample_seed=seed)),
        Command("compare", "compare", ("compare", *source),
                functools.partial(checks.check_compare, alphas=_DEFAULT_ALPHAS, families=2)),
        Command("synth", "synth", synth, check_synth, out_dir=out),
    ])


def _meta_desk(scale: str, seed: int, workdir: Path, oracles) -> Plan:
    shape, size = _DESK[scale], _DESK_SIZING[scale]
    campaign, source = _generated(shape, seed, workdir)
    # The common probe needs d-max relevant docs that some system retrieved.
    topic = max((t for t in campaign.topic_ids if t != campaign.zero_topic),
                key=campaign.retrieved_relevant)
    if campaign.retrieved_relevant(topic) < size["d_common"]:
        raise ValueError(f"topic {topic} has too few retrieved relevant docs for d-max")
    n = shape.systems
    sizes = [s for s in size["sizes"] if s <= n]
    ap_sizes = [s for s in size["ap_sizes"] if s <= n]
    trials = size["subset"]
    commands = [
        Command("compare", "compare", ("compare", *source, "--alphas", _alphas(_COMPARE_GRID)),
                functools.partial(checks.check_compare, alphas=_COMPARE_GRID, families=2)),
        Command("discpower", "discpower", ("discpower", *source),
                functools.partial(checks.check_discpower, n_systems=n, n_metrics=_TABLE_METRICS)),
        Command("stability", "stability",
                ("stability", *source, "--trials", str(size["stability"])),
                functools.partial(checks.check_stability, n_metrics=_TABLE_METRICS)),
        Command("subset-p", "subset",
                ("subset", *source, "--sizes", ",".join(map(str, sizes)),
                 "--trials", str(trials)),
                functools.partial(checks.check_subset, sizes=sizes, trials=trials, n_systems=n)),
        Command("subset-ap", "subset",
                ("subset", *source, "--metric", "AP_rareness",
                 "--sizes", ",".join(map(str, ap_sizes)), "--trials", str(trials)),
                functools.partial(checks.check_subset, sizes=ap_sizes, trials=trials,
                                  n_systems=n)),
        Command("trajectory-rare", "trajectory",
                ("trajectory", *source, "--kind", "rare", "--multi-topic", "--topic", topic,
                 "--d-max", str(size["d_rare"])),
                functools.partial(checks.check_trajectory, alphas=[0.0, 0.5, 1.0],
                                  d_max=size["d_rare"], n_systems=n)),
        Command("trajectory-common", "trajectory",
                ("trajectory", *source, "--kind", "common", "--topic", topic,
                 "--d-max", str(size["d_common"]),
                 "--alphas", _alphas(_TRAJECTORY_COMMON_GRID)),
                functools.partial(checks.check_trajectory, alphas=_TRAJECTORY_COMMON_GRID,
                                  d_max=size["d_common"], n_systems=n)),
    ]
    return Plan("meta-desk", {**campaign.params(), "trajectory_topic": topic, **size}, commands)


BUILDERS = {"trec-ingest": _trec_ingest, "meta-desk": _meta_desk}


def plan(workload: str, scale: str, seed: int, workdir: Path, oracles) -> Plan:
    """Generate the workload's inputs under ``workdir`` and list its commands."""
    return BUILDERS[workload](scale, seed, workdir, oracles)
