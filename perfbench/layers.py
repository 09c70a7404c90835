"""Per-layer metrics from the spans of a traced pass.

A span's self time is its duration minus the time its child spans cover.
Each layer of ``src/rareval`` is named by its module: ``cli`` (process
start, imports, argparse, output formatting), ``trec_io``, ``rarity``,
``campaign`` (with ``metrics``), ``stats`` and ``synth``. Every metric is
reported for every workload; a layer a workload does not exercise reads 0.

``cli.start_s`` and ``cli.exit_s`` are the interpreter's start (spawn to the
tracer's first line) and exit (the tracer's last line to reaping), timed on
the shared monotonic clock; with ``cli.import_s`` and the dispatch spans
they account for a command's whole wall time.
"""

from __future__ import annotations

import statistics

LAYERS = ("trec_io", "rarity", "campaign", "stats", "synth")


def import_times(stderr: str) -> dict:
    """``-X importtime`` totals: rareval's cumulative time and scipy's self time."""
    rareval_us = 0
    scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cumulative_us, module = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the header line
        name = module.strip()
        if name == "rareval" and not rareval_us:
            rareval_us = int(cumulative_us)
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += int(self_us)
    return {"importtime_rareval_s": rareval_us / 1e6, "importtime_scipy_s": scipy_us / 1e6}


def self_times(spans: list[dict]) -> list[float]:
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    return [s["end"] - s["start"] - covered[i] for i, s in enumerate(spans)]


def per_layer_metrics(traces: list[dict], untraced_wall: dict[str, float]) -> dict:
    """Metric name -> (value, unit), summed over the traced commands.

    ``untraced_wall`` maps each command label to its untraced wall time,
    the reference for the tracing overhead. The coverage check compares
    the traced accounting with the traced run's own wall time: a second
    run of the same command differs from the first by up to 30% on a
    shared host, which would swamp what the check looks for.
    """
    spans, selfs = [], []
    for trace in traces:
        spans += trace["spans"]
        selfs += self_times(trace["spans"])

    def pick(name):
        return [s for s in spans if s["name"] == name]

    def dur(name):
        return sum(s["end"] - s["start"] for s in pick(name))

    def cpu(name):
        return sum(s["cpu1"] - s["cpu0"] for s in pick(name))

    def total(name, key):
        return sum(s["counts"].get(key, 0) for s in pick(name))

    def rise(name):
        return max((s["rss1"] - s["rss0"] for s in pick(name)), default=0.0)

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    def layer_self(prefix):
        return sum(t for s, t in zip(spans, selfs) if s["name"].startswith(prefix + "."))

    subset_setup = sum(
        s["end"] - s["start"]
        for trace in traces for s in trace["spans"]
        if s["name"] == "campaign.evaluate" and s["parent"] is not None
        and trace["spans"][s["parent"]]["name"] == "stats.subset"
    )
    subset_trials = total("stats.subset", "trials")
    subset_attempts = subset_trials + total("stats.subset", "resamples")

    starts = [t["started"] - t["spawned"] for t in traces if "started" in t]
    exits = [t["reaped"] - t["finished"] for t in traces if "finished" in t]
    accounted = sum(starts) + sum(exits) + sum(
        t["importtime_rareval_s"] for t in traces) + dur("cli.dispatch")
    untraced = sum(untraced_wall[t["label"]] for t in traces)
    traced = sum(t["wall_s"] for t in traces)
    m = {
        "cli.import_s": (statistics.median(t["importtime_rareval_s"] for t in traces), "s"),
        "cli.import_scipy_s": (statistics.median(t["importtime_scipy_s"] for t in traces), "s"),
        "cli.start_s": (sum(starts), "s"),
        "cli.exit_s": (sum(exits), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "trec_io.parse_s": (dur("trec_io.parse"), "s"),
        "trec_io.parse_cpu_s": (cpu("trec_io.parse"), "s"),
        "trec_io.parse_lines_per_s": (per_s(total("trec_io.parse", "lines"),
                                            dur("trec_io.parse")), "1/s"),
        "trec_io.parse_rss_mb": (rise("trec_io.parse"), "MB"),
        "trec_io.write_s": (dur("trec_io.write"), "s"),
        "trec_io.write_bytes": (total("trec_io.write", "bytes"), "bytes"),
        "rarity.index_s": (dur("rarity.index"), "s"),
        "rarity.index_postings": (total("rarity.index", "postings"), "count"),
        "rarity.extend_s": (dur("rarity.extend"), "s"),
        "rarity.extend_calls": (len(pick("rarity.extend")), "count"),
        "campaign.evaluate_s": (dur("campaign.evaluate"), "s"),
        "campaign.evaluate_calls": (len(pick("campaign.evaluate")), "count"),
        "campaign.cells": (total("campaign.evaluate", "cells"), "count"),
        "campaign.cells_per_s": (per_s(total("campaign.evaluate", "cells"),
                                       dur("campaign.evaluate")), "1/s"),
        "campaign.rank_s": (dur("campaign.rank"), "s"),
        "stats.tau_s": (dur("stats.tau"), "s"),
        "stats.tau_calls": (len(pick("stats.tau")), "count"),
        "stats.hsd_s": (dur("stats.hsd"), "s"),
        "stats.quantile_hits": (sum(t.get("quantile_hits", 0) for t in traces), "count"),
        "stats.quantile_misses": (sum(t.get("quantile_misses", 0) for t in traces), "count"),
        "stats.stability_s": (dur("stats.stability"), "s"),
        "stats.stability_cpu_s": (cpu("stats.stability"), "s"),
        "stats.stability_trials": (total("stats.stability", "trials"), "count"),
        "stats.subset_s": (dur("stats.subset"), "s"),
        "stats.subset_setup_s": (subset_setup, "s"),
        "stats.subset_trials": (subset_trials, "count"),
        "stats.subset_resamples": (total("stats.subset", "resamples"), "count"),
        "stats.subset_useful_ratio": (per_s(subset_trials, subset_attempts), "ratio"),
        "synth.generate_s": (dur("synth.generate"), "s"),
        "synth.generate_entries": (total("synth.generate", "entries"), "count"),
        "synth.generate_rss_mb": (rise("synth.generate"), "MB"),
        "synth.trajectory_s": (dur("synth.trajectory"), "s"),
        "synth.trajectory_steps": (total("synth.trajectory", "steps"), "count"),
        **{f"{layer}.self_s": (layer_self(layer), "s") for layer in LAYERS},
        "trace.coverage": (accounted / traced, "ratio"),
        "trace.overhead_ratio": (traced / untraced - 1.0, "ratio"),
    }
    return m
