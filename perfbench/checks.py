"""Checks on the output of each timed rareval invocation.

Every check reads the bytes the command wrote to stdout (all commands but
``synth`` run with ``--json``, so values arrive at full precision) and
raises :class:`CheckError` on the first violation. A failed check counts the
invocation as a failed operation, exactly like a nonzero exit.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

from gen import Campaign

ORACLE_TOLERANCE = 1e-12


class CheckError(Exception):
    """An output that the program should not have produced."""


def _payload(stdout: bytes, command: str) -> dict:
    try:
        payload = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"{command}: stdout is not JSON ({exc})") from None
    if payload.get("command") != command:
        raise CheckError(f"{command}: payload names command {payload.get('command')!r}")
    return payload


def _rows(stdout: bytes, command: str) -> list[dict]:
    return _payload(stdout, command)["rows"]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def check_help(stdout: bytes) -> None:
    _expect(stdout.startswith(b"usage: rareval"), "--help: no usage line")


def check_eval(stdout: bytes, campaign: Campaign, oracles, sample_seed: int) -> None:
    """Row shape, means of the per-topic cells, and a seeded oracle sample."""
    rows = _rows(stdout, "eval")
    k = 100
    names = {
        "P@100": "p",
        "AP": "ap",
        "P@100_rareness(alpha=1,rarity=eq2)": "p_r",
        "AP_rareness(alpha=1,rarity=eq2)": "ap_r",
    }
    cells: dict[tuple[str, str, str], float] = {}
    for row in rows:
        key = (row["metric"], row["system"], row["topic"])
        _expect(row["metric"] in names, f"eval: unexpected metric {row['metric']!r}")
        _expect(key not in cells, f"eval: duplicate row {key}")
        value = row["score"]
        _expect(math.isfinite(value) and value >= 0.0, f"eval: bad score {value} at {key}")
        cells[key] = value
    topics = campaign.topic_ids
    for metric, kind in names.items():
        scored = [t for t in topics if not (kind.startswith("ap") and t == campaign.zero_topic)]
        for tag in campaign.tags:
            per_topic = [cells.get((metric, tag, t)) for t in scored]
            _expect(None not in per_topic, f"eval: missing per-topic cells for {metric} {tag}")
            mean = cells.get((metric, tag, "ALL"))
            _expect(mean is not None, f"eval: missing mean for {metric} {tag}")
            _expect(
                abs(mean - sum(per_topic) / len(per_topic)) <= ORACLE_TOLERANCE,
                f"eval: mean of {metric} {tag} is not the mean of its cells",
            )
        if kind.startswith("ap"):
            _expect(
                (metric, campaign.tags[0], campaign.zero_topic) not in cells,
                f"eval: {metric} scored the zero-relevant topic {campaign.zero_topic}",
            )
    expected_rows = len(campaign.tags) * (4 + 4 * len(topics) - 2)
    _expect(len(rows) == expected_rows, f"eval: {len(rows)} rows, expected {expected_rows}")

    # Seeded sample of cells against the brute-force oracles: the zero-relevant
    # topic plus one other, a few systems on each.
    pick = random.Random(sample_seed)
    other = pick.choice([t for t in topics if t != campaign.zero_topic])
    for topic, n_systems in ((other, 3), (campaign.zero_topic, 2)):
        runs_docs = {tag: {topic: docs} for tag, docs in campaign.canonical(topic).items()}
        relevant = campaign.relevant(topic)
        n_rel = len(relevant)
        for tag in pick.sample(campaign.tags, n_systems):
            docs = runs_docs[tag][topic]
            expect = {
                "P@100": oracles.naive_p_at_k(docs, relevant, k),
                "P@100_rareness(alpha=1,rarity=eq2)": oracles.naive_p_at_k_rareness(
                    runs_docs, tag, topic, relevant, k, 1.0, "eq2"
                ),
            }
            if n_rel:
                expect["AP"] = oracles.naive_ap(docs, relevant, k, n_rel)
                expect["AP_rareness(alpha=1,rarity=eq2)"] = oracles.naive_ap_rareness(
                    runs_docs, tag, topic, relevant, k, 1.0, "eq2", n_rel
                )
            for metric, want in expect.items():
                got = cells[(metric, tag, topic)]
                _expect(
                    abs(got - want) <= ORACLE_TOLERANCE,
                    f"eval: {metric} {tag} {topic} is {got!r}, the oracle gives {want!r}",
                )


def check_compare(stdout: bytes, alphas: list[float], families: int) -> None:
    rows = _rows(stdout, "compare")
    _expect(len(rows) == families * len(alphas), f"compare: {len(rows)} rows")
    for i, row in enumerate(rows):
        alpha, tau = row["alpha"], row["tau"]
        _expect(alpha == alphas[i % len(alphas)], f"compare: row {i} has alpha {alpha}")
        _expect(-1.0 <= tau <= 1.0, f"compare: tau {tau} outside [-1, 1]")
        if alpha == 0:
            _expect(tau == 1.0, f"compare: tau at alpha=0 is {tau!r}, not exactly 1")


def check_discpower(stdout: bytes, n_systems: int, n_metrics: int) -> None:
    rows = _rows(stdout, "discpower")
    _expect(len(rows) == 2 * n_metrics, f"discpower: {len(rows)} rows")
    total = n_systems * (n_systems - 1) // 2
    by_metric: dict[str, dict[str, int]] = {}
    for row in rows:
        _expect(row["total_pairs"] == total, f"discpower: total_pairs {row['total_pairs']}")
        _expect(0 <= row["pairs"] <= total, f"discpower: pairs {row['pairs']} > {total}")
        by_metric.setdefault(row["metric"], {})[row["level"]] = row["pairs"]
    for metric, levels in by_metric.items():
        _expect(
            levels.get("99%", 0) <= levels.get("95%", 0),
            f"discpower: {metric} separates more pairs at 99% than at 95%",
        )


def check_stability(stdout: bytes, n_metrics: int) -> None:
    rows = _rows(stdout, "stability")
    _expect(len(rows) == n_metrics, f"stability: {len(rows)} rows")
    for row in rows:
        _expect(0.5 <= row["value"] <= 1.0, f"stability: {row['value']} outside [0.5, 1]")


def check_subset(stdout: bytes, sizes: list[int], trials: int, n_systems: int) -> None:
    rows = _rows(stdout, "subset")
    _expect([r["N"] for r in rows] == sorted(sizes), f"subset: sizes {[r['N'] for r in rows]}")
    for row in rows:
        tau = row["mean_tau"]
        _expect(row["trials"] == trials, f"subset: {row['trials']} trials")
        _expect(-1.0 <= tau <= 1.0, f"subset: mean_tau {tau} outside [-1, 1]")
        if row["N"] == n_systems:
            _expect(tau == 1.0, f"subset: the full-size subset has mean_tau {tau!r}, not 1")


def check_trajectory(stdout: bytes, alphas: list[float], d_max: int, n_systems: int) -> None:
    payload = _payload(stdout, "trajectory")
    rows = payload["rows"]
    _expect(len(rows) == len(alphas) * d_max, f"trajectory: {len(rows)} rows")
    for a, alpha in enumerate(alphas):
        block = rows[a * d_max : (a + 1) * d_max]
        _expect([r["D"] for r in block] == list(range(1, d_max + 1)), "trajectory: D out of order")
        first_top = None
        for row in block:
            _expect(row["alpha"] == alpha, f"trajectory: alpha {row['alpha']}, expected {alpha}")
            _expect(1.0 <= row["rank"] <= n_systems + 1, f"trajectory: rank {row['rank']}")
            if first_top is None and row["rank"] == 1.0:
                first_top = row["D"]
        d_star = payload["d_star"].get(str(float(alpha)))
        _expect(d_star == first_top, f"trajectory: d_star {d_star}, first rank-1 D is {first_top}")


def check_synth(stdout: bytes, out_dir: Path, systems: int, topics: int, depth: int,
                relevant: int) -> str:
    """File, line and field counts of a written campaign; returns the files' digest."""
    listed = stdout.decode().split()
    files = sorted(p for p in out_dir.iterdir())
    _expect(len(listed) == systems + 1, f"synth: stdout lists {len(listed)} files")
    _expect(sorted(Path(p).name for p in listed) == [p.name for p in files],
            "synth: stdout and the output directory disagree")
    digest = hashlib.sha256()
    for path in files:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines = data.splitlines()
        is_qrels = path.name == "qrels.txt"
        want_lines, want_fields = (topics * relevant, 4) if is_qrels else (topics * depth, 6)
        _expect(len(lines) == want_lines, f"synth: {path.name} has {len(lines)} lines")
        bad = sum(1 for line in lines if len(line.split()) != want_fields)
        _expect(bad == 0, f"synth: {path.name} has {bad} lines without {want_fields} fields")
    _expect(sum(p.suffix == ".run" for p in files) == systems, "synth: wrong run file count")
    return digest.hexdigest()
