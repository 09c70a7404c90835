"""Command-line interface.

One executable, eight subcommands:

* ``eval``       -- score systems under one or more metrics
* ``compare``    -- rank-correlation sweep of weighted vs. base metrics over alpha
* ``discpower``  -- significantly-different system pairs under Tukey's HSD
* ``stability``  -- pairwise ordering stability under topic subsampling
* ``subset``     -- mean tau when rarity is recomputed over sampled system subsets
* ``synth``      -- write a generated synthetic campaign as run/qrels files
* ``trajectory`` -- midrank trajectory of an inserted hypothetical system
* ``report``     -- per-topic rarity report of relevant retrieved documents

Results go to stdout as TSV (floats shown with 4 decimals) or, with
``--json``, as JSON carrying the same values at full precision. Diagnostics
go to stderr. Exit codes: 0 success, 1 data/format errors, 2 usage errors.
Seeds default to a fixed constant so flag-free runs are reproducible;
``--threads`` (or ``RAREVAL_THREADS``) caps parallelism without changing any
output, and is itself capped at the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .campaign import evaluate_campaign, mean_scores, rank_systems
from .errors import ConfigError, DataError, FormatError, ParseError, RarevalError
from .metrics import DEFAULT_CUTOFF, MetricSpec
from .rarity import build_rarity_index, rarity_report
from .rng import DEFAULT_SEED
from .stats import (
    SIGNIFICANCE_LEVELS,
    StabilityConfig,
    SubsetExperimentConfig,
    discriminative_power,
    kendall_tau,
    stability,
    subset_experiment,
    total_pairs,
)
from .synth import SynthSpec, generate_campaign, rank_trajectory
from .trec_io import load_campaign, write_qrels_file, write_run_file

DEFAULT_ALPHA_GRID = "0,0.25,0.5,0.75,1"
TABLE_METRICS = (
    "P@{k}",
    "P@{k}_rareness(alpha=0.5)",
    "P@{k}_rareness(alpha=1)",
    "AP",
    "AP_rareness(alpha=0.5)",
    "AP_rareness(alpha=1)",
)


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def _emit(args, rows: list[dict]) -> None:
    if args.json:
        print(json.dumps({"command": args.command, "rows": rows}, indent=2))
    else:
        for row in rows:
            print("\t".join(_fmt(v) for v in row.values()))


def _threads(args) -> int:
    """The requested thread count, between 1 and the CPU count."""
    requested = args.threads
    if requested is None:
        env = os.environ.get("RAREVAL_THREADS")
        if not env:
            return 1
        try:
            requested = int(env)
        except ValueError:
            raise ConfigError(f"RAREVAL_THREADS must be an integer, got {env!r}")
    return max(1, min(requested, os.cpu_count() or 1))


def _run_sources(paths: Sequence[str]):
    sources = []
    stdin_used = False
    for item in paths:
        if item == "-":
            if stdin_used:
                raise ConfigError("standard input can only be read once")
            stdin_used = True
            sources.append(sys.stdin)
            continue
        path = Path(item)
        if path.is_dir():
            inner = sorted(p for p in path.iterdir() if p.is_file())
            if not inner:
                raise DataError(f"run directory {item!r} is empty")
            sources.extend(inner)
        else:
            sources.append(path)
    return sources, stdin_used


def _load(args):
    run_sources, stdin_used = _run_sources(args.runs)
    if args.qrels == "-":
        if stdin_used:
            raise ConfigError("runs and qrels cannot both come from standard input")
        qrels_source = sys.stdin
    else:
        qrels_source = Path(args.qrels)
    campaign = load_campaign(
        run_sources,
        qrels_source,
        dedup=args.dedup,
        order=args.order,
        relevance_threshold=args.relevance_threshold,
    )
    unjudged = campaign.unjudged_topics
    if unjudged:
        print(
            f"note: {len(unjudged)} run topic(s) have no qrels judgments: "
            + ", ".join(sorted(unjudged)[:5])
            + ("..." if len(unjudged) > 5 else ""),
            file=sys.stderr,
        )
    return campaign


def _parse_metric(args, text: str) -> MetricSpec:
    return MetricSpec.parse(
        text,
        default_cutoff=args.cutoff,
        default_alpha=args.alpha,
        default_variant=args.rarity,
    )


def _alpha_grid(text: str) -> list[float]:
    try:
        return [float(a) for a in text.split(",") if a.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad alpha grid {text!r}; expected comma-separated numbers")


def _sizes(text: str) -> list[int]:
    sizes = set()
    for token in text.split(","):
        try:
            sizes.add(int(token))
        except ValueError:
            raise ConfigError(
                f"bad --sizes token {token!r} in {text!r}; expected comma-separated integers"
            )
    return sorted(sizes)


def _ap_depth(args):
    return "cutoff" if args.ap_depth == "cutoff" else None


def _table_metrics(args) -> list[MetricSpec]:
    return [_parse_metric(args, name.format(k=args.cutoff)) for name in TABLE_METRICS]


# --- subcommand handlers ------------------------------------------------------


def _cmd_eval(args) -> int:
    campaign = _load(args)
    specs = [_parse_metric(args, m) for m in (args.metric or ["P@{}".format(args.cutoff), "AP"])]
    matrices = evaluate_campaign(
        campaign,
        specs,
        rarity_depth=args.rarity_depth,
        ap_depth=_ap_depth(args),
        exclude_zero_relevant_for_p=args.exclude_empty_topics,
    )
    rows: list[dict] = []
    for matrix in matrices:
        means = mean_scores(matrix)
        for system in matrix.systems:
            rows.append(
                {
                    "metric": matrix.metric_descriptor,
                    "system": system,
                    "topic": "ALL",
                    "score": means[system],
                }
            )
        if args.per_topic:
            for si, system in enumerate(matrix.systems):
                for ti, topic in enumerate(matrix.topics):
                    if topic in matrix.skipped_topics:
                        continue
                    rows.append(
                        {
                            "metric": matrix.metric_descriptor,
                            "system": system,
                            "topic": topic,
                            "score": float(matrix.values[si, ti]),
                        }
                    )
    _emit(args, rows)
    return 0


def _cmd_compare(args) -> int:
    campaign = _load(args)
    alphas = _alpha_grid(args.alphas)
    families = ("p", "ap") if args.family == "both" else (args.family,)
    index = build_rarity_index(campaign, args.rarity_depth)
    rows: list[dict] = []
    for family in families:
        base_name = f"P@{args.cutoff}" if family == "p" else "AP"
        weighted_name = (
            f"P@{args.cutoff}_rareness" if family == "p" else "AP_rareness"
        )
        base_matrix = evaluate_campaign(
            campaign,
            [_parse_metric(args, base_name)],
            ap_depth=_ap_depth(args),
            index=index,
        )[0]
        base_ranking = rank_systems(mean_scores(base_matrix))
        for alpha in alphas:
            spec = _parse_metric(args, f"{weighted_name}(alpha={alpha},rarity={args.rarity})")
            matrix = evaluate_campaign(
                campaign, [spec], ap_depth=_ap_depth(args), index=index
            )[0]
            tau = kendall_tau(base_ranking, rank_systems(mean_scores(matrix)))
            rows.append({"alpha": alpha, "metric": spec.descriptor, "tau": tau})
    _emit(args, rows)
    return 0


def _cmd_discpower(args) -> int:
    campaign = _load(args)
    specs = (
        [_parse_metric(args, m) for m in args.metric] if args.metric else _table_metrics(args)
    )
    matrices = evaluate_campaign(
        campaign, specs, rarity_depth=args.rarity_depth, ap_depth=_ap_depth(args)
    )
    pairs_total = total_pairs(campaign.n_systems)
    rows = [
        {
            "metric": matrix.metric_descriptor,
            "level": f"{level:.0%}",
            "pairs": discriminative_power(matrix, level),
            "total_pairs": pairs_total,
        }
        for matrix in matrices
        for level in SIGNIFICANCE_LEVELS
    ]
    _emit(args, rows)
    return 0


def _cmd_stability(args) -> int:
    campaign = _load(args)
    specs = (
        [_parse_metric(args, m) for m in args.metric] if args.metric else _table_metrics(args)
    )
    threads = _threads(args)
    rows: list[dict] = []
    for spec in specs:
        matrix = evaluate_campaign(
            campaign, [spec], rarity_depth=args.rarity_depth, ap_depth=_ap_depth(args)
        )[0]
        usable = matrix.scored_topic_indices().size
        sample = args.sample_size if args.sample_size is not None else max(1, usable // 2)
        result = stability(
            campaign,
            spec,
            StabilityConfig(sample_size=sample, trials=args.trials, seed=args.seed),
            direction=args.stability_direction,
            threads=threads,
            matrix=matrix,
        )
        rows.append(
            {"metric": result.metric_descriptor, "scope": "overall", "value": result.overall}
        )
        if args.per_pair:
            for (a, b), value in sorted(result.per_pair.items()):
                rows.append(
                    {
                        "metric": result.metric_descriptor,
                        "scope": "pair",
                        "system_a": a,
                        "system_b": b,
                        "value": value,
                    }
                )
    _emit(args, rows)
    return 0


def _cmd_subset(args) -> int:
    campaign = _load(args)
    if len(args.metric or []) > 1:
        raise ConfigError("subset takes a single --metric")
    spec = _parse_metric(
        args, args.metric[0] if args.metric else f"P@{args.cutoff}_rareness"
    )
    threads = _threads(args)
    rows: list[dict] = []
    for n in _sizes(args.sizes):
        result = subset_experiment(
            campaign,
            spec,
            SubsetExperimentConfig(subset_size=n, trials=args.trials, seed=args.seed),
            threads=threads,
            rarity_depth=args.rarity_depth,
            ap_depth=_ap_depth(args),
        )
        if result.resamples:
            print(
                f"note: N={n}: resampled {result.resamples} tied trial(s)",
                file=sys.stderr,
            )
        rows.append({"N": n, "mean_tau": result.mean_tau, "trials": result.trials})
    _emit(args, rows)
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n_systems=args.systems,
        n_topics=args.topics,
        n_relevant_per_topic=args.relevant,
        doc_pool_size=args.pool,
        overlap_bias=args.bias,
        run_depth=args.depth,
        seed=args.seed,
    )
    campaign = generate_campaign(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for run in campaign.runs:
        path = out / f"{run.system_id}.run"
        write_run_file(run, path)
        written.append(path)
    qrels_path = out / "qrels.txt"
    write_qrels_file(campaign.qrels, qrels_path)
    written.append(qrels_path)
    for path in written:
        print(path)
    return 0


def _cmd_trajectory(args) -> int:
    campaign = _load(args)
    # Alpha comes from the grid; only cutoff and variant matter here.
    config = MetricSpec.parse(
        f"P@{args.cutoff}_rareness", default_variant=args.rarity
    ).config
    results = rank_trajectory(
        campaign,
        args.kind,
        args.topic,
        _alpha_grid(args.alphas),
        args.d_max,
        config,
        pad=args.pad,
        freeze_n_rel=args.freeze_n_rel,
        multi_topic=args.multi_topic,
        rarity_depth=args.rarity_depth,
    )
    rows: list[dict] = []
    for result in results:
        for d, rank in result.ranks:
            rows.append({"alpha": result.alpha, "D": d, "rank": rank})
    if args.json:
        payload = {
            "command": args.command,
            "rows": rows,
            "d_star": {str(r.alpha): r.d_star for r in results},
        }
        print(json.dumps(payload, indent=2))
    else:
        for row in rows:
            print("\t".join(_fmt(v) for v in row.values()))
        for result in results:
            print(f"note: alpha={result.alpha:g}: d_star={result.d_star}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    campaign = _load(args)
    index = build_rarity_index(campaign, args.rarity_depth)
    topics = [args.topic] if args.topic else list(campaign.judged_topics)
    rows: list[dict] = []
    for topic in topics:
        for row in rarity_report(campaign, index, topic, args.rarity):
            rows.append(
                {
                    "topic": topic,
                    "doc": row.doc,
                    "grade": row.grade,
                    "retrievers": row.retrievers,
                    "rarity": row.rarity,
                }
            )
    _emit(args, rows)
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rareval",
        description="Rareness-weighted retrieval evaluation over TREC-format campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument(
        "--runs", nargs="+", required=True,
        help="run files, directories of run files, or '-' for stdin",
    )
    inputs.add_argument("--qrels", required=True, help="qrels file, or '-' for stdin")
    inputs.add_argument("--dedup", choices=["reject", "first"], default="reject")
    inputs.add_argument("--order", choices=["score", "rank-field"], default="score")
    inputs.add_argument("--relevance-threshold", type=int, default=1)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cutoff", type=int, default=DEFAULT_CUTOFF)
    common.add_argument("--alpha", type=float, default=1.0,
                        help="rarity weight for metrics without an explicit alpha")
    common.add_argument("--rarity", choices=["eq2", "revised"], default="eq2")
    common.add_argument("--rarity-depth", type=int, default=None,
                        help="count retrievals only this deep (default: whole run)")
    common.add_argument("--ap-depth", choices=["cutoff", "full"], default="cutoff")
    common.add_argument("--json", action="store_true")
    common.add_argument("--threads", type=int, default=None,
                        help="parallelism cap (or RAREVAL_THREADS), at most the CPU "
                        "count and the trial count; output-invariant")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("eval", parents=[inputs, common],
                       help="score every system under the given metrics")
    p.add_argument("--metric", action="append", default=None)
    p.add_argument("--per-topic", action="store_true")
    p.add_argument("--exclude-empty-topics", action="store_true",
                   help="skip zero-relevant topics for the precision family too")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("compare", parents=[inputs, common],
                       help="tau between base and rarity-weighted rankings over alpha")
    p.add_argument("--alphas", default=DEFAULT_ALPHA_GRID)
    p.add_argument("--family", choices=["p", "ap", "both"], default="both")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("discpower", parents=[inputs, common],
                       help="count significantly different system pairs (Tukey HSD)")
    p.add_argument("--metric", action="append", default=None)
    p.set_defaults(func=_cmd_discpower)

    p = sub.add_parser("stability", parents=[inputs, common],
                       help="pairwise ordering stability under topic subsampling")
    p.add_argument("--metric", action="append", default=None)
    p.add_argument("--sample-size", type=int, default=None,
                   help="topics per trial (default: half the usable topics)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--stability-direction", choices=["winner", "fullset"],
                   default="winner")
    p.add_argument("--per-pair", action="store_true")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("subset", parents=[inputs, common],
                       help="mean tau of rankings recomputed over sampled system subsets")
    p.add_argument("--metric", action="append", default=None)
    p.add_argument("--sizes", default="2,4,8,16,32,64")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_subset)

    p = sub.add_parser("synth", help="generate a synthetic campaign as run/qrels files")
    p.add_argument("--systems", type=int, required=True)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--relevant", type=int, required=True,
                   help="relevant documents per topic")
    p.add_argument("--pool", type=int, required=True, help="document pool size")
    p.add_argument("--bias", type=float, default=0.5,
                   help="overlap bias in [0,1]: how much systems share relevant picks")
    p.add_argument("--depth", type=int, required=True, help="documents per run per topic")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("trajectory", parents=[inputs, common],
                       help="midrank trajectory of an inserted hypothetical system")
    p.add_argument("--kind", choices=["rare", "common"], required=True)
    p.add_argument("--topic", required=True)
    p.add_argument("--alphas", default="0,0.5,1")
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--pad", choices=["none", "pool-nonrel"], default="pool-nonrel")
    p.add_argument("--freeze-n-rel", action="store_true",
                   help="keep AP denominators at their pre-insertion values")
    p.add_argument("--multi-topic", action="store_true")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("report", parents=[inputs, common],
                       help="rarity of relevant retrieved documents, rarest first")
    p.add_argument("--topic", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def dispatch(argv: Sequence[str]) -> int:
    """Run one invocation; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, FormatError, DataError, RarevalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))
