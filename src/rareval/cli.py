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
go to stderr; a warning is one ``warning:`` line (one ``error:`` line and exit
1 under ``-W error``). Exit codes: 0 success, 1 data/format errors, 2 usage errors.
Seeds default to a fixed constant so flag-free runs are reproducible.
Trials run serially; ``RAREVAL_THREADS`` is not read. Commands that read a
campaign keep its parsed run files in ``$XDG_CACHE_HOME/rareval`` (by default
``~/.cache/rareval``), so that the next command over the same files reads
them back instead of parsing them again; runs from standard input are not
cached.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from pathlib import Path
from typing import Sequence

from .campaign import evaluate_campaign, mean_scores, rank_systems
from .errors import ConfigError, DataError, RarevalError
from .metrics import DEFAULT_CUTOFF, MetricSpec
from .rarity import rarity_report
from .rng import DEFAULT_SEED, MAX_SEED
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


def _emit(args, rows: list[dict], **extra) -> None:
    """``rows`` as TSV, or as JSON with the ``extra`` keys after them."""
    if args.json:
        print(json.dumps({"command": args.command, "rows": rows, **extra}, indent=2))
    else:
        for row in rows:
            print("\t".join(_fmt(v) for v in row.values()))


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


def _cache_dir() -> Path | None:
    """The load cache: ``$XDG_CACHE_HOME/rareval``, where that is an absolute
    path, else ``~/.cache/rareval``; None (no cache) without a home directory."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if os.path.isabs(base):
        return Path(base) / "rareval"
    try:
        return Path.home() / ".cache" / "rareval"
    except RuntimeError:  # no $HOME and no passwd entry
        return None


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
        cache=_cache_dir(),
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


def _tokens(text: str, flag: str, parse, expected: str) -> list:
    """The comma-separated values of ``flag``; an empty or bad token is a ConfigError."""
    values = []
    for token in text.split(","):
        try:
            values.append(parse(token))
        except ValueError:
            raise ConfigError(
                f"bad {flag} token {token!r} in {text!r}; expected comma-separated {expected}"
            )
    return values


def _seed(text: str) -> int:
    """A ``--seed`` value, checked before any input is read."""
    try:
        seed = int(text)
        if 0 <= seed <= MAX_SEED:
            return seed
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected an integer in 0..{MAX_SEED}, got {text!r}")


def _alpha_grid(text: str) -> list[float]:
    return _tokens(text, "--alphas", float, "numbers")


def _sizes(text: str) -> list[int]:
    return sorted(set(_tokens(text, "--sizes", int, "integers")))


def _ap_depth(args):
    return "cutoff" if args.ap_depth == "cutoff" else None


def _table_metrics(args) -> list[MetricSpec]:
    """The ``--metric`` specs, or else the six-metric table at ``--cutoff``."""
    names = args.metric or [name.format(k=args.cutoff) for name in TABLE_METRICS]
    return [_parse_metric(args, name) for name in names]


def _matrices(args, campaign, specs: Sequence[MetricSpec], **options):
    """Every spec scored over the campaign at the command's count and AP depths."""
    return evaluate_campaign(
        campaign, specs, rarity_depth=args.rarity_depth, ap_depth=_ap_depth(args), **options
    )


# --- subcommand handlers ------------------------------------------------------


def _cmd_eval(args) -> int:
    campaign = _load(args)
    specs = [_parse_metric(args, m) for m in (args.metric or ["P@{}".format(args.cutoff), "AP"])]
    matrices = _matrices(args, campaign, specs,
                         exclude_zero_relevant_for_p=args.exclude_empty_topics)
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
    specs: list[MetricSpec] = []
    for family in families:
        base_name = f"P@{args.cutoff}" if family == "p" else "AP"
        weighted = [f"{base_name}_rareness(alpha={a},rarity={args.rarity})" for a in alphas]
        names = (base_name, *weighted)
        specs += [MetricSpec.parse(name, default_cutoff=args.cutoff) for name in names]
    matrices = _matrices(args, campaign, specs)
    rows: list[dict] = []
    per_family = 1 + len(alphas)
    for start in range(0, len(matrices), per_family):
        base, *weighted = matrices[start : start + per_family]
        base_ranking = rank_systems(mean_scores(base))
        for alpha, matrix in zip(alphas, weighted):
            tau = kendall_tau(base_ranking, rank_systems(mean_scores(matrix)))
            rows.append({"alpha": alpha, "metric": matrix.metric_descriptor, "tau": tau})
    _emit(args, rows)
    return 0


def _cmd_discpower(args) -> int:
    campaign = _load(args)
    matrices = _matrices(args, campaign, _table_metrics(args))
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
    specs = _table_metrics(args)
    matrices = _matrices(args, campaign, specs)
    rows: list[dict] = []
    for spec, matrix in zip(specs, matrices):
        usable = matrix.scored_topic_indices().size
        sample = args.sample_size if args.sample_size is not None else max(1, usable // 2)
        result = stability(
            campaign,
            spec,
            StabilityConfig(sample_size=sample, trials=args.trials, seed=args.seed),
            direction=args.stability_direction,
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
    rows: list[dict] = []
    for n in _sizes(args.sizes):
        result = subset_experiment(
            campaign,
            spec,
            SubsetExperimentConfig(subset_size=n, trials=args.trials, seed=args.seed),
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
        multi_topic=args.multi_topic,
        rarity_depth=args.rarity_depth,
    )
    rows: list[dict] = []
    for result in results:
        for d, rank in result.ranks:
            rows.append({"alpha": result.alpha, "D": d, "rank": rank})
    _emit(args, rows, d_star={str(r.alpha): r.d_star for r in results})
    if not args.json:
        for result in results:
            print(f"note: alpha={result.alpha:g}: d_star={result.d_star}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    campaign = _load(args)
    topics = [args.topic] if args.topic else list(campaign.judged_topics)
    rows = [
        {"topic": topic, **row._asdict()}  # doc, grade, retrievers, rarity
        for topic in topics
        for row in rarity_report(campaign, topic, args.rarity, count_depth=args.rarity_depth)
    ]
    _emit(args, rows)
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rareval",
        allow_abbrev=False,
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
    common.add_argument("--rarity", choices=["eq2", "revised"], default="eq2")
    common.add_argument("--rarity-depth", type=int, default=None,
                        help="count retrievals only this deep (default: whole run)")
    common.add_argument("--json", action="store_true")

    # Each command gets only the flags below that it reads.
    alpha = argparse.ArgumentParser(add_help=False)
    alpha.add_argument("--alpha", type=float, default=1.0,
                       help="rarity weight for metrics without an explicit alpha")
    ap_depth = argparse.ArgumentParser(add_help=False)
    ap_depth.add_argument("--ap-depth", choices=["cutoff", "full"], default="cutoff")
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    scoring = [inputs, common, alpha, ap_depth]

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, allow_abbrev=False, **kwargs)

    p = add_parser("eval", parents=scoring,
                       help="score every system under the given metrics")
    p.add_argument("--metric", action="append", default=None)
    p.add_argument("--per-topic", action="store_true")
    p.add_argument("--exclude-empty-topics", action="store_true",
                   help="skip zero-relevant topics for the precision family too")
    p.set_defaults(func=_cmd_eval)

    p = add_parser("compare", parents=[inputs, common, ap_depth],
                       help="tau between base and rarity-weighted rankings over alpha")
    p.add_argument("--alphas", default=DEFAULT_ALPHA_GRID)
    p.add_argument("--family", choices=["p", "ap", "both"], default="both")
    p.set_defaults(func=_cmd_compare)

    p = add_parser("discpower", parents=scoring,
                       help="count significantly different system pairs (Tukey HSD)")
    p.add_argument("--metric", action="append", default=None)
    p.set_defaults(func=_cmd_discpower)

    p = add_parser("stability", parents=[*scoring, seed],
                       help="pairwise ordering stability under topic subsampling")
    p.add_argument("--metric", action="append", default=None)
    p.add_argument("--sample-size", type=int, default=None,
                   help="topics per trial (default: half the usable topics)")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--stability-direction", choices=["winner", "fullset"],
                   default="winner")
    p.add_argument("--per-pair", action="store_true")
    p.set_defaults(func=_cmd_stability)

    p = add_parser("subset", parents=[*scoring, seed],
                       help="mean tau of rankings recomputed over sampled system subsets")
    p.add_argument("--metric", action="append", default=None)
    p.add_argument("--sizes", default="2,4,8,16,32,64")
    p.add_argument("--trials", type=int, default=1000)
    p.set_defaults(func=_cmd_subset)

    p = add_parser("synth", parents=[seed],
                       help="generate a synthetic campaign as run/qrels files")
    p.add_argument("--systems", type=int, required=True)
    p.add_argument("--topics", type=int, required=True)
    p.add_argument("--relevant", type=int, required=True,
                   help="relevant documents per topic")
    p.add_argument("--pool", type=int, required=True, help="document pool size")
    p.add_argument("--bias", type=float, default=0.5,
                   help="overlap bias in [0,1]: how much systems share relevant picks")
    p.add_argument("--depth", type=int, required=True, help="documents per run per topic")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_synth)

    p = add_parser("trajectory", parents=[inputs, common],
                       help="midrank trajectory of an inserted hypothetical system")
    p.add_argument("--kind", choices=["rare", "common"], required=True)
    p.add_argument("--topic", required=True)
    p.add_argument("--alphas", default="0,0.5,1")
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--multi-topic", action="store_true")
    p.set_defaults(func=_cmd_trajectory)

    p = add_parser("report", parents=[inputs, common],
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
        for flag in ("cutoff", "rarity_depth", "d_max"):
            if (value := getattr(args, flag, None)) is not None and value < 1:
                raise ConfigError(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
        with warnings.catch_warnings():  # each warning as one line, no source echo
            warnings.showwarning = lambda message, *_: print(
                f"warning: {message}", file=sys.stderr
            )
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RarevalError, OSError, Warning) as exc:  # a Warning is raised under -W error
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    code = dispatch(sys.argv[1:])
    gc.freeze()  # shutdown then skips collecting what the imports built
    raise SystemExit(code)
