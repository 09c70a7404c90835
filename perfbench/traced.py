"""Run one rareval command in this process with spans around each layer.

Usage::

    python -X importtime perfbench/traced.py SPANS.json -- <rareval arguments>

The benchmark starts one of these per command it replays, with ``src`` on
``PYTHONPATH``, so each command gets a fresh interpreter, fresh caches and
its own memory high-water mark, as the untraced ``python -m rareval`` does.
It wraps the layers' public functions wherever a module has bound them
(``stats.evaluate_campaign`` and ``synth.extend_index`` too, so nested calls
become child spans), runs ``rareval.cli.dispatch``, keeps the spans in
memory and writes them to ``SPANS.json`` at exit. The command's stdout and
exit code pass through unchanged.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # CLOCK_MONOTONIC: comparable with the parent's clock

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Spans kept in memory: name, start, end, CPU time, RSS high-water mark, parent."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is not None and self.spans[parent]["name"] == name:
                return fn(*args, **kwargs)  # a span already covers this call
            span = {"name": name, "parent": parent, "counts": {},
                    "rss0": _maxrss_mb(), "cpu0": time.process_time(),
                    "start": time.perf_counter()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["cpu1"] = time.process_time()
                span["rss1"] = _maxrss_mb()
                self._stack.pop()
            if count is not None:
                span["counts"] = count(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced


def _parse_counts(campaign, *args, **kwargs):
    lines = sum(len(entries) for run in campaign.runs for entries in run.rankings.values())
    lines += sum(len(by_doc) for by_doc in campaign.qrels.judgments.values())
    return {"lines": lines}


def _write_counts(result, obj, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def _index_counts(index, *args, **kwargs):
    return {"postings": sum(len(by_doc) for by_doc in index.counts.values())}


def _evaluate_counts(matrices, *args, **kwargs):
    return {"cells": sum(int(m.values.size) for m in matrices)}


def _stability_counts(result, *args, **kwargs):
    return {"trials": result.trials}


def _subset_counts(result, *args, **kwargs):
    return {"trials": result.trials, "resamples": result.resamples}


def _generate_counts(campaign, *args, **kwargs):
    return {"entries": sum(len(e) for run in campaign.runs for e in run.rankings.values())}


def _trajectory_counts(results, *args, **kwargs):
    return {"steps": sum(len(r.ranks) for r in results)}


# (module, function, span name, counter)
TRACED = (
    ("trec_io", "load_campaign", "trec_io.parse", _parse_counts),
    ("trec_io", "write_run_file", "trec_io.write", _write_counts),
    ("trec_io", "write_qrels_file", "trec_io.write", _write_counts),
    ("rarity", "build_rarity_index", "rarity.index", _index_counts),
    ("rarity", "extend_index", "rarity.extend", None),
    ("campaign", "evaluate_campaign", "campaign.evaluate", _evaluate_counts),
    ("campaign", "mean_scores", "campaign.rank", None),
    ("campaign", "rank_systems", "campaign.rank", None),
    ("stats", "kendall_tau", "stats.tau", None),
    # subset_experiment calls scipy's tau directly, under this private alias
    ("stats", "_scipy_kendalltau", "stats.tau", None),
    ("stats", "discriminative_power", "stats.hsd", None),
    ("stats", "stability", "stats.stability", _stability_counts),
    ("stats", "subset_experiment", "stats.subset", _subset_counts),
    ("synth", "generate_campaign", "synth.generate", _generate_counts),
    ("synth", "rank_trajectory", "synth.trajectory", _trajectory_counts),
)


def install(tracer: Tracer, package) -> None:
    """Replace every binding of each traced function in the package's modules."""
    modules = [m for name, m in sys.modules.items()
               if name.startswith(package.__name__ + ".") and m is not None]
    for module_name, func_name, span_name, count in TRACED:
        original = getattr(sys.modules[f"{package.__name__}.{module_name}"], func_name)
        wrapper = tracer.wrap(span_name, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out_path, command = argv[0], argv[2:]
    import rareval
    import rareval.cli

    tracer = Tracer()
    install(tracer, rareval)
    quantile = rareval.stats.studentized_range_quantile
    dispatch = tracer.wrap("cli.dispatch", rareval.cli.dispatch)
    code = dispatch(command)
    sys.stdout.flush()
    info = quantile.cache_info()
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"exit_code": code, "started": STARTED,
                   "spans": tracer.spans, "quantile_hits": info.hits,
                   "quantile_misses": info.misses, "finished": time.perf_counter()}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
