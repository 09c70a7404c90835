"""Campaign-wide evaluation: score matrices, per-system means, and rankings.

Every system is scored on every judged topic. A system that submitted nothing
for a topic scores 0 there, which keeps matrices rectangular and evaluates
incomplete runs strictly. Topics without relevant documents are excluded from
AP-family aggregation (the skip set is carried on the matrix); the
precision family scores them unless the same exclusion is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Sequence

import numpy as np

from .errors import DataError
from .metrics import MetricSpec, compute_metric
from .rarity import RarityIndex, build_rarity_index
from .trec_io import Campaign


@dataclass
class ScoreMatrix:
    """system x topic scores for one fully-parameterized metric."""

    metric_descriptor: str
    systems: tuple[str, ...]
    topics: tuple[str, ...]
    values: np.ndarray
    skipped_topics: frozenset[str]

    def __post_init__(self) -> None:
        if self.values.shape != (len(self.systems), len(self.topics)):
            raise DataError("score matrix shape does not match its id lists")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0):
            raise DataError("score matrix values must be finite and non-negative")

    def scored_topic_indices(self) -> np.ndarray:
        return np.array(
            [i for i, t in enumerate(self.topics) if t not in self.skipped_topics],
            dtype=int,
        )


@dataclass(frozen=True)
class RankEntry:
    system_id: str
    mean_score: float
    rank: float


@dataclass
class SystemRanking:
    """Systems ordered best-first; tied means share a midrank."""

    entries: list[RankEntry]

    @property
    def system_ids(self) -> frozenset[str]:
        return frozenset(e.system_id for e in self.entries)

    def ranks_by_system(self) -> dict[str, float]:
        return {e.system_id: e.rank for e in self.entries}

    def means_by_system(self) -> dict[str, float]:
        return {e.system_id: e.mean_score for e in self.entries}

    def rank_of(self, system_id: str) -> float:
        for entry in self.entries:
            if entry.system_id == system_id:
                return entry.rank
        raise DataError(f"no system {system_id!r} in this ranking")


def evaluate_campaign(
    campaign: Campaign,
    specs: Sequence[MetricSpec],
    *,
    rarity_depth: int | None = None,
    ap_depth: int | None | Literal["cutoff"] = "cutoff",
    exclude_zero_relevant_for_p: bool = False,
    index: RarityIndex | None = None,
    n_relevant_override: Mapping[str, int] | None = None,
) -> list[ScoreMatrix]:
    """Score every system on every judged topic for each metric spec.

    The rarity index is built once and shared across all specs (rarity does
    not depend on alpha); pass ``index`` to reuse a prebuilt one.
    ``n_relevant_override`` substitutes AP-family denominators per topic
    (sensitivity analyses that freeze them while qrels grow).
    """
    topics = campaign.judged_topics
    if not topics:
        raise DataError("campaign has no judged topics")
    if index is None and any(s.needs_rarity for s in specs):
        index = build_rarity_index(campaign, rarity_depth)
    systems = campaign.system_ids
    runs = {r.system_id: r for r in campaign.runs}
    relevant = {t: campaign.qrels.relevant(t) for t in topics}
    n_rel = {t: len(relevant[t]) for t in topics}
    if n_relevant_override is not None:
        n_rel.update(n_relevant_override)

    matrices: list[ScoreMatrix] = []
    for spec in specs:
        if spec.is_ap_family or exclude_zero_relevant_for_p:
            skipped = frozenset(t for t in topics if n_rel[t] == 0)
        else:
            skipped = frozenset()
        values = np.zeros((len(systems), len(topics)))
        for si, system in enumerate(systems):
            run = runs[system]
            for ti, topic in enumerate(topics):
                if topic in skipped:
                    continue
                values[si, ti] = compute_metric(
                    spec,
                    run.docs(topic),
                    relevant[topic],
                    index,
                    topic,
                    n_rel[topic],
                    ap_depth,
                )
        matrices.append(
            ScoreMatrix(spec.descriptor, systems, topics, values, skipped)
        )
    return matrices


def mean_scores(matrix: ScoreMatrix) -> dict[str, float]:
    """Per-system arithmetic mean over the matrix's non-skipped topics."""
    cols = matrix.scored_topic_indices()
    if cols.size == 0:
        raise DataError(
            f"every topic is skipped for {matrix.metric_descriptor}; nothing to average"
        )
    means = matrix.values[:, cols].mean(axis=1)
    return {system: float(means[i]) for i, system in enumerate(matrix.systems)}


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ascending ranks; tied values share the mean of their positions."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    new_value = np.empty(ordered.size, dtype=bool)
    new_value[:1] = True
    new_value[1:] = ordered[1:] != ordered[:-1]
    starts = np.flatnonzero(new_value)
    ends = np.append(starts[1:], ordered.size)
    ranks = np.empty(ordered.size)
    ranks[order] = np.repeat(0.5 * (starts + 1 + ends), ends - starts)
    return ranks


def rank_systems(means: Mapping[str, float]) -> SystemRanking:
    """Rank best-first by mean score; ties get the average of their positions."""
    if not means:
        raise DataError("cannot rank an empty system set")
    ordered = sorted(means.items(), key=lambda kv: (-kv[1], kv[0]))
    scores = np.array([m for _, m in ordered])
    ranks = _midranks(-scores)
    return SystemRanking(
        [
            RankEntry(system, float(score), float(rank))
            for (system, score), rank in zip(ordered, ranks)
        ]
    )
