"""Campaign-wide evaluation: score matrices, per-system means, and rankings.

Every system is scored on every judged topic. A system that submitted nothing
for a topic scores 0 there, which keeps matrices rectangular and evaluates
incomplete runs strictly. Topics without relevant documents are excluded from
AP-family aggregation (the skip set is carried on the matrix); the
precision family scores them unless the same exclusion is requested.

One scorer, ``_SubsetScorer``, scores rows of a campaign's hit tables with the
one metric formula, ``metrics.score_hits``, which sums gains in rank order.
Rarity counts are column sums of its incidence grid over the scored rows.
It reads rankings as the runs' own codes into the campaign's one code
space, ``Campaign.vocab``: a topic's hits are a lookup in a mask of
``rarity.relevant_codes``, and its grid is ``rarity.retrieval_grid`` of each
row's codes over the topic's hit docs, with no per-document Python loop.
``evaluate_campaign`` scores all its specs and rows with one, built at the
deepest spec's depth; the subset experiment (``stats``) and the probe
trajectory (``synth``) score blocks of row subsets. All agree bit for bit,
and none builds a rarity index.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Literal, Mapping, Sequence

from . import _numpy as np
from .errors import DataError, UndefinedRarityError
from .metrics import MetricSpec, hit_table, metric_bound, score_hits
from .rarity import check_count_depth, rarity_of_counts, relevant_codes, retrieval_grid
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


class _SubsetScorer:
    """The one loop that scores a campaign: rows of its systems, one hit table
    per judged topic at ``spec``'s scoring depth, rows in ``system_ids`` order.

    Rankings are the runs' codes into ``campaign.vocab``, read as they are,
    so hit tables and count grids come from numpy indexing, not from doc-id
    strings; a code becomes a doc-id (``ids``) only to name an uncounted hit.
    """

    def __init__(self, campaign: Campaign, spec: MetricSpec, *, rarity_depth, ap_depth):
        check_count_depth(rarity_depth)
        if not campaign.judged_topics:
            raise DataError("campaign has no judged topics")
        self.spec, self.rarity_depth, self.ap_depth = spec, rarity_depth, ap_depth
        runs = sorted(campaign.runs, key=lambda run: run.system_id)
        self.topics = campaign.judged_topics
        self.n_rel = [campaign.qrels.n_relevant(t) for t in self.topics]
        self.bound = metric_bound(spec, ap_depth)
        self.ids, no_docs = campaign.vocab.ids, np.zeros(0, np.int32)
        self.codes = [  # per topic, each row's ranking as codes into ``campaign.vocab``
            [no_docs if (c := run.columns.get(t)) is None else c.codes for run in runs]
            for t in self.topics
        ]
        is_relevant = np.zeros(len(self.ids), dtype=bool)
        self.tables = []
        for topic, codes in zip(self.topics, self.codes):
            relevant = relevant_codes(campaign, topic)
            is_relevant[relevant] = True
            self.tables.append(hit_table(codes, is_relevant, self.bound))
            is_relevant[relevant] = False
        # The AP family averages over the topics with relevant documents only.
        self.kept = [i for i, n in enumerate(self.n_rel) if n or not spec.is_ap_family]
        self.width = max(table.ranks.shape[1] for table in self.tables)

    @cached_property
    def incidence(self) -> list[np.ndarray]:
        """Per topic, a systems x hit-docs grid of retrievals within the rarity
        depth: the retrieval counts of some rows are its column sums over them."""
        return [retrieval_grid(codes, table.codes, len(self.ids), self.rarity_depth)
                for codes, table in zip(self.codes, self.tables)]

    def scores(self, rows: np.ndarray, spec: MetricSpec) -> np.ndarray:
        """The ``rows`` x judged-topics scores of ``spec`` (no deeper than the
        constructor's; deeper hits become padding, trailing 0.0 gains as hits
        are in rank order), with rarity counted over just ``rows``.

        ``rows`` may be a block of row sets (sets x rows, scored into sets x
        rows x topics). A hit none of its set's rows retrieved within the count
        depth raises ``UndefinedRarityError``, or in a block scores NaN.
        """
        rows = np.asarray(rows)
        block = np.atleast_2d(rows)
        n_sets, n_rows = block.shape
        bound = metric_bound(spec, self.ap_depth)
        values = np.zeros((n_sets, n_rows, len(self.topics)))
        for ti, (topic, table) in enumerate(zip(self.topics, self.tables)):
            ranks, hit, any_hit = table.ranks, table.hit, bool(table.codes.size)
            if bound != self.bound:
                hit = hit & (ranks <= bound)
                ranks, any_hit = np.where(hit, ranks, np.inf), hit.any()
            if not any_hit:
                continue  # nothing hit within the spec's depth scores exactly 0
            columns, ranks, hit = table.columns[block], ranks[block], hit[block]
            width = ranks.shape[-1]
            rarity = None
            if spec.needs_rarity:
                counts = self.incidence[ti][block].sum(axis=1)  # sets x hit docs
                if rows.ndim == 1:
                    hits = columns[hit]
                    uncounted = hits[counts[0, hits] < 1]
                    if uncounted.size:
                        raise UndefinedRarityError(
                            f"no scored system retrieved {self.ids[table.codes[uncounted[0]]]!r}"
                            f" for topic {topic!r} within count depth {self.rarity_depth}"
                        )
                by_doc = rarity_of_counts(counts, n_rows, spec.config.rarity_variant)
                if rows.ndim > 1:  # each set's own docs, NaN where none of its rows counts one
                    by_doc[counts < 1] = np.nan
                    columns = columns + (np.arange(n_sets) * counts.shape[1])[:, None, None]
                rarity = by_doc.ravel()[columns.reshape(-1, width)]
            values[..., ti] = score_hits(
                spec, ranks.reshape(-1, width), hit.reshape(-1, width), rarity, self.n_rel[ti]
            ).reshape(n_sets, n_rows)
        return values if rows.ndim > 1 else values[0]

    def subset_means(self, rows: np.ndarray, spec: MetricSpec | None = None) -> np.ndarray:
        """Per-system mean scores when only ``rows`` participate: one row set,
        or a block of them (sets x rows) as ``scores`` takes.

        ``spec`` defaults to the constructor's; another must be no deeper and
        in the same family, since ``kept`` was chosen for the constructor's.
        """
        spec = self.spec if spec is None else spec
        if not self.kept:
            raise DataError(f"every topic is skipped for {spec.descriptor}; nothing to average")
        return topic_means(self.scores(rows, spec)[..., self.kept])


# Row-slots (rows x hit-table width) of one scorer call on a block of row
# sets: bounds its temporaries at a few MB whatever the block's size.
_BLOCK_SLOTS = 1 << 15


def _blocks(count: int, cells_each: int, budget: int):
    """Slices of ``count`` items in order, each of at most ``budget`` cells
    at ``cells_each`` cells an item, and of one item at least."""
    step = max(1, budget // max(cells_each, 1))
    return (slice(start, start + step) for start in range(0, count, step))


def evaluate_campaign(
    campaign: Campaign,
    specs: Sequence[MetricSpec],
    *,
    rarity_depth: int | None = None,
    ap_depth: int | None | Literal["cutoff"] = "cutoff",
    exclude_zero_relevant_for_p: bool = False,
) -> list[ScoreMatrix]:
    """Score every system on every judged topic for each metric spec, in one pass.

    One scorer at the deepest spec's depth serves every spec, with one hit table
    and one count grid per topic. Rarity counts over all rows: no index is built.
    """
    if not specs:
        return []
    deepest = max(specs, key=lambda spec: metric_bound(spec, ap_depth) or np.inf)
    scorer = _SubsetScorer(campaign, deepest, rarity_depth=rarity_depth, ap_depth=ap_depth)
    rows, topics = np.arange(campaign.n_systems), scorer.topics
    matrices: list[ScoreMatrix] = []
    for spec in specs:
        skip_empty = spec.is_ap_family or exclude_zero_relevant_for_p
        skipped = frozenset(t for t, n in zip(topics, scorer.n_rel) if skip_empty and n == 0)
        values = scorer.scores(rows, spec)
        matrices.append(ScoreMatrix(spec.descriptor, campaign.system_ids, topics, values, skipped))
    return matrices


def topic_means(values: np.ndarray) -> np.ndarray:
    """Means over the last axis (topics) of scores, adding the topics in order.

    Laid out topic-major, numpy sums topic by topic (a lone row pairwise); the
    subset scorer averages here too, so its means equal ``mean_scores``.
    """
    return np.ascontiguousarray(np.moveaxis(values, -1, 0)).mean(axis=0)


def mean_scores(matrix: ScoreMatrix) -> dict[str, float]:
    """Per-system arithmetic mean over the matrix's non-skipped topics."""
    cols = matrix.scored_topic_indices()
    if cols.size == 0:
        raise DataError(
            f"every topic is skipped for {matrix.metric_descriptor}; nothing to average"
        )
    means = topic_means(matrix.values[:, cols])
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
