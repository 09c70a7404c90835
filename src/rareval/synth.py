"""Synthetic campaigns and hypothetical probe systems.

``generate_campaign`` builds seed-deterministic campaigns whose systems vary
in quality and in how much their relevant retrievals overlap. Each ranking
is drawn position by position: with probability ``skill * overlap_bias`` the
system emits the next document from a per-topic shared order over the
relevant set (concentrating systems on the same relevant documents), and
otherwise the next unused document from its own uniform shuffle of the pool.
At ``overlap_bias = 1`` every system deliberately front-loads the whole
shared order, so all systems retrieve identical relevant sets; at 0 the
draws are uniform, so with a large pool most retrieved relevant documents
are found by a single system. The model is defined slot by slot, but the
generator loops once per shared pick (at most the relevant-set size per
ranking) and takes the private picks between them as runs, from the same
draws.

Two hypothetical probe systems can be inserted into any campaign:

* ``make_rare_system``   -- retrieves fresh documents nobody else has, each
  added to the qrels as relevant (uniquely-found by construction).
* ``make_common_system`` -- retrieves the topic's most commonly-retrieved
  relevant documents first, as ``rarity.relevant_counts`` counts them.

``rank_trajectory`` inserts one of them and tracks its midrank as the number
of retrieved relevant documents grows.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
from dataclasses import dataclass
from numbers import Real
from typing import Literal, Sequence

import numpy as np

from .campaign import _BLOCK_SLOTS, _blocks, _midranks, _SubsetScorer
from .errors import ConfigError, DataError, FormatError
from .metrics import MetricConfig, MetricSpec
from .rarity import check_cells, is_depth, relevant_counts
from .rng import DEFAULT_SEED, check_seed, substream
from .trec_io import Campaign, Qrels, Run, RunColumns, Vocabulary, intern

_STREAM_TOPIC = 11
_STREAM_SKILL = 12
_STREAM_RANKING = 13

HypotheticalKind = Literal["rare", "common"]


@dataclass(frozen=True)
class SynthSpec:
    """Shape and randomness of a generated campaign."""

    n_systems: int
    n_topics: int
    n_relevant_per_topic: int
    doc_pool_size: int
    overlap_bias: float
    run_depth: int
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        counts = ("n_systems", "n_topics", "n_relevant_per_topic", "doc_pool_size", "run_depth")
        for name in counts:
            value = getattr(self, name)
            if not is_depth(value):
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        check_cells(self.doc_pool_size, f"doc_pool_size {self.doc_pool_size}")
        entries = self.n_systems * self.n_topics * self.run_depth
        check_cells(entries, f"n_systems {self.n_systems} x n_topics {self.n_topics} x "
                             f"run_depth {self.run_depth}")
        if self.n_relevant_per_topic > self.doc_pool_size:
            raise ConfigError(
                f"relevant-per-topic {self.n_relevant_per_topic} must lie in "
                f"[1, doc pool size {self.doc_pool_size}]"
            )
        if self.run_depth > self.doc_pool_size:
            raise ConfigError(
                f"run depth {self.run_depth} must lie in "
                f"[1, doc pool size {self.doc_pool_size}]"
            )
        bias = self.overlap_bias
        if isinstance(bias, bool) or not isinstance(bias, Real) or not 0.0 <= bias <= 1.0:
            raise ConfigError(f"overlap_bias must be a number in [0, 1], got {bias!r}")
        check_seed(self.seed)


def _doc_id(j: int) -> str:
    return f"doc{j:05d}"


def _ranked(codes: np.ndarray, vocab: Vocabulary) -> RunColumns:
    """Columns for ``codes`` in the given order: scores n..1, ranks 1..n."""
    n = len(codes)
    return RunColumns(
        codes.astype(np.int32),
        np.arange(n, 0, -1, dtype=np.float64),
        np.arange(1, n + 1, dtype=np.int64),
        vocab,
    )


def _picks(take_shared: np.ndarray, private: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Pool indices of one ranking. A ``take_shared`` slot takes the next doc of
    ``shared`` not yet taken, while that order lasts; any other slot takes the
    next doc of ``private`` not yet taken. Python walks the shared picks only:
    after ``m`` private picks, each position of ``private`` below the pointer
    ``m + below`` is a private pick or one of the ``below`` positions a shared
    pick blocked, so a shared doc whose position lies below it was taken.
    """
    pos = np.empty_like(private)
    pos[private] = np.arange(len(private))
    shared_pos = pos[shared].tolist()
    before: list[int] = []  # private picks made before each shared pick
    taken: list[int] = []  # private positions of the shared picks, in slot order
    blocked: list[int] = []  # the same, ascending
    at = below = 0
    for i, slot in enumerate(np.flatnonzero(take_shared).tolist()):
        m = slot - i
        while below < len(blocked) and blocked[below] <= m + below:
            below += 1
        while at < len(shared_pos) and shared_pos[at] < m + below:  # taken privately
            at += 1
        if at == len(shared_pos):
            break  # the shared order is exhausted: this slot and the rest are private
        before.append(m)
        taken.append(shared_pos[at])
        bisect.insort(blocked, shared_pos[at])
        at += 1
    return np.insert(np.delete(private, taken), before, private[taken])[: len(take_shared)]


def generate_campaign(spec: SynthSpec) -> Campaign:
    """A deterministic campaign drawn from the spec's generative model."""
    skills = substream(spec.seed, _STREAM_SKILL).uniform(0.15, 0.95, spec.n_systems)
    topic_ids = [f"t{t:03d}" for t in range(spec.n_topics)]
    pool = Vocabulary([_doc_id(j) for j in range(spec.doc_pool_size)])  # shared by every run

    shared_orders: dict[str, np.ndarray] = {}
    judgments: dict[str, dict[str, int]] = {}
    for t, topic in enumerate(topic_ids):
        rng = substream(spec.seed, _STREAM_TOPIC, t)
        rel = rng.choice(spec.doc_pool_size, size=spec.n_relevant_per_topic, replace=False)
        shared_orders[topic] = rng.permutation(rel)
        judgments[topic] = dict.fromkeys(map(pool.ids.__getitem__, rel.tolist()), 1)

    runs: list[Run] = []
    for s in range(spec.n_systems):
        theta = 1.0 if spec.overlap_bias == 1.0 else skills[s] * spec.overlap_bias
        columns: dict[str, RunColumns] = {}
        for t, topic in enumerate(topic_ids):
            rng = substream(spec.seed, _STREAM_RANKING, s, t)
            take_shared = rng.random(spec.run_depth) < theta
            private = rng.permutation(spec.doc_pool_size)
            picked = _picks(take_shared, private, shared_orders[topic])
            columns[topic] = _ranked(picked, pool)
        runs.append(Run(f"sys{s:03d}", columns))
    return Campaign(runs, Qrels(judgments, relevance_threshold=1))


def _fresh_doc_ids(campaign: Campaign, tag: str, count: int) -> list[str]:
    """The first ``count`` of ``<tag>-0000``, ``<tag>-0001``, ... that neither
    the campaign's code space nor its qrels hold."""
    code_of, judged = campaign.vocab.code_of, campaign.qrels.judgments.values()
    ids = (f"{tag}-{i:04d}" for i in itertools.count())
    fresh = (doc for doc in ids if doc not in code_of and not any(doc in j for j in judged))
    return list(itertools.islice(fresh, count))


def _build_run(tag: str, topic: str, docs: Sequence[str]) -> Run:
    vocab, (codes,) = intern([docs])
    return Run(tag, {topic: _ranked(codes, vocab)})


def make_rare_system(
    campaign: Campaign, topic: str, d: int, *, tag: str = "hyp-rare"
) -> tuple[Run, Qrels]:
    """A run of ``d`` fresh relevant documents no other system retrieves.

    The fresh doc-ids are namespaced under ``tag`` and also returned inside
    an augmented qrels (judged relevant at the campaign's threshold).
    """
    if d < 1:
        raise DataError(f"the probe system needs at least 1 document, got {d}")
    check_cells(d, f"d {d} fresh documents")
    fresh = _fresh_doc_ids(campaign, tag, d)
    return _build_run(tag, topic, fresh), campaign.qrels.with_added(topic, fresh)


def make_common_system(
    campaign: Campaign,
    topic: str,
    d: int,
    *,
    count_depth: int | None = None,
    tag: str = "hyp-common",
) -> Run:
    """A run of the ``d`` most commonly-retrieved relevant documents.

    Documents are ordered by how many systems retrieve them within
    ``count_depth`` (descending), ties broken by ascending doc-id.
    """
    if d < 1:
        raise DataError(f"the probe system needs at least 1 document, got {d}")
    counts = relevant_counts(campaign, topic, count_depth)
    available = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    if d > len(available):
        raise DataError(
            f"only {len(available)} relevant retrieved documents exist for "
            f"topic {topic!r}; cannot take {d}"
        )
    return _build_run(tag, topic, [doc for doc, _ in available[:d]])


@dataclass
class TrajectoryResult:
    """Midrank of one probe system as its relevant-doc count D grows."""

    alpha: float
    ranks: list[tuple[int, float]]
    d_star: int | None


def rank_trajectory(
    campaign: Campaign,
    kind: HypotheticalKind,
    topic: str,
    alphas: Sequence[float],
    d_max: int,
    config: MetricConfig | None = None,
    *,
    multi_topic: bool = False,
    rarity_depth: int | None = None,
) -> list[TrajectoryResult]:
    """Track the probe system's midrank for each alpha and each D in 1..d_max.

    The probe participates fully: it is added to the campaign, so it counts
    toward the system total and its retrievals enter the rarity counts. By
    default only the chosen topic is evaluated; ``multi_topic=True`` ranks
    on the mean over all judged topics instead (the probe still submits only
    the one topic). ``d_star`` is the least D reaching midrank 1.0, if any.

    The probe is built once, at ``d_max``, and probe D is its first D
    documents: step D scores the base systems plus probe D's row with one
    subset scorer shared by every alpha, over the same S+1 systems a rebuilt
    campaign would have, an alpha's steps in one block of row sets. The probe
    is named ``hyp-<kind>``.
    """
    if kind not in ("rare", "common"):
        raise ConfigError(f"unknown probe kind {kind!r} (expected 'rare' or 'common')")
    if d_max < 1:
        raise DataError(f"d_max must be >= 1, got {d_max}")
    systems = campaign.n_systems + 1  # with the probe
    check_cells(d_max * systems, f"d_max {d_max} x {systems} systems with the probe")
    if topic not in campaign.qrels.judgments:
        raise DataError(f"topic {topic!r} is not judged in the qrels")
    if config is None:
        config = MetricConfig()
    tag = f"hyp-{kind}"

    kind_key = "p_mixture" if config.formulation == "mixture" else "p_rareness"
    specs = [MetricSpec(kind_key, dataclasses.replace(config, alpha=float(a))) for a in alphas]
    if not specs:
        return []
    base = campaign if multi_topic else campaign.restricted_to_topics([topic])
    if tag in base.system_ids:
        raise FormatError(f"duplicate system id {tag!r}")
    if kind == "rare":
        probe, qrels = make_rare_system(base, topic, d_max, tag=tag)
    else:
        probe = make_common_system(base, topic, d_max, count_depth=rarity_depth, tag=tag)
        qrels = base.qrels
    columns = probe.columns[topic]
    probes = [
        Run(f"{tag} D={d}", {topic: _ranked(columns.codes[:d], columns.vocab)})
        for d in range(1, d_max + 1)
    ]
    stacked = Campaign(base.runs + probes, qrels)
    row = {system: i for i, system in enumerate(stacked.system_ids)}
    base_rows = [row[system] for system in base.system_ids]
    steps = np.array([base_rows + [row[run.system_id]] for run in probes])  # probe D last
    scorer = _SubsetScorer(stacked, specs[0], rarity_depth=rarity_depth, ap_depth="cutoff")
    blocks = list(_blocks(d_max, steps.shape[1] * scorer.width, _BLOCK_SLOTS))
    results = []
    for spec in specs:
        means = np.concatenate([scorer.subset_means(steps[block], spec) for block in blocks])
        if np.isnan(means).any():  # a step with an undefined rarity raises alone
            scorer.subset_means(steps[np.isnan(means).any(axis=1).argmax()], spec)
        ranks = [(d, float(_midranks(-m)[-1])) for d, m in enumerate(means, 1)]
        d_star = next((d for d, r in ranks if r == 1.0), None)
        results.append(TrajectoryResult(spec.config.alpha, ranks, d_star))
    return results
