"""Seeded generator of TREC-shaped campaigns for the benchmark.

The benchmark owns its inputs: this module uses only numpy and the standard
library, never ``rareval.synth``, so a change to the program's generator
cannot change what the benchmark measures. The files look like real TREC
files rather than like the program's own output:

* run lines are shuffled, so no file is in canonical evaluation order;
* scores have two decimals, so ties are common and the doc-id tie-break
  does real work; the rank column orders tied documents differently;
* qrels are graded 0/1/2, judge a sample of non-relevant documents, and
  leave most retrieved documents unjudged;
* one topic is judged but has no relevant document (the AP skip path);
* doc-ids look like ``WSJ880406-0123`` and run tags like ``uogTr07b``.

Each system retrieves the top ``depth`` pool documents by a latent score:
a part every system shares (weight ``bias``, so systems overlap), a private
part, and a skill-scaled boost on relevant documents.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

_PREFIXES = ("AP", "WSJ", "FT", "LA", "FBIS")
_TAG_STEMS = ("uogTr", "CLARIT", "INQ", "pircRB", "Brkly", "ETHme", "fub", "att")
_COLLECTION = 2_000_000  # doc numbers a topic's pool is drawn from
_RELEVANCE_BOOST = 2.5
_GRADE2_SHARE = 0.3


@dataclass(frozen=True)
class CampaignShape:
    """Size and overlap of a generated campaign."""

    systems: int
    topics: int
    depth: int
    relevant: int  # relevant docs per topic, except the zero-relevant one
    pool: int  # candidate docs per topic
    bias: float  # share of the latent score all systems have in common
    first_topic: int = 401

    def __post_init__(self) -> None:
        if self.systems < 2 or self.topics < 2:
            raise ValueError("need at least 2 systems and 2 topics")
        if self.relevant < 1 or 2 * self.relevant > self.pool or self.depth > self.pool:
            raise ValueError("relevant and judged docs, and the run depth, must fit the pool")
        if not 0.0 <= self.bias <= 1.0:
            raise ValueError("bias must be in [0, 1]")


@dataclass
class _Topic:
    pool_ids: list[str]
    doc_order: np.ndarray  # position of each pool doc in ascending doc-id order
    n_relevant: int  # pool docs [0, n_relevant) are the relevant ones
    picked: np.ndarray  # systems x depth pool indices
    cents: np.ndarray  # systems x depth scores in hundredths
    file_rank: np.ndarray  # systems x depth rank column


@dataclass
class Campaign:
    """A generated campaign and the facts the output checks need."""

    shape: CampaignShape
    seed: int
    tags: list[str]
    topic_ids: list[str]
    zero_topic: str
    qrels: dict[str, dict[str, int]]  # topic -> doc -> grade
    _topics: dict[str, _Topic]

    def params(self) -> dict:
        """The generator's parameters and seed, and the size of what it wrote."""
        return {"seed": self.seed, **asdict(self.shape), "zero_topic": self.zero_topic,
                "run_lines": self.shape.systems * self.shape.topics * self.shape.depth,
                "qrels_lines": sum(len(g) for g in self.qrels.values())}

    def relevant(self, topic: str) -> set[str]:
        """Docs graded 1 or more."""
        return {d for d, g in self.qrels[topic].items() if g >= 1}

    def canonical(self, topic: str) -> dict[str, list[str]]:
        """Each system's doc-ids in evaluation order: score desc, doc-id desc."""
        top = self._topics[topic]
        out = {}
        for s, tag in enumerate(self.tags):
            picked = top.picked[s]
            order = np.lexsort((-top.doc_order[picked], -top.cents[s]))
            out[tag] = [top.pool_ids[int(j)] for j in picked[order]]
        return out

    def retrieved_relevant(self, topic: str) -> int:
        """Relevant docs that at least one system retrieves for ``topic``."""
        top = self._topics[topic]
        return int(np.unique(top.picked[top.picked < top.n_relevant]).size)


def _doc_id(n: int) -> str:
    prefix = _PREFIXES[n % len(_PREFIXES)]
    day, seq = divmod(n // len(_PREFIXES), 1000)
    yy, rest = 87 + day // 336, day % 336
    return f"{prefix}{yy:02d}{1 + rest // 28:02d}{1 + rest % 28:02d}-{seq:04d}"


def generate(shape: CampaignShape, seed: int) -> Campaign:
    """The campaign for ``(shape, seed)``; the same arguments give the same campaign."""
    rng = np.random.default_rng((seed, 0))
    skills = rng.uniform(0.15, 0.95, shape.systems)
    tags = [
        f"{_TAG_STEMS[s % len(_TAG_STEMS)]}{s:02d}{'abc'[s % 3]}" for s in range(shape.systems)
    ]
    topic_ids = [str(shape.first_topic + t) for t in range(shape.topics)]
    zero_topic = topic_ids[int(rng.integers(shape.topics))]
    shared_w, private_w = math.sqrt(shape.bias), math.sqrt(1.0 - shape.bias)

    qrels: dict[str, dict[str, int]] = {}
    topics: dict[str, _Topic] = {}
    for t, topic in enumerate(topic_ids):
        trng = np.random.default_rng((seed, 1, t))
        pool_ids = [_doc_id(int(n)) for n in trng.choice(_COLLECTION, shape.pool, replace=False)]
        n_rel = 0 if topic == zero_topic else shape.relevant
        grade2 = trng.random(n_rel) < _GRADE2_SHARE
        grades = {pool_ids[j]: 1 + int(grade2[j]) for j in range(n_rel)}
        # Judge as many non-relevant pool docs; every other doc stays unjudged.
        for j in trng.choice(np.arange(n_rel, shape.pool), shape.relevant, replace=False):
            grades[pool_ids[int(j)]] = 0
        qrels[topic] = grades

        is_rel = np.zeros(shape.pool)
        is_rel[:n_rel] = 1.0
        latent = (
            shared_w * trng.standard_normal(shape.pool)[None, :]
            + private_w * trng.standard_normal((shape.systems, shape.pool))
            + _RELEVANCE_BOOST * skills[:, None] * is_rel[None, :]
        )
        picked = np.argpartition(-latent, shape.depth - 1, axis=1)[:, : shape.depth]
        values = np.take_along_axis(latent, picked, axis=1)
        cents = np.maximum(np.round(1000.0 + 250.0 * values), 1).astype(np.int64)
        # The rank column breaks score ties by the latent value, not by doc-id.
        file_order = np.lexsort((-values, -cents), axis=1)
        file_rank = np.empty_like(file_order)
        np.put_along_axis(file_rank, file_order, np.arange(1, shape.depth + 1)[None, :], axis=1)
        doc_order = np.empty(shape.pool, dtype=np.int64)
        doc_order[np.argsort(np.array(pool_ids))] = np.arange(shape.pool)
        topics[topic] = _Topic(pool_ids, doc_order, n_rel, picked, cents, file_rank)
    return Campaign(shape, seed, tags, topic_ids, zero_topic, qrels, topics)


def write(campaign: Campaign, out: Path) -> tuple[Path, Path]:
    """Write ``out/runs/input.<tag>`` files and ``out/qrels.txt``; return both paths."""
    runs_dir = out / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    for s, tag in enumerate(campaign.tags):
        lines = []
        for topic in campaign.topic_ids:
            top = campaign._topics[topic]
            ids = top.pool_ids
            for j, c, r in zip(top.picked[s].tolist(), top.cents[s].tolist(), top.file_rank[s].tolist()):
                lines.append(f"{topic} Q0 {ids[j]} {r} {c // 100}.{c % 100:02d} {tag}\n")
        perm = np.random.default_rng((campaign.seed, 2, s)).permutation(len(lines))
        (runs_dir / f"input.{tag}").write_text("".join([lines[i] for i in perm]), encoding="utf-8")
    qrels_lines = [
        f"{topic} 0 {doc} {grade}\n"
        for topic in campaign.topic_ids
        for doc, grade in campaign.qrels[topic].items()
    ]
    perm = np.random.default_rng((campaign.seed, 3)).permutation(len(qrels_lines))
    qrels_lines = [qrels_lines[i] for i in perm]
    qrels_path = out / "qrels.txt"
    qrels_path.write_text("".join(qrels_lines), encoding="utf-8")
    return runs_dir, qrels_path
