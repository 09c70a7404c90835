"""Parsing, validation, and serialization of TREC-format run and qrels files.

Run files carry six whitespace-separated fields per line
(``topic Q0 docid rank score runtag``); qrels carry four
(``topic 0 docid grade``). Parsed structures are treated as immutable:
every ranking is stored in canonical evaluation order, which by default is
descending score with ties broken by descending lexicographic doc-id (the
rank column is ignored unless ``order="rank-field"`` is requested).
"""

from __future__ import annotations

import io
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal, Sequence

from .errors import ConfigError, DataError, FormatError, ParseError

DedupPolicy = Literal["reject", "first"]
OrderPolicy = Literal["score", "rank-field"]

@dataclass(frozen=True)
class RunEntry:
    """One retrieved document: id, retrieval score, and the file's rank column."""

    doc: str
    score: float
    rank_field: int


@dataclass
class Run:
    """One system's ranked document lists, keyed by topic.

    ``rankings`` values are tuples in canonical evaluation order.
    """

    system_id: str
    rankings: dict[str, tuple[RunEntry, ...]]
    _docs: dict[str, tuple[str, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @property
    def topics(self) -> tuple[str, ...]:
        return tuple(sorted(self.rankings))

    def docs(self, topic: str) -> tuple[str, ...]:
        """Doc-ids for ``topic`` in canonical order (empty if absent)."""
        cached = self._docs.get(topic)
        if cached is None:
            cached = tuple(e.doc for e in self.rankings.get(topic, ()))
            self._docs[topic] = cached
        return cached


@dataclass
class Qrels:
    """Per-topic relevance judgments at their original integer grades.

    The binary view is derived lazily: a document is relevant when its grade
    is at least ``relevance_threshold``. Unjudged documents are non-relevant.
    """

    judgments: dict[str, dict[str, int]]
    relevance_threshold: int = 1
    _relevant: dict[str, frozenset[str]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.relevance_threshold < 1:
            raise ConfigError(
                f"relevance threshold must be >= 1, got {self.relevance_threshold}"
            )

    @property
    def topics(self) -> tuple[str, ...]:
        return tuple(sorted(self.judgments))

    def grade(self, topic: str, doc: str) -> int:
        return self.judgments.get(topic, {}).get(doc, 0)

    def relevant(self, topic: str) -> frozenset[str]:
        """The set of documents judged at or above the relevance threshold."""
        cached = self._relevant.get(topic)
        if cached is None:
            by_doc = self.judgments.get(topic, {})
            cached = frozenset(
                d for d, g in by_doc.items() if g >= self.relevance_threshold
            )
            self._relevant[topic] = cached
        return cached

    def n_relevant(self, topic: str) -> int:
        return len(self.relevant(topic))

    def is_relevant(self, topic: str, doc: str) -> bool:
        return doc in self.relevant(topic)

    def with_added(self, topic: str, docs: Iterable[str], grade: int | None = None) -> "Qrels":
        """A new Qrels with extra judged docs for ``topic`` (defaults to relevant)."""
        if grade is None:
            grade = self.relevance_threshold
        judgments = {t: dict(d) for t, d in self.judgments.items()}
        into = judgments.setdefault(topic, {})
        for doc in docs:
            existing = into.get(doc)
            if existing is not None and existing != grade:
                raise FormatError(
                    f"conflicting grade for ({topic}, {doc}): {existing} vs {grade}"
                )
            into[doc] = grade
        return Qrels(judgments, self.relevance_threshold)


@dataclass
class Campaign:
    """A full evaluation campaign: one qrels plus S >= 1 runs with distinct ids."""

    runs: list[Run]
    qrels: Qrels

    def __post_init__(self) -> None:
        if not self.runs:
            raise DataError("a campaign needs at least one run")
        seen: set[str] = set()
        for run in self.runs:
            if run.system_id in seen:
                raise FormatError(f"duplicate system id {run.system_id!r}")
            seen.add(run.system_id)

    @property
    def n_systems(self) -> int:
        return len(self.runs)

    @property
    def system_ids(self) -> tuple[str, ...]:
        return tuple(sorted(r.system_id for r in self.runs))

    @property
    def judged_topics(self) -> tuple[str, ...]:
        return self.qrels.topics

    @property
    def run_topics(self) -> frozenset[str]:
        out: set[str] = set()
        for run in self.runs:
            out.update(run.rankings)
        return frozenset(out)

    @property
    def unjudged_topics(self) -> frozenset[str]:
        """Topics some run retrieved for but no qrels line judges."""
        return self.run_topics - set(self.qrels.topics)

    def run_for(self, system_id: str) -> Run:
        for run in self.runs:
            if run.system_id == system_id:
                return run
        raise DataError(f"no run with system id {system_id!r}")

    def topic_coverage(self) -> dict[str, frozenset[str]]:
        return {r.system_id: frozenset(r.rankings) for r in self.runs}

    def restricted_to_topics(self, topics: Sequence[str]) -> "Campaign":
        """A campaign view containing only the given topics."""
        keep = set(topics)
        runs = [
            Run(r.system_id, {t: es for t, es in r.rankings.items() if t in keep})
            for r in self.runs
        ]
        judgments = {
            t: dict(d) for t, d in self.qrels.judgments.items() if t in keep
        }
        return Campaign(runs, Qrels(judgments, self.qrels.relevance_threshold))

    def with_run(self, run: Run, qrels: Qrels | None = None) -> "Campaign":
        """A campaign extended by one more system (optionally with new qrels)."""
        return Campaign(self.runs + [run], qrels if qrels is not None else self.qrels)


@contextmanager
def _lines(source) -> Iterator[tuple[Iterable[str], str]]:
    """A source's text lines and display name; bytes not UTF-8 become surrogate escapes."""
    if not hasattr(source, "read"):
        with open(source, encoding="utf-8", errors="surrogateescape") as handle:
            yield handle, os.fspath(source)
        return
    name = str(getattr(source, "name", "<stream>"))
    if getattr(source, "buffer", None) is None:
        yield source, name
    else:  # a byte-backed stream such as sys.stdin is decoded as files are
        text = io.TextIOWrapper(source.buffer, encoding="utf-8", errors="surrogateescape")
        try:
            yield text, name
        finally:
            text.detach()  # leaves the caller's stream open


def _check_utf8(raw: str, name: str, lineno: int) -> None:
    """ParseError at ``name:lineno`` for a line holding bytes that were not UTF-8."""
    if any("\udc80" <= ch <= "\udcff" for ch in raw):
        raise ParseError(f"not valid UTF-8 text: {raw.strip()!r}", source=name, line=lineno)


def _canonical(entries: list[RunEntry], order: OrderPolicy) -> tuple[RunEntry, ...]:
    if order == "score":
        return tuple(sorted(entries, key=lambda e: (e.score, e.doc), reverse=True))
    if order == "rank-field":
        by_doc = sorted(entries, key=lambda e: e.doc, reverse=True)
        return tuple(sorted(by_doc, key=lambda e: e.rank_field))
    raise ConfigError(f"unknown ordering policy {order!r} (expected 'score' or 'rank-field')")


def parse_run_file(
    source,
    *,
    dedup: DedupPolicy = "reject",
    order: OrderPolicy = "score",
) -> Run:
    """Parse one TREC run file into a Run in canonical order.

    ``dedup`` controls repeated (topic, doc) pairs: ``"reject"`` fails loudly,
    ``"first"`` silently keeps the first occurrence in file order.
    """
    if dedup not in ("reject", "first"):
        raise ConfigError(f"unknown dedup policy {dedup!r} (expected 'reject' or 'first')")
    tag: str | None = None
    per_topic: dict[str, list[RunEntry]] = {}
    seen: set[tuple[str, str]] = set()
    with _lines(source) as (lines, name):
        for lineno, raw in enumerate(lines, start=1):
            if not raw.isascii():
                _check_utf8(raw, name, lineno)
            stripped = raw.strip()
            if not stripped:
                continue
            fields = stripped.split()
            if len(fields) != 6:
                raise ParseError(
                    f"expected 6 fields 'topic Q0 docid rank score runtag', got {len(fields)}",
                    source=name,
                    line=lineno,
                )
            topic, _q0, doc, rank_str, score_str, runtag = fields
            try:
                rank_field = int(rank_str)
            except ValueError:
                raise ParseError(f"non-integer rank {rank_str!r}", source=name, line=lineno)
            try:
                score = float(score_str)
            except ValueError:
                raise ParseError(f"non-numeric score {score_str!r}", source=name, line=lineno)
            if not math.isfinite(score):
                raise ParseError(f"non-finite score {score_str!r}", source=name, line=lineno)
            if tag is None:
                tag = runtag
            elif runtag != tag:
                raise FormatError(
                    f"{name}:{lineno}: mixed run tags in one file ({tag!r} vs {runtag!r})"
                )
            key = (topic, doc)
            if key in seen:
                if dedup == "reject":
                    raise FormatError(
                        f"{name}:{lineno}: duplicate document {doc!r} for topic {topic!r}"
                    )
                continue
            seen.add(key)
            per_topic.setdefault(topic, []).append(RunEntry(doc, score, rank_field))
    if tag is None:
        raise FormatError(f"{name}: empty run file")
    return Run(tag, {t: _canonical(es, order) for t, es in per_topic.items()})


def parse_qrels(source, relevance_threshold: int = 1) -> Qrels:
    """Parse a 4-column qrels file, keeping original grades.

    Exactly duplicated lines are tolerated; a (topic, doc) pair judged at two
    different grades is an error, as is any negative grade.
    """
    judgments: dict[str, dict[str, int]] = {}
    with _lines(source) as (lines, name):
        for lineno, raw in enumerate(lines, start=1):
            if not raw.isascii():
                _check_utf8(raw, name, lineno)
            stripped = raw.strip()
            if not stripped:
                continue
            fields = stripped.split()
            if len(fields) != 4:
                raise ParseError(
                    f"expected 4 fields 'topic iter docid grade', got {len(fields)}",
                    source=name,
                    line=lineno,
                )
            topic, _it, doc, grade_str = fields
            try:
                grade = int(grade_str)
            except ValueError:
                raise ParseError(f"non-integer grade {grade_str!r}", source=name, line=lineno)
            if grade < 0:
                raise ParseError(f"negative grade {grade}", source=name, line=lineno)
            by_doc = judgments.setdefault(topic, {})
            existing = by_doc.get(doc)
            if existing is not None and existing != grade:
                raise FormatError(
                    f"{name}:{lineno}: conflicting grades for ({topic!r}, {doc!r}): "
                    f"{existing} vs {grade}"
                )
            by_doc[doc] = grade
    return Qrels(judgments, relevance_threshold)


def load_campaign(
    run_sources: Sequence,
    qrels_source,
    *,
    dedup: DedupPolicy = "reject",
    order: OrderPolicy = "score",
    relevance_threshold: int = 1,
) -> Campaign:
    """Parse a full run set plus qrels into a Campaign."""
    if not run_sources:
        raise DataError("no run sources given")
    runs = [parse_run_file(src, dedup=dedup, order=order) for src in run_sources]
    qrels = parse_qrels(qrels_source, relevance_threshold)
    return Campaign(runs, qrels)


def format_run(run: Run) -> str:
    """Serialize a Run in 6-column format, preserving scores and rank fields.

    Re-parsing the result under the same ordering policy yields an identical
    Run (canonical order is a fixed point; ``repr`` round-trips the scores).
    """
    out: list[str] = []
    for topic in run.topics:
        for entry in run.rankings[topic]:
            out.append(
                f"{topic} Q0 {entry.doc} {entry.rank_field} {entry.score!r} {run.system_id}"
            )
    return "\n".join(out) + ("\n" if out else "")


def format_qrels(qrels: Qrels) -> str:
    out: list[str] = []
    for topic in qrels.topics:
        for doc in sorted(qrels.judgments[topic]):
            out.append(f"{topic} 0 {doc} {qrels.judgments[topic][doc]}")
    return "\n".join(out) + ("\n" if out else "")


def write_run_file(run: Run, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_run(run))


def write_qrels_file(qrels: Qrels, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_qrels(qrels))
