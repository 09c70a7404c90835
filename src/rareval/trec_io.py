"""Parsing, validation, and serialization of TREC-format run and qrels files.

Run files carry six whitespace-separated fields per line
(``topic Q0 docid rank score runtag``); qrels carry four
(``topic 0 docid grade``). Parsed structures are treated as immutable:
every ranking is stored in canonical evaluation order, which by default is
descending score with ties broken by descending lexicographic doc-id (the
rank column is ignored unless ``order="rank-field"`` is requested).

A ``Run`` stores each topic's ranking as columns in canonical order
(``RunColumns``): a tuple of doc-ids, a read-only float64 score array and a
read-only int64 rank-field array. ``Run.rankings`` shows them as
``RunEntry`` tuples, built on each access.

``parse_run_file`` reads a source whole and parses it in one vectorised
pass: one ``split()``, a per-line field count over the bytes, Python's own
``int`` and ``float`` mapped over the rank and score columns, and one
``lexsort`` into canonical order. That pass accepts only what it can prove
the line-by-line parser reads the same way: ASCII text whose only
whitespace is space, tab and ``\\n``, with six fields on every non-blank
line, finite scores, one run tag and no repeated (topic, doc). Anything
else (``\\r``, which reading as text turns into a line break; whitespace
that ``str.split`` knows and ``bytes.split`` does not; NUL, which numpy's
fixed-width strings drop; any non-ASCII byte; and every malformed file)
goes to the line-by-line parser. It is the only source of parse errors, so
their messages and line numbers do not depend on the fast pass.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Literal, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, FormatError, ParseError

DedupPolicy = Literal["reject", "first"]
OrderPolicy = Literal["score", "rank-field"]

_INT64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class RunEntry:
    """One retrieved document: id, retrieval score, and the file's rank column."""

    doc: str
    score: float
    rank_field: int


class RunColumns(NamedTuple):
    """One topic's ranking in canonical order, as columns."""

    docs: tuple[str, ...]
    scores: np.ndarray  # float64
    rank_fields: np.ndarray  # int64


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class Run:
    """One system's ranked document lists, keyed by topic.

    ``Run(system_id, rankings)`` takes ``RunEntry`` sequences already in
    canonical order and converts them to columns once; ``Run.of_columns``
    takes the columns themselves.
    """

    __slots__ = ("system_id", "columns")

    def __init__(self, system_id: str, rankings: Mapping[str, Sequence[RunEntry]]):
        self.system_id = system_id
        self.columns: dict[str, RunColumns] = {
            topic: RunColumns(
                tuple(e.doc for e in entries),
                _read_only(np.array([e.score for e in entries], dtype=np.float64)),
                _read_only(np.array([e.rank_field for e in entries], dtype=np.int64)),
            )
            for topic, entries in rankings.items()
        }

    @classmethod
    def of_columns(cls, system_id: str, columns: Mapping[str, RunColumns]) -> "Run":
        """A run over ``columns``, which are already in canonical order."""
        run = cls.__new__(cls)
        run.system_id = system_id
        run.columns = {
            topic: RunColumns(c.docs, _read_only(c.scores), _read_only(c.rank_fields))
            for topic, c in columns.items()
        }
        return run

    @property
    def topics(self) -> tuple[str, ...]:
        return tuple(sorted(self.columns))

    def docs(self, topic: str) -> tuple[str, ...]:
        """Doc-ids for ``topic`` in canonical order (empty if absent)."""
        columns = self.columns.get(topic)
        return () if columns is None else columns.docs

    @property
    def rankings(self) -> dict[str, tuple[RunEntry, ...]]:
        """The rankings as ``RunEntry`` tuples; a new dict on each access."""
        return {
            topic: tuple(map(RunEntry, c.docs, c.scores.tolist(), c.rank_fields.tolist()))
            for topic, c in self.columns.items()
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, Run):
            return NotImplemented
        return self.system_id == other.system_id and self.rankings == other.rankings

    def __repr__(self) -> str:
        return f"Run(system_id={self.system_id!r}, rankings={self.rankings!r})"


@dataclass(frozen=True)
class Qrels:
    """Per-topic relevance judgments at their original integer grades.

    The binary view is derived once, on construction: a document is relevant
    when its grade is at least ``relevance_threshold``. Unjudged documents are
    non-relevant.
    """

    judgments: dict[str, dict[str, int]]
    relevance_threshold: int = 1
    _relevant: dict[str, frozenset[str]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.relevance_threshold < 1:
            raise ConfigError(
                f"relevance threshold must be >= 1, got {self.relevance_threshold}"
            )
        relevant = {
            topic: frozenset(d for d, g in by_doc.items() if g >= self.relevance_threshold)
            for topic, by_doc in self.judgments.items()
        }
        object.__setattr__(self, "_relevant", relevant)

    @property
    def topics(self) -> tuple[str, ...]:
        return tuple(sorted(self.judgments))

    def grade(self, topic: str, doc: str) -> int:
        return self.judgments.get(topic, {}).get(doc, 0)

    def relevant(self, topic: str) -> frozenset[str]:
        """The set of documents judged at or above the relevance threshold."""
        return self._relevant.get(topic, frozenset())

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
            out.update(run.columns)
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
        return {r.system_id: frozenset(r.columns) for r in self.runs}

    def restricted_to_topics(self, topics: Sequence[str]) -> "Campaign":
        """A campaign view containing only the given topics."""
        keep = set(topics)
        runs = [
            Run.of_columns(r.system_id, {t: c for t, c in r.columns.items() if t in keep})
            for r in self.runs
        ]
        judgments = {
            t: dict(d) for t, d in self.qrels.judgments.items() if t in keep
        }
        return Campaign(runs, Qrels(judgments, self.qrels.relevance_threshold))


def _source_name(source) -> str:
    if hasattr(source, "read"):
        return str(getattr(source, "name", "<stream>"))
    return os.fspath(source)


def _read(source) -> bytes | list[str]:
    """A source's whole content: the bytes of a path or of a byte-backed
    stream such as ``sys.stdin``, else the lines of the text stream.

    A byte-backed stream is read through its buffer and stays open.
    """
    if not hasattr(source, "read"):
        with open(source, "rb") as handle:
            return handle.read()
    if getattr(source, "buffer", None) is None:
        return source.readlines()
    return source.buffer.read()


def _text_lines(content: bytes | list[str]) -> Iterable[str]:
    """The content's lines as a text file gives them: UTF-8 with universal
    newlines, and bytes that are not UTF-8 as surrogate escapes."""
    if isinstance(content, bytes):
        return io.TextIOWrapper(io.BytesIO(content), encoding="utf-8", errors="surrogateescape")
    return content


def _check_utf8(raw: str, name: str, lineno: int) -> None:
    """ParseError at ``name:lineno`` for a line holding bytes that were not UTF-8."""
    if any("\udc80" <= ch <= "\udcff" for ch in raw):
        raise ParseError(f"not valid UTF-8 text: {raw.strip()!r}", source=name, line=lineno)


def _canonical(entries: list[RunEntry], order: OrderPolicy) -> tuple[RunEntry, ...]:
    if order == "score":
        return tuple(sorted(entries, key=lambda e: (e.score, e.doc), reverse=True))
    by_doc = sorted(entries, key=lambda e: e.doc, reverse=True)
    return tuple(sorted(by_doc, key=lambda e: e.rank_field))


def _parse_run_columns(data: bytes, order: OrderPolicy) -> Run | None:
    """The run in ``data`` from one vectorised pass, or None when only the
    line-by-line parser can be trusted with it (see the module docstring)."""
    if not data.isascii():
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    # Each byte up to 0x20 must be a space, tab or "\n": the other control
    # bytes are line breaks to a text read ("\r"), whitespace to str.split
    # alone (0x1c-0x1f), or dropped by numpy's fixed-width strings (NUL).
    separator = raw <= 0x20
    if np.count_nonzero(separator) != sum(map(data.count, (b" ", b"\t", b"\n"))):
        return None
    starts = np.flatnonzero(np.concatenate(([True], separator[:-1])) > separator)
    fields_before = np.searchsorted(starts, np.flatnonzero(raw == 0x0A))
    per_line = np.diff(fields_before, prepend=0, append=starts.size)
    if starts.size == 0 or ((per_line != 0) & (per_line != 6)).any():
        return None
    tokens = data.decode("ascii").split()
    n = len(tokens) // 6
    tags = tokens[5::6]
    if tags.count(tags[0]) != n:
        return None
    try:
        rank_fields = np.fromiter(map(int, tokens[3::6]), dtype=np.int64, count=n)
        scores = np.fromiter(map(float, tokens[4::6]), dtype=np.float64, count=n)
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(scores).all():
        return None
    topic_of = tokens[0::6]
    topics = list(dict.fromkeys(topic_of))  # in order of first appearance
    code = {topic: i for i, topic in enumerate(topics)}
    topic_code = np.fromiter(map(code.__getitem__, topic_of), dtype=np.int64, count=n)
    docs = tokens[2::6]
    # Codes from a sorted unique, so code order is doc-id order.
    doc_code = np.unique(np.array(docs, dtype="S"), return_inverse=True)[1]
    pairs = np.sort(topic_code * n + doc_code)
    if (pairs[1:] == pairs[:-1]).any():
        return None  # a repeated (topic, doc)
    first_key = -scores if order == "score" else rank_fields
    perm = np.lexsort((-doc_code, first_key, topic_code))
    bounds = np.concatenate(([0], np.cumsum(np.bincount(topic_code)))).tolist()
    docs = list(map(docs.__getitem__, perm.tolist()))
    scores, rank_fields = scores[perm], rank_fields[perm]
    return Run.of_columns(tags[0], {
        topic: RunColumns(tuple(docs[a:b]), scores[a:b], rank_fields[a:b])
        for topic, a, b in zip(topics, bounds, bounds[1:])
    })


def _parse_run_lines(
    lines: Iterable[str], name: str, dedup: DedupPolicy, order: OrderPolicy
) -> Run:
    """The line-by-line parser: a located ParseError or FormatError for the
    first bad line."""
    tag: str | None = None
    per_topic: dict[str, list[RunEntry]] = {}
    seen: set[tuple[str, str]] = set()
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
        if not _INT64.min <= rank_field <= _INT64.max:
            raise ParseError(
                f"rank {rank_str!r} does not fit in 64 bits", source=name, line=lineno
            )
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
    if order not in ("score", "rank-field"):
        raise ConfigError(f"unknown ordering policy {order!r} (expected 'score' or 'rank-field')")
    content = _read(source)
    if isinstance(content, bytes):
        run = _parse_run_columns(content, order)
    else:  # without "\r" a text stream's lines all end in "\n" whatever its newline mode
        text = "".join(content)
        run = _parse_run_columns(text.encode("ascii"), order) if text.isascii() else None
    if run is None:
        run = _parse_run_lines(_text_lines(content), _source_name(source), dedup, order)
    return run


def parse_qrels(source, relevance_threshold: int = 1) -> Qrels:
    """Parse a 4-column qrels file, keeping original grades.

    Exactly duplicated lines are tolerated; a (topic, doc) pair judged at two
    different grades is an error, as is any negative grade.
    """
    judgments: dict[str, dict[str, int]] = {}
    name = _source_name(source)
    for lineno, raw in enumerate(_text_lines(_read(source)), start=1):
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
    where: dict[str, str] = {}
    for run, src in zip(runs, run_sources):
        if run.system_id in where:
            raise FormatError(
                f"duplicate system id {run.system_id!r} in {where[run.system_id]} "
                f"and {_source_name(src)}"
            )
        where[run.system_id] = _source_name(src)
    qrels = parse_qrels(qrels_source, relevance_threshold)
    return Campaign(runs, qrels)


def format_run(run: Run) -> str:
    """Serialize a Run in 6-column format, preserving scores and rank fields.

    Re-parsing the result under the same ordering policy yields an identical
    Run (canonical order is a fixed point; ``repr`` round-trips the scores).
    """
    out: list[str] = []
    for topic in run.topics:
        c = run.columns[topic]
        out.extend(
            f"{topic} Q0 {doc} {rank} {score!r} {run.system_id}"
            for doc, rank, score in zip(c.docs, c.rank_fields.tolist(), c.scores.tolist())
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
