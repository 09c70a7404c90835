"""Parsing, validation, and serialization of TREC-format run and qrels files.

Run files carry six whitespace-separated fields per line
(``topic Q0 docid rank score runtag``); qrels carry four
(``topic 0 docid grade``). Parsed structures are treated as immutable:
every ranking is stored in canonical evaluation order, which by default is
descending score with ties broken by descending lexicographic doc-id (the
rank column is ignored unless ``order="rank-field"`` is requested).

A ``Run`` stores each topic's ranking as columns in canonical order
(``RunColumns``): int32 codes into a ``Vocabulary`` (``ids[code]`` is the
doc-id), a read-only float64 score array and a read-only int64 rank-field
array; ``Run(system_id, columns)`` is its one constructor.
``RunColumns.docs`` and ``Run.rankings`` (``RunEntry`` tuples) are views
built from the codes on each access. A ``Campaign`` owns one code space,
``Campaign.vocab``: every column of its runs points at it. The runs of one
``load_campaign`` already share one vocabulary, and a campaign over them
keeps the very ``Run`` objects; runs over other vocabularies (a probe, a run
built in memory) come back as new ``Run``s re-coded into the union, and the
caller's runs are left as they are.

``parse_run_file`` and ``load_campaign`` read each source whole and parse
it in two phases. Phase one, per file: its kept lines as columns, each
doc-id numbered by a dict shared by all the campaign's files and keyed by
its UTF-8 bytes (``surrogatepass``, so every ``str`` round-trips and byte
order is ``str`` order). The fast pass (``_scan``) reads them by a per-line
field count over the bytes, one ``bytes.split()``, and Python's own ``int``
and ``float`` mapped over the rank and score columns (ASCII bytes read as
``str`` does). Phase two, after the last file (``_assemble``): the doc-ids
are sorted once, so a code's order is its doc-id's order, and decoded
once; each file is put in canonical order by one ``argsort`` of a
composite int64 key (topic, descending score or ascending rank field,
descending code) whose first two parts are ranked jointly, so that it stays
below lines x vocabulary size, at most 2**62 under ``_CODE_LIMIT``. The
fast pass accepts only what it can prove the line-by-line parser reads the
same way: ASCII text whose only whitespace is space, tab and ``\\n``, with
six fields on every non-blank line, finite scores, one run tag and no
repeated (topic, doc). Anything else (``\\r``, which reading as text turns
into a line break; whitespace that ``str.split`` knows and ``bytes.split``
does not; NUL and the other control bytes; any non-ASCII byte; and every
malformed file) goes to the line-by-line parser. It is the only source of
parse errors, so their messages and line numbers do not depend on the fast
pass. It and ``parse_qrels`` read through one line reader (``_records``),
which splits each line into fields and rejects bytes that are not UTF-8 and
a wrong field count with the same located messages for both kinds of file.

``load_campaign(..., cache=DIR)`` keeps each load's parsed runs in ``DIR``
as one ``.npz`` entry, named by a sha256 over this module's source as it
was imported, the dedup and order policies and each run file's content, in
order. An entry holds the concatenated codes, scores and rank fields, each
(run, topic)'s length, and the run tags, topics and doc-ids as joined
UTF-8. A hit rebuilds the runs from the entry without scanning or
interning any text; a miss parses as above and then writes the entry, but
only if every file's parsed bytes hash to the digest in the key (a file
can change between the two reads). A stream among the sources, an entry
that fails a check (zip CRC, dtypes, sizes, codes) and any ``OSError`` of
the cache's own all fall back to the parse; a parse error, or a system id
in two files, writes nothing. The entries are kept under ``_CACHE_BUDGET``
bytes, the least recently used deleted first; an entry larger than that
is not written.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import zipfile
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal, Mapping, NamedTuple, Sequence

from . import _numpy as np
from .errors import ConfigError, DataError, FormatError, ParseError

DedupPolicy = Literal["reject", "first"]
OrderPolicy = Literal["score", "rank-field"]

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1  # int64 bounds, read without numpy


@dataclass(frozen=True)
class RunEntry:
    """One retrieved document: id, retrieval score, and the file's rank column."""

    doc: str
    score: float
    rank_field: int


class Vocabulary:
    """Doc-ids numbered by code: ``ids[code]`` is a doc-id and ``code_of``
    maps it back. Runs that share a vocabulary share one ``str`` per doc."""

    __slots__ = ("ids", "_code_of")

    def __init__(self, ids: list[str], code_of: dict[str, int] | None = None):
        self.ids = ids
        self._code_of = code_of

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def code_of(self) -> dict[str, int]:
        if self._code_of is None:
            self._code_of = dict(zip(self.ids, range(len(self.ids))))
        return self._code_of


def intern(groups: Iterable[Iterable[str]]) -> tuple[Vocabulary, list[np.ndarray]]:
    """One new vocabulary over the doc-ids of ``groups``, in first-seen order,
    and each group's int32 codes into it."""
    code_of: dict[str, int] = {}
    # setdefault's default is evaluated first, so a new doc gets the next code.
    codes = [
        np.array([code_of.setdefault(doc, len(code_of)) for doc in docs], np.int32)
        for docs in groups
    ]
    return Vocabulary(list(code_of), code_of), codes


def union_vocabulary(
    vocabs: Sequence[Vocabulary],
) -> tuple[Vocabulary, dict[Vocabulary, np.ndarray]]:
    """One vocabulary over the distinct ``vocabs`` and, for each but the first,
    the int32 array mapping its codes into it; the first's codes stay valid,
    as its doc-ids are the union's prefix."""
    base, *others = vocabs
    ids, code_of = base.ids, base.code_of
    extra: dict[str, int] = {}
    maps = {
        vocab: np.array(
            [code_of[d] if d in code_of else extra.setdefault(d, len(ids) + len(extra))
             for d in vocab.ids],
            dtype=np.int32,
        )
        for vocab in others
    }
    return (Vocabulary(ids + list(extra)) if extra else base), maps


class RunColumns(NamedTuple):
    """One topic's ranking in canonical order, as columns: codes into
    ``vocab`` and the doc-ids they stand for, as ``docs``."""

    codes: np.ndarray  # int32
    scores: np.ndarray  # float64
    rank_fields: np.ndarray  # int64
    vocab: Vocabulary

    @property
    def docs(self) -> tuple[str, ...]:
        return tuple(map(self.vocab.ids.__getitem__, self.codes.tolist()))


class Run:
    """One system's ranked document lists, keyed by topic: ``columns`` already
    in canonical order, whose arrays are made read-only; empty ones are dropped."""

    __slots__ = ("system_id", "columns")

    def __init__(self, system_id: str, columns: Mapping[str, RunColumns]):
        self.system_id = system_id
        self.columns: dict[str, RunColumns] = {t: c for t, c in columns.items() if len(c.codes)}
        for c in self.columns.values():
            for array in (c.codes, c.scores, c.rank_fields):
                array.flags.writeable = False

    @property
    def topics(self) -> tuple[str, ...]:
        return tuple(sorted(self.columns))

    def docs(self, topic: str) -> tuple[str, ...]:
        """Doc-ids for ``topic`` in canonical order (empty if absent)."""
        columns = self.columns.get(topic)
        return () if columns is None else columns.docs

    def _columns(self) -> dict[str, tuple]:  # per topic: doc-ids, scores, rank fields
        return {t: (c.docs, c.scores.tolist(), c.rank_fields.tolist())
                for t, c in self.columns.items()}

    @property
    def rankings(self) -> dict[str, tuple[RunEntry, ...]]:
        """Per topic, ``RunEntry`` tuples; no command reads it, perfbench and tests do."""
        return {topic: tuple(map(RunEntry, *view)) for topic, view in self._columns().items()}

    def __eq__(self, other) -> bool:
        if not isinstance(other, Run):
            return NotImplemented
        return self.system_id == other.system_id and self._columns() == other._columns()

    def __repr__(self) -> str:
        return f"Run(system_id={self.system_id!r}, columns={self._columns()!r})"


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

    def with_added(self, topic: str, docs: Iterable[str]) -> "Qrels":
        """A new Qrels with ``docs`` judged relevant for ``topic``, at the threshold grade."""
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


@dataclass(frozen=True)
class Campaign:
    """A full evaluation campaign: one qrels plus S >= 1 runs with distinct ids.

    ``vocab`` is the campaign's one code space: every column of ``runs``
    holds codes into it. Runs over another vocabulary are replaced by copies
    re-coded into the union of all of them (see the module docstring). It is
    frozen, and ``runs`` is a tuple whatever sequence it was given:
    ``dataclasses.replace`` swaps ``runs`` or ``qrels`` and recomputes ``vocab``.
    """

    runs: tuple[Run, ...]
    qrels: Qrels
    vocab: Vocabulary = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.runs:
            raise DataError("a campaign needs at least one run")
        seen: set[str] = set()
        for run in self.runs:
            if run.system_id in seen:
                raise FormatError(f"duplicate system id {run.system_id!r}")
            seen.add(run.system_id)
        vocabs = list(dict.fromkeys(c.vocab for run in self.runs for c in run.columns.values()))
        vocab, to_union = union_vocabulary(vocabs or [Vocabulary([])])

        def recoded(c: RunColumns) -> RunColumns:
            codes = c.codes if c.vocab is vocabs[0] else to_union[c.vocab][c.codes]
            return c._replace(codes=codes, vocab=vocab)

        object.__setattr__(self, "vocab", vocab)
        object.__setattr__(self, "runs", tuple(
            run if all(c.vocab is vocab for c in run.columns.values())
            else Run(run.system_id, {topic: recoded(c) for topic, c in run.columns.items()})
            for run in self.runs
        ))

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
    def unjudged_topics(self) -> frozenset[str]:
        """Topics some run retrieved for but no qrels line judges."""
        return frozenset(t for run in self.runs for t in run.columns) - set(self.qrels.topics)

    def run_for(self, system_id: str) -> Run:
        for run in self.runs:
            if run.system_id == system_id:
                return run
        raise DataError(f"no run with system id {system_id!r}")

    def restricted_to_topics(self, topics: Sequence[str]) -> "Campaign":
        """A campaign view containing only the given topics."""
        keep = set(topics)
        runs = [
            Run(r.system_id, {t: c for t, c in r.columns.items() if t in keep})
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


def _records(
    content: bytes | list[str], name: str, layout: str
) -> Iterator[tuple[int, list[str]]]:
    """``(lineno, fields)`` of each non-blank line of ``content``: a located
    ParseError for a line holding bytes that were not UTF-8, or holding a
    field count other than ``layout``'s."""
    width = len(layout.split())
    for lineno, raw in enumerate(_text_lines(content), start=1):
        if not raw.isascii() and any("\udc80" <= ch <= "\udcff" for ch in raw):
            raise ParseError(f"not valid UTF-8 text: {raw.strip()!r}", source=name, line=lineno)
        fields = raw.split()
        if len(fields) not in (0, width):
            raise ParseError(f"expected {width} fields '{layout}', got {len(fields)}",
                             source=name, line=lineno)
        if fields:
            yield lineno, fields


# Token ids, and so codes, stay below this, as do a file's lines: the
# composite sort key of ``_assemble`` is then below 2**62.
_CODE_LIMIT = 2**31


class _Interner:
    """The doc-id tokens of a campaign's run files, each numbered by one dict
    the first time it is read; ``vocabulary`` sorts them once, at the end."""

    def __init__(self) -> None:
        self.token_ids: dict[bytes, int] = {}
        self.used = 0  # ids handed out: one per token read, so they may be sparse

    def ids(self, tokens: Sequence[bytes]) -> np.ndarray | None:
        """Each token's id, or None once the ids would reach ``_CODE_LIMIT``."""
        n, start = len(tokens), self.used
        if start + n > _CODE_LIMIT:
            return None
        self.used += n
        return np.fromiter(
            map(self.token_ids.setdefault, tokens, range(start, start + n)), np.int32, n
        )

    def vocabulary(self) -> tuple[Vocabulary, np.ndarray]:
        """The doc-ids in sorted order, each decoded once, and each token id's
        code: its doc-id's sort rank, so code order is doc-id order."""
        tokens = sorted(self.token_ids)
        code = np.zeros(self.used, np.int32)
        code[list(map(self.token_ids.__getitem__, tokens))] = np.arange(len(tokens))
        return Vocabulary(b" ".join(tokens).decode("utf-8", "surrogatepass").split()), code


class _Scan(NamedTuple):
    """One run file's kept lines as columns, its doc-ids not yet coded."""

    tag: str
    topics: list[str]  # in order of first appearance
    topic: np.ndarray  # each line's index into topics, int64
    ids: np.ndarray  # each line's doc token id, int32
    scores: np.ndarray
    rank_fields: np.ndarray


def _scan(data: bytes, interner: _Interner) -> _Scan | None:
    """Phase one of the fast pass: the file in ``data`` checked, split and its
    doc-ids interned, or None when only the line-by-line parser can be trusted
    with it (see the module docstring)."""
    if not data.isascii():
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    # Each byte up to 0x20 must be a space, tab or "\n": "\r" is a line
    # break to a text read and 0x1c-0x1f are whitespace to str.split alone;
    # the other control bytes go to the line-by-line parser too.
    separator = raw <= 0x20
    if np.count_nonzero(separator) != sum(map(data.count, (b" ", b"\t", b"\n"))):
        return None
    starts = np.flatnonzero(np.concatenate(([True], separator[:-1])) > separator)
    fields_before = np.searchsorted(starts, np.flatnonzero(raw == 0x0A))
    per_line = np.diff(fields_before, prepend=0, append=starts.size)
    if starts.size == 0 or ((per_line != 0) & (per_line != 6)).any():
        return None
    tokens = data.split()  # ASCII: int and float read bytes as they read str
    n = len(tokens) // 6
    tags = tokens[5::6]
    if n >= _CODE_LIMIT or tags.count(tags[0]) != n:
        return None
    try:
        rank_fields = np.fromiter(map(int, tokens[3::6]), dtype=np.int64, count=n)
        scores = np.fromiter(map(float, tokens[4::6]), dtype=np.float64, count=n)
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(scores).all():
        return None
    first_line: dict[bytes, int] = {}  # per topic, so topics keep file order
    line = np.fromiter(map(first_line.setdefault, tokens[0::6], range(n)), np.int64, n)
    index = np.zeros(n, np.int64)
    index[list(first_line.values())] = np.arange(len(first_line))
    topic = index[line]
    ids = interner.ids(tokens[2::6])
    if ids is None:
        return None
    pairs = np.sort(topic * interner.used + ids)
    if (pairs[1:] == pairs[:-1]).any():
        return None  # a repeated (topic, doc)
    topics = [t.decode("ascii") for t in first_line]
    return _Scan(tags[0].decode("ascii"), topics, topic, ids, scores, rank_fields)


def _assemble(scan: _Scan, vocab: Vocabulary, code: np.ndarray, order: OrderPolicy) -> Run:
    """Phase two: the scanned file's run in canonical order, its doc-ids coded
    into ``vocab`` by ``code``."""
    codes = code[scan.ids]
    n, size = codes.size, len(vocab)
    # One argsort of (topic, first key, descending code) as one int64: ranking
    # the (topic, first key) pairs jointly keeps it below n * size <= 2**62.
    first_key = -scan.scores if order == "score" else scan.rank_fields
    first = np.unique(first_key, return_inverse=True)[1]
    pair = np.unique(scan.topic * n + first, return_inverse=True)[1]
    perm = np.argsort(pair * size + (size - 1 - codes))
    codes, scores, rank_fields = codes[perm], scan.scores[perm], scan.rank_fields[perm]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(scan.topic)))).tolist()
    return Run(scan.tag, {
        topic: RunColumns(codes[a:b], scores[a:b], rank_fields[a:b], vocab)
        for topic, a, b in zip(scan.topics, bounds, bounds[1:])
    })


def _parse_run_lines(
    content: bytes | list[str], name: str, dedup: DedupPolicy, interner: _Interner
) -> _Scan:
    """The line-by-line parser: a located ParseError or FormatError for the
    first bad line."""
    tag: str | None = None
    topics: dict[str, int] = {}  # each topic's index, in order of first appearance
    seen: set[tuple[str, str]] = set()
    kept: list[tuple[int, bytes, float, int]] = []
    layout = "topic Q0 docid rank score runtag"
    for lineno, (topic, _q0, doc, rank_str, score_str, runtag) in _records(content, name, layout):
        try:
            rank_field = int(rank_str)
        except ValueError:
            raise ParseError(f"non-integer rank {rank_str!r}", source=name, line=lineno)
        if not _INT64_MIN <= rank_field <= _INT64_MAX:
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
        index = topics.setdefault(topic, len(topics))
        kept.append((index, doc.encode("utf-8", "surrogatepass"), score, rank_field))
    if tag is None:
        raise FormatError(f"{name}: empty run file")
    topic_of, docs, scores, rank_fields = zip(*kept)
    ids = interner.ids(docs)
    if ids is None:
        raise DataError(f"{name}: more run lines than one load can number ({_CODE_LIMIT})")
    return _Scan(tag, list(topics), np.array(topic_of, np.int64), ids,
                 np.array(scores, np.float64), np.array(rank_fields, np.int64))


def _read_run(
    source, interner: _Interner, dedup: DedupPolicy, digests: list[bytes] | None = None
) -> _Scan:
    """One run file, scanned into ``interner`` by the fast pass, or else by
    the line-by-line parser; the sha256 of the bytes it read is appended to
    ``digests`` when that is a list."""
    content = _read(source)
    if digests is not None:
        import hashlib

        digests.append(hashlib.sha256(content).digest())
    if isinstance(content, bytes):
        scan = _scan(content, interner)
    else:  # without "\r" a text stream's lines all end in "\n" whatever its newline mode
        text = "".join(content)
        scan = _scan(text.encode("ascii"), interner) if text.isascii() else None
    if scan is None:
        return _parse_run_lines(content, _source_name(source), dedup, interner)
    return scan


def _parse_runs(
    sources: Sequence, dedup: DedupPolicy, order: OrderPolicy, cache=None
) -> list[Run]:
    """The runs of ``sources``, all over one vocabulary, sorted once after
    the last file, with distinct system ids; read back from ``cache`` when
    it holds them, and written to it only once they pass every check."""
    if dedup not in ("reject", "first"):
        raise ConfigError(f"unknown dedup policy {dedup!r} (expected 'reject' or 'first')")
    if order not in ("score", "rank-field"):
        raise ConfigError(f"unknown ordering policy {order!r} (expected 'score' or 'rank-field')")
    key = None if cache is None else _cache_entry(cache, sources, dedup, order)
    if key is not None and (runs := _cache_read(key[0], len(sources))) is not None:
        return runs
    interner = _Interner()
    parsed: list[bytes] | None = None if key is None else []
    runs = [_read_run(source, interner, dedup, parsed) for source in sources]
    vocab, code = interner.vocabulary()
    for i, scan in enumerate(runs):  # each scan is dropped once assembled
        runs[i] = _assemble(scan, vocab, code, order)
    where: dict[str, str] = {}
    for run, source in zip(runs, sources):
        if run.system_id in where:
            raise FormatError(
                f"duplicate system id {run.system_id!r} in {where[run.system_id]} "
                f"and {_source_name(source)}"
            )
        where[run.system_id] = _source_name(source)
    if key is not None and parsed == key[1]:  # no file changed between its two reads
        _cache_write(key[0], runs, vocab)
    return runs


_CACHE_BUDGET = 2**30  # bytes of files a cache directory keeps
try:  # the source this module was imported from, read now so that a later edit
    with open(__file__, "rb") as _handle:  # cannot key entries this code wrote
        _SOURCE: bytes | None = _handle.read()
except OSError:
    _SOURCE = None  # no key can name this code: loads are not cached
_ENTRY = {  # an entry's arrays and their dtypes, by name
    "codes": "int32",
    "scores": "float64",
    "rank_fields": "int64",
    "lengths": "int64",  # per (run, topic): runs in load order, topics in file order
    "topic_counts": "int64",  # per run
    "tags": "uint8",  # the strings "\n"-joined, as UTF-8 with surrogatepass
    "topics": "uint8",
    "vocab": "uint8",
}


def _cache_entry(
    cache, sources: Sequence, dedup: DedupPolicy, order: OrderPolicy
) -> tuple[str, list[bytes]] | None:
    """The path of this load's entry in ``cache`` and each source's content
    sha256, or None when a source is a stream, a file cannot be read (the
    parse then reports it) or this module's source could not be read."""
    if _SOURCE is None or any(hasattr(source, "read") for source in sources):
        return None
    import hashlib  # here, so that only a cached load imports it

    def digest(path) -> bytes:  # each file is read, hashed and dropped
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).digest()

    try:
        digests = [digest(source) for source in sources]
    except OSError:
        return None
    parts = [hashlib.sha256(_SOURCE).digest(), f"{dedup}\n{order}\n".encode(), *digests]
    return os.path.join(cache, hashlib.sha256(b"".join(parts)).hexdigest() + ".npz"), digests


def _joined(strings: Iterable[str]) -> np.ndarray:
    return np.frombuffer("\n".join(strings).encode("utf-8", "surrogatepass"), np.uint8)


def _split(joined: np.ndarray) -> list[str]:
    return joined.tobytes().decode("utf-8", "surrogatepass").split("\n")


def _cache_read(entry: str, n_runs: int) -> list[Run] | None:
    """The ``n_runs`` runs stored in ``entry``, or None unless it reads back
    whole and passes every check."""
    try:
        with np.load(entry, allow_pickle=False) as stored:  # reading a member checks its CRC
            arrays = {name: stored[name] for name in _ENTRY}
        if any(arrays[name].dtype != dtype or arrays[name].ndim != 1
               for name, dtype in _ENTRY.items()):
            return None
        codes, lengths, counts = arrays["codes"], arrays["lengths"], arrays["topic_counts"]
        tags, topics, ids = map(_split, (arrays["tags"], arrays["topics"], arrays["vocab"]))
        if not (
            len(tags) == counts.size == n_runs and counts.min() >= 1
            and len(topics) == lengths.size == counts.sum() and lengths.min() >= 1
            and codes.size == arrays["scores"].size == arrays["rank_fields"].size
            == lengths.sum()
            and codes.min() >= 0 and codes.max() < len(ids)
        ):
            return None
    except Exception:  # an entry is outside input: whatever reading it raises, the
        return None  # parse is the recovery (a sound entry that missed fails the tests)
    scores, rank_fields, vocab = arrays["scores"], arrays["rank_fields"], Vocabulary(ids)
    bounds = np.concatenate(([0], np.cumsum(lengths))).tolist()
    spans = iter(zip(topics, bounds, bounds[1:]))
    runs = []
    for tag, count in zip(tags, counts.tolist()):
        columns = {
            topic: RunColumns(codes[a:b], scores[a:b], rank_fields[a:b], vocab)
            for topic, a, b in itertools.islice(spans, count)
        }
        if len(columns) != count:
            return None  # a topic twice in one run
        runs.append(Run(tag, columns))
    with contextlib.suppress(OSError):
        os.utime(entry)  # trimming deletes the least recently used first
    return runs


def _cache_write(entry: str, runs: list[Run], vocab: Vocabulary) -> None:
    """Store ``runs`` as ``entry`` through a temporary file, then trim the
    directory to the budget; an ``OSError`` leaves the load uncached.

    Each array is written as the ``.npy`` member ``np.savez`` would write,
    but column by column, so that no column is concatenated in memory.
    """
    columns = [c for run in runs for c in run.columns.values()]
    parts = {name: [getattr(c, name) for c in columns]
             for name in ("codes", "scores", "rank_fields")}
    parts["lengths"] = [np.array([c.codes.size for c in columns])]
    parts["topic_counts"] = [np.array([len(run.columns) for run in runs])]
    parts["tags"] = [_joined(run.system_id for run in runs)]
    parts["topics"] = [_joined(topic for run in runs for topic in run.columns)]
    parts["vocab"] = [_joined(vocab.ids)]
    size = sum(np.dtype(_ENTRY[name]).itemsize * array.size
               for name, arrays in parts.items() for array in arrays)
    if size > _CACHE_BUDGET:  # trimming would delete it, and every other entry first
        return
    directory = os.path.dirname(entry)
    temporary = f"{entry[:-len('.npz')]}.{os.getpid()}.tmp"
    try:
        os.makedirs(directory, exist_ok=True)
        with open(temporary, "wb") as handle, zipfile.ZipFile(handle, "w") as archive:
            for name, arrays in parts.items():
                dtype = np.dtype(_ENTRY[name])
                header = {"descr": dtype.str, "fortran_order": False,
                          "shape": (sum(array.size for array in arrays),)}
                with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array_header_1_0(member, header)
                    for array in arrays:
                        member.write(np.asarray(array, dtype).tobytes())
        os.replace(temporary, entry)
        _trim(directory, _CACHE_BUDGET)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(temporary)


def _trim(directory: str, budget: int) -> None:
    """Delete the directory's entries and temporary files, oldest mtime
    first, until they fit in ``budget`` bytes."""
    with os.scandir(directory) as found:
        files = sorted(
            (stat.st_mtime, stat.st_size, item.path)
            for item in found
            if item.name.endswith((".npz", ".tmp")) and item.is_file()
            for stat in [item.stat()]
        )
    total = sum(size for _, size, _ in files)
    for _, size, path in files:
        if total <= budget:
            break
        with contextlib.suppress(FileNotFoundError):  # another load deleted it first
            os.remove(path)
        total -= size


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
    return _parse_runs([source], dedup, order)[0]


def parse_qrels(source, relevance_threshold: int = 1) -> Qrels:
    """Parse a 4-column qrels file, keeping original grades.

    Exactly duplicated lines are tolerated; a (topic, doc) pair judged at two
    different grades is an error, as is any negative grade.
    """
    judgments: dict[str, dict[str, int]] = {}
    name = _source_name(source)
    layout = "topic iter docid grade"
    for lineno, (topic, _it, doc, grade_str) in _records(_read(source), name, layout):
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
    cache=None,
) -> Campaign:
    """Parse a full run set plus qrels into a Campaign; its runs share one
    vocabulary.

    ``cache``, a directory, keeps the parsed runs for the next load of the
    same files (see the module docstring); None, the default, reads and
    writes nothing but the sources.
    """
    if not run_sources:
        raise DataError("no run sources given")
    runs = _parse_runs(run_sources, dedup, order, cache)
    qrels = parse_qrels(qrels_source, relevance_threshold)
    return Campaign(runs, qrels)


def format_run(run: Run) -> str:
    """Serialize a Run in 6-column format, preserving scores and rank fields.

    Re-parsing the result under the same ordering policy yields an identical
    Run (canonical order is a fixed point; ``repr`` round-trips the scores;
    a Run has no empty ranking to lose). A line joins the topic's head, a
    doc-id and a tail (``" {rank} {score!r} {system}\n"``). Tails are built
    once per distinct column pair: a topic whose rank and score columns equal
    the previous topic's bit for bit, as in every generated run, reuses its
    tails. The bytes are those of one f-string per line.
    """
    parts: list[str] = []
    key = tails = None
    for topic in run.topics:
        c = run.columns[topic]
        columns = (c.rank_fields.tobytes(), c.scores.tobytes())  # bitwise: -0.0 is not 0.0
        if columns != key:
            key = columns
            tails = [f" {rank} {score!r} {run.system_id}\n"
                     for rank, score in zip(c.rank_fields.tolist(), c.scores.tolist())]
        head, ids = f"{topic} Q0 ", c.vocab.ids
        parts.extend([f"{head}{ids[code]}{tail}" for code, tail in zip(c.codes.tolist(), tails)])
    return "".join(parts)


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
