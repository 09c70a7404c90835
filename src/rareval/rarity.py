"""Cross-system retrieval counts and the rarity weighting functions.

A document retrieved by few of a campaign's systems is "rare". With ``S``
systems total and ``S_d`` of them retrieving document ``d`` for a topic:

* ``rareness``            -- ``1 - S_d/S``, in ``[0, (S-1)/S]``
* ``rareness_revised``    -- ``1 - (S_d-1)/(S-1)``, rescaled to ``[0, 1]``

Commands count as column sums of ``retrieval_grid``, a grid of which systems
retrieve which documents of a topic. None builds the frozen ``RarityIndex``
that the per-cell functions read; those only ever ask about documents that
at least one indexed system retrieved (``S_d >= 1``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DataError, UndefinedRarityError
from .trec_io import Campaign, Run

RarityVariant = Literal["eq2", "revised"]

RARITY_VARIANTS: tuple[str, ...] = ("eq2", "revised")


@dataclass(frozen=True)
class RarityIndex:
    """Retrieval counts per (topic, doc) over a fixed set of systems.

    ``count_depth`` limits how deep in each canonical ranking retrieval
    counts; ``None`` counts a document wherever it appears in the run.
    Instances are immutable after build.
    """

    total_systems: int
    counts: dict[str, dict[str, int]]
    count_depth: int | None = None

    def count(self, topic: str, doc: str) -> int:
        """How many systems retrieved ``doc`` for ``topic`` (0 if none)."""
        return self.counts.get(topic, {}).get(doc, 0)


def is_depth(value) -> bool:
    """Whether ``value`` is an integer of at least 1 (numpy's too, not a bool)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 1


# Cells a run may take: trials x topics or systems drawn, generated run
# entries, a pool's documents, trajectory steps x systems. 100 times 20 000
# stability trials of 50 topics each.
CELL_BUDGET = 10**8


def check_cells(cells: int, what: str, unit: str = "cells") -> None:
    """Reject ``what``, which comes to ``cells`` cells, past ``CELL_BUDGET``."""
    if cells > CELL_BUDGET:
        raise ConfigError(f"{what} exceeds the budget of {CELL_BUDGET} {unit}")


def check_count_depth(count_depth: int | None) -> None:
    """Reject a count depth other than an integer >= 1; ``None`` counts whole runs."""
    if count_depth is not None and not is_depth(count_depth):
        raise DataError(f"count depth must be >= 1 or None, got {count_depth!r}")


def build_rarity_index(campaign: Campaign, count_depth: int | None = None) -> RarityIndex:
    """Count, per (topic, doc), how many distinct systems retrieve it."""
    check_count_depth(count_depth)
    scopes: dict[str, list[np.ndarray]] = {}
    for run in campaign.runs:
        for topic, c in run.columns.items():
            scopes.setdefault(topic, []).append(c.codes[:count_depth])
    # A run lists a doc at most once per topic, so occurrences count systems.
    counts: dict[str, dict[str, int]] = {}
    ids = campaign.vocab.ids
    for topic, scoped in scopes.items():
        n = np.bincount(np.concatenate(scoped))
        found = np.flatnonzero(n)
        counts[topic] = dict(zip(map(ids.__getitem__, found.tolist()), n[found].tolist()))
    return RarityIndex(campaign.n_systems, counts, count_depth)


def retrieval_grid(rankings: Sequence[np.ndarray], codes: np.ndarray, size: int,
                   depth: int | None) -> np.ndarray:
    """Rows x ``len(codes)``: True where a row's ranking (codes below ``size``),
    cut at ``depth``, holds ``codes[j]``; other codes go to a spare column, cut off."""
    column = np.full(size, -1, dtype=np.intp)
    column[codes] = np.arange(codes.size)
    grid = np.zeros((len(rankings), codes.size + 1), dtype=bool)
    for row, ranking in zip(grid, rankings):  # row by row: no campaign-sized temporaries
        row[column[ranking[:depth]]] = True
    return grid[:, :codes.size]


def relevant_codes(campaign: Campaign, topic: str) -> np.ndarray:
    """The codes in ``campaign.vocab`` of ``topic``'s relevant documents, ascending."""
    code_of, relevant = campaign.vocab.code_of, campaign.qrels.relevant(topic)
    return np.array(sorted(code_of[doc] for doc in relevant if doc in code_of), np.intp)


def relevant_counts(campaign: Campaign, topic: str,
                    count_depth: int | None = None) -> dict[str, int]:
    """How many systems retrieve each relevant document of ``topic`` within
    ``count_depth``, in code order; a document no system retrieves is absent."""
    check_count_depth(count_depth)
    codes = relevant_codes(campaign, topic)
    rankings = [run.columns[topic].codes for run in campaign.runs if topic in run.columns]
    counts = retrieval_grid(rankings, codes, len(campaign.vocab), count_depth).sum(axis=0)
    return {campaign.vocab.ids[c]: n for c, n in zip(codes.tolist(), counts.tolist()) if n}


def extend_index(index: RarityIndex, run: Run) -> RarityIndex:
    """The index after one more system joins; equals a full rebuild."""
    counts = {t: dict(d) for t, d in index.counts.items()}
    for topic, columns in run.columns.items():
        by_doc = counts.setdefault(topic, {})
        for doc in columns.docs[: index.count_depth]:
            by_doc[doc] = by_doc.get(doc, 0) + 1
    return RarityIndex(index.total_systems + 1, counts, index.count_depth)


def checked_counts(index: RarityIndex, topic: str, docs: Sequence[str]) -> np.ndarray:
    """Retrieval counts of ``docs``; UndefinedRarityError names the first with none."""
    counts = np.array([index.count(topic, doc) for doc in docs], dtype=np.int64)
    if np.any(counts < 1):
        depth = index.count_depth
        raise UndefinedRarityError(
            f"no indexed system retrieved {docs[int(np.argmin(counts))]!r} for topic "
            f"{topic!r}" + (f" within count depth {depth}" if depth is not None else "")
        )
    return counts


def rarity_of_counts(counts, total: int, variant: RarityVariant) -> np.ndarray:
    """Rarity of documents each retrieved by ``counts`` of ``total`` systems."""
    counts = np.asarray(counts)
    if variant == "eq2":
        return 1.0 - counts / total
    if variant != "revised":
        raise DataError(f"unknown rarity variant {variant!r} (expected one of {RARITY_VARIANTS})")
    if total == 1:
        # 0/0 case: with a single system every retrieval is trivially unique.
        warnings.warn(
            "revised rarity is meaningless with a single system; returning 1.0",
            stacklevel=2,
        )
        return np.ones(counts.shape)
    return 1.0 - (counts - 1) / (total - 1)


def rareness(index: RarityIndex, topic: str, doc: str) -> float:
    """Fraction-complement of retrieving systems: ``1 - S_d/S``."""
    s_d = checked_counts(index, topic, [doc])
    return float(rarity_of_counts(s_d, index.total_systems, "eq2")[0])


def rareness_revised(index: RarityIndex, topic: str, doc: str) -> float:
    """Rescaled rarity ``1 - (S_d-1)/(S-1)``: 1 for unique, 0 for universal."""
    s_d = checked_counts(index, topic, [doc])
    return float(rarity_of_counts(s_d, index.total_systems, "revised")[0])


class RarityRow(NamedTuple):
    doc: str
    grade: int
    retrievers: int
    rarity: float


def rarity_report(
    campaign: Campaign,
    topic: str,
    variant: RarityVariant = "eq2",
    *,
    count_depth: int | None = None,
) -> list[RarityRow]:
    """Judged-relevant documents of a topic retrieved within ``count_depth``, rarest first.

    Ties in rarity are broken by ascending doc-id, so output is stable.
    """
    if topic not in campaign.qrels.judgments:
        raise DataError(f"topic {topic!r} is not judged in the qrels")
    by_doc = relevant_counts(campaign, topic, count_depth)
    rarities = rarity_of_counts(list(by_doc.values()), campaign.n_systems, variant)
    rows = [
        RarityRow(doc, campaign.qrels.grade(topic, doc), s_d, float(rarity))
        for (doc, s_d), rarity in zip(by_doc.items(), rarities)
    ]
    rows.sort(key=lambda r: (-r.rarity, r.doc))
    return rows
