"""Effectiveness metrics for one system on one topic.

Two families, each in a standard and a rarity-weighted form:

* precision at k          -- ``P@k`` and ``P@k_rareness``:
  ``(1/k) * sum_i Rel(d_i) * (1 + alpha * R(d_i))``
* average precision       -- ``AP`` and ``AP_rareness``:
  ``(1/N_R) * sum_i Rel(d_i) * PR(i)`` where ``PR(i)`` is the
  rarity-weighted precision of the top-``i`` prefix

plus a bounded mixture form ``P@k_mixture``:
``(1/k) * sum_i [(1-alpha)*Rel(d_i) + alpha*Rel(d_i)*R(d_i)]``.

The formula is written once, in ``score_hits``, and it has two callers: the
per-cell functions here and the one campaign scorer in ``campaign``, which
serves ``evaluate_campaign``, the subset experiment in ``stats`` and the
probe trajectory in ``synth``. Both take their hits from ``hit_table``, in
codes only. A hit's rarity is ``rarity.rarity_of_counts`` of counts in a
caller's rarity index here, of the scorer's grid over the scored rows there.
Both callers sum gains in rank order, so ``alpha = 0`` reverts every
weighted form to its standard counterpart bit-for-bit: a zero alpha
contributes exactly ``0.0`` per term, and the two agree with each other to
the last bit. Positions past the end of a ranking count as non-relevant,
and non-relevant or unjudged documents contribute nothing however rare.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from numbers import Real
from typing import AbstractSet, Literal, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .rarity import RARITY_VARIANTS, RarityIndex, RarityVariant, checked_counts, is_depth
from .rarity import rarity_of_counts
from .trec_io import intern

Formulation = Literal["additive", "mixture"]

DEFAULT_CUTOFF = 100
DEFAULT_ALPHA = 1.0


@dataclass(frozen=True)
class MetricConfig:
    """Cutoff, rarity weight, rarity variant, and weighting formulation."""

    cutoff: int = DEFAULT_CUTOFF
    alpha: float = DEFAULT_ALPHA
    rarity_variant: RarityVariant = "eq2"
    formulation: Formulation = "additive"

    def __post_init__(self) -> None:
        if not is_depth(self.cutoff):
            raise ConfigError(f"cutoff must be an integer >= 1, got {self.cutoff!r}")
        alpha = self.alpha
        if isinstance(alpha, bool) or not isinstance(alpha, Real) or not math.isfinite(alpha):
            raise ConfigError(f"alpha must be a finite number, got {alpha!r}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.rarity_variant not in RARITY_VARIANTS:
            raise ConfigError(
                f"unknown rarity variant {self.rarity_variant!r} "
                f"(expected one of {RARITY_VARIANTS})"
            )
        if self.formulation not in ("additive", "mixture"):
            raise ConfigError(
                f"unknown formulation {self.formulation!r} "
                "(expected 'additive' or 'mixture')"
            )
        if self.formulation == "mixture" and self.alpha > 1:
            raise ConfigError(
                f"the mixture formulation needs alpha in [0, 1], got {self.alpha}"
            )
        if self.formulation == "additive" and self.alpha > 1:
            warnings.warn(
                f"alpha={self.alpha} > 1 exceeds the recommended [0, 1] range",
                stacklevel=2,
            )


def score_hits(
    spec: MetricSpec,
    ranks: np.ndarray,
    hit: np.ndarray,
    rarity: np.ndarray | None,
    n_relevant,
) -> np.ndarray:
    """Scores of rows of left-aligned relevant hits: the one metric formula.

    ``ranks`` and ``hit`` are as in ``HitTable``, ``rarity`` is each hit's
    rarity (``None`` for the base kinds) and ``n_relevant`` the AP denominator.
    Padding gains are exactly 0.0, and every sum adds gains in rank order,
    as a per-document loop would.
    """
    alpha = spec.config.alpha
    if not spec.needs_rarity:
        gains = hit.astype(float)
    elif spec.kind == "p_mixture":
        gains = np.where(hit, (1.0 - alpha) + alpha * rarity, 0.0)
    else:
        gains = np.where(hit, 1.0 + alpha * rarity, 0.0)
    if spec.is_ap_family:
        return _sums_in_order(np.cumsum(gains, axis=1) / ranks) / n_relevant
    return _sums_in_order(gains) / spec.config.cutoff


def _sums_in_order(terms: np.ndarray) -> np.ndarray:
    """Row sums of ``terms`` added left to right, as its ``cumsum`` does:
    laid out column-major, numpy sums many rows a column at a time."""
    if len(terms) == 1:
        return np.cumsum(terms, axis=1)[:, -1]
    return np.ascontiguousarray(terms.T).sum(axis=0)


@dataclass(frozen=True)
class HitTable:
    """Relevant hits of some rankings of codes, left-aligned, one row per ranking.

    ``codes`` are the relevant codes hit, ascending; ``ranks``, ``columns``
    and ``hit`` are rows x hits arrays of each hit's 1-based rank (``inf`` in
    padding slots), its column in ``codes``, and whether it is one.
    """

    codes: np.ndarray
    ranks: np.ndarray
    columns: np.ndarray
    hit: np.ndarray


def hit_table(rankings: Sequence[np.ndarray], relevant: np.ndarray, bound: int | None) -> HitTable:
    """The relevant hits of each ranking of codes within ``bound`` (``None``:
    all of it); ``relevant`` is a mask over the codes."""
    scoped = [codes[:bound] for codes in rankings]
    lengths = np.fromiter(map(len, scoped), np.intp, len(scoped))
    flat = np.concatenate(scoped)
    hit = relevant[flat]
    rows = np.repeat(np.arange(len(scoped)), lengths)[hit]
    ranks = (np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths))[hit] + 1
    per_row = np.bincount(rows, minlength=len(scoped))
    slots = np.arange(rows.size) - np.repeat(np.cumsum(per_row) - per_row, per_row)
    codes, columns = np.unique(flat[hit], return_inverse=True)
    shape = (len(scoped), max(int(per_row.max(initial=0)), 1))
    rank_grid = np.full(shape, np.inf)
    rank_grid[rows, slots] = ranks
    col_grid = np.zeros(shape, dtype=np.intp)
    col_grid[rows, slots] = columns
    return HitTable(codes, rank_grid, col_grid, np.isfinite(rank_grid))


def _score_one(spec, docs, relevant, bound, n_relevant=1, index=None, topic="") -> float:
    """One ranking scored as a campaign is: its hit table over a vocabulary of
    its own, coded in rank order by ``intern`` (so the first uncounted hit in
    code order is the first in rank), each hit's rarity counted in ``index``."""
    vocab, codes = intern([docs])
    is_relevant = np.fromiter(map(relevant.__contains__, vocab.ids), bool, len(vocab))
    table = hit_table(codes, is_relevant, bound)
    if not table.codes.size:
        return 0.0  # nothing hit scores exactly 0
    rarity = None
    if spec.needs_rarity:
        counts = checked_counts(index, topic, list(map(vocab.ids.__getitem__, table.codes)))
        variant = spec.config.rarity_variant
        rarity = rarity_of_counts(counts, index.total_systems, variant)[table.columns]
    return float(score_hits(spec, table.ranks, table.hit, rarity, n_relevant)[0])


def precision_at_k(docs: Sequence[str], relevant: AbstractSet[str], k: int) -> float:
    """Fraction of the top-k positions holding relevant documents."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return _score_one(MetricSpec("p", MetricConfig(k, 0.0)), docs, relevant, k)


def p_at_k_rareness(
    docs: Sequence[str],
    relevant: AbstractSet[str],
    index: RarityIndex,
    topic: str,
    config: MetricConfig,
) -> float:
    """Precision at k with each relevant hit boosted by ``alpha * rarity``."""
    if config.formulation != "additive":
        raise ConfigError("p_at_k_rareness requires the additive formulation")
    spec = MetricSpec("p_rareness", config)
    return _score_one(spec, docs, relevant, config.cutoff, 1, index, topic)


def average_precision(
    docs: Sequence[str],
    relevant: AbstractSet[str],
    k: int | None,
    n_relevant: int,
) -> float:
    """Mean of the precisions at each relevant rank, over ``n_relevant``.

    ``k`` bounds the scored prefix; ``None`` scores the whole ranking.
    """
    if n_relevant < 1:
        raise DataError("average precision is undefined for a topic with no relevant docs")
    spec = MetricSpec("ap", MetricConfig(alpha=0.0))
    return _score_one(spec, docs, relevant, metric_bound(spec, k), n_relevant)


def ap_rareness(
    docs: Sequence[str],
    relevant: AbstractSet[str],
    index: RarityIndex,
    topic: str,
    config: MetricConfig,
    n_relevant: int,
    depth: int | None = None,
) -> float:
    """Average precision whose per-rank precisions are rarity-weighted.

    ``depth`` overrides the summation bound (``None`` uses the config cutoff).
    """
    spec = MetricSpec("ap_rareness", config)  # rejects the mixture formulation
    if n_relevant < 1:
        raise DataError("average precision is undefined for a topic with no relevant docs")
    bound = metric_bound(spec, "cutoff" if depth is None else depth)
    return _score_one(spec, docs, relevant, bound, n_relevant, index, topic)


def p_at_k_mixture(
    docs: Sequence[str],
    relevant: AbstractSet[str],
    index: RarityIndex,
    topic: str,
    config: MetricConfig,
) -> float:
    """Convex mixture of precision and rarity reward, bounded in [0, 1]."""
    spec = MetricSpec("p_mixture", config)
    return _score_one(spec, docs, relevant, config.cutoff, 1, index, topic)


# --- metric naming -----------------------------------------------------------

MetricKind = Literal["p", "ap", "p_rareness", "ap_rareness", "p_mixture"]

METRIC_NAME_PATTERNS = (
    "P@<k>",
    "AP",
    "P@<k>_rareness(alpha=<a>,rarity=<eq2|revised>)",
    "AP_rareness(alpha=<a>,rarity=<eq2|revised>)",
    "P@<k>_mixture(alpha=<a>,rarity=<eq2|revised>)",
)

_NAME_RE = re.compile(
    r"""^(?:
        (?P<pfam>p)@(?P<k>\d+)(?:_(?P<psuffix>rareness|mixture))?
        |
        (?P<afam>ap)(?:_(?P<asuffix>rareness))?
    )
    (?:\((?P<params>[^()]*)\))?$""",
    re.IGNORECASE | re.VERBOSE,
)


@dataclass(frozen=True)
class MetricSpec:
    """One fully-parameterized metric: a kind plus its numeric config."""

    kind: MetricKind
    config: MetricConfig

    def __post_init__(self) -> None:
        if self.kind in ("p_rareness", "ap_rareness") and self.config.formulation != "additive":
            raise ConfigError(f"{self.kind} requires the additive formulation")
        if self.kind == "p_mixture" and self.config.alpha > 1.0:
            raise ConfigError(
                f"the mixture formulation needs alpha in [0, 1], got {self.config.alpha}"
            )

    @property
    def needs_rarity(self) -> bool:
        return self.kind in ("p_rareness", "ap_rareness", "p_mixture")

    @property
    def is_ap_family(self) -> bool:
        return self.kind in ("ap", "ap_rareness")

    @property
    def descriptor(self) -> str:
        """Canonical display name, e.g. ``P@100_rareness(alpha=0.5,rarity=eq2)``."""
        cfg = self.config
        params = f"(alpha={cfg.alpha:g},rarity={cfg.rarity_variant})"
        if self.kind == "p":
            return f"P@{cfg.cutoff}"
        if self.kind == "ap":
            return "AP"
        if self.kind == "p_rareness":
            return f"P@{cfg.cutoff}_rareness{params}"
        if self.kind == "ap_rareness":
            return f"AP_rareness{params}"
        return f"P@{cfg.cutoff}_mixture{params}"

    @classmethod
    def parse(
        cls,
        text: str,
        *,
        default_cutoff: int = DEFAULT_CUTOFF,
        default_alpha: float = DEFAULT_ALPHA,
        default_variant: RarityVariant = "eq2",
    ) -> "MetricSpec":
        """Parse a metric name like ``P@100_rareness(alpha=0.5,rarity=eq2)``.

        Omitted parameters fall back to the supplied defaults (typically the
        command-line level flags). A parameter given twice, or given to a base
        metric (``P@k``, ``AP``), is a ``ConfigError``.
        """
        match = _NAME_RE.match(text.strip())
        if match is None:
            raise ConfigError(
                f"unknown metric name {text!r}; valid names: "
                + ", ".join(METRIC_NAME_PATTERNS)
            )
        params: dict[str, str] = {}
        raw = match.group("params") or ""
        for item in filter(None, (p.strip() for p in raw.split(","))):
            key, _, value = item.partition("=")
            key = key.strip().lower()
            if key not in ("alpha", "rarity"):
                raise ConfigError(f"unknown metric parameter {key!r} in {text!r}")
            if key in params:
                raise ConfigError(f"metric parameter {key!r} given twice in {text!r}")
            params[key] = value.strip()
        if match.group("pfam"):
            cutoff = int(match.group("k"))
            suffix = (match.group("psuffix") or "").lower()
            kind = f"p_{suffix}" if suffix else "p"  # p_rareness or p_mixture
        else:
            cutoff = default_cutoff
            kind = "ap_rareness" if match.group("asuffix") else "ap"
        formulation = "mixture" if kind == "p_mixture" else "additive"
        variant = params.get("rarity", default_variant)
        if "rarity" in params and variant not in RARITY_VARIANTS:
            raise ConfigError(
                f"bad rarity variant {variant!r} in {text!r} "
                f"(expected one of {RARITY_VARIANTS})"
            )
        if kind in ("p", "ap"):
            if params:
                raise ConfigError(
                    f"metric parameter {next(iter(params))!r} does not apply to "
                    f"the base metric in {text!r}"
                )
            # Base metrics ignore rarity; a zero alpha keeps the config honest.
            alpha = 0.0
        elif "alpha" in params:
            try:
                alpha = float(params["alpha"])
            except ValueError:
                raise ConfigError(f"bad alpha value {params['alpha']!r} in {text!r}")
        else:
            alpha = default_alpha
        return cls(kind, MetricConfig(cutoff, alpha, variant, formulation))


def metric_bound(
    spec: MetricSpec, ap_depth: int | None | Literal["cutoff"] = "cutoff"
) -> int | None:
    """How deep ``spec`` scores: the P family to its cutoff, the AP family to
    ``ap_depth`` (``"cutoff"``: the cutoff, ``None``: everything, or an int
    of at least 1)."""
    if ap_depth not in ("cutoff", None) and not is_depth(ap_depth):
        raise ConfigError(f"AP depth must be >= 1, 'cutoff' or None, got {ap_depth!r}")
    if spec.is_ap_family and ap_depth != "cutoff":
        return ap_depth
    return spec.config.cutoff
