"""Effectiveness metrics for one system on one topic.

Two families, each in a standard and a rarity-weighted form:

* precision at k          -- ``P@k`` and ``P@k_rareness``:
  ``(1/k) * sum_i Rel(d_i) * (1 + alpha * R(d_i))``
* average precision       -- ``AP`` and ``AP_rareness``:
  ``(1/N_R) * sum_i Rel(d_i) * PR(i)`` where ``PR(i)`` is the
  rarity-weighted precision of the top-``i`` prefix

plus a bounded mixture form ``P@k_mixture``:
``(1/k) * sum_i [(1-alpha)*Rel(d_i) + alpha*Rel(d_i)*R(d_i)]``.

Setting ``alpha = 0`` reverts every weighted form to its standard
counterpart bit-for-bit: terms are summed in rank order in all paths, and a
zero alpha contributes exactly ``0.0`` per term. Positions past the end of a
ranking count as non-relevant, and non-relevant or unjudged documents
contribute nothing no matter how rare they are.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from typing import AbstractSet, Literal, Sequence

from .errors import ConfigError, DataError
from .rarity import RARITY_VARIANTS, RarityIndex, RarityVariant, rarity_value

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
        if self.cutoff < 1:
            raise ConfigError(f"cutoff must be >= 1, got {self.cutoff}")
        if not math.isfinite(self.alpha):
            raise ConfigError(f"alpha must be a finite number, got {self.alpha}")
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


def precision_at_k(docs: Sequence[str], relevant: AbstractSet[str], k: int) -> float:
    """Fraction of the top-k positions holding relevant documents."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    hits = 0
    for doc in docs[:k]:
        if doc in relevant:
            hits += 1
    return hits / k


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
    k = config.cutoff
    alpha = config.alpha
    variant = config.rarity_variant
    total = 0.0
    for doc in docs[:k]:
        if doc in relevant:
            total += 1.0 + alpha * rarity_value(index, topic, doc, variant)
    return total / k


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
    upper = len(docs) if k is None else min(k, len(docs))
    hits = 0
    total = 0.0
    for i in range(1, upper + 1):
        if docs[i - 1] in relevant:
            hits += 1
            total += hits / i
    return total / n_relevant


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

    The prefix score at rank i is maintained as a running sum, so the whole
    computation is linear in the scored depth. ``depth`` overrides the
    summation bound (``None`` uses the config cutoff).
    """
    if config.formulation != "additive":
        raise ConfigError("ap_rareness requires the additive formulation")
    if n_relevant < 1:
        raise DataError("average precision is undefined for a topic with no relevant docs")
    bound = config.cutoff if depth is None else depth
    upper = min(bound, len(docs)) if bound is not None else len(docs)
    alpha = config.alpha
    variant = config.rarity_variant
    running = 0.0
    total = 0.0
    for i in range(1, upper + 1):
        doc = docs[i - 1]
        if doc in relevant:
            running += 1.0 + alpha * rarity_value(index, topic, doc, variant)
            total += running / i
    return total / n_relevant


def p_at_k_mixture(
    docs: Sequence[str],
    relevant: AbstractSet[str],
    index: RarityIndex,
    topic: str,
    config: MetricConfig,
) -> float:
    """Convex mixture of precision and rarity reward, bounded in [0, 1]."""
    if not 0.0 <= config.alpha <= 1.0:
        raise ConfigError(
            f"the mixture formulation needs alpha in [0, 1], got {config.alpha}"
        )
    k = config.cutoff
    alpha = config.alpha
    variant = config.rarity_variant
    total = 0.0
    for doc in docs[:k]:
        if doc in relevant:
            total += (1.0 - alpha) + alpha * rarity_value(index, topic, doc, variant)
    return total / k


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
        command-line level flags).
        """
        match = _NAME_RE.match(text.strip())
        if match is None:
            raise ConfigError(
                f"unknown metric name {text!r}; valid names: "
                + ", ".join(METRIC_NAME_PATTERNS)
            )
        alpha = default_alpha
        variant = default_variant
        params = match.group("params")
        if params:
            for item in filter(None, (p.strip() for p in params.split(","))):
                key, _, value = item.partition("=")
                key = key.strip().lower()
                value = value.strip()
                if key == "alpha":
                    try:
                        alpha = float(value)
                    except ValueError:
                        raise ConfigError(f"bad alpha value {value!r} in {text!r}")
                elif key == "rarity":
                    if value not in RARITY_VARIANTS:
                        raise ConfigError(
                            f"bad rarity variant {value!r} in {text!r} "
                            f"(expected one of {RARITY_VARIANTS})"
                        )
                    variant = value
                else:
                    raise ConfigError(f"unknown metric parameter {key!r} in {text!r}")
        if match.group("pfam"):
            cutoff = int(match.group("k"))
            suffix = (match.group("psuffix") or "").lower()
            if suffix == "rareness":
                kind = "p_rareness"
            elif suffix == "mixture":
                kind = "p_mixture"
            else:
                kind = "p"
        else:
            cutoff = default_cutoff
            kind = "ap_rareness" if match.group("asuffix") else "ap"
        formulation = "mixture" if kind == "p_mixture" else "additive"
        if kind in ("p", "ap"):
            # Base metrics ignore rarity; a zero alpha keeps the config honest.
            alpha = 0.0
        return cls(kind, MetricConfig(cutoff, alpha, variant, formulation))


def compute_metric(
    spec: MetricSpec,
    docs: Sequence[str],
    relevant: AbstractSet[str],
    index: RarityIndex | None,
    topic: str,
    n_relevant: int,
    ap_depth: int | None | Literal["cutoff"] = "cutoff",
) -> float:
    """Evaluate one metric spec on one (system, topic) cell.

    ``ap_depth`` is the AP-family summation bound: ``"cutoff"`` uses the
    config cutoff, ``None`` scores the full ranking, an int overrides both.
    """
    cfg = spec.config
    if spec.kind == "p":
        return precision_at_k(docs, relevant, cfg.cutoff)
    if spec.kind == "ap":
        depth = cfg.cutoff if ap_depth == "cutoff" else ap_depth
        return average_precision(docs, relevant, depth, n_relevant)
    if index is None:
        raise DataError(f"metric {spec.descriptor} needs a rarity index")
    if spec.kind == "p_rareness":
        return p_at_k_rareness(docs, relevant, index, topic, cfg)
    if spec.kind == "ap_rareness":
        depth = cfg.cutoff if ap_depth == "cutoff" else ap_depth
        return ap_rareness(docs, relevant, index, topic, cfg, n_relevant, depth)
    return p_at_k_mixture(docs, relevant, index, topic, cfg)
