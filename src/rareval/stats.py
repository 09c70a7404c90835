"""Meta-evaluation statistics over campaign score matrices.

Four procedures:

* ``kendall_tau``          -- tie-corrected (tau-b) rank correlation between
  two system rankings; midranks make ties routine, hence tau-b.
* ``discriminative_power`` -- count of system pairs separated by Tukey's HSD
  after a two-way blocked ANOVA (systems as treatments, topics as blocks).
* ``stability``            -- topic-subsampling protocol: how consistently
  one system of a pair beats the other across seeded trials.
* ``subset_experiment``    -- rank N randomly sampled systems with rarity
  recomputed over just those N, and correlate against their ordering in the
  full-campaign ranking.

The HSD critical value comes from the studentized-range distribution; its
quantile is found by root-finding on a CDF evaluated with adaptive
quadrature (absolute error in q around 1e-6, far inside the 1e-4 target),
and is validated against published tables in the test suite.

Only the studentized range needs scipy (``scipy.special``, ``integrate`` and
``optimize``), and it imports it on first use, so of the CLI commands only
``discpower`` loads scipy. Tau-b is computed here with numpy and exact
integer pair counts.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .campaign import ScoreMatrix, SystemRanking, evaluate_campaign
from .errors import ConfigError, DataError, UndefinedRarityError
from .metrics import MetricSpec
from .rng import DEFAULT_SEED, substream
from .trec_io import Campaign

SIGNIFICANCE_LEVELS = (0.95, 0.99)

_VARIANCE_EPS = 1e-12

# Substream tags so each procedure draws from its own counter family.
_STREAM_STABILITY = 101
_STREAM_SUBSET = 102


# --- rank correlation ---------------------------------------------------------

# Cells of the pairwise sign matrices tau-b builds per block of rows; bounds
# its memory at a few MB whatever the number of systems.
_TAU_BLOCK_CELLS = 1 << 18


def _tau_b(x, y) -> float:
    """Kendall's tau-b of two equal-length vectors; NaN if a side is fully tied.

    Concordant-minus-discordant and the tie counts are exact integers, and
    the final expression and clamp are scipy's ``kendalltau(variant="b")``,
    so the result equals scipy's bit for bit.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    n = x.size
    tot = n * (n - 1) // 2
    # Over ordered pairs (i, j), i == j included: each unordered pair counts
    # twice and the diagonal adds n zero signs.
    signed = x_zero = y_zero = 0
    step = max(1, _TAU_BLOCK_CELLS // max(n, 1))
    for start in range(0, n, step):
        sx = np.sign(x[start : start + step, None] - x[None, :])
        sy = np.sign(y[start : start + step, None] - y[None, :])
        signed += int((sx * sy).sum())
        x_zero += int(np.count_nonzero(sx == 0))
        y_zero += int(np.count_nonzero(sy == 0))
    con_minus_dis = signed // 2
    xtie = (x_zero - n) // 2
    ytie = (y_zero - n) // 2
    if xtie == tot or ytie == tot:
        return math.nan
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))


# perfbench/traced.py wraps tau-b under this name to time it as stats.tau.
_scipy_kendalltau = _tau_b


def kendall_tau(ranking_a: SystemRanking, ranking_b: SystemRanking) -> float:
    """Tau-b between two rankings of the same system set."""
    ids = sorted(ranking_a.system_ids)
    if set(ids) != ranking_b.system_ids:
        raise DataError("rankings cover different system sets")
    if len(ids) < 2:
        raise DataError("rank correlation needs at least 2 systems")
    ranks_a = ranking_a.ranks_by_system()
    ranks_b = ranking_b.ranks_by_system()
    va = [ranks_a[s] for s in ids]
    vb = [ranks_b[s] for s in ids]
    if len(set(va)) == 1 or len(set(vb)) == 1:
        raise DataError("tau is undefined: a ranking has every system tied")
    if va == vb:
        return 1.0  # identical rankings correlate perfectly, exactly
    if vb < va:
        # Tau-b is symmetric; fixing the call order keeps it bitwise so.
        va, vb = vb, va
    return _tau_b(va, vb)


# --- studentized range --------------------------------------------------------

_GL_POINTS = 240
_U_LO, _U_HI = -9.0, 9.0


@lru_cache(maxsize=None)
def _normal_range_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes u on [-9, 9], weight * phi(u), and Phi(u)."""
    from scipy.special import ndtr

    nodes, weights = np.polynomial.legendre.leggauss(_GL_POINTS)
    u = 0.5 * (_U_HI - _U_LO) * nodes + 0.5 * (_U_HI + _U_LO)
    u_w = 0.5 * (_U_HI - _U_LO) * weights
    phi_u = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return u, u_w * phi_u, ndtr(u)


def _normal_range_cdf(w: float, r: int) -> float:
    """P(range of r iid standard normals < w)."""
    from scipy.special import ndtr

    if w <= 0.0:
        return 0.0
    u, weighted_phi, ndtr_u = _normal_range_grid()
    inner = (ndtr_u - ndtr(u - w)) ** (r - 1)
    return float(r * np.sum(weighted_phi * inner))


def studentized_range_cdf(q: float, n_groups: int, df: int) -> float:
    """CDF of the studentized range with ``n_groups`` means and ``df`` dof."""
    if n_groups < 2:
        raise ConfigError(f"studentized range needs >= 2 groups, got {n_groups}")
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    if q <= 0.0:
        return 0.0
    from scipy.integrate import quad
    from scipy.special import gammaincinv, gammaln

    # s is the scaled chi variable sqrt(chi2_df / df); its log-density below.
    ln_norm = (1.0 - df / 2.0) * math.log(2.0) + (df / 2.0) * math.log(df) - gammaln(df / 2.0)

    def integrand(s: float) -> float:
        ln_pdf = ln_norm + (df - 1.0) * math.log(s) - df * s * s / 2.0
        return math.exp(ln_pdf) * _normal_range_cdf(q * s, n_groups)

    # 2 * gammaincinv(df / 2, p) is the chi-square quantile (scipy's chi2.ppf).
    lo = math.sqrt(2 * gammaincinv(df / 2, 1e-13) / df)
    hi = math.sqrt(2 * gammaincinv(df / 2, 1.0 - 1e-13) / df)
    value, _err = quad(integrand, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=300)
    return min(1.0, max(0.0, value))


@lru_cache(maxsize=None)
def studentized_range_quantile(level: float, n_groups: int, df: int) -> float:
    """Upper quantile q with P(Q < q) = level, by bisection on the CDF."""
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level}")
    from scipy.optimize import brentq

    lo, hi = 1e-6, 4.0
    while studentized_range_cdf(hi, n_groups, df) < level:
        hi *= 2.0
        if hi > 1e6:
            raise DataError("studentized-range quantile bracket failed to close")
    return float(
        brentq(
            lambda q: studentized_range_cdf(q, n_groups, df) - level,
            lo,
            hi,
            xtol=1e-6,
        )
    )


# --- discriminative power -----------------------------------------------------


def hsd_critical_difference(values: np.ndarray, level: float) -> float:
    """Tukey HSD critical mean difference for a systems x topics matrix.

    Uses the additive two-way model (system + topic, no interaction): the
    residual mean square on (S-1)(T-1) degrees of freedom scales the
    studentized-range quantile.
    """
    n_systems, n_topics = values.shape
    if n_systems < 2 or n_topics < 2:
        raise DataError("Tukey HSD needs at least 2 systems and 2 topics")
    sys_means = values.mean(axis=1)
    topic_means = values.mean(axis=0)
    resid = values - sys_means[:, None] - topic_means[None, :] + values.mean()
    df = (n_systems - 1) * (n_topics - 1)
    mse = float((resid**2).sum()) / df
    if mse <= _VARIANCE_EPS:
        # Degenerate: no residual noise; any real mean difference separates.
        return _VARIANCE_EPS
    q = studentized_range_quantile(level, n_systems, df)
    return q * math.sqrt(mse / n_topics)


def discriminative_power(matrix: ScoreMatrix, level: float) -> int:
    """Number of system pairs whose mean difference exceeds the HSD bound."""
    if level not in SIGNIFICANCE_LEVELS:
        raise ConfigError(
            f"significance level must be one of {SIGNIFICANCE_LEVELS}, got {level}"
        )
    cols = matrix.scored_topic_indices()
    values = matrix.values[:, cols]
    cd = hsd_critical_difference(values, level)
    sys_means = values.mean(axis=1)
    diffs = np.abs(sys_means[:, None] - sys_means[None, :])
    upper = np.triu_indices(len(sys_means), k=1)
    return int((diffs[upper] > cd).sum())


def total_pairs(n_systems: int) -> int:
    return n_systems * (n_systems - 1) // 2


# --- stability ----------------------------------------------------------------


@dataclass(frozen=True)
class StabilityConfig:
    """Topic-subsample size, trial count, and seed for the stability protocol."""

    sample_size: int
    trials: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.sample_size < 1:
            raise ConfigError(f"sample size must be >= 1, got {self.sample_size}")
        if self.trials < 1:
            raise ConfigError(f"trial count must be >= 1, got {self.trials}")


@dataclass
class StabilityResult:
    metric_descriptor: str
    per_pair: dict[tuple[str, str], float]
    overall: float
    trials: int


StabilityDirection = Literal["winner", "fullset"]


def stability(
    campaign: Campaign,
    spec: MetricSpec,
    config: StabilityConfig,
    *,
    direction: StabilityDirection = "winner",
    threads: int = 1,
    rarity_depth: int | None = None,
    ap_depth="cutoff",
    matrix: ScoreMatrix | None = None,
) -> StabilityResult:
    """How consistently pair orderings survive topic subsampling.

    Each trial samples ``sample_size`` topics without replacement and
    compares every system pair on the sampled means; an exact tie credits
    each side 0.5. By default a pair's stability is the winning side's
    fraction of trials (so it lies in [0.5, 1]); ``direction="fullset"``
    instead scores agreement with the full-topic-set ordering.
    """
    if direction not in ("winner", "fullset"):
        raise ConfigError(f"unknown stability direction {direction!r}")
    if matrix is None:
        matrix = evaluate_campaign(
            campaign, [spec], rarity_depth=rarity_depth, ap_depth=ap_depth
        )[0]
    systems = matrix.systems
    if len(systems) < 2:
        raise DataError("stability needs at least 2 systems")
    cols = matrix.scored_topic_indices()
    if config.sample_size > cols.size:
        raise DataError(
            f"sample size {config.sample_size} exceeds the {cols.size} usable topics"
        )
    values = matrix.values[:, cols]
    n_topics = cols.size
    n_systems = len(systems)

    def run_trial(trial: int) -> np.ndarray:
        rng = substream(config.seed, _STREAM_STABILITY, trial)
        idx = rng.choice(n_topics, size=config.sample_size, replace=False)
        means = values[:, idx].mean(axis=1)
        diff = means[:, None] - means[None, :]
        return (diff > 0).astype(float) + 0.5 * (diff == 0)

    wins = np.zeros((n_systems, n_systems))
    workers = min(threads, config.trials)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for contribution in pool.map(run_trial, range(config.trials)):
                wins += contribution
    else:
        for trial in range(config.trials):
            wins += run_trial(trial)

    full_diff = values.mean(axis=1)[:, None] - values.mean(axis=1)[None, :]
    per_pair: dict[tuple[str, str], float] = {}
    for i in range(n_systems):
        for j in range(i + 1, n_systems):
            w = wins[i, j]
            if direction == "winner" or full_diff[i, j] == 0:
                score = max(w, config.trials - w) / config.trials
            elif full_diff[i, j] > 0:
                score = w / config.trials
            else:
                score = (config.trials - w) / config.trials
            per_pair[(systems[i], systems[j])] = float(score)
    overall = float(np.mean(list(per_pair.values())))
    return StabilityResult(matrix.metric_descriptor, per_pair, overall, config.trials)


# --- subset-of-systems experiment ----------------------------------------------


@dataclass(frozen=True)
class SubsetExperimentConfig:
    """Subset size, trial count, and seed for the N-participants experiment."""

    subset_size: int
    trials: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if self.subset_size < 2:
            raise ConfigError(f"subset size must be >= 2, got {self.subset_size}")
        if self.trials < 1:
            raise ConfigError(f"trial count must be >= 1, got {self.trials}")


@dataclass
class SubsetResult:
    metric_descriptor: str
    subset_size: int
    mean_tau: float
    trials: int
    resamples: int


_MAX_RESAMPLE_ATTEMPTS = 100


class _SubsetScorer:
    """Re-scores system subsets with rarity recomputed over just the subset.

    Precomputes, per usable topic, a boolean systems x relevant-docs
    retrieval matrix (within the rarity count depth) and, per (system,
    topic), the ranks and doc columns of relevant documents inside the
    scored prefix. A trial then only sums count vectors and rarity terms.
    Scores match the plain evaluate-a-subcampaign path (tested).
    """

    def __init__(
        self,
        campaign: Campaign,
        spec: MetricSpec,
        *,
        rarity_depth: int | None,
        ap_depth,
    ):
        self.spec = spec
        cfg = spec.config
        matrix = evaluate_campaign(
            campaign, [spec], rarity_depth=rarity_depth, ap_depth=ap_depth
        )[0]
        self.matrix = matrix
        self.systems = matrix.systems
        topics = [t for t in matrix.topics if t not in matrix.skipped_topics]
        self.topics = topics
        self.n_topics = len(topics)
        runs = {r.system_id: r for r in campaign.runs}

        if spec.is_ap_family:
            bound = cfg.cutoff if ap_depth == "cutoff" else ap_depth
        else:
            bound = cfg.cutoff
        self.retrieval: list[np.ndarray] = []
        self.positions: dict[tuple[int, int], np.ndarray] = {}
        self.columns: dict[tuple[int, int], np.ndarray] = {}
        self.n_rel = np.array(
            [campaign.qrels.n_relevant(t) for t in topics], dtype=float
        )
        for ti, topic in enumerate(topics):
            relevant = campaign.qrels.relevant(topic)
            doc_col: dict[str, int] = {}
            rows: list[tuple[int, list[int], list[int]]] = []
            for si, system in enumerate(self.systems):
                entries = runs[system].rankings.get(topic, ())
                counted = entries if rarity_depth is None else entries[:rarity_depth]
                counted_docs = {e.doc for e in counted if e.doc in relevant}
                pos: list[int] = []
                col: list[int] = []
                scored = entries if bound is None else entries[:bound]
                for rank, entry in enumerate(scored, start=1):
                    if entry.doc in relevant:
                        c = doc_col.setdefault(entry.doc, len(doc_col))
                        pos.append(rank)
                        col.append(c)
                for doc in counted_docs:
                    doc_col.setdefault(doc, len(doc_col))
                rows.append((si, pos, col))
            grid = np.zeros((len(self.systems), len(doc_col)), dtype=bool)
            for si, system in enumerate(self.systems):
                entries = runs[system].rankings.get(topic, ())
                counted = entries if rarity_depth is None else entries[:rarity_depth]
                for entry in counted:
                    c = doc_col.get(entry.doc)
                    if c is not None:
                        grid[si, c] = True
            self.retrieval.append(grid)
            for si, pos, col in rows:
                self.positions[(si, ti)] = np.array(pos, dtype=float)
                self.columns[(si, ti)] = np.array(col, dtype=int)
        # The full-campaign reference ranking uses this same code path, so a
        # full-size subset reproduces it bit-for-bit (tau is then exactly 1).
        self.full_means = self.subset_means(np.arange(len(self.systems)))

    def subset_means(self, subset: np.ndarray) -> np.ndarray:
        """Per-system mean scores when only ``subset`` participates."""
        spec = self.spec
        cfg = spec.config
        n = len(subset)
        # Base metrics never weight rarity, whatever the config carries.
        alpha = 0.0 if spec.kind in ("p", "ap") else cfg.alpha
        scores = np.zeros((n, self.n_topics))
        for ti in range(self.n_topics):
            counts = self.retrieval[ti][subset].sum(axis=0)
            if cfg.rarity_variant == "eq2":
                rarity = 1.0 - counts / n
            else:
                rarity = 1.0 - (counts - 1) / (n - 1) if n > 1 else np.ones_like(counts, dtype=float)
            for row, si in enumerate(subset):
                cols = self.columns[(si, ti)]
                if cols.size == 0:
                    continue
                doc_counts = counts[cols]
                if np.any(doc_counts < 1):
                    raise UndefinedRarityError(
                        f"a scored document for topic {self.topics[ti]!r} is outside "
                        "every sampled system's rarity count depth"
                    )
                terms = rarity[cols]
                m = cols.size
                if spec.kind == "p_rareness":
                    scores[row, ti] = (m + alpha * terms.sum()) / cfg.cutoff
                elif spec.kind == "p_mixture":
                    scores[row, ti] = ((1.0 - alpha) * m + alpha * terms.sum()) / cfg.cutoff
                elif spec.kind == "p":
                    scores[row, ti] = m / cfg.cutoff
                else:
                    weights = np.cumsum(1.0 + alpha * terms)
                    scores[row, ti] = (weights / self.positions[(si, ti)]).sum() / self.n_rel[ti]
        return scores.mean(axis=1)


def subset_experiment(
    campaign: Campaign,
    spec: MetricSpec,
    config: SubsetExperimentConfig,
    *,
    threads: int = 1,
    rarity_depth: int | None = None,
    ap_depth="cutoff",
) -> SubsetResult:
    """Mean tau between full-campaign and subset-recomputed rankings.

    Per trial: sample ``subset_size`` systems, recompute rarity over only
    those systems, re-rank them, and correlate against the same systems'
    ordering in the full ranking. Trials whose tau is undefined (a fully
    tied side) are resampled from a fresh substream; the resample count is
    reported.
    """
    n_systems = len(campaign.runs)
    if config.subset_size > n_systems:
        raise DataError(
            f"subset size {config.subset_size} exceeds the {n_systems} systems"
        )
    scorer = _SubsetScorer(
        campaign, spec, rarity_depth=rarity_depth, ap_depth=ap_depth
    )
    full_means = scorer.full_means
    n = config.subset_size

    def run_trial(trial: int) -> tuple[float, int]:
        for attempt in range(_MAX_RESAMPLE_ATTEMPTS):
            rng = substream(config.seed, _STREAM_SUBSET, trial, attempt)
            subset = np.sort(rng.choice(n_systems, size=n, replace=False))
            sub_means = scorer.subset_means(subset)
            reference = full_means[subset]
            if len(set(reference)) == 1 or len(set(sub_means)) == 1:
                continue  # tau undefined on a fully tied side; resample
            if np.array_equal(reference, sub_means):
                return 1.0, attempt
            # By its global name, so the benchmark's tracer can time it.
            tau = _scipy_kendalltau(reference, sub_means)
            if not math.isnan(tau):
                return tau, attempt
        raise DataError(
            f"tau undefined in {_MAX_RESAMPLE_ATTEMPTS} consecutive resamples; "
            "the campaign is too degenerate for this experiment"
        )

    taus: list[float] = []
    resamples = 0
    workers = min(threads, config.trials)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for tau, attempts in pool.map(run_trial, range(config.trials)):
                taus.append(tau)
                resamples += attempts
    else:
        for trial in range(config.trials):
            tau, attempts = run_trial(trial)
            taus.append(tau)
            resamples += attempts
    mean_tau = sum(taus) / config.trials
    return SubsetResult(
        scorer.matrix.metric_descriptor, n, float(mean_tau), config.trials, resamples
    )
