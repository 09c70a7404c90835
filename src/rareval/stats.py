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
  full-campaign ranking. Its scores come from the one campaign scorer in
  ``campaign``, the one ``evaluate_campaign`` runs, over the sampled rows,
  so they equal ``evaluate_campaign`` on the subcampaign bit for bit.

Stability draws trial ``t``'s topics from ``substream(seed, 101, t)``, once
per (seed, usable topics, sample size, trials): a bounded memo keeps the last
four such draw arrays, read-only, each trials x sample size bytes (two bytes
an index above 256 topics), so metrics over the same topics share them. It
scores each distinct draw once, over blocks of draws sized to a few MB, and
counts wins as integers, so its results equal the one-trial-at-a-time loop
bit for bit. Subset trials run one at a time. Nothing runs in threads.

The HSD critical value comes from the studentized-range distribution: its
CDF is the Copenhaver & Holland (1988) double integral, both integrals on
fixed Gauss-Legendre rules in one numpy expression, and its quantile is
found by bisection (within 2e-7 of scipy's up to 300 groups and df 1 to
20000); the test suite also checks it against published tables.

Only the studentized range needs scipy, and only ``scipy.special``, imported
on first use, so of the CLI commands only ``discpower`` loads scipy. Tau-b
is computed here with numpy and exact integer pair counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .campaign import ScoreMatrix, SystemRanking, _SubsetScorer, evaluate_campaign
from .errors import ConfigError, DataError
from .metrics import MetricSpec
from .rarity import is_depth
from .rng import DEFAULT_SEED, check_seed, substream
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

# Fixed Gauss-Legendre rules in u and s. The range of up to 300 normals
# exceeds _W_MAX with probability < 1e-20, so the s-mass above _W_MAX / q is
# added in closed form: nodes over a heavy df = 1 tail would be off by tens.
_U_POINTS = 240
_S_POINTS = 128
_U_LO, _U_HI = -9.0, 9.0
_W_MAX = 20.0
_S_TAIL = 1e-13


@lru_cache(maxsize=None)
def _quadrature_grids() -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Nodes u on [-9, 9], weight * phi(u), Phi(u), and the s rule on [-1, 1]."""
    from scipy.special import ndtr

    nodes, weights = np.polynomial.legendre.leggauss(_U_POINTS)
    u = 0.5 * (_U_HI - _U_LO) * nodes + 0.5 * (_U_HI + _U_LO)
    u_w = 0.5 * (_U_HI - _U_LO) * weights
    phi_u = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return u, u_w * phi_u, ndtr(u), np.polynomial.legendre.leggauss(_S_POINTS)


def studentized_range_cdf(q: float, n_groups: int, df: int) -> float:
    """CDF of the studentized range with ``n_groups`` means and ``df`` dof."""
    if n_groups < 2:
        raise ConfigError(f"studentized range needs >= 2 groups, got {n_groups}")
    if df < 1:
        raise ConfigError(f"degrees of freedom must be >= 1, got {df}")
    if q <= 0.0:
        return 0.0
    from scipy.special import gammainc, gammaincinv, gammaln, ndtr

    # s is the scaled chi variable sqrt(chi2_df / df); s^2 * df / 2 is
    # gamma(df / 2) distributed, so gammaincinv gives its quantiles.
    half = df / 2.0
    lo = math.sqrt(gammaincinv(half, _S_TAIL) / half)
    hi = math.sqrt(gammaincinv(half, 1.0 - _S_TAIL) / half)
    top = min(max(_W_MAX / q, lo), hi)
    u, weighted_phi, ndtr_u, (nodes, weights) = _quadrature_grids()
    s = 0.5 * (top - lo) * nodes + 0.5 * (top + lo)
    ln_norm = (1.0 - half) * math.log(2.0) + half * math.log(df) - gammaln(half)
    ln_pdf = ln_norm + (df - 1.0) * np.log(s) - half * s * s
    s_w = 0.5 * (top - lo) * weights * np.exp(ln_pdf)
    range_cdf = n_groups * ((ndtr_u - ndtr(u - q * s[:, None])) ** (n_groups - 1) @ weighted_phi)
    value = s_w @ range_cdf + (1.0 - gammainc(half, half * top * top))
    return min(1.0, max(0.0, float(value)))


@lru_cache(maxsize=None)
def studentized_range_quantile(level: float, n_groups: int, df: int) -> float:
    """Upper quantile q with P(Q < q) = level, by bisection on the CDF."""
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level}")
    lo, hi = 1e-6, 4.0
    while studentized_range_cdf(hi, n_groups, df) < level:
        hi *= 2.0
        if hi > 1e6:
            raise DataError("studentized-range quantile bracket failed to close")
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if studentized_range_cdf(mid, n_groups, df) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
        if not is_depth(self.sample_size):
            raise ConfigError(f"sample size must be an integer >= 1, got {self.sample_size!r}")
        if not is_depth(self.trials):
            raise ConfigError(f"trial count must be an integer >= 1, got {self.trials!r}")
        check_seed(self.seed)


@dataclass
class StabilityResult:
    metric_descriptor: str
    per_pair: dict[tuple[str, str], float]
    overall: float
    trials: int


StabilityDirection = Literal["winner", "fullset"]

# Cells of the temporaries stability builds per block of distinct draws (the
# gathered scores and the pairwise differences); bounds their memory at a few
# MB whatever the number of systems, topics or trials.
_STABILITY_BLOCK_CELLS = 1 << 18


@lru_cache(maxsize=4)
def _trial_samples(seed: int, n_topics: int, sample_size: int, trials: int) -> np.ndarray:
    """Each stability trial's sampled topic indices, row ``t`` for trial ``t``.

    Row ``t`` is the draw of ``substream(seed, _STREAM_STABILITY, t)``, so
    metrics with the same number of usable topics share one set of draws.
    The array is read-only, as every caller gets the same one.
    """
    draws = np.empty((trials, sample_size), dtype=np.min_scalar_type(n_topics - 1))
    for trial in range(trials):
        rng = substream(seed, _STREAM_STABILITY, trial)
        draws[trial] = rng.choice(n_topics, size=sample_size, replace=False)
    draws.flags.writeable = False
    return draws


def stability(
    campaign: Campaign,
    spec: MetricSpec,
    config: StabilityConfig,
    *,
    direction: StabilityDirection = "winner",
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
    n_systems = len(systems)
    trials = config.trials

    draws = _trial_samples(config.seed, cols.size, config.sample_size, trials)
    # Trials that drew the same topics in the same order have the same means,
    # so each distinct draw is scored once and counted once per such trial.
    samples, repeats = np.unique(draws, axis=0, return_counts=True)
    first, second = np.triu_indices(n_systems, 1)  # the pairs i < j, row-major
    greater = np.zeros(first.size, dtype=np.int64)
    equal = np.zeros(first.size, dtype=np.int64)
    step = max(1, _STABILITY_BLOCK_CELLS // max(n_systems * config.sample_size, first.size))
    for start in range(0, len(samples), step):
        # The same contiguous pairwise sum per sample as values[:, idx].mean(axis=1).
        means = values[:, samples[start : start + step]].mean(axis=-1)
        diff = means[first] - means[second]
        weight = repeats[start : start + step]
        greater += (diff > 0) @ weight
        equal += (diff == 0) @ weight
    wins = greater + 0.5 * equal  # exact: every term is a multiple of 0.5

    scores = np.maximum(wins, trials - wins) / trials
    if direction == "fullset":
        full = values.mean(axis=1)
        full_diff = full[first] - full[second]
        scores = np.where(
            full_diff == 0,
            scores,
            np.where(full_diff > 0, wins / trials, (trials - wins) / trials),
        )
    per_pair = {
        (systems[i], systems[j]): score
        for i, j, score in zip(first.tolist(), second.tolist(), scores.tolist())
    }
    overall = float(scores.mean())
    return StabilityResult(matrix.metric_descriptor, per_pair, overall, trials)


# --- subset-of-systems experiment ----------------------------------------------


@dataclass(frozen=True)
class SubsetExperimentConfig:
    """Subset size, trial count, and seed for the N-participants experiment."""

    subset_size: int
    trials: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        if not is_depth(self.subset_size) or self.subset_size < 2:
            raise ConfigError(f"subset size must be an integer >= 2, got {self.subset_size!r}")
        if not is_depth(self.trials):
            raise ConfigError(f"trial count must be an integer >= 1, got {self.trials!r}")
        check_seed(self.seed)


@dataclass
class SubsetResult:
    metric_descriptor: str
    subset_size: int
    mean_tau: float
    trials: int
    resamples: int


_MAX_RESAMPLE_ATTEMPTS = 100


def subset_experiment(
    campaign: Campaign,
    spec: MetricSpec,
    config: SubsetExperimentConfig,
    *,
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
    # The full-campaign reference ranking uses this same code path, so a
    # full-size subset reproduces it bit-for-bit (tau is then exactly 1).
    full_means = scorer.subset_means(np.arange(n_systems))
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

    trials = [run_trial(trial) for trial in range(config.trials)]
    mean_tau = sum(tau for tau, _ in trials) / config.trials
    resamples = sum(attempts for _, attempts in trials)
    return SubsetResult(spec.descriptor, n, float(mean_tau), config.trials, resamples)
