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
bit for bit. Subset trials are scored in blocks too, and give the draws,
resamples, errors and results of the one-trial-at-a-time loop. A run takes
at most ``rarity.CELL_BUDGET`` trial cells. Nothing runs in threads.

The HSD critical value comes from the studentized-range distribution: its
CDF is the Copenhaver & Holland (1988) double integral, both integrals on
fixed Gauss-Legendre rules in one numpy expression, and its quantile is the
root of that CDF found by Brent's method. The test suite checks both
against published tables and against a scipy-based reference.

No command loads scipy. The normal CDF on the quadrature grid is Cephes'
rational erf/erfc in numpy; lgamma, the regularized incomplete gamma (series
and continued fraction) and its inverse (Newton) are scalar ``math`` code.
Tau-b is computed here with numpy and exact integer pair counts.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

import numpy as np

from .campaign import _BLOCK_SLOTS, ScoreMatrix, SystemRanking, _blocks, _SubsetScorer
from .campaign import evaluate_campaign
from .errors import ConfigError, DataError
from .metrics import MetricSpec
from .rarity import check_cells, is_depth
from .rng import DEFAULT_SEED, check_seed, substream
from .trec_io import Campaign

SIGNIFICANCE_LEVELS = (0.95, 0.99)

_VARIANCE_EPS = 1e-12

# Substream tags so each procedure draws from its own counter family.
_STREAM_STABILITY = 101
_STREAM_SUBSET = 102

# --- rank correlation ---------------------------------------------------------

# Cells of the pairwise sign matrices tau-b builds per block of pairs; bounds
# its memory at a few MB whatever the number of systems.
_TAU_BLOCK_CELLS = 1 << 18


def _tau_b(x, y):
    """Kendall's tau-b of two equal-length vectors, or of each row of ``x``
    with the same row of ``y`` (rows x values); NaN where a side is fully tied.

    Concordant-minus-discordant and the tie counts are exact integers, and
    the final expression and clamp are scipy's ``kendalltau(variant="b")``,
    so each result equals scipy's bit for bit.
    """
    one = np.ndim(x) == 1
    x = np.atleast_2d(x)
    y = np.atleast_2d(y)
    n = x.shape[1]
    tot = n * (n - 1) // 2
    # Over ordered pairs (i, j), i == j included: each unordered pair counts
    # twice and the diagonal adds n zero signs.
    signed = x_zero = y_zero = 0
    step = max(1, _TAU_BLOCK_CELLS // max(x.size, 1))
    for start in range(0, n, step):
        sx = np.sign(x[:, start : start + step, None] - x[:, None, :])
        sy = np.sign(y[:, start : start + step, None] - y[:, None, :])
        signed = signed + (sx * sy).sum(axis=(1, 2)).astype(np.int64)
        x_zero = x_zero + np.count_nonzero(sx == 0, axis=(1, 2))
        y_zero = y_zero + np.count_nonzero(sy == 0, axis=(1, 2))
    con_minus_dis = signed // 2
    xtie = (x_zero - n) // 2
    ytie = (y_zero - n) // 2
    tied = (xtie == tot) | (ytie == tot)
    with np.errstate(divide="ignore", invalid="ignore"):
        tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    tau = np.where(tied, np.nan, np.minimum(1.0, np.maximum(-1.0, tau)))
    return float(tau[0]) if one else tau


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

# Cephes' rational approximations (ndtr.c): erf(z) = z T(z^2) / U(z^2) for
# z < 1, and erfc(z) = exp(-z^2) P(z) / Q(z) for z >= 1, whose absolute error
# stays below 1e-16 out to where erfc underflows. Highest degree first.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)

# Stirling's series for ln Gamma(a) - ((a - 1/2) ln a - a + ln(2 pi) / 2): 1 / a
# times a polynomial in 1 / a^2, highest degree first. Its truncation error is
# below 1e-16 from a = 10 up.
_STIRLING = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _horner(coefficients: tuple, x):
    """The polynomial with ``coefficients`` (highest degree first) at ``x``."""
    value = coefficients[0] * x
    value += coefficients[1]
    for c in coefficients[2:]:
        value *= x
        value += c
    return value


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of each element, within 2e-16 absolute."""
    z = np.abs(x)
    z *= math.sqrt(0.5)
    tail = np.square(z)  # becomes erfc(z) / 2 = Phi(-|x|)
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    tail *= _horner(_ERFC_P, z)
    tail /= _horner(_ERFC_Q, z)
    tail *= 0.5
    near = z < 1.0
    z_near = z[near]
    z2 = z_near * z_near
    tail[near] = 0.5 - 0.5 * (z_near * _horner(_ERF_T, z2) / _horner(_ERF_U, z2))
    np.subtract(1.0, tail, out=tail, where=x > 0.0)
    return tail


def _gamma_kernel(a: float, x: float) -> float:
    """``x**a * exp(-x) / Gamma(a)``, for ``x > 0``.

    From a = 10 up, it is taken as ``sqrt(a / 2 pi) * exp(a (log1p(y) - y))``
    with ``y = (x - a) / a``, over Stirling's series: the exponent then errs
    by about ``|x - a|`` ulps, where the plain ``a log x - x - lgamma(a)``
    would lose ``a log a`` ulps to cancellation.
    """
    if a < 10.0:
        return math.exp(a * math.log(x) - x - math.lgamma(a))
    y = (x - a) / a
    stirling = _horner(_STIRLING, 1.0 / (a * a)) / a
    return math.sqrt(a / (2.0 * math.pi)) * math.exp(a * (math.log1p(y) - y) - stirling)


def _regularized_gamma(a: float, x: float) -> tuple[float, float]:
    """The regularized incomplete gamma functions (P(a, x), Q(a, x)).

    The series for P below ``x = a + 1``, and above it the continued fraction
    for Q by the modified Lentz method (Numerical Recipes, 6.2).
    """
    if x <= 0.0:
        return 0.0, 1.0
    kernel = _gamma_kernel(a, x)
    if x < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * _EPS:
            n += 1.0
            term *= x / n
            total += term
        p = kernel * total
        return p, 1.0 - p
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    fraction = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) >= _TINY else _TINY)
        c = b + an / c
        c = c if abs(c) >= _TINY else _TINY
        delta = d * c
        fraction *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    q = kernel * fraction
    return 1.0 - q, q


def _gamma_tail_inverse(a: float, p: float, upper: bool) -> float:
    """The ``x`` with ``Q(a, x) = p`` if ``upper``, else ``P(a, x) = p``.

    Newton on ``log x``, where the log of either tail is concave: started on
    the side of the root where the tail is below ``p``, every step lands
    nearer the root on that same side. The start is the Wilson-Hilferty cube
    with ``sqrt(-2 log p)`` in place of the normal quantile or, where that
    cube is not positive, the x at which the bound ``P(a, x) <
    x**a / Gamma(a + 1)`` equals ``p``; it is stepped outward until the tail
    is below ``p``.
    """
    tail_index = 1 if upper else 0
    log_p = math.log(p)
    z = math.sqrt(-2.0 * log_p)
    cube = 1.0 - 1.0 / (9.0 * a) + (z if upper else -z) / (3.0 * math.sqrt(a))
    x = a * cube**3 if cube > 0.0 else math.exp((log_p + math.lgamma(a + 1.0)) / a)
    while _regularized_gamma(a, x)[tail_index] > p:
        x = 2.0 * x if upper else 0.5 * x
    log_x = math.log(x)
    for _ in range(100):
        tail = _regularized_gamma(a, x)[tail_index]
        # d log(tail) / d log(x) is -+ kernel / tail.
        step = (math.log(tail) - log_p) * tail / _gamma_kernel(a, x)
        log_x += step if upper else -step
        x = math.exp(log_x)
        if abs(step) <= 1e-14:
            break
    return x


@lru_cache(maxsize=None)
def _s_rule(df: int) -> tuple[float, float, float]:
    """The s-range [lo, hi] holding all but 2 * _S_TAIL of s, and ln of s's
    density normaliser.

    s is the scaled chi variable sqrt(chi2_df / df); s^2 * df / 2 is
    gamma(df / 2) distributed, so the gamma tails' inverses bound it.
    """
    half = df / 2.0
    lo = math.sqrt(_gamma_tail_inverse(half, _S_TAIL, upper=False) / half)
    hi = math.sqrt(_gamma_tail_inverse(half, _S_TAIL, upper=True) / half)
    ln_norm = (1.0 - half) * math.log(2.0) + half * math.log(df) - math.lgamma(half)
    return lo, hi, ln_norm


@lru_cache(maxsize=None)
def _quadrature_grids() -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Nodes u on [-9, 9], weight * phi(u), Phi(u), and the s rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(_U_POINTS)
    u = 0.5 * (_U_HI - _U_LO) * nodes + 0.5 * (_U_HI + _U_LO)
    u_w = 0.5 * (_U_HI - _U_LO) * weights
    phi_u = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return u, u_w * phi_u, _ndtr(u), np.polynomial.legendre.leggauss(_S_POINTS)


def _check_range_shape(n_groups, df) -> None:
    if not is_depth(n_groups) or n_groups < 2:
        raise ConfigError(f"studentized range needs an integer n_groups >= 2, got {n_groups!r}")
    if not is_depth(df):
        raise ConfigError(f"studentized range needs an integer df >= 1, got {df!r}")


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def studentized_range_cdf(q: float, n_groups: int, df: int) -> float:
    """CDF of the studentized range with ``n_groups`` means and ``df`` dof."""
    _check_range_shape(n_groups, df)
    if not _is_real(q) or math.isnan(q):
        raise ConfigError(f"studentized range q must be a number, got {q!r}")
    if q <= 0.0:
        return 0.0
    if q == math.inf:
        return 1.0
    half = df / 2.0
    lo, hi, ln_norm = _s_rule(df)
    top = min(max(_W_MAX / q, lo), hi)
    u, weighted_phi, ndtr_u, (nodes, weights) = _quadrature_grids()
    # A u whose Phi(u)**(n_groups - 1) underflows adds nothing to the sum.
    keep = ndtr_u > math.exp(math.log(_TINY) / (n_groups - 1))
    s = 0.5 * (top - lo) * nodes + 0.5 * (top + lo)
    ln_pdf = ln_norm + (df - 1.0) * np.log(s) - half * s * s
    s_w = 0.5 * (top - lo) * weights * np.exp(ln_pdf)
    # gap**(n_groups - 1) through exp and log: a power underflowing to zero
    # takes pow's slow path, and log(0) would warn.
    gap = ndtr_u[keep] - _ndtr(u[keep] - q * s[:, None])
    ln_gap = np.log(gap, out=np.full_like(gap, -np.inf), where=gap > 0.0)
    ln_gap *= n_groups - 1
    range_cdf = n_groups * (np.exp(ln_gap, out=ln_gap) @ weighted_phi[keep])
    value = s_w @ range_cdf + _regularized_gamma(half, half * top * top)[1]
    return min(1.0, max(0.0, float(value)))


def _brent_root(f, a: float, f_a: float, b: float, f_b: float, rtol: float) -> float:
    """A root of ``f`` in [a, b], where ``f_a`` and ``f_b`` differ in sign.

    Brent's method (Numerical Recipes, 9.3): inverse quadratic or secant
    steps that keep a bracket, and a bisection step whenever one would leave
    it or shrink it too slowly. Stops once the bracket is within ``rtol`` of
    its end.
    """
    c, f_c = b, f_b
    step = last_step = b - a
    while True:
        if (f_b > 0.0) == (f_c > 0.0):
            c, f_c = a, f_a
            step = last_step = b - a
        if abs(f_c) < abs(f_b):
            a, b, c = b, c, b
            f_a, f_b, f_c = f_b, f_c, f_b
        tol = 2.0 * _EPS * abs(b) + 0.5 * rtol * abs(b)
        half_width = 0.5 * (c - b)
        if abs(half_width) <= tol or f_b == 0.0:
            return b
        if abs(last_step) >= tol and abs(f_a) > abs(f_b):
            s = f_b / f_a
            if a == c:
                p, q = 2.0 * half_width * s, 1.0 - s
            else:
                q, r = f_a / f_c, f_b / f_c
                p = s * (2.0 * half_width * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * half_width * q - abs(tol * q), abs(last_step * q)):
                last_step, step = step, p / q
            else:
                step = last_step = half_width
        else:
            step = last_step = half_width
        a, f_a = b, f_b
        b += step if abs(step) > tol else math.copysign(tol, half_width)
        f_b = f(b)


def studentized_range_quantile(level: float, n_groups: int, df: int) -> float:
    """Upper quantile q with P(Q < q) = level, within 1e-12 relative.

    The bracket doubles from [1e-6, 4] until the CDF reaches ``level``, and
    Brent's method finds the root within it. The arguments are checked
    before the cache, whose ``cache_info()`` this function carries.
    """
    _check_range_shape(n_groups, df)
    if not _is_real(level) or not 0.0 < level < 1.0:
        raise ConfigError(f"studentized range level must be a number in (0, 1), got {level!r}")
    return _range_quantile(level, n_groups, df)


@lru_cache(maxsize=None)
def _range_quantile(level: float, n_groups: int, df: int) -> float:
    def excess(q: float) -> float:
        return studentized_range_cdf(q, n_groups, df) - level

    lo, f_lo = 1e-6, None
    hi, f_hi = 4.0, excess(4.0)
    while f_hi < 0.0:
        lo, f_lo = hi, f_hi
        hi *= 2.0
        if hi > 1e6:
            raise DataError("studentized-range quantile bracket failed to close")
        f_hi = excess(hi)
    if f_lo is None:
        f_lo = excess(lo)
    return _brent_root(excess, lo, f_lo, hi, f_hi, 1e-12)


studentized_range_quantile.cache_info = _range_quantile.cache_info


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


def _check_trials(noun: str, size, least: int, trials, seed) -> None:
    """A trial config's checks: a ``noun`` size of at least ``least``, a trial
    count of at least 1, their product within the cell budget, and the seed."""
    if not is_depth(size) or size < least:
        raise ConfigError(f"{noun} size must be an integer >= {least}, got {size!r}")
    if not is_depth(trials):
        raise ConfigError(f"trial count must be an integer >= 1, got {trials!r}")
    check_cells(trials * size, f"trial count {trials} x {noun} size {size}", "trial cells")
    check_seed(seed)


@dataclass(frozen=True)
class StabilityConfig:
    """Topic-subsample size, trial count, and seed for the stability protocol."""

    sample_size: int
    trials: int = 1000
    seed: int = DEFAULT_SEED

    def __post_init__(self) -> None:
        _check_trials("sample", self.sample_size, 1, self.trials, self.seed)


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
    cells = max(n_systems * config.sample_size, first.size)
    for block in _blocks(len(samples), cells, _STABILITY_BLOCK_CELLS):
        # The same contiguous pairwise sum per sample as values[:, idx].mean(axis=1).
        means = values[:, samples[block]].mean(axis=-1)
        diff = means[first] - means[second]
        weight = repeats[block]
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
        _check_trials("subset", self.subset_size, 2, self.trials, self.seed)


@dataclass
class SubsetResult:
    metric_descriptor: str
    subset_size: int
    mean_tau: float
    trials: int
    resamples: int


_MAX_RESAMPLE_ATTEMPTS = 100

# The last call's key, scorer and full means: the CLI makes one call per size
# with the same objects. The key holds what the scorer reads, the qrels and
# each run, with the spec and depths, all compared by identity.
_last_reference: list = [(), None, None]


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
    reported. Each attempt scores the trials still open, in blocks.
    """
    n_systems = len(campaign.runs)
    if config.subset_size > n_systems:
        raise DataError(
            f"subset size {config.subset_size} exceeds the {n_systems} systems"
        )
    key = (campaign.qrels, spec, rarity_depth, ap_depth, *campaign.runs)
    last = _last_reference[0]
    if len(key) != len(last) or any(a is not b for a, b in zip(key, last)):
        scorer = _SubsetScorer(campaign, spec, rarity_depth=rarity_depth, ap_depth=ap_depth)
        # The full-campaign reference ranking uses this same code path, so a
        # full-size subset reproduces it bit-for-bit (tau is then exactly 1).
        _last_reference[:] = [key, scorer, scorer.subset_means(np.arange(n_systems))]
    scorer, full_means = _last_reference[1:]
    n = config.subset_size

    def draw(trial: int, attempt: int) -> np.ndarray:
        rng = substream(config.seed, _STREAM_SUBSET, trial, attempt)
        return np.sort(rng.choice(n_systems, size=n, replace=False))

    taus = np.full(config.trials, np.nan)
    attempts = np.zeros(config.trials, dtype=np.int64)
    undefined = np.zeros(config.trials, dtype=bool)  # a rarity no row of the draw counts
    open_trials = np.arange(config.trials)
    for attempt in range(_MAX_RESAMPLE_ATTEMPTS):
        for block in _blocks(open_trials.size, n * max(scorer.width, n), _BLOCK_SLOTS):
            trials = open_trials[block]
            subsets = np.array([draw(trial, attempt) for trial in trials.tolist()])
            means = scorer.subset_means(subsets)
            reference = full_means[subsets]
            undefined[trials] = np.isnan(means).any(axis=1)
            tied = undefined[trials] | (reference == reference[:, :1]).all(axis=1)
            tied |= (means == means[:, :1]).all(axis=1)
            taus[trials[~tied & (reference == means).all(axis=1)]] = 1.0
            live = ~tied & (reference != means).any(axis=1)
            if live.any():
                # By its global name, so the benchmark's tracer can time it.
                taus[trials[live]] = _scipy_kendalltau(reference[live], means[live])
            attempts[trials] = attempt
        open_trials = open_trials[np.isnan(taus[open_trials]) & ~undefined[open_trials]]
        if not open_trials.size:
            break
    failed = np.flatnonzero(np.isnan(taus))
    if failed.size and undefined[failed[0]]:  # scored alone, the draw raises
        scorer.subset_means(draw(int(failed[0]), int(attempts[failed[0]])))
    if failed.size:
        raise DataError(
            f"tau undefined in {_MAX_RESAMPLE_ATTEMPTS} consecutive resamples; "
            "the campaign is too degenerate for this experiment"
        )
    mean_tau = sum(taus.tolist()) / config.trials
    return SubsetResult(spec.descriptor, n, float(mean_tau), config.trials, int(attempts.sum()))
