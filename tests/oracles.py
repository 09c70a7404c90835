"""Independent brute-force reference implementations.

Everything here works on plain dicts and lists, shares no helpers with the
package, and favors obviousness over speed: retrieval counts are recomputed
by scanning every run on every lookup, and the average-precision references
re-evaluate each prefix from scratch.

``RunsDocs`` is ``{system_id: {topic: [doc, ...]}}`` in evaluation order;
``canonical_order`` is that order, by sorting, over plain tuples, and
``run_of_entries`` builds a package ``Run`` from entries in that order,
without parsing.

The studentized-range references are the package's former scipy-based CDF and
bisection quantile, kept unchanged with their own copy of the rule constants.

``naive_format_run`` is the run writer's former loop: one f-string per
line, with nothing shared between topics.

``loop_subset_experiment`` is the subset experiment's former per-trial loop:
its draws, resampling and tau are its own, and it scores each row set
through a callable the caller passes, such as the package scorer's one-set
path.
"""

import math
from functools import lru_cache

import numpy as np


def naive_count_retrievers(runs_docs, topic, doc, depth=None):
    n = 0
    for system in runs_docs:
        docs = runs_docs[system].get(topic, [])
        if depth is not None:
            docs = docs[:depth]
        if doc in docs:
            n += 1
    return n


def naive_rarity(runs_docs, topic, doc, variant, depth=None):
    s = len(runs_docs)
    s_d = naive_count_retrievers(runs_docs, topic, doc, depth)
    if variant == "eq2":
        return 1.0 - s_d / s
    if s == 1:
        return 1.0
    return 1.0 - (s_d - 1) / (s - 1)


def naive_p_at_k(docs, relevant, k):
    total = 0.0
    for i in range(1, k + 1):
        if i <= len(docs) and docs[i - 1] in relevant:
            total += 1.0
    return total / k


def naive_p_at_k_rareness(runs_docs, system, topic, relevant, k, alpha, variant, depth=None):
    docs = runs_docs[system].get(topic, [])
    total = 0.0
    for i in range(1, k + 1):
        if i <= len(docs) and docs[i - 1] in relevant:
            total += 1.0 + alpha * naive_rarity(runs_docs, topic, docs[i - 1], variant, depth)
    return total / k


def naive_p_at_k_mixture(runs_docs, system, topic, relevant, k, alpha, variant, depth=None):
    docs = runs_docs[system].get(topic, [])
    total = 0.0
    for i in range(1, k + 1):
        if i <= len(docs) and docs[i - 1] in relevant:
            rarity = naive_rarity(runs_docs, topic, docs[i - 1], variant, depth)
            total += (1.0 - alpha) + alpha * rarity
    return total / k


def naive_ap(docs, relevant, k, n_relevant):
    total = 0.0
    for i in range(1, min(k, len(docs)) + 1):
        if docs[i - 1] in relevant:
            total += naive_p_at_k(docs[:i], relevant, i)
    return total / n_relevant


def naive_ap_rareness(runs_docs, system, topic, relevant, k, alpha, variant, n_relevant, depth=None):
    docs = runs_docs[system].get(topic, [])
    total = 0.0
    for i in range(1, min(k, len(docs)) + 1):
        if docs[i - 1] in relevant:
            total += naive_p_at_k_rareness(
                runs_docs, system, topic, relevant, i, alpha, variant, depth
            )
    return total / n_relevant


# Copenhaver & Holland (1988) on fixed Gauss-Legendre rules, with scipy.special.
_SR_U_POINTS = 240
_SR_S_POINTS = 128
_SR_U_LO, _SR_U_HI = -9.0, 9.0
_SR_W_MAX = 20.0
_SR_S_TAIL = 1e-13


@lru_cache(maxsize=None)
def _scipy_quadrature_grids():
    from scipy.special import ndtr

    nodes, weights = np.polynomial.legendre.leggauss(_SR_U_POINTS)
    u = 0.5 * (_SR_U_HI - _SR_U_LO) * nodes + 0.5 * (_SR_U_HI + _SR_U_LO)
    u_w = 0.5 * (_SR_U_HI - _SR_U_LO) * weights
    phi_u = np.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return u, u_w * phi_u, ndtr(u), np.polynomial.legendre.leggauss(_SR_S_POINTS)


def scipy_studentized_range_cdf(q, n_groups, df):
    if q <= 0.0:
        return 0.0
    from scipy.special import gammainc, gammaincinv, gammaln, ndtr

    half = df / 2.0
    lo = math.sqrt(gammaincinv(half, _SR_S_TAIL) / half)
    hi = math.sqrt(gammaincinv(half, 1.0 - _SR_S_TAIL) / half)
    top = min(max(_SR_W_MAX / q, lo), hi)
    u, weighted_phi, ndtr_u, (nodes, weights) = _scipy_quadrature_grids()
    s = 0.5 * (top - lo) * nodes + 0.5 * (top + lo)
    ln_norm = (1.0 - half) * math.log(2.0) + half * math.log(df) - gammaln(half)
    ln_pdf = ln_norm + (df - 1.0) * np.log(s) - half * s * s
    s_w = 0.5 * (top - lo) * weights * np.exp(ln_pdf)
    range_cdf = n_groups * ((ndtr_u - ndtr(u - q * s[:, None])) ** (n_groups - 1) @ weighted_phi)
    value = s_w @ range_cdf + (1.0 - gammainc(half, half * top * top))
    return min(1.0, max(0.0, float(value)))


def bisection_studentized_range_quantile(level, n_groups, df):
    lo, hi = 1e-6, 4.0
    while scipy_studentized_range_cdf(hi, n_groups, df) < level:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("studentized-range quantile bracket failed to close")
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if scipy_studentized_range_cdf(mid, n_groups, df) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def naive_tau_b(x, y):
    """Tau-b by explicit pair counting with tie corrections."""
    n = len(x)
    concordant = 0
    discordant = 0
    ties_x = 0
    ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0:
                ties_x += 1
            if dy == 0:
                ties_y += 1
            if dx * dy > 0:
                concordant += 1
            elif dx * dy < 0:
                discordant += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    return (concordant - discordant) / denom


def naive_stability(values, sample_size, trials, seed, direction="winner"):
    """The topic-subsampling protocol, one trial at a time.

    ``values`` is a systems x usable-topics array. Trial ``t`` samples topics
    with numpy's generator seeded by ``(seed, 101, t)``, the stability
    substream, and an exact tie credits each side 0.5. Returns the scores
    keyed by system index pairs ``(i, j)``, ``i < j``, and their mean.
    """
    values = np.asarray(values, dtype=float)
    n_systems, n_topics = values.shape
    wins = np.zeros((n_systems, n_systems))
    for trial in range(trials):
        rng = np.random.default_rng((seed, 101, trial))
        idx = rng.choice(n_topics, size=sample_size, replace=False)
        means = values[:, idx].mean(axis=1)
        diff = means[:, None] - means[None, :]
        wins += (diff > 0).astype(float) + 0.5 * (diff == 0)
    full = values.mean(axis=1)
    per_pair = {}
    for i in range(n_systems):
        for j in range(i + 1, n_systems):
            w = wins[i, j]
            full_diff = full[i] - full[j]
            if direction == "winner" or full_diff == 0:
                score = max(w, trials - w) / trials
            elif full_diff > 0:
                score = w / trials
            else:
                score = (trials - w) / trials
            per_pair[(i, j)] = float(score)
    return per_pair, float(np.mean(list(per_pair.values())))


def loop_subset_experiment(subset_means, n_systems, subset_size, trials, seed):
    """The subset-of-systems protocol, one trial and one attempt at a time.

    ``subset_means(rows)`` gives the mean scores of one sorted row set, with
    rarity counted over it, or raises. Attempt ``a`` of trial ``t`` draws from
    numpy's generator seeded by ``(seed, 102, t, a)``; an attempt with a fully
    tied side is redrawn, 100 at most. Tau-b is scipy's. Returns the mean tau
    and the number of redraws.
    """
    from scipy.stats import kendalltau

    from rareval.errors import DataError

    full_means = subset_means(np.arange(n_systems))
    taus, resamples = [], 0
    for trial in range(trials):
        for attempt in range(100):
            rng = np.random.default_rng((seed, 102, trial, attempt))
            subset = np.sort(rng.choice(n_systems, size=subset_size, replace=False))
            means, reference = subset_means(subset).tolist(), full_means[subset].tolist()
            if len(set(reference)) > 1 and len(set(means)) > 1:
                same = reference == means
                taus.append(1.0 if same else float(kendalltau(reference, means).statistic))
                resamples += attempt
                break
        else:
            raise DataError("tau undefined in 100 consecutive resamples; "
                            "the campaign is too degenerate for this experiment")
    return sum(taus) / trials, resamples


def canonical_order(entries, order):
    """``(doc, score, rank_field)`` tuples in canonical evaluation order: by
    descending score (``order="score"``) or ascending rank field
    (``"rank-field"``), ties broken by descending doc-id in ``str`` order."""
    if order == "score":
        return sorted(entries, key=lambda e: (e[1], e[0]), reverse=True)
    by_doc = sorted(entries, key=lambda e: e[0], reverse=True)
    return sorted(by_doc, key=lambda e: e[2])


def run_of_entries(system_id, rankings):
    """A package ``Run`` over ``{topic: [RunEntry, ...]}`` already in canonical
    order, its doc-ids numbered first-seen in a vocabulary of its own."""
    from rareval.trec_io import Run, RunColumns, intern

    vocab, codes = intern([e.doc for e in entries] for entries in rankings.values())
    return Run(system_id, {
        topic: RunColumns(
            topic_codes,
            np.array([e.score for e in entries], dtype=np.float64),
            np.array([e.rank_field for e in entries], dtype=np.int64),
            vocab,
        )
        for (topic, entries), topic_codes in zip(rankings.items(), codes)
    })


def campaign_to_plain(campaign):
    """Flatten a Campaign into the plain structures the oracles consume."""
    runs_docs = {
        run.system_id: {topic: list(run.docs(topic)) for topic in run.rankings}
        for run in campaign.runs
    }
    relevant = {t: set(campaign.qrels.relevant(t)) for t in campaign.qrels.topics}
    return runs_docs, relevant


def oracle_matrix(campaign, spec, rarity_depth, ap_depth):
    """Brute-force systems x topics values for ``spec``, and whether a scored
    relevant document has no retrieval within ``rarity_depth``."""
    runs_docs, relevant_by_topic = campaign_to_plain(campaign)
    cfg = spec.config
    k, alpha, variant = cfg.cutoff, cfg.alpha, cfg.rarity_variant
    values = np.zeros((campaign.n_systems, len(campaign.judged_topics)))
    undefined = False
    for si, system in enumerate(campaign.system_ids):
        for ti, topic in enumerate(campaign.judged_topics):
            relevant = relevant_by_topic[topic]
            n_rel = len(relevant)
            docs = runs_docs[system].get(topic, [])
            if spec.is_ap_family and n_rel == 0:
                continue
            bound = k if ap_depth == "cutoff" or not spec.is_ap_family else len(docs)
            if spec.needs_rarity and any(
                naive_count_retrievers(runs_docs, topic, d, rarity_depth) == 0
                for d in docs[:bound] if d in relevant
            ):
                undefined = True
            args = (runs_docs, system, topic, relevant, bound, alpha, variant)
            values[si, ti] = {
                "p": lambda: naive_p_at_k(docs, relevant, k),
                "ap": lambda: naive_ap(docs, relevant, bound, n_rel),
                "p_rareness": lambda: naive_p_at_k_rareness(*args, rarity_depth),
                "p_mixture": lambda: naive_p_at_k_mixture(*args, rarity_depth),
                "ap_rareness": lambda: naive_ap_rareness(*args, n_rel, rarity_depth),
            }[spec.kind]()
    return values, undefined


def naive_generate_campaign(spec):
    """``synth.generate_campaign``'s draws, walked slot by slot.

    The draws come from the package's seeded streams, spelled out here:
    ``default_rng((seed, 11, t))`` per topic, ``(seed, 12)`` for the skills and
    ``(seed, 13, s, t)`` per ranking. Returns ``(runs, judgments)``: ``runs``
    is ``[(system_id, {topic: (docs, scores, rank_fields)})]`` of tuples.
    """
    def substream(*key):
        return np.random.default_rng(key)

    def doc_id(j):
        return f"doc{j:05d}"

    skills = substream(spec.seed, 12).uniform(0.15, 0.95, spec.n_systems)
    topic_ids = [f"t{t:03d}" for t in range(spec.n_topics)]

    shared_orders = {}
    judgments = {}
    for t, topic in enumerate(topic_ids):
        rng = substream(spec.seed, 11, t)
        rel = rng.choice(spec.doc_pool_size, size=spec.n_relevant_per_topic, replace=False)
        shared_orders[topic] = rng.permutation(rel)
        judgments[topic] = {doc_id(j): 1 for j in rel}

    runs = []
    for s in range(spec.n_systems):
        theta = 1.0 if spec.overlap_bias == 1.0 else skills[s] * spec.overlap_bias
        columns = {}
        for t, topic in enumerate(topic_ids):
            rng = substream(spec.seed, 13, s, t)
            take_shared = rng.random(spec.run_depth) < theta
            private = rng.permutation(spec.doc_pool_size)
            shared = shared_orders[topic]
            used = set()
            picked = []
            shared_at = 0
            private_at = 0
            for slot in range(spec.run_depth):
                doc = -1
                if take_shared[slot]:
                    while shared_at < len(shared) and int(shared[shared_at]) in used:
                        shared_at += 1
                    if shared_at < len(shared):
                        doc = int(shared[shared_at])
                        shared_at += 1
                if doc < 0:
                    while int(private[private_at]) in used:
                        private_at += 1
                    doc = int(private[private_at])
                used.add(doc)
                picked.append(doc)
            n = len(picked)
            columns[topic] = (
                tuple(doc_id(doc) for doc in picked),
                tuple(float(n - i) for i in range(n)),
                tuple(range(1, n + 1)),
            )
        runs.append((f"sys{s:03d}", columns))
    return runs, judgments


def naive_format_run(run):
    """A package ``Run`` in 6-column TREC format, one f-string per line."""
    out: list[str] = []
    for topic in run.topics:
        c = run.columns[topic]
        ids = c.vocab.ids
        out.extend(
            f"{topic} Q0 {ids[code]} {rank} {score!r} {run.system_id}"
            for code, rank, score in zip(
                c.codes.tolist(), c.rank_fields.tolist(), c.scores.tolist()
            )
        )
    return "\n".join(out) + ("\n" if out else "")
