"""Acceptance suite.

One test per release criterion, each at its stated tolerance. A summary
hook in conftest prints one PASS/FAIL line per criterion after the run;
each test also prints its own line (visible with ``pytest -s``).
"""

import itertools
import time

import numpy as np
import pytest

from rareval import (
    Campaign,
    MetricConfig,
    MetricSpec,
    Qrels,
    StabilityConfig,
    SubsetExperimentConfig,
    SynthSpec,
    build_rarity_index,
    discriminative_power,
    evaluate_campaign,
    generate_campaign,
    kendall_tau,
    mean_scores,
    p_at_k_mixture,
    p_at_k_rareness,
    rank_systems,
    rank_trajectory,
    rareness,
    rareness_revised,
    stability,
    studentized_range_quantile,
    subset_experiment,
)
from rareval.rarity import RarityIndex
from rareval.rng import substream
from rareval.stats import _STREAM_STABILITY

import oracles
from conftest import make_run


def announce(number: int, label: str) -> None:
    print(f"criterion {number} ({label}): PASS")


def all_unique_campaign(n_systems: int, k: int) -> Campaign:
    """Every system retrieves its own k relevant documents, nobody shares."""
    runs = [
        make_run(f"s{j}", {"t": [f"d{j}-{i}" for i in range(k)]})
        for j in range(n_systems)
    ]
    judgments = {f"d{j}-{i}": 1 for j in range(n_systems) for i in range(k)}
    return Campaign(runs, Qrels({"t": judgments}))


def test_c1_reversion_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    specs = [
        MetricSpec.parse("P@100"),
        MetricSpec.parse("P@100_rareness(alpha=0)"),
        MetricSpec.parse("AP"),
        MetricSpec.parse("AP_rareness(alpha=0)"),
    ]
    evaluated = 0
    seed = 0
    while evaluated < 100:
        seed += 1
        assert seed < 160, "too many degenerate campaigns"
        campaign = generate_campaign(
            SynthSpec(
                n_systems=int(rng.integers(2, 21)),
                n_topics=int(rng.integers(1, 11)),
                n_relevant_per_topic=int(rng.integers(5, 30)),
                doc_pool_size=300,
                overlap_bias=float(rng.uniform(0.3, 0.8)),
                run_depth=100,
                seed=seed,
            )
        )
        p_base, p_zero, ap_base, ap_zero = evaluate_campaign(campaign, specs)
        assert np.array_equal(p_base.values, p_zero.values)
        assert np.array_equal(ap_base.values, ap_zero.values)
        base_means = mean_scores(p_base)
        if len(set(base_means.values())) < 2 or len(set(mean_scores(ap_base).values())) < 2:
            continue  # all-tied ranking: tau is undefined by contract
        assert kendall_tau(
            rank_systems(base_means), rank_systems(mean_scores(p_zero))
        ) == 1.0
        assert kendall_tau(
            rank_systems(mean_scores(ap_base)), rank_systems(mean_scores(ap_zero))
        ) == 1.0
        evaluated += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s (budget 30s)"
    announce(1, "reversion equivalence")


def test_c2_oracle_equivalence():
    from rareval.metrics import ap_rareness, average_precision, precision_at_k

    k = 5
    checked = 0
    for n_systems, n_topics, depth, bias in itertools.product(
        (2, 3, 5), (1, 2, 4), (4, 8), (0.0, 0.5, 1.0)
    ):
        campaign = generate_campaign(
            SynthSpec(n_systems, n_topics, 4, 10, overlap_bias=bias,
                      run_depth=depth, seed=7)
        )
        runs_docs, relevant_by_topic = oracles.campaign_to_plain(campaign)
        index = build_rarity_index(campaign)
        for topic in campaign.judged_topics:
            relevant = relevant_by_topic[topic]
            n_rel = len(relevant)
            for run in campaign.runs:
                docs = run.docs(topic)
                system = run.system_id
                assert precision_at_k(docs, relevant, k) == pytest.approx(
                    oracles.naive_p_at_k(list(docs), relevant, k), abs=1e-12
                )
                assert average_precision(docs, relevant, k, n_rel) == pytest.approx(
                    oracles.naive_ap(list(docs), relevant, k, n_rel), abs=1e-12
                )
                for alpha, variant in itertools.product((0.0, 0.5, 1.0), ("eq2", "revised")):
                    config = MetricConfig(cutoff=k, alpha=alpha, rarity_variant=variant)
                    assert p_at_k_rareness(
                        docs, relevant, index, topic, config
                    ) == pytest.approx(
                        oracles.naive_p_at_k_rareness(
                            runs_docs, system, topic, relevant, k, alpha, variant
                        ),
                        abs=1e-12,
                    )
                    assert ap_rareness(
                        docs, relevant, index, topic, config, n_rel
                    ) == pytest.approx(
                        oracles.naive_ap_rareness(
                            runs_docs, system, topic, relevant, k, alpha,
                            variant, n_rel,
                        ),
                        abs=1e-12,
                    )
                    assert p_at_k_mixture(
                        docs, relevant, index, topic, config
                    ) == pytest.approx(
                        oracles.naive_p_at_k_mixture(
                            runs_docs, system, topic, relevant, k, alpha, variant
                        ),
                        abs=1e-12,
                    )
                    checked += 6
    assert checked >= 2000
    announce(2, "oracle equivalence")


def test_c3_bounds_suite():
    # Rarity bounds over the full (S, S_d) grid up to 50 systems.
    for s in range(2, 51):
        for s_d in range(1, s + 1):
            index = RarityIndex(s, {"t": {"d": s_d}})
            r = rareness(index, "t", "d")
            r_rev = rareness_revised(index, "t", "d")
            assert 0.0 <= r <= (s - 1) / s + 1e-12
            assert 0.0 <= r_rev <= 1.0

    # Metric bounds on random campaigns.
    for seed in range(8):
        campaign = generate_campaign(
            SynthSpec(6, 3, 8, 60, overlap_bias=0.5, run_depth=15, seed=seed)
        )
        index = build_rarity_index(campaign)
        for topic in campaign.judged_topics:
            relevant = campaign.qrels.relevant(topic)
            for run in campaign.runs:
                for alpha in (0.0, 0.5, 1.0):
                    additive = MetricConfig(cutoff=10, alpha=alpha)
                    mixture = MetricConfig(cutoff=10, alpha=alpha, rarity_variant="revised")
                    docs = run.docs(topic)
                    assert p_at_k_rareness(docs, relevant, index, topic, additive) < 2.0
                    assert 0.0 <= p_at_k_mixture(docs, relevant, index, topic, mixture) <= 1.0

    # The all-relevant/all-unique extremum. With every hit unique and alpha=1
    # each term is 1 + (S-1)/S, so the attained maximum is (2S-1)/S = 2 - 1/S,
    # strictly below 2.
    for s in (2, 3, 4, 8, 20):
        k = 6
        campaign = all_unique_campaign(s, k)
        index = build_rarity_index(campaign)
        relevant = campaign.qrels.relevant("t")
        additive = MetricConfig(cutoff=k, alpha=1.0)
        mixture = MetricConfig(cutoff=k, alpha=1.0, rarity_variant="revised")
        for run in campaign.runs:
            value = p_at_k_rareness(run.docs("t"), relevant, index, "t", additive)
            assert value == pytest.approx((2 * s - 1) / s, abs=1e-12)
            assert value < 2.0
            assert p_at_k_mixture(run.docs("t"), relevant, index, "t", mixture) == 1.0
    announce(3, "bounds suite")


def test_c4_rare_probe_trajectories():
    started = time.perf_counter()
    campaign = generate_campaign(
        SynthSpec(64, 4, 50, 1500, overlap_bias=0.6, run_depth=100, seed=101)
    )
    topic = campaign.judged_topics[0]
    specs = [MetricSpec.parse(f"P@100_rareness(alpha={a})") for a in (0.0, 0.5, 1.0)]
    results = rank_trajectory(campaign, "rare", topic, specs, 60)
    d_star = {}
    for result in results:
        ranks = [rank for _, rank in result.ranks]
        assert all(a >= b for a, b in zip(ranks, ranks[1:])), (
            f"trajectory not monotone at alpha={result.alpha}"
        )
        assert result.d_star is not None, f"no rank-1 crossing at alpha={result.alpha}"
        d_star[result.alpha] = result.d_star
    assert d_star[1.0] <= d_star[0.5] <= d_star[0.0]
    assert d_star[1.0] < d_star[0.0], "expected a strict gap somewhere"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s (budget 60s)"
    announce(4, "hypothetical-probe trajectories")


def test_c5_tau_sweep_trend():
    campaign = generate_campaign(
        SynthSpec(30, 8, 30, 600, overlap_bias=0.5, run_depth=50, seed=42)
    )
    grid = (0.0, 0.25, 0.5, 0.75, 1.0)
    for base_name, weighted_name in (("P@50", "P@50_rareness"), ("AP", "AP_rareness")):
        base = evaluate_campaign(campaign, [MetricSpec.parse(base_name)])[0]
        base_ranking = rank_systems(mean_scores(base))
        taus = []
        for alpha in grid:
            spec = MetricSpec.parse(f"{weighted_name}(alpha={alpha})")
            matrix = evaluate_campaign(campaign, [spec])[0]
            taus.append(kendall_tau(base_ranking, rank_systems(mean_scores(matrix))))
        assert taus[0] == 1.0
        for earlier, later in zip(taus, taus[1:]):
            assert later <= earlier + 0.01, f"{weighted_name}: tau rose: {taus}"
    announce(5, "tau-vs-alpha trend")


def test_c6_subset_trend():
    campaign = generate_campaign(
        SynthSpec(64, 6, 40, 1200, overlap_bias=0.35, run_depth=80, seed=1)
    )
    for name in ("P@80_rareness(alpha=1)", "AP_rareness(alpha=1)"):
        spec = MetricSpec.parse(name)
        taus = []
        for n in (2, 4, 8, 16, 32, 64):
            result = subset_experiment(
                campaign, spec, SubsetExperimentConfig(n, trials=400, seed=5)
            )
            taus.append(result.mean_tau)
        assert all(b >= a for a, b in zip(taus, taus[1:])), f"{name}: {taus}"
        assert taus[-1] == 1.0
    announce(6, "subset-of-systems trend")


def test_c7_statistics_validation():
    # Tau-b against explicit pair counting on all 24 permutations of 4 items.
    ids = ["a", "b", "c", "d"]
    base = [1.0, 2.0, 3.0, 4.0]
    reference = rank_systems(dict(zip(ids, base)))
    for perm in itertools.permutations(base):
        other = rank_systems(dict(zip(ids, perm)))
        expected = oracles.naive_tau_b(
            [reference.ranks_by_system()[i] for i in ids],
            [other.ranks_by_system()[i] for i in ids],
        )
        assert kendall_tau(reference, other) == pytest.approx(expected, abs=1e-12)

    # Studentized-range quantiles against published tables.
    assert studentized_range_quantile(0.95, 3, 10) == pytest.approx(3.88, abs=0.01)
    assert studentized_range_quantile(0.99, 5, 20) == pytest.approx(5.29, abs=0.01)

    # Stricter significance never separates more pairs: 50 random matrices.
    from rareval import ScoreMatrix

    rng = np.random.default_rng(99)
    shapes = [(6, 8), (5, 10), (9, 6)]
    for i in range(50):
        n_systems, n_topics = shapes[i % len(shapes)]
        matrix = ScoreMatrix(
            "P@5",
            tuple(f"s{j}" for j in range(n_systems)),
            tuple(f"t{j}" for j in range(n_topics)),
            rng.random((n_systems, n_topics)),
            frozenset(),
        )
        assert discriminative_power(matrix, 0.99) <= discriminative_power(matrix, 0.95)
    announce(7, "statistics validation")


def test_c8_stability_protocol():
    def pair_campaign(a_wins: list[int]) -> Campaign:
        topics = [f"t{i}" for i in range(len(a_wins))]
        runs_a = {t: (["hit-" + t] if win else ["junk"]) for t, win in zip(topics, a_wins)}
        runs_b = {t: (["junk"] if win else ["hit-" + t]) for t, win in zip(topics, a_wins)}
        qrels = Qrels({t: {"hit-" + t: 1} for t in topics})
        return Campaign([make_run("A", runs_a), make_run("B", runs_b)], qrels)

    def p_at_1(campaign):
        return evaluate_campaign(campaign, [MetricSpec.parse("P@1")])[0]

    dominant = stability(p_at_1(pair_campaign([1] * 6)), StabilityConfig(3, trials=300, seed=1))
    assert dominant.per_pair[("A", "B")] == 1.0

    identical = Campaign(
        [
            make_run("A", {"t0": ["hit-t0"], "t1": ["junk"]}),
            make_run("B", {"t0": ["hit-t0"], "t1": ["junk"]}),
        ],
        Qrels({"t0": {"hit-t0": 1}, "t1": {"hit-t1": 1}}),
    )
    same = stability(p_at_1(identical), StabilityConfig(1, trials=300, seed=1))
    assert same.per_pair[("A", "B")] == 0.5

    # Planted 7-of-10 winner, single-topic samples: the winning-side fraction
    # is wins/trials by construction; recount the substreams independently.
    config = StabilityConfig(1, trials=1000, seed=77)
    planted = stability(p_at_1(pair_campaign([1] * 7 + [0] * 3)), config)
    wins = 0.0
    for trial in range(config.trials):
        sampled = substream(config.seed, _STREAM_STABILITY, trial).choice(
            10, size=1, replace=False
        )[0]
        wins += 1.0 if sampled < 7 else 0.0
    assert planted.per_pair[("A", "B")] == max(wins, config.trials - wins) / config.trials
    assert planted.per_pair[("A", "B")] == pytest.approx(0.7, abs=0.05)

    campaign = generate_campaign(
        SynthSpec(10, 8, 12, 200, overlap_bias=0.5, run_depth=30, seed=21)
    )
    weighted = MetricSpec.parse("P@30_rareness(alpha=1)")
    matrix = evaluate_campaign(campaign, [weighted])[0]
    result = stability(matrix, StabilityConfig(4, trials=200, seed=13))
    assert 0.5 <= result.overall <= 1.0
    announce(8, "stability protocol")


def test_c9_real_data_table_shapes(tmp_path, capsys):
    # Real TREC runs are licensed inputs and cannot ship here; this checks
    # that the commands emit the standard six-row experiment tables on
    # stand-in synthetic files (see README for real-data use).
    from rareval.cli import dispatch

    out_dir = tmp_path / "campaign"
    assert dispatch(
        ["synth", "--systems", "6", "--topics", "4", "--relevant", "8",
         "--pool", "120", "--depth", "20", "--seed", "3", "--out", str(out_dir)]
    ) == 0
    paths = capsys.readouterr().out.strip().splitlines()
    runs = [p for p in paths if p.endswith(".run")]
    qrels = next(p for p in paths if p.endswith("qrels.txt"))

    assert dispatch(
        ["discpower", "--runs", *runs, "--qrels", qrels, "--cutoff", "20"]
    ) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 12  # six metric rows x two significance levels
    metrics = [r[0] for r in rows[::2]]
    assert metrics == [
        "P@20",
        "P@20_rareness(alpha=0.5,rarity=eq2)",
        "P@20_rareness(alpha=1,rarity=eq2)",
        "AP",
        "AP_rareness(alpha=0.5,rarity=eq2)",
        "AP_rareness(alpha=1,rarity=eq2)",
    ]
    assert all(r[1] in ("95%", "99%") and r[3] == "15" for r in rows)

    assert dispatch(
        ["stability", "--runs", *runs, "--qrels", qrels, "--cutoff", "20",
         "--trials", "50"]
    ) == 0
    rows = [line.split("\t") for line in capsys.readouterr().out.strip().splitlines()]
    assert [r[0] for r in rows] == metrics
    assert all(r[1] == "overall" and 0.5 <= float(r[2]) <= 1.0 for r in rows)
    announce(9, "real-data table shapes (desk-scale stand-in)")
