import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rareval.synth
from rareval import (
    Campaign,
    MetricConfig,
    MetricSpec,
    Qrels,
    SynthSpec,
    build_rarity_index,
    evaluate_campaign,
    extend_index,
    generate_campaign,
    make_common_system,
    make_rare_system,
    mean_scores,
    rank_systems,
    rank_trajectory,
    rareness,
)
from rareval.cli import dispatch
from rareval.errors import ConfigError, DataError, FormatError, UndefinedRarityError
from rareval.rarity import CELL_BUDGET

import oracles
from conftest import make_run


def retrieved_relevant_counts(campaign) -> list[int]:
    index = build_rarity_index(campaign)
    out = []
    for topic in campaign.judged_topics:
        for doc in campaign.qrels.relevant(topic):
            count = index.count(topic, doc)
            if count >= 1:
                out.append(count)
    return out


class TestGenerateCampaign:
    def test_full_overlap_concentrates_everything(self):
        campaign = generate_campaign(
            SynthSpec(6, 3, 10, 150, overlap_bias=1.0, run_depth=25, seed=2)
        )
        counts = retrieved_relevant_counts(campaign)
        assert counts and all(c == 6 for c in counts)

    def test_zero_overlap_with_huge_pool_rarely_collides(self):
        singles = 0
        total = 0
        for seed in range(8):
            campaign = generate_campaign(
                SynthSpec(5, 3, 40, 2000, overlap_bias=0.0, run_depth=60, seed=seed)
            )
            counts = retrieved_relevant_counts(campaign)
            singles += sum(1 for c in counts if c == 1)
            total += len(counts)
        assert total > 0
        assert singles / total >= 0.85

    def test_same_seed_is_identical(self):
        spec = SynthSpec(4, 2, 5, 80, overlap_bias=0.4, run_depth=10, seed=33)
        a = generate_campaign(spec)
        b = generate_campaign(spec)
        assert a.qrels.judgments == b.qrels.judgments
        assert all(x.rankings == y.rankings for x, y in zip(a.runs, b.runs))

    def test_different_seeds_differ(self):
        base = dict(
            n_systems=4, n_topics=2, n_relevant_per_topic=5, doc_pool_size=80,
            overlap_bias=0.4, run_depth=10,
        )
        a = generate_campaign(SynthSpec(seed=1, **base))
        b = generate_campaign(SynthSpec(seed=2, **base))
        assert any(x.rankings != y.rankings for x, y in zip(a.runs, b.runs))

    def test_higher_bias_means_more_overlap(self):
        base = dict(
            n_systems=8, n_topics=3, n_relevant_per_topic=12, doc_pool_size=300,
            run_depth=25, seed=6,
        )
        low = generate_campaign(SynthSpec(overlap_bias=0.2, **base))
        high = generate_campaign(SynthSpec(overlap_bias=0.8, **base))
        assert np.mean(retrieved_relevant_counts(high)) > np.mean(
            retrieved_relevant_counts(low)
        )

    def test_run_shape(self):
        spec = SynthSpec(3, 2, 5, 60, overlap_bias=0.5, run_depth=12, seed=0)
        campaign = generate_campaign(spec)
        assert campaign.n_systems == 3
        for run in campaign.runs:
            for topic in run.topics:
                docs = run.docs(topic)
                assert len(docs) == 12
                assert len(set(docs)) == 12

    def test_infeasible_specs(self):
        with pytest.raises(ConfigError):
            SynthSpec(3, 2, 50, 40, overlap_bias=0.5, run_depth=10)
        with pytest.raises(ConfigError):
            SynthSpec(3, 2, 5, 40, overlap_bias=0.5, run_depth=50)
        with pytest.raises(ConfigError):
            SynthSpec(3, 2, 5, 40, overlap_bias=1.5, run_depth=10)
        with pytest.raises(ConfigError):
            SynthSpec(0, 2, 5, 40, overlap_bias=0.5, run_depth=10)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_systems", 2.5), ("n_systems", True), ("n_topics", "2"),
            ("n_relevant_per_topic", 5.0), ("doc_pool_size", 10.0), ("run_depth", "5"),
            ("overlap_bias", "0.5"), ("overlap_bias", True), ("overlap_bias", None),
            ("seed", 1.5), ("seed", True), ("seed", "7"), ("seed", -1), ("seed", 2**64),
        ],
    )
    def test_wrong_typed_field_raises_config_error_naming_it(self, field, value):
        fields = dict(
            n_systems=3, n_topics=2, n_relevant_per_topic=5, doc_pool_size=40,
            overlap_bias=0.5, run_depth=10, seed=1,
        )
        message = rf"^{field} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigError, match=message):
            SynthSpec(**{**fields, field: value})

    def test_a_shape_past_the_cell_budget_is_a_config_error_naming_it(self):
        SynthSpec(100, 50, 100, 5000, 0.35, 1000)
        SynthSpec(100, 50, 100, 500_000, 0.35, 1000)
        SynthSpec(1, 1, 1, CELL_BUDGET, 0.5, 1)
        SynthSpec(CELL_BUDGET // 2, 2, 1, 1, 0.5, 1)
        budget = f"exceeds the budget of {CELL_BUDGET} cells$"
        with pytest.raises(ConfigError, match=f"^doc_pool_size {CELL_BUDGET + 1} {budget}"):
            SynthSpec(1, 1, 1, CELL_BUDGET + 1, 0.5, 1)
        entries = f"^n_systems {CELL_BUDGET // 2 + 1} x n_topics 2 x run_depth 1 {budget}"
        with pytest.raises(ConfigError, match=entries):
            SynthSpec(CELL_BUDGET // 2 + 1, 2, 1, 1, 0.5, 1)

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        shape=st.tuples(
            st.integers(1, 3), st.integers(1, 3), st.integers(1, 25), st.integers(1, 25),
            st.integers(1, 25),
        ),
        full=st.sampled_from(["none", "depth", "relevant", "both"]),
        bias=st.sampled_from([0.0, 0.35, 1.0]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
    )
    def test_equals_the_slot_by_slot_loop(self, shape, full, bias, seed):
        n_systems, n_topics, pool, n_relevant, depth = shape
        n_relevant = pool if full in ("relevant", "both") else min(n_relevant, pool)
        depth = pool if full in ("depth", "both") else min(depth, pool)
        spec = SynthSpec(n_systems, n_topics, n_relevant, pool, bias, depth, seed=seed)
        campaign = generate_campaign(spec)
        runs, judgments = oracles.naive_generate_campaign(spec)
        assert [
            (run.system_id, {
                topic: (c.docs, tuple(c.scores.tolist()), tuple(c.rank_fields.tolist()))
                for topic, c in run.columns.items()
            })
            for run in campaign.runs
        ] == runs
        assert {t: list(by_doc.items()) for t, by_doc in campaign.qrels.judgments.items()} == {
            t: list(by_doc.items()) for t, by_doc in judgments.items()
        }

    @pytest.mark.parametrize(
        "bias, systems, topics, relevant, pool, depth, seed, digest",
        [
            ("0", 4, 3, 6, 40, 15, 5,
             "f72d6204ea1d903da43107f19ff3c3452c2522fdfaf6f70388c6c4b3db5584f1"),
            ("0.35", 5, 3, 10, 60, 25, 7,
             "4fc5936c60317c04c886842d473c6a4c3aba0bba8e7b093d28f407e738f2ac35"),
            ("1", 3, 2, 8, 20, 20, 11,  # depth = pool
             "c32d818ec57c26d16f8d772b58849367edb7cb09e0d499c0e4bad0063a99efa1"),
        ],
    )
    def test_synth_writes_the_pinned_bytes(
        self, tmp_path, capsys, bias, systems, topics, relevant, pool, depth, seed, digest
    ):
        argv = ["synth", "--systems", systems, "--topics", topics, "--relevant", relevant,
                "--pool", pool, "--depth", depth, "--bias", bias, "--seed", seed,
                "--out", tmp_path]
        assert dispatch([str(arg) for arg in argv]) == 0
        capsys.readouterr()
        combined = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            file_digest = hashlib.sha256(path.read_bytes()).digest()
            combined.update(path.name.encode() + b"\0" + file_digest)
        assert combined.hexdigest() == digest


class TestMakeRareSystem:
    def test_fresh_docs_are_globally_new_and_relevant(self, toy4):
        run, qrels = make_rare_system(toy4, "t1", 3)
        docs = run.docs("t1")
        assert len(docs) == 3
        existing = {d for r in toy4.runs for d in r.docs("t1")}
        assert not set(docs) & existing
        assert all(d in qrels.relevant("t1") for d in docs)
        assert not any(d in toy4.qrels.relevant("t1") for d in docs)

    def test_rarity_after_joining(self, toy4):
        run, qrels = make_rare_system(toy4, "t1", 3)
        index = extend_index(build_rarity_index(toy4), run)
        s_plus_1 = toy4.n_systems + 1
        for doc in run.docs("t1"):
            assert rareness(index, "t1", doc) == pytest.approx(1 - 1 / s_plus_1)

    def test_zero_docs_disallowed(self, toy4):
        with pytest.raises(DataError):
            make_rare_system(toy4, "t1", 0)

    @pytest.mark.parametrize("d", [CELL_BUDGET + 1, 2**64], ids=["budget+1", "2**64"])
    def test_d_past_the_cell_budget_is_a_config_error_naming_it(self, toy4, d, monkeypatch):
        class Drawn(Exception):
            pass

        def drawn(*args):  # stands in for drawing the ids, which the budget must precede
            raise Drawn

        monkeypatch.setattr(rareval.synth, "_fresh_doc_ids", drawn)
        with pytest.raises(Drawn):  # the edge itself is admitted
            make_rare_system(toy4, "t1", CELL_BUDGET)
        message = f"^d {d} fresh documents exceeds the budget of {CELL_BUDGET} cells$"
        with pytest.raises(ConfigError, match=message):
            make_rare_system(toy4, "t1", d)

    def test_namespace_collisions_are_skipped(self, toy4):
        taken = make_run("X", {"t1": ["hyp-rare-0000", "hyp-rare-0002"]})
        campaign = Campaign([*toy4.runs, taken], toy4.qrels)
        run, _ = make_rare_system(campaign, "t1", 2)
        assert run.docs("t1") == ("hyp-rare-0001", "hyp-rare-0003")


class TestMakeCommonSystem:
    def test_toy4_top3(self, toy4):
        run = make_common_system(toy4, "t1", 3)
        assert run.docs("t1") == ("d1", "d2", "d3")

    def test_toy4_top1(self, toy4):
        assert make_common_system(toy4, "t1", 1).docs("t1") == ("d1",)

    def test_count_ties_break_by_ascending_doc_id(self):
        campaign = Campaign(
            [make_run("A", {"t": ["zz", "aa"]}), make_run("B", {"t": ["mm"]})],
            Qrels({"t": {"zz": 1, "aa": 1, "mm": 1}}),
        )
        run = make_common_system(campaign, "t", 3)
        assert run.docs("t") == ("aa", "mm", "zz")

    def test_asking_for_too_many_reports_the_maximum(self, toy4):
        with pytest.raises(DataError, match="3"):
            make_common_system(toy4, "t1", 4)


@pytest.fixture(scope="module")
def traj_campaign() -> Campaign:
    return generate_campaign(
        SynthSpec(12, 2, 25, 400, overlap_bias=0.6, run_depth=40, seed=14)
    )


class TestRankTrajectory:
    @pytest.mark.parametrize("kind", ["rare", "common"])
    def test_a_d_max_past_the_cell_budget_is_a_config_error_naming_it(self, traj_campaign, kind):
        d_max = CELL_BUDGET // 13 + 1  # 12 systems and the probe
        message = f"^d_max {d_max} x 13 systems with the probe exceeds the budget of "
        topic = traj_campaign.judged_topics[0]
        with pytest.raises(ConfigError, match=message):
            rank_trajectory(traj_campaign, kind, topic, specs_at([1.0]), d_max)

    def test_rare_trajectories_monotone_and_orderly(self, traj_campaign):
        topic = traj_campaign.judged_topics[0]
        results = rank_trajectory(
            traj_campaign, "rare", topic, specs_at([0.0, 0.5, 1.0], cutoff=40), 30
        )
        d_stars = []
        for result in results:
            ranks = [rank for _, rank in result.ranks]
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))
            assert result.d_star is not None
            d_stars.append(result.d_star)
        # More rarity weight never delays reaching the top.
        assert d_stars[2] <= d_stars[1] <= d_stars[0]

    def test_common_trajectory_monotone(self, traj_campaign):
        topic = traj_campaign.judged_topics[0]
        results = rank_trajectory(
            traj_campaign, "common", topic, specs_at([0.0, 1.0], cutoff=40), 10
        )
        for result in results:
            ranks = [rank for _, rank in result.ranks]
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_alpha_zero_rare_and_common_coincide(self, traj_campaign):
        # With no rarity weight, only the number of relevant docs matters,
        # so both probes trace identical rank curves.
        topic = traj_campaign.judged_topics[0]
        specs = specs_at([0.0], cutoff=40)
        rare = rank_trajectory(traj_campaign, "rare", topic, specs, 8)[0]
        common = rank_trajectory(traj_campaign, "common", topic, specs, 8)[0]
        assert rare.ranks == common.ranks

    def test_d_star_none_when_top_is_out_of_reach(self, traj_campaign):
        topic = traj_campaign.judged_topics[0]
        result = rank_trajectory(traj_campaign, "rare", topic, specs_at([1.0], cutoff=40), 2)[0]
        assert result.d_star is None

    def test_positive_alpha_beats_own_alpha_zero_score(self, traj_campaign):
        topic = traj_campaign.judged_topics[0]
        base = traj_campaign.restricted_to_topics([topic])
        run, qrels = make_rare_system(base, topic, 5)
        extended = Campaign([*base.runs, run], qrels)
        scores = {}
        for alpha in (0.0, 1.0):
            spec = MetricSpec("p_rareness", MetricConfig(cutoff=40, alpha=alpha))
            scores[alpha] = mean_scores(evaluate_campaign(extended, [spec])[0])["hyp-rare"]
        assert scores[1.0] > scores[0.0]

    def test_unjudged_topic_rejected(self, traj_campaign):
        with pytest.raises(DataError, match="not judged"):
            rank_trajectory(traj_campaign, "rare", "no-such-topic", specs_at([0.0]), 3)

    def test_bad_kind_rejected(self, traj_campaign):
        topic = traj_campaign.judged_topics[0]
        with pytest.raises(ConfigError, match="probe kind"):
            rank_trajectory(traj_campaign, "novel", topic, specs_at([0.0]), 3)

    @pytest.mark.parametrize("name", ["P@10", "AP", "AP_rareness(alpha=0.5,rarity=eq2)"])
    def test_a_spec_outside_the_weighted_p_family_is_a_config_error(self, traj_campaign, name):
        topic = traj_campaign.judged_topics[0]
        specs = [*specs_at([0.5]), MetricSpec.parse(name, default_cutoff=10)]
        message = rf"^a trajectory tracks P@k_rareness or P@k_mixture, not {re.escape(name)}"
        with pytest.raises(ConfigError, match=message):
            rank_trajectory(traj_campaign, "rare", topic, specs, 3)

    def test_no_specs_track_nothing(self, traj_campaign):
        topic = traj_campaign.judged_topics[0]
        assert rank_trajectory(traj_campaign, "rare", topic, [], 3) == []

    @pytest.mark.parametrize("rarity_depth", ["2", 1.5, True, "cutoff"])
    def test_a_rarity_depth_of_the_wrong_type_is_rejected_naming_it(
        self, traj_campaign, rarity_depth
    ):
        topic = traj_campaign.judged_topics[0]
        message = re.escape(f"got {rarity_depth!r}") + "$"
        with pytest.raises(DataError, match=message):
            rank_trajectory(
                traj_campaign, "rare", topic, specs_at([0.5]), 3, rarity_depth=rarity_depth
            )

    @pytest.mark.parametrize("kind", ["rare", "common"])
    def test_results_follow_the_specs_and_each_equals_its_own_trajectory(
        self, traj_campaign, kind
    ):
        # One scorer at the deepest cutoff serves specs of both kinds and
        # several cutoffs; each result is the one its spec alone would give.
        topic = traj_campaign.judged_topics[0]
        names = ["P@5_mixture(alpha=0.5)", "P@30_rareness(alpha=1)", "P@10_rareness(alpha=0)"]
        specs = [MetricSpec.parse(name) for name in names]
        together = rank_trajectory(traj_campaign, kind, topic, specs, 6)
        alone = [rank_trajectory(traj_campaign, kind, topic, [spec], 6)[0] for spec in specs]
        assert together == alone
        assert [result.alpha for result in together] == [0.5, 1.0, 0.0]

    def test_multi_topic_mean_trajectory(self, traj_campaign):
        # The probe submits one topic; on the other topic it scores zero, so
        # its multi-topic mean (and thus rank) trails the single-topic one.
        topic = traj_campaign.judged_topics[0]
        specs = specs_at([1.0], cutoff=40)
        single = rank_trajectory(traj_campaign, "rare", topic, specs, 5)[0]
        multi = rank_trajectory(traj_campaign, "rare", topic, specs, 5, multi_topic=True)[0]
        assert all(m >= s for (_, s), (_, m) in zip(single.ranks, multi.ranks))


def specs_at(alphas, cutoff=100, variant="eq2", kind="p_rareness"):
    """Trajectory specs of ``kind`` at one cutoff and variant, one per alpha."""
    return [MetricSpec(kind, MetricConfig(cutoff, alpha, variant)) for alpha in alphas]


def rebuilt_trajectory_ranks(campaign, kind, topic, specs, d_max, *, multi_topic, rarity_depth):
    """Ranks from a fresh probe, campaign and evaluation per (spec, D)."""
    base = campaign if multi_topic else campaign.restricted_to_topics([topic])
    out = []
    for spec in specs:
        ranks = []
        for d in range(1, d_max + 1):
            if kind == "rare":
                run, qrels = make_rare_system(base, topic, d)
                extended = Campaign([*base.runs, run], qrels)
            else:
                run = make_common_system(base, topic, d, count_depth=rarity_depth)
                extended = Campaign([*base.runs, run], base.qrels)
            matrix = evaluate_campaign(extended, [spec], rarity_depth=rarity_depth)[0]
            ranks.append((d, rank_systems(mean_scores(matrix)).ranks_by_system()[run.system_id]))
        out.append(ranks)
    return out


class TestTrajectoryMatchesRebuild:
    @pytest.mark.parametrize("rarity_depth", [None, 12])
    @pytest.mark.parametrize("multi_topic", [False, True])
    @pytest.mark.parametrize("kind", ["rare", "common"])
    def test_ranks_equal_a_rebuild_per_alpha_and_d(
        self, traj_campaign, kind, multi_topic, rarity_depth
    ):
        # The cutoff stays within the count depth, so every scored hit has a rarity.
        topic = traj_campaign.judged_topics[0]
        alphas = [0.0, 0.5, 1.0, 3.0]
        with pytest.warns(UserWarning, match="recommended"):
            specs = specs_at(alphas, cutoff=12)
        options = dict(multi_topic=multi_topic, rarity_depth=rarity_depth)
        results = rank_trajectory(traj_campaign, kind, topic, specs, 8, **options)
        expected = rebuilt_trajectory_ranks(traj_campaign, kind, topic, specs, 8, **options)
        assert [r.alpha for r in results] == alphas
        assert [r.ranks for r in results] == expected
        assert [r.d_star for r in results] == [
            next((d for d, rank in ranks if rank == 1.0), None) for ranks in expected
        ]


class TestTrajectoryBlocks:
    """A spec's D steps scored as blocks of row sets rank as one step at a
    time does, whatever the block size."""

    @pytest.mark.parametrize("steps_per_block", [None, 1, 3])
    @pytest.mark.parametrize("rarity_depth", [None, 12])
    @pytest.mark.parametrize("kind", ["rare", "common"])
    def test_ranks_equal_one_step_at_a_time(
        self, traj_campaign, monkeypatch, kind, rarity_depth, steps_per_block
    ):
        import rareval.synth

        topic = traj_campaign.judged_topics[0]
        # At three steps a block, the last holds two.
        specs, d_max = specs_at([0.0, 0.25, 1.0], cutoff=12), 8
        calls = []
        spy = rareval.synth._SubsetScorer.subset_means
        monkeypatch.setattr(
            rareval.synth._SubsetScorer, "subset_means",
            lambda scorer, rows, *a: calls.append(np.shape(rows)) or spy(scorer, rows, *a),
        )
        if steps_per_block is not None:
            # Step D's rows are the 12 base systems and probe D, and no row
            # hits more docs than the cutoff.
            width = 12  # the cutoff
            monkeypatch.setattr(rareval.synth, "_BLOCK_SLOTS", steps_per_block * 13 * width)
            monkeypatch.setattr(
                rareval.synth, "_SubsetScorer", _fixed_width(rareval.synth._SubsetScorer, width)
            )
        options = dict(multi_topic=False, rarity_depth=rarity_depth)
        results = rank_trajectory(traj_campaign, kind, topic, specs, d_max, **options)
        expected = rebuilt_trajectory_ranks(traj_campaign, kind, topic, specs, d_max, **options)
        assert [r.ranks for r in results] == expected
        blocks = [shape[0] for shape in calls]
        assert sum(blocks) == len(specs) * d_max
        if steps_per_block is not None:
            assert max(blocks) == steps_per_block
        else:
            assert blocks == [d_max] * len(specs)  # each spec's steps in one call

    def test_an_undefined_rarity_raises_as_its_step_alone(self, traj_campaign):
        # Probe D's docs are fresh: at D = 5 its last hit lies below count
        # depth 4, while every base system's hits within P@5 are counted.
        topic = traj_campaign.judged_topics[1]
        specs = specs_at([0.5], cutoff=5)
        options = dict(multi_topic=False, rarity_depth=4)
        with pytest.raises(UndefinedRarityError) as expected:
            rebuilt_trajectory_ranks(traj_campaign, "rare", topic, specs, 6, **options)
        with pytest.raises(UndefinedRarityError) as raised:
            rank_trajectory(traj_campaign, "rare", topic, specs, 6, **options)
        assert str(raised.value) == str(expected.value)
        assert "'hyp-rare-0004'" in str(raised.value)


def _fixed_width(scorer_class, width):
    """``scorer_class`` whose instances report ``width`` as their width."""
    def build(*args, **kwargs):
        scorer = scorer_class(*args, **kwargs)
        assert scorer.width <= width
        scorer.width = width
        return scorer
    return build


POOL = [f"d{i}" for i in range(8)]


@st.composite
def tiny_campaigns(draw):
    """1-4 systems over 1-3 judged topics: rankings of 0-6 pool docs (a system
    may skip a topic), graded 0-2 judgments, zero-relevant topics allowed."""
    topics = [f"t{i}" for i in range(draw(st.integers(1, 3)))]
    ranking = st.lists(st.sampled_from(POOL), max_size=6, unique=True)
    runs = [
        make_run(f"s{i}", {t: draw(ranking) for t in topics if draw(st.integers(0, 3))})
        for i in range(draw(st.integers(1, 4)))
    ]
    grades = st.dictionaries(st.sampled_from(POOL), st.sampled_from([0, 1, 1, 2]), max_size=8)
    return Campaign(runs, Qrels({t: draw(grades) for t in topics}))


class TestTrajectoryProperties:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        campaign=tiny_campaigns(),
        kind=st.sampled_from(["rare", "common"]),
        metric=st.sampled_from(["p_rareness", "p_mixture"]),
        variant=st.sampled_from(["eq2", "revised"]),
        multi_topic=st.booleans(),
        rarity_depth=st.none() | st.integers(1, 4),
        d_max=st.integers(1, 3),
        alpha_cutoffs=st.lists(
            st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(1, 6)),
            min_size=1, max_size=3,
        ),
    )
    def test_equals_a_rebuild_per_alpha_and_d(
        self, campaign, kind, metric, variant, multi_topic, rarity_depth, d_max, alpha_cutoffs,
    ):
        # Specs may differ in cutoff: one scorer at the deepest serves them all.
        specs = [MetricSpec(metric, MetricConfig(k, a, variant)) for a, k in alpha_cutoffs]
        topic = campaign.judged_topics[0]
        options = dict(multi_topic=multi_topic, rarity_depth=rarity_depth)
        try:
            expected = rebuilt_trajectory_ranks(campaign, kind, topic, specs, d_max, **options)
        except DataError:
            # Both fail, though not necessarily with the same message: the
            # trajectory checks a common probe's d_max before it scores.
            with pytest.raises(DataError):
                rank_trajectory(campaign, kind, topic, specs, d_max, **options)
            return
        results = rank_trajectory(campaign, kind, topic, specs, d_max, **options)
        assert [r.ranks for r in results] == expected
        assert [r.d_star for r in results] == [
            next((d for d, rank in ranks if rank == 1.0), None) for ranks in expected
        ]

    def test_base_system_named_like_the_probe_rejected(self, toy4):
        campaign = Campaign([*toy4.runs, make_run("hyp-rare", {"t1": ["d2"]})], toy4.qrels)
        with pytest.raises(FormatError, match="duplicate system id 'hyp-rare'"):
            rank_trajectory(campaign, "rare", "t1", specs_at([0.0]), 3)

    def test_known_docs_are_scanned_once(self, traj_campaign, monkeypatch):
        import rareval.synth

        calls = []
        fresh = rareval.synth._fresh_doc_ids
        monkeypatch.setattr(
            rareval.synth, "_fresh_doc_ids", lambda *a: calls.append(a[2]) or fresh(*a)
        )
        topic = traj_campaign.judged_topics[0]
        rank_trajectory(traj_campaign, "rare", topic, specs_at([0.0, 1.0]), 6)
        assert calls == [6]  # the probe's ids, made once at d_max

    @pytest.mark.parametrize("kind", ["rare", "common"])
    def test_one_subset_scorer_serves_every_alpha(self, traj_campaign, monkeypatch, kind):
        import rareval.synth

        built = []
        scorer = rareval.synth._SubsetScorer
        monkeypatch.setattr(
            rareval.synth, "_SubsetScorer", lambda *a, **kw: built.append(1) or scorer(*a, **kw)
        )
        topic = traj_campaign.judged_topics[0]
        rank_trajectory(traj_campaign, kind, topic, specs_at([0.0, 0.5, 1.0]), 4)
        assert len(built) == 1
