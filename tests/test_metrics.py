import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rareval import (
    Campaign,
    MetricConfig,
    MetricSpec,
    Qrels,
    RarityIndex,
    SynthSpec,
    ap_rareness,
    average_precision,
    UndefinedRarityError,
    build_rarity_index,
    evaluate_campaign,
    generate_campaign,
    p_at_k_mixture,
    p_at_k_rareness,
    precision_at_k,
)
from rareval.errors import ConfigError, DataError

import oracles
from conftest import make_run, metric_specs, tiny_campaigns


@pytest.fixture
def toy4_parts(toy4):
    index = build_rarity_index(toy4)
    relevant = toy4.qrels.relevant("t1")
    return toy4, index, relevant


def random_campaigns(seeds, **overrides):
    rng = np.random.default_rng(20240817)
    for seed in seeds:
        params = dict(
            n_systems=int(rng.integers(2, 6)),
            n_topics=int(rng.integers(1, 4)),
            n_relevant_per_topic=int(rng.integers(1, 6)),
            doc_pool_size=10,
            overlap_bias=float(rng.uniform(0, 1)),
            run_depth=int(rng.integers(1, 9)),
            seed=seed,
        )
        params.update(overrides)
        yield generate_campaign(SynthSpec(**params))


class TestPrecisionAtK:
    def test_toy4_system_b(self, toy4_parts):
        toy4, _, relevant = toy4_parts
        assert precision_at_k(toy4.run_for("B").docs("t1"), relevant, 3) == pytest.approx(2 / 3)

    def test_empty_ranking(self):
        assert precision_at_k((), {"d1"}, 5) == 0.0

    def test_all_relevant_tops_out(self):
        assert precision_at_k(("a", "b"), {"a", "b"}, 2) == 1.0

    def test_positions_past_run_length_count_zero(self):
        assert precision_at_k(("a",), {"a"}, 4) == 0.25


class TestPAtKRareness:
    def test_alpha_zero_reverts_exactly(self, toy4_parts):
        toy4, index, relevant = toy4_parts
        config = MetricConfig(cutoff=3, alpha=0.0)
        for run in toy4.runs:
            docs = run.docs("t1")
            assert p_at_k_rareness(docs, relevant, index, "t1", config) == precision_at_k(
                docs, relevant, 3
            )

    def test_toy4_system_b_alpha_one(self, toy4_parts):
        toy4, index, relevant = toy4_parts
        config = MetricConfig(cutoff=3, alpha=1.0)
        value = p_at_k_rareness(toy4.run_for("B").docs("t1"), relevant, index, "t1", config)
        assert value == pytest.approx((1.0 + 1.75) / 3, abs=1e-15)

    def test_all_relevant_all_unique_extremum(self):
        # Every system retrieves its own k relevant docs: R = (S-1)/S each,
        # so the alpha=1 score is (2S-1)/S, strictly below 2.
        for s in (2, 3, 4, 8):
            k = 5
            runs = [
                make_run(f"s{j}", {"t": [f"d{j}-{i}" for i in range(k)]})
                for j in range(s)
            ]
            judgments = {f"d{j}-{i}": 1 for j in range(s) for i in range(k)}
            campaign = Campaign(runs, Qrels({"t": judgments}))
            index = build_rarity_index(campaign)
            config = MetricConfig(cutoff=k, alpha=1.0)
            for run in campaign.runs:
                value = p_at_k_rareness(
                    run.docs("t"), campaign.qrels.relevant("t"), index, "t", config
                )
                assert value == pytest.approx((2 * s - 1) / s, abs=1e-12)
                assert value < 2.0

    def test_mixture_formulation_rejected(self, toy4_parts):
        toy4, index, relevant = toy4_parts
        config = MetricConfig(cutoff=3, alpha=0.5, formulation="mixture")
        with pytest.raises(ConfigError, match="additive"):
            p_at_k_rareness(toy4.run_for("B").docs("t1"), relevant, index, "t1", config)

    def test_count_depth_shallower_than_cutoff_surfaces_undefined_rarity(self, toy4):
        from rareval import UndefinedRarityError

        # d2 is relevant at rank 2 but nobody retrieves it within depth 1.
        shallow = build_rarity_index(toy4, count_depth=1)
        relevant = toy4.qrels.relevant("t1")
        config = MetricConfig(cutoff=3, alpha=1.0)
        with pytest.raises(UndefinedRarityError):
            p_at_k_rareness(toy4.run_for("A").docs("t1"), relevant, shallow, "t1", config)

    def test_count_depth_at_cutoff_is_safe(self, toy4):
        deep_enough = build_rarity_index(toy4, count_depth=3)
        relevant = toy4.qrels.relevant("t1")
        config = MetricConfig(cutoff=3, alpha=1.0)
        for run in toy4.runs:
            value = p_at_k_rareness(run.docs("t1"), relevant, deep_enough, "t1", config)
            assert 0.0 <= value < 2.0


class TestAveragePrecision:
    def test_toy4_system_b(self, toy4_parts):
        toy4, _, relevant = toy4_parts
        assert average_precision(toy4.run_for("B").docs("t1"), relevant, 3, 3) == pytest.approx(
            2 / 3
        )

    def test_single_relevant_at_rank_one(self):
        assert average_precision(("d1",), {"d1"}, 5, 1) == 1.0

    def test_no_relevant_retrieved(self):
        assert average_precision(("x", "y"), {"d1"}, 5, 1) == 0.0

    def test_zero_relevant_is_a_skip_signal(self):
        with pytest.raises(DataError):
            average_precision(("x",), set(), 5, 0)

    def test_full_depth(self):
        docs = tuple(f"x{i}" for i in range(10)) + ("hit",)
        assert average_precision(docs, {"hit"}, None, 1) == pytest.approx(1 / 11)
        assert average_precision(docs, {"hit"}, 5, 1) == 0.0

    @pytest.mark.parametrize("k", [0, -2])
    def test_nonpositive_depth_rejected(self, k):
        with pytest.raises(ConfigError, match=f"got {k}"):
            average_precision(("d1",), {"d1"}, k, 5)


class TestApRareness:
    def test_alpha_zero_reverts_exactly(self, toy4_parts):
        toy4, index, relevant = toy4_parts
        config = MetricConfig(cutoff=3, alpha=0.0)
        for run in toy4.runs:
            docs = run.docs("t1")
            assert ap_rareness(docs, relevant, index, "t1", config, 3) == average_precision(
                docs, relevant, 3, 3
            )

    def test_toy4_system_b_alpha_one(self, toy4_parts):
        toy4, index, relevant = toy4_parts
        config = MetricConfig(cutoff=3, alpha=1.0)
        value = ap_rareness(toy4.run_for("B").docs("t1"), relevant, index, "t1", config, 3)
        assert value == pytest.approx(2.375 / 3, abs=1e-15)

    def test_zero_relevant_ranking(self, toy4_parts):
        toy4, index, relevant = toy4_parts
        config = MetricConfig(cutoff=3, alpha=1.0)
        assert ap_rareness(("x", "y"), relevant, index, "t1", config, 3) == 0.0

    @pytest.mark.parametrize("depth", [0, -1])
    def test_nonpositive_depth_rejected(self, toy4_parts, depth):
        toy4, index, relevant = toy4_parts
        config = MetricConfig(cutoff=3, alpha=1.0)
        with pytest.raises(ConfigError, match=f"got {depth}"):
            ap_rareness(("d1",), relevant, index, "t1", config, 3, depth=depth)


class TestMixture:
    def test_alpha_zero_reverts_exactly(self, toy4_parts):
        toy4, index, relevant = toy4_parts
        config = MetricConfig(cutoff=3, alpha=0.0, rarity_variant="revised", formulation="mixture")
        for run in toy4.runs:
            docs = run.docs("t1")
            assert p_at_k_mixture(docs, relevant, index, "t1", config) == precision_at_k(
                docs, relevant, 3
            )

    def test_toy4_system_b_half(self, toy4_parts):
        toy4, index, relevant = toy4_parts
        config = MetricConfig(cutoff=3, alpha=0.5, rarity_variant="revised", formulation="mixture")
        value = p_at_k_mixture(toy4.run_for("B").docs("t1"), relevant, index, "t1", config)
        assert value == pytest.approx(0.5, abs=1e-15)

    def test_upper_bound_attained(self):
        runs = [make_run(f"s{j}", {"t": [f"d{j}-{i}" for i in range(3)]}) for j in range(4)]
        judgments = {f"d{j}-{i}": 1 for j in range(4) for i in range(3)}
        campaign = Campaign(runs, Qrels({"t": judgments}))
        index = build_rarity_index(campaign)
        config = MetricConfig(cutoff=3, alpha=1.0, rarity_variant="revised", formulation="mixture")
        for run in campaign.runs:
            assert p_at_k_mixture(
                run.docs("t"), campaign.qrels.relevant("t"), index, "t", config
            ) == 1.0

    def test_alpha_out_of_range(self, toy4_parts):
        with pytest.raises(ConfigError):
            MetricConfig(cutoff=3, alpha=1.5, formulation="mixture")


class TestConfigValidation:
    def test_cutoff_and_alpha_domains(self):
        with pytest.raises(ConfigError):
            MetricConfig(cutoff=0)
        with pytest.raises(ConfigError):
            MetricConfig(alpha=-0.1)
        for alpha in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigError, match="finite"):
                MetricConfig(alpha=alpha)
        with pytest.raises(ConfigError):
            MetricConfig(rarity_variant="idf")

    @pytest.mark.parametrize("cutoff", [2.5, True, "3", np.float64(3.0)])
    def test_wrong_typed_cutoff_rejected_naming_the_value(self, cutoff):
        message = f"cutoff must be an integer >= 1, got {cutoff!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            MetricConfig(cutoff=cutoff)

    def test_numpy_integer_cutoff_accepted(self):
        assert MetricConfig(cutoff=np.int64(3)).cutoff == 3

    def test_additive_alpha_above_one_warns_but_works(self):
        with pytest.warns(UserWarning, match="recommended"):
            config = MetricConfig(alpha=2.5)
        assert config.alpha == 2.5


class TestInvariants:
    def test_monotone_in_alpha(self):
        for campaign in random_campaigns(range(6)):
            index = build_rarity_index(campaign)
            topic = campaign.judged_topics[0]
            relevant = campaign.qrels.relevant(topic)
            n_rel = len(relevant)
            for run in campaign.runs:
                docs = run.docs(topic)
                previous_p = previous_ap = -1.0
                for alpha in (0.0, 0.25, 0.5, 1.0, 2.0):
                    with warnings.catch_warnings():
                        warnings.simplefilter("ignore")
                        config = MetricConfig(cutoff=5, alpha=alpha)
                    p = p_at_k_rareness(docs, relevant, index, topic, config)
                    assert p >= previous_p
                    previous_p = p
                    if n_rel:
                        ap = ap_rareness(docs, relevant, index, topic, config, n_rel)
                        assert ap >= previous_ap
                        previous_ap = ap

    def test_bounds_on_random_campaigns(self):
        for campaign in random_campaigns(range(6, 12)):
            s = campaign.n_systems
            index = build_rarity_index(campaign)
            for topic in campaign.judged_topics:
                relevant = campaign.qrels.relevant(topic)
                n_rel = len(relevant)
                for run in campaign.runs:
                    docs = run.docs(topic)
                    for alpha in (0.0, 0.5, 1.0):
                        k = 5
                        add = MetricConfig(cutoff=k, alpha=alpha)
                        mix = MetricConfig(
                            cutoff=k, alpha=alpha, rarity_variant="revised",
                            formulation="mixture",
                        )
                        p = p_at_k_rareness(docs, relevant, index, topic, add)
                        assert 0.0 <= p <= 1 + alpha * (s - 1) / s + 1e-12
                        pm = p_at_k_mixture(docs, relevant, index, topic, mix)
                        assert 0.0 <= pm <= 1.0 + 1e-12
                        if n_rel:
                            ap = ap_rareness(docs, relevant, index, topic, add, n_rel)
                            bound = (1 + alpha * (s - 1) / s) * min(k, n_rel) / n_rel
                            assert 0.0 <= ap <= bound + 1e-12

    def test_nonrelevant_rarity_is_immaterial(self, toy4_parts):
        toy4, index, relevant = toy4_parts
        # Same counts for relevant docs, scrambled counts for the rest.
        scrambled = {
            "t1": {
                doc: (count if doc in relevant else ((count * 2) % 4) + 1)
                for doc, count in index.counts["t1"].items()
            }
        }
        twisted = RarityIndex(index.total_systems, scrambled)
        for run in toy4.runs:
            docs = run.docs("t1")
            for alpha in (0.0, 0.5, 1.0):
                config = MetricConfig(cutoff=3, alpha=alpha)
                assert p_at_k_rareness(docs, relevant, index, "t1", config) == p_at_k_rareness(
                    docs, relevant, twisted, "t1", config
                )
                assert ap_rareness(
                    docs, relevant, index, "t1", config, 3
                ) == ap_rareness(docs, relevant, twisted, "t1", config, 3)


class TestOracleEquivalence:
    def test_production_matches_bruteforce(self):
        for campaign in random_campaigns(range(100, 115), doc_pool_size=10):
            runs_docs, relevant_by_topic = oracles.campaign_to_plain(campaign)
            index = build_rarity_index(campaign)
            k = 4
            for topic in campaign.judged_topics:
                relevant = relevant_by_topic[topic]
                n_rel = len(relevant)
                for run in campaign.runs:
                    docs = run.docs(topic)
                    system = run.system_id
                    for alpha in (0.0, 0.5, 1.0):
                        for variant in ("eq2", "revised"):
                            add = MetricConfig(cutoff=k, alpha=alpha, rarity_variant=variant)
                            mix = MetricConfig(
                                cutoff=k, alpha=alpha, rarity_variant=variant,
                                formulation="mixture",
                            )
                            assert p_at_k_rareness(
                                docs, relevant, index, topic, add
                            ) == pytest.approx(
                                oracles.naive_p_at_k_rareness(
                                    runs_docs, system, topic, relevant, k, alpha, variant
                                ),
                                abs=1e-12,
                            )
                            assert p_at_k_mixture(
                                docs, relevant, index, topic, mix
                            ) == pytest.approx(
                                oracles.naive_p_at_k_mixture(
                                    runs_docs, system, topic, relevant, k, alpha, variant
                                ),
                                abs=1e-12,
                            )
                            if n_rel:
                                assert ap_rareness(
                                    docs, relevant, index, topic, add, n_rel
                                ) == pytest.approx(
                                    oracles.naive_ap_rareness(
                                        runs_docs, system, topic, relevant, k,
                                        alpha, variant, n_rel,
                                    ),
                                    abs=1e-12,
                                )


class TestEvaluateCampaignOracle:
    NAMES = (
        "P@4",
        "AP",
        "P@4_rareness(alpha=0.5,rarity={v})",
        "AP_rareness(alpha=1,rarity={v})",
        "P@4_mixture(alpha=0.5,rarity={v})",
    )

    @pytest.mark.parametrize("ap_depth", ["cutoff", None])
    @pytest.mark.parametrize("rarity_depth", [None, 2])
    def test_matrices_match_bruteforce(self, rarity_depth, ap_depth):
        undefined_seen = 0
        for campaign in random_campaigns(range(200, 212)):
            for variant in ("eq2", "revised"):
                for name in self.NAMES:
                    spec = MetricSpec.parse(name.format(v=variant), default_cutoff=4)
                    expected, undefined = oracles.oracle_matrix(
                        campaign, spec, rarity_depth, ap_depth
                    )
                    kwargs = dict(rarity_depth=rarity_depth, ap_depth=ap_depth)
                    if undefined:
                        undefined_seen += 1
                        with pytest.raises(UndefinedRarityError):
                            evaluate_campaign(campaign, [spec], **kwargs)
                        continue
                    (matrix,) = evaluate_campaign(campaign, [spec], **kwargs)
                    np.testing.assert_allclose(matrix.values, expected, rtol=0, atol=1e-12)
        # A shallow count depth must exercise the undefined case, a full one never.
        assert (undefined_seen > 0) == (rarity_depth is not None)

    @pytest.mark.parametrize("kind", ["p", "ap", "p_rareness", "ap_rareness", "p_mixture"])
    @settings(max_examples=30, derandomize=True, deadline=None, database=None)
    @given(
        campaign=tiny_campaigns(),
        rarity_depth=st.sampled_from([None, 1, 2, 3]),
        ap_depth=st.sampled_from(["cutoff", None]),
        data=st.data(),
    )
    def test_generated_campaigns_match_bruteforce(
        self, kind, campaign, rarity_depth, ap_depth, data
    ):
        spec = data.draw(metric_specs(kind))
        expected, undefined = oracles.oracle_matrix(campaign, spec, rarity_depth, ap_depth)
        kwargs = dict(rarity_depth=rarity_depth, ap_depth=ap_depth)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # revised rarity of a single system
            if undefined:
                with pytest.raises(UndefinedRarityError):
                    evaluate_campaign(campaign, [spec], **kwargs)
                return
            (matrix,) = evaluate_campaign(campaign, [spec], **kwargs)
        np.testing.assert_allclose(matrix.values, expected, rtol=0, atol=1e-12)

    def test_alpha_zero_ap_rareness_is_ap_at_full_depth(self):
        for campaign in random_campaigns(range(212, 218)):
            base, zero = evaluate_campaign(
                campaign,
                [MetricSpec.parse(n, default_cutoff=2) for n in ("AP", "AP_rareness(alpha=0)")],
                ap_depth=None,
            )
            assert np.array_equal(base.values, zero.values)


class TestMetricSpecParsing:
    def test_parse_and_descriptor(self):
        spec = MetricSpec.parse("P@100_rareness(alpha=0.5,rarity=eq2)")
        assert spec.kind == "p_rareness"
        assert spec.config.cutoff == 100
        assert spec.config.alpha == 0.5
        assert spec.descriptor == "P@100_rareness(alpha=0.5,rarity=eq2)"

    def test_base_names(self):
        assert MetricSpec.parse("P@10").descriptor == "P@10"
        assert MetricSpec.parse("AP").descriptor == "AP"
        assert MetricSpec.parse("ap").kind == "ap"

    def test_defaults_flow_in(self):
        spec = MetricSpec.parse("AP_rareness", default_alpha=0.25, default_variant="revised")
        assert spec.config.alpha == 0.25
        assert spec.config.rarity_variant == "revised"

    def test_mixture_parses_to_mixture_formulation(self):
        spec = MetricSpec.parse("P@50_mixture(alpha=0.3)")
        assert spec.kind == "p_mixture"
        assert spec.config.formulation == "mixture"

    def test_unknown_names_list_valid_patterns(self):
        for bad in ("NDCG@10", "AP@100", "P@100_idf", "AP_mixture"):
            with pytest.raises(ConfigError, match="valid names"):
                MetricSpec.parse(bad)

    def test_bad_parameters(self):
        with pytest.raises(ConfigError, match="alpha"):
            MetricSpec.parse("P@10_rareness(alpha=zz)")
        with pytest.raises(ConfigError, match="rarity"):
            MetricSpec.parse("P@10_rareness(rarity=idf)")

    @pytest.mark.parametrize(
        "text, key",
        [("P@5(alpha=9)", "alpha"), ("AP(alpha=0.5,rarity=revised)", "alpha"),
         ("ap(rarity=eq2)", "rarity")],
    )
    def test_base_metrics_reject_parameters(self, text, key):
        with pytest.raises(ConfigError) as caught:
            MetricSpec.parse(text)
        assert f"metric parameter {key!r} does not apply to the base metric" in str(caught.value)
        assert repr(text) in str(caught.value)

    @pytest.mark.parametrize(
        "text, key",
        [("P@5_rareness(alpha=0.5,alpha=1)", "alpha"),
         ("AP_rareness(rarity=eq2, RARITY=revised)", "rarity")],
    )
    def test_a_repeated_parameter_is_rejected(self, text, key):
        with pytest.raises(ConfigError) as caught:
            MetricSpec.parse(text)
        assert str(caught.value) == f"metric parameter {key!r} given twice in {text!r}"

    def test_flag_defaults_reach_weighted_metrics_only(self):
        base = MetricSpec.parse("P@5", default_alpha=0.25, default_variant="revised")
        weighted = MetricSpec.parse("P@5_mixture", default_alpha=0.25, default_variant="revised")
        assert base.config.alpha == 0.0
        assert base.descriptor == "P@5"
        assert (weighted.config.alpha, weighted.config.rarity_variant) == (0.25, "revised")
        assert MetricSpec.parse("P@5()") == MetricSpec.parse("P@5")
