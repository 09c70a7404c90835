import io
import re

import pytest

from rareval import (
    Campaign,
    DataError,
    FormatError,
    ParseError,
    format_qrels,
    format_run,
    load_campaign,
    parse_qrels,
    parse_run_file,
)
from rareval.errors import ConfigError


def run_of(text, **kw):
    return parse_run_file(io.StringIO(text), **kw)


def qrels_of(text, **kw):
    return parse_qrels(io.StringIO(text), **kw)


class TestParseRun:
    def test_basic_two_lines(self):
        run = run_of("t1 Q0 d1 1 9.5 sysA\nt1 Q0 d2 2 8.0 sysA\n")
        assert run.system_id == "sysA"
        assert run.docs("t1") == ("d1", "d2")

    def test_equal_scores_break_ties_by_descending_doc_id(self):
        run = run_of("t1 Q0 d1 1 5.0 sysA\nt1 Q0 d2 2 5.0 sysA\n")
        assert run.docs("t1") == ("d2", "d1")

    def test_score_order_ignores_rank_column(self):
        run = run_of("t1 Q0 low 1 1.0 sysA\nt1 Q0 high 2 2.0 sysA\n")
        assert run.docs("t1") == ("high", "low")

    def test_rank_field_order_trusts_rank_column(self):
        run = run_of(
            "t1 Q0 low 1 1.0 sysA\nt1 Q0 high 2 2.0 sysA\n", order="rank-field"
        )
        assert run.docs("t1") == ("low", "high")

    def test_five_fields_is_a_parse_error_with_line_number(self):
        with pytest.raises(ParseError, match=":1"):
            run_of("t1 Q0 d1 1 9.5\n")

    def test_seven_fields_rejected(self):
        with pytest.raises(ParseError, match="6 fields"):
            run_of("t1 Q0 d1 1 9.5 sysA extra\n")

    def test_non_numeric_score(self):
        with pytest.raises(ParseError, match="score"):
            run_of("t1 Q0 d1 1 abc sysA\n")

    def test_non_integer_rank(self):
        with pytest.raises(ParseError, match="rank"):
            run_of("t1 Q0 d1 x 9.5 sysA\n")

    def test_mixed_runtags(self):
        with pytest.raises(FormatError, match="mixed run tags"):
            run_of("t1 Q0 d1 1 9.5 sysA\nt1 Q0 d2 2 8.0 sysB\n")

    def test_duplicate_doc_rejected_by_default(self):
        with pytest.raises(FormatError, match="duplicate"):
            run_of("t1 Q0 d1 1 9.5 sysA\nt1 Q0 d1 2 8.0 sysA\n")

    def test_duplicate_doc_first_policy_keeps_first_seen(self):
        run = run_of(
            "t1 Q0 d1 1 9.5 sysA\nt1 Q0 d1 2 8.0 sysA\n", dedup="first"
        )
        assert run.rankings["t1"][0].score == 9.5
        assert len(run.rankings["t1"]) == 1

    def test_blank_lines_skipped(self):
        run = run_of("\nt1 Q0 d1 1 9.5 sysA\n\n")
        assert run.docs("t1") == ("d1",)

    def test_empty_file(self):
        with pytest.raises(FormatError, match="empty"):
            run_of("")

    def test_line_order_within_topic_is_immaterial(self):
        lines = ["t1 Q0 d1 3 7.0 s", "t1 Q0 d2 1 9.0 s", "t1 Q0 d3 2 8.0 s"]
        forward = run_of("\n".join(lines))
        backward = run_of("\n".join(reversed(lines)))
        assert forward == backward

    def test_unknown_policies(self):
        with pytest.raises(ConfigError):
            run_of("t1 Q0 d1 1 9.5 sysA\n", dedup="last")
        with pytest.raises(ConfigError):
            run_of("t1 Q0 d1 1 9.5 sysA\n", order="file")


class TestParseQrels:
    def test_threshold_one(self):
        qrels = qrels_of("t1 0 d1 1\nt1 0 d4 0\n")
        assert qrels.relevant("t1") == {"d1"}

    def test_grade_collapse(self):
        qrels = qrels_of("t1 0 d1 2\n")
        assert qrels.relevant("t1") == {"d1"}

    def test_threshold_two(self):
        qrels = qrels_of("t1 0 d1 2\nt1 0 d2 1\n", relevance_threshold=2)
        assert qrels.relevant("t1") == {"d1"}

    def test_conflicting_duplicate(self):
        with pytest.raises(FormatError, match="conflicting"):
            qrels_of("t1 0 d1 1\nt1 0 d1 0\n")

    def test_identical_duplicate_tolerated(self):
        qrels = qrels_of("t1 0 d1 1\nt1 0 d1 1\n")
        assert qrels.grade("t1", "d1") == 1

    def test_negative_grade(self):
        with pytest.raises(ParseError, match="negative"):
            qrels_of("t1 0 d1 -1\n")

    def test_wrong_field_count(self):
        with pytest.raises(ParseError, match="4 fields"):
            qrels_of("t1 0 d1\n")

    def test_unjudged_is_nonrelevant(self):
        qrels = qrels_of("t1 0 d1 1\n")
        assert not qrels.is_relevant("t1", "dX")
        assert qrels.grade("t1", "dX") == 0


class TestUndecodableInput:
    # Line 1 is valid non-ASCII UTF-8; line 2 holds a byte that is not UTF-8.
    # Decoded with replacement, d\xff and d\xfe would both become 'd\ufffd'.
    @pytest.mark.parametrize(
        "parse, data",
        [
            (parse_run_file, b"t1 Q0 d\xc3\xa9 1 3.0 A\nt1 Q0 d\xff 2 2.0 A\nt1 Q0 d\xfe 3 1.0 A\n"),
            (parse_qrels, b"t1 0 d\xc3\xa9 1\nt1 0 d\xff 1\nt1 0 d\xfe 1\n"),
        ],
        ids=["run", "qrels"],
    )
    @pytest.mark.parametrize("via", ["path", "byte-backed stream"])
    def test_a_line_that_is_not_utf8_is_a_located_parse_error(
        self, tmp_path, parse, data, via
    ):
        if via == "path":
            source = tmp_path / "input.txt"
            source.write_bytes(data)
            where = f"{source}:2"
        else:  # as sys.stdin is: text over a byte buffer
            source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            where = "<stream>:2"
        with pytest.raises(ParseError, match=f"^{re.escape(where)}: not valid UTF-8"):
            parse(source)
        if via != "path":
            assert not source.closed  # the caller's stream stays usable


class TestLoadCampaign:
    def _sources(self, tags):
        return [io.StringIO(f"t1 Q0 d{i} 1 1.0 {tag}\n") for i, tag in enumerate(tags)]

    def test_four_runs(self):
        campaign = load_campaign(
            self._sources(["a", "b", "c", "d"]), io.StringIO("t1 0 d0 1\n")
        )
        assert campaign.n_systems == 4

    def test_duplicate_system_id(self):
        with pytest.raises(FormatError, match="duplicate system id"):
            load_campaign(
                self._sources(["sysA", "sysA"]), io.StringIO("t1 0 d0 1\n")
            )

    def test_empty_run_set(self):
        with pytest.raises(DataError, match="no run sources"):
            load_campaign([], io.StringIO("t1 0 d0 1\n"))

    def test_unjudged_topic_is_flagged_not_rejected(self):
        campaign = load_campaign(
            [io.StringIO("t1 Q0 d1 1 2.0 s\nt9 Q0 d2 1 2.0 s\n")],
            io.StringIO("t1 0 d1 1\n"),
        )
        assert campaign.unjudged_topics == {"t9"}
        assert campaign.judged_topics == ("t1",)

    def test_topic_coverage(self):
        campaign = load_campaign(
            [io.StringIO("t1 Q0 d1 1 2.0 s\nt2 Q0 d1 1 2.0 s\n")],
            io.StringIO("t1 0 d1 1\nt2 0 d1 1\n"),
        )
        assert campaign.topic_coverage() == {"s": frozenset({"t1", "t2"})}


class TestRoundTrip:
    def test_parse_format_parse_is_identity(self):
        text = (
            "t1 Q0 d1 1 9.5 sysA\n"
            "t1 Q0 d2 2 9.5 sysA\n"
            "t2 Q0 d9 1 -0.125 sysA\n"
            "t1 Q0 d7 3 0.3333333333333333 sysA\n"
        )
        first = run_of(text)
        second = parse_run_file(io.StringIO(format_run(first)))
        assert second == first

    def test_round_trip_from_generated_campaigns(self):
        from rareval import SynthSpec, generate_campaign

        campaign = generate_campaign(
            SynthSpec(4, 3, 5, 60, overlap_bias=0.5, run_depth=10, seed=5)
        )
        for run in campaign.runs:
            assert parse_run_file(io.StringIO(format_run(run))) == run
        qrels = parse_qrels(io.StringIO(format_qrels(campaign.qrels)))
        assert qrels.judgments == campaign.qrels.judgments

    def test_canonical_order_is_total(self):
        # Distinct entries always compare one way: sorting any shuffle agrees.
        import itertools

        entries = ["t1 Q0 a 1 1.0 s", "t1 Q0 b 2 1.0 s", "t1 Q0 c 3 2.0 s"]
        expected = run_of("\n".join(entries)).docs("t1")
        for perm in itertools.permutations(entries):
            assert run_of("\n".join(perm)).docs("t1") == expected


class TestCampaignValidation:
    def test_duplicate_ids_rejected_at_construction(self, toy4):
        with pytest.raises(FormatError):
            Campaign(toy4.runs + [toy4.runs[0]], toy4.qrels)

    def test_at_least_one_run(self, toy4):
        with pytest.raises(DataError):
            Campaign([], toy4.qrels)
