import dataclasses
import io
import os
import re
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_run, tiny_campaigns

from rareval import (
    Campaign,
    DataError,
    FormatError,
    MetricSpec,
    ParseError,
    Qrels,
    RunEntry,
    build_rarity_index,
    evaluate_campaign,
    format_qrels,
    format_run,
    load_campaign,
    parse_qrels,
    parse_run_file,
)
from rareval import trec_io
from rareval.errors import ConfigError, RarevalError
from rareval.trec_io import (
    _CODE_LIMIT,
    _assemble,
    _Interner,
    _parse_run_lines,
    _read_run,
    _scan,
)


def run_of(text, **kw):
    return parse_run_file(io.StringIO(text), **kw)


def qrels_of(text, **kw):
    return parse_qrels(io.StringIO(text), **kw)


def fast_pass(data, order):
    """The run the fast pass reads from ``data`` alone, or None where it declines."""
    interner = _Interner()
    scan = _scan(data, interner)
    return None if scan is None else _assemble(scan, *interner.vocabulary(), order)


def line_parsed(lines, dedup, order):
    """The run the line-by-line parser reads from ``lines``, each topic's
    entries put in the oracle's canonical order; a located error for a bad file."""
    interner = _Interner()
    scan = _parse_run_lines(lines, "<stream>", dedup, interner)
    doc_of = {i: token.decode("utf-8", "surrogatepass") for token, i in interner.token_ids.items()}
    per_topic = {topic: [] for topic in scan.topics}
    for topic, i, score, rank_field in zip(
        scan.topic.tolist(), scan.ids.tolist(), scan.scores.tolist(), scan.rank_fields.tolist()
    ):
        per_topic[scan.topics[topic]].append((doc_of[i], score, rank_field))
    return oracles.run_of_entries(scan.tag, {
        topic: [RunEntry(*e) for e in oracles.canonical_order(entries, order)]
        for topic, entries in per_topic.items()
    })


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

    @pytest.mark.parametrize("text", ["", "\n  \n"], ids=["empty", "blank"])
    def test_unknown_order_is_a_config_error_before_reading(self, text):
        source = io.StringIO(text)
        with pytest.raises(ConfigError, match="unknown ordering policy 'bogus'"):
            parse_run_file(source, order="bogus")
        assert source.tell() == 0

    def test_rank_beyond_64_bits_is_a_located_parse_error(self):
        with pytest.raises(ParseError, match=r"^<stream>:2: rank '9{20}' does not fit in 64 bits"):
            parse_run_file(
                io.StringIO("t1 Q0 d1 1 2.0 A\nt1 Q0 d2 99999999999999999999 1.0 A\n"),
            )

    def test_the_rankings_view_rebuilds_entries_from_the_columns(self):
        run = run_of("t1 Q0 d1 7 2.5 A\nt1 Q0 d2 3 9.0 A\nt2 Q0 d1 1 1.0 A\n")
        assert run.rankings == {
            "t1": (RunEntry("d2", 9.0, 3), RunEntry("d1", 2.5, 7)),
            "t2": (RunEntry("d1", 1.0, 1),),
        }
        assert oracles.run_of_entries("A", run.rankings) == run
        run.rankings["t1"] = ()  # a copy: the run is unchanged
        assert run.docs("t1") == ("d2", "d1")


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

    def test_frozen_with_an_empty_set_for_an_unjudged_topic(self):
        qrels = qrels_of("t1 0 d1 1\n")
        assert qrels.relevant("t9") == frozenset()
        with pytest.raises(dataclasses.FrozenInstanceError):
            qrels.relevance_threshold = 2
        assert qrels.with_added("t9", ["d2"]).relevant("t9") == {"d2"}
        assert qrels.relevant("t9") == frozenset()


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


# Every located parse error's whole message; ``{}`` is where the file came from.
_RUN_FIELDS = "expected 6 fields 'topic Q0 docid rank score runtag'"
_BAD_FILES = [
    (parse_run_file, b"t1 Q0 d1 1 9.5 A\nt1 Q0 d2 2 8.0\n", ParseError,
     f"{{}}:2: {_RUN_FIELDS}, got 5"),
    (parse_run_file, b"\r\n\r\nt1 Q0 d1 1 9.5 A x\r\n", ParseError,
     f"{{}}:3: {_RUN_FIELDS}, got 7"),
    (parse_run_file, b"t1 Q0 d1 1 9.5 A\nt1 Q0 d\xff 2 8.0 A\n", ParseError,
     "{}:2: not valid UTF-8 text: 't1 Q0 d\\udcff 2 8.0 A'"),
    (parse_run_file, b"t1 Q0 d1 x 9.5 A\n", ParseError, "{}:1: non-integer rank 'x'"),
    (parse_run_file, b"t1 Q0 d1 1.0 9.5 A\n", ParseError, "{}:1: non-integer rank '1.0'"),
    (parse_run_file, b"t1 Q0 d1 -99999999999999999999 9.5 A\n", ParseError,
     "{}:1: rank '-99999999999999999999' does not fit in 64 bits"),
    (parse_run_file, b"t1 Q0 d1 1 abc A\n", ParseError, "{}:1: non-numeric score 'abc'"),
    (parse_run_file, b"t1 Q0 d1 1 nan A\n", ParseError, "{}:1: non-finite score 'nan'"),
    (parse_run_file, b"t1 Q0 d1 1 -inf A\n", ParseError, "{}:1: non-finite score '-inf'"),
    (parse_run_file, b"t1 Q0 d1 1 9.5 A\nt1 Q0 d2 2 8.0 B\n", FormatError,
     "{}:2: mixed run tags in one file ('A' vs 'B')"),
    (parse_run_file, b"t1 Q0 d1 1 9.5 A\nt1 Q0 d1 2 8.0 A\n", FormatError,
     "{}:2: duplicate document 'd1' for topic 't1'"),
    (parse_qrels, b"t1 0 d1 1\nt1 0 d2\n", ParseError,
     "{}:2: expected 4 fields 'topic iter docid grade', got 3"),
    (parse_qrels, b"\r\nt1 0 d1 1 1\r\n", ParseError,
     "{}:2: expected 4 fields 'topic iter docid grade', got 5"),
    (parse_qrels, b"t1 0 d\xff 1\n", ParseError, "{}:1: not valid UTF-8 text: 't1 0 d\\udcff 1'"),
    (parse_qrels, b"t1 0 d1 x\n", ParseError, "{}:1: non-integer grade 'x'"),
    (parse_qrels, b"t1 0 d1 1.0\n", ParseError, "{}:1: non-integer grade '1.0'"),
    (parse_qrels, b"t1 0 d1 -1\n", ParseError, "{}:1: negative grade -1"),
    (parse_qrels, b"t1 0 d1 1\nt1 0 d1 2\n", FormatError,
     "{}:2: conflicting grades for ('t1', 'd1'): 1 vs 2"),
]


class TestParseErrorMessages:
    @pytest.mark.parametrize("parse, data, error, message", _BAD_FILES)
    @pytest.mark.parametrize("via", ["path", "byte-backed stream", "text stream"])
    def test_the_whole_message_is_pinned(self, tmp_path, parse, data, error, message, via):
        if via == "path":
            source = tmp_path / "bad.txt"
            source.write_bytes(data)
        elif via == "byte-backed stream":  # as sys.stdin is
            source = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
        else:
            source = io.StringIO(data.decode("utf-8", "surrogateescape"))
        with pytest.raises(error) as raised:
            parse(source)
        assert type(raised.value) is error
        assert str(raised.value) == message.format(source if via == "path" else "<stream>")


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


_ID_CHARS = st.sampled_from("abdQXZ019-_.:/#")
_WIDE_ID_CHARS = (
    _ID_CHARS
    | st.sampled_from(["\x00", "\x7f", "é", "日", "\U0001f600"])
    | st.characters(blacklist_categories=("Cs",)).filter(lambda ch: not ch.isspace())
)
_SCORES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 0.5]) | st.floats(
    allow_nan=False, allow_infinity=False
)


@st.composite
def run_texts(draw):
    """Run text of 1-3 topics x 1-8 docs in shuffled line order: ids without
    whitespace, either all ASCII (read by the fast pass) or mixed with
    non-ASCII and NUL (read by the line parser); scores from a small tied
    set with both zeros and the extreme finite values; any int64 rank."""
    ids = st.text(draw(st.sampled_from([_ID_CHARS, _WIDE_ID_CHARS])), min_size=1, max_size=5)
    tag = draw(ids)
    ranks = st.integers(-(2**63), 2**63 - 1)
    lines = [
        f"{topic} Q0 {doc} {draw(ranks)} {draw(_SCORES)!r} {tag}"
        for topic in draw(st.lists(ids, min_size=1, max_size=3, unique=True))
        for doc in draw(st.lists(ids, min_size=1, max_size=8, unique=True))
    ]
    return "\n".join(draw(st.permutations(lines))) + "\n"


class TestRoundTrip:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(text=run_texts(), order=st.sampled_from(["score", "rank-field"]))
    def test_parse_of_format_is_the_identity(self, text, order):
        def parse(text):
            data = io.BytesIO(text.encode("utf-8"))
            return parse_run_file(io.TextIOWrapper(data, encoding="utf-8"), order=order)

        run = parse(text)
        written = format_run(run)
        again = parse(written)
        assert again == run
        for topic, columns in run.columns.items():  # bitwise, so -0.0 stays -0.0
            assert again.columns[topic].scores.tobytes() == columns.scores.tobytes()
        assert format_run(again) == written

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(per_topic=st.dictionaries(
        st.sampled_from(["t1", "t2", "t3"]),
        st.lists(st.sampled_from(["d1", "d2", "d3", "d4"]), max_size=4, unique=True),
    ))
    @example(per_topic={"t1": ["d1"], "t2": []})
    def test_a_run_drops_its_empty_rankings_and_round_trips(self, per_topic):
        run = make_run("A", per_topic)
        ranked = sorted(topic for topic, docs in per_topic.items() if docs)
        assert run.topics == tuple(ranked)
        campaign = Campaign([run], Qrels({}))
        assert campaign.unjudged_topics == frozenset(ranked)
        assert sorted(build_rarity_index(campaign).counts) == ranked
        if ranked:
            assert parse_run_file(io.StringIO(format_run(run))) == run
        else:  # an empty file, which the parser rejects
            assert format_run(run) == ""

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

    def test_a_campaign_is_frozen_and_replace_recomputes_its_code_space(self):
        a = make_run("A", {"t1": ["d1", "d2"]})
        b = make_run("B", {"t1": ["x9", "d1"]})
        campaign = Campaign([a], Qrels({"t1": {"d1": 1, "x9": 1}}))
        for name, value in (("runs", [b]), ("qrels", Qrels({"t1": {"d2": 1}}))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(campaign, name, value)
        p2 = [MetricSpec.parse("P@2")]
        assert evaluate_campaign(campaign, p2)[0].values.tolist() == [[0.5]]
        swapped = dataclasses.replace(campaign, runs=[b])
        assert swapped.runs[0].docs("t1") == ("x9", "d1")
        assert evaluate_campaign(swapped, p2)[0].values.tolist() == [[1.0]]
        regraded = dataclasses.replace(campaign, qrels=Qrels({"t1": {"d2": 1}}))
        assert regraded.runs[0] is campaign.runs[0] and regraded.vocab is campaign.vocab
        assert evaluate_campaign(regraded, p2)[0].values.tolist() == [[0.5]]


# Field spellings for generated run files. A clean line draws from the
# first lists: valid numbers, odd spellings included, ASCII ids, one tag.
# About one line in four draws one of its parts from the second: bad numbers,
# non-finite scores, valid non-ASCII UTF-8, bytes that are not UTF-8, a second
# tag, whitespace the fast pass leaves to the line parser, and lines of 5 or
# 7 fields, alone or as a pair whose fields, taken six at a time across the
# line break, would read as two good lines.
_CLEAN = {
    "topic": [b"t1", b"t2", b"401"],
    "doc": [b"d1", b"d2", b"d3", b"d10", b"D1", b"a", b"ab", b"b", b"c9"],
    "rank": [b"1", b"2", b"3", b"+3", b"-1", b"007", b"1_0"],
    "score": [b"1.0", b"2.5", b"2.5", b"-0.0", b"0", b"1_0.5", b"1e5", b".5"],
    "tag": [b"A"],
    "separator": [b" ", b"\t", b" \t "],
    "ending": [b"\n"],
    "shape": ["six"] * 5 + ["blank"],
}
_MESSY = {
    "doc": [b"d\xc3\xa9", b"d\xff", b"d\x00"],
    "rank": [b"x", b"9" * 20, b"1.0"],
    "score": [b"infinity", b"nan", b"-inf", b"abc"],
    "tag": [b"B"],
    "separator": [b"\x0c", b"\x1c", b"\x0b"],
    "ending": [b"\r\n", b"\r"],
    "shape": ["five", "seven", "five+seven", "five+seven"],
}


@st.composite
def run_files(draw):
    """Run-file bytes of 0-8 lines, mostly clean."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        messy = draw(st.sampled_from([None] * 28 + list(_MESSY) + ["shape"] * 3))
        pick = {
            key: draw(st.sampled_from(_MESSY[key] if key == messy else clean))
            for key, clean in _CLEAN.items()
        }
        fields = [pick["topic"], b"Q0", pick["doc"], pick["rank"], pick["score"], pick["tag"]]
        if pick["shape"] == "blank":
            fields = [draw(st.sampled_from([b"", b" "]))]
        elif pick["shape"] == "five":
            fields = fields[:5]
        elif pick["shape"] == "seven":
            fields = fields + [b"extra"]
        elif pick["shape"] == "five+seven":  # the line break moved one field left
            lines.append(pick["separator"].join(fields[:5]) + b"\n")
            fields = [fields[5], *fields[:2], draw(st.sampled_from(_CLEAN["doc"])), *fields[3:]]
        lines.append(pick["separator"].join(fields) + pick["ending"])
    return b"".join(lines)


class TestFastPassAgreesWithTheLineParser:
    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        data=run_files(),
        dedup=st.sampled_from(["reject", "first"]),
        order=st.sampled_from(["score", "rank-field"]),
        via=st.sampled_from(["bytes", "text"]),
    )
    @example(b"t1 Q0 d2 1 1.0 A\r\nt1 Q0 d1 2 1.0 A\r\n", "reject", "score", "bytes")
    @example(b"t1 Q0 d1 1 2.0 A\nt1 Q0 d2 2 1.0 A\nt1 Q0 d1 3 3.0 A\n", "first", "score", "bytes")
    @example(b"t1 Q0 d\xc3\xa9 1 1.0 A\nt1 Q0 d\xf0\x90\x80\x80 2 1.0 A\nt1 Q0 e 3 1.0 A\n",
             "reject", "rank-field", "bytes")
    # A text stream can hold a lone surrogate, which UTF-8 bytes cannot.
    @example("t1 Q0 d\ud800x 1 1.0 A\nt1 Q0 d\uffffx 2 1.0 A\n", "reject", "score", "text")
    def test_same_run_or_same_error(self, data, dedup, order, via):
        if via == "bytes":  # a path or a byte-backed stream such as sys.stdin
            def source():
                return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
            lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        else:
            text = data if isinstance(data, str) else data.decode("utf-8", errors="surrogateescape")

            def source():
                return io.StringIO(text)
            lines = io.StringIO(text)
        fast = fast_pass(data, order) if isinstance(data, bytes) else None
        try:
            expected = line_parsed(lines, dedup, order)
        except RarevalError as exc:
            with pytest.raises(type(exc)) as raised:
                parse_run_file(source(), dedup=dedup, order=order)
            assert str(raised.value) == str(exc)
            assert fast is None
            return
        run = parse_run_file(source(), dedup=dedup, order=order)
        assert run == expected
        assert list(run.columns) == list(expected.columns)
        if fast is not None:
            assert fast == expected
            assert list(fast.columns) == list(expected.columns)

    def test_the_fast_pass_takes_clean_files_and_odd_numbers(self):
        data = b"t2 Q0 d1 1_0 1_0.5 A\n\n t1\tQ0 d2 +3 1e5 A \nt1 Q0 d1 007 .5 A"
        fast = fast_pass(data, "rank-field")
        assert fast is not None
        assert fast.rankings == {
            "t2": (RunEntry("d1", 10.5, 10),),
            "t1": (RunEntry("d2", 100000.0, 3), RunEntry("d1", 0.5, 7)),
        }

    @pytest.mark.parametrize(
        "data",
        [
            b"t1 Q0 d1 1 2.0 A\nt1 Q0 d2 2 1.0\nt1 Q0 d3 3 0.5 A extra\n",  # 5 + 7 fields
            b"t1 Q0 d1 1 2.0 A\r\n",
            b"t1 Q0 d\xc3\xa9 1 2.0 A\n",
            b"t1 Q0 d1\x1c 1 2.0 A\n",
            b"t1 Q0 d1 1 2.0 A\nt1 Q0 d1 2 1.0 A\n",
            b"t1 Q0 d1 1 2.0 A\nt1 Q0 d2 2 1.0 B\n",
            b"t1 Q0 d1 1 nan A\n",
        ],
        ids=["five-and-seven", "crlf", "non-ascii", "0x1c", "duplicate", "mixed-tags", "nan"],
    )
    def test_the_fast_pass_declines_what_it_cannot_prove(self, data):
        assert fast_pass(data, "score") is None


def _retagged(data, i, disjoint):
    """Run-file bytes with run tag ``A<i>`` (``B<i>``) and, if ``disjoint``,
    every doc-id (and any token starting like one) prefixed by ``f<i>``."""
    data = data.replace(b"A", b"A%d" % i).replace(b"B", b"B%d" % i)
    return re.sub(rb"(?<![^\s])(?=[dDabc])", b"f%d" % i, data) if disjoint else data


class TestLoadCampaignSharesOneVocabulary:
    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(
        files=st.lists(run_files(), min_size=1, max_size=4),
        disjoint=st.booleans(),
        dedup=st.sampled_from(["reject", "first"]),
        order=st.sampled_from(["score", "rank-field"]),
    )
    @example(  # a fast-pass file, a CRLF file, and a non-ASCII doc-id with a repeat
        [b"t1 Q0 d1 1 2.0 A\n", b"t1 Q0 d1 1 2.0 A\r\nt1 Q0 d2 2 1.0 A\r\n",
         b"t1 Q0 d\xc3\xa9 1 1.0 A\nt1 Q0 d1 2 1.0 A\nt1 Q0 d1 3 3.0 A\n"],
        False, "first", "score",
    )
    def test_same_runs_as_the_line_parser_file_by_file(self, files, disjoint, dedup, order):
        files = [_retagged(data, i, disjoint) for i, data in enumerate(files)]

        def sources():
            return [io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") for data in files]

        try:
            expected = [
                line_parsed(
                    io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape"),
                    dedup, order,
                )
                for data in files
            ]
        except RarevalError as exc:
            with pytest.raises(type(exc)) as raised:
                load_campaign(sources(), io.StringIO(""), dedup=dedup, order=order)
            assert str(raised.value) == str(exc)
            return
        campaign = load_campaign(sources(), io.StringIO(""), dedup=dedup, order=order)
        for run, want in zip(campaign.runs, expected, strict=True):
            assert run.system_id == want.system_id
            assert list(run.columns) == list(want.columns)
            for topic, columns in want.columns.items():
                got = run.columns[topic]
                assert got.docs == columns.docs
                assert got.scores.tobytes() == columns.scores.tobytes()
                assert got.rank_fields.tolist() == columns.rank_fields.tolist()
        # Fast-pass and line-parsed files alike: one vocabulary for the load.
        assert len({id(c.vocab) for run in campaign.runs for c in run.columns.values()}) == 1


class TestCompositeSortKey:
    def test_the_largest_file_and_vocabulary_admitted_cannot_wrap_int64(self):
        lines, size = _CODE_LIMIT - 1, _CODE_LIMIT  # a file's lines stay below the limit
        # Dedup key: topic index * ids handed out + token id.
        assert (lines - 1) * _CODE_LIMIT + (_CODE_LIMIT - 1) < 2**63
        # (topic, first key) rank before its joint ranking: topic * lines + rank.
        assert (lines - 1) * lines + (lines - 1) < 2**63
        # Sort key: joint rank * vocabulary size + descending code.
        assert (lines - 1) * size + (size - 1) < 2**63
        assert size - 1 <= np.iinfo(np.int32).max  # every code fits int32

    def test_the_guard_refuses_ids_past_the_limit(self):
        interner = _Interner()
        interner.used = _CODE_LIMIT - 1
        assert interner.ids([b"d1", b"d2"]) is None
        assert interner.ids([b"d1"]).tolist() == [_CODE_LIMIT - 1]
        assert _scan(b"t1 Q0 d1 1 1.0 A\n", interner) is None

    def test_a_line_parsed_file_past_the_limit_is_a_data_error_naming_it(self, tmp_path):
        path = tmp_path / "crlf.run"
        path.write_bytes(b"t1 Q0 d1 1 1.0 A\r\nt1 Q0 d2 2 0.5 A\r\n")
        interner = _Interner()
        interner.used = _CODE_LIMIT - 1
        with pytest.raises(DataError, match=re.escape(f"{path}: more run lines")):
            _read_run(path, interner, "reject")


def _write_campaign(folder, campaign, form, dedup):
    """The campaign's run and qrels files in ``folder``: ``form`` "crlf" ends
    each line in CRLF and "non-ascii" spells every doc-id with an "é"; under
    ``dedup="first"`` each run file repeats its first line at the end."""
    paths = []
    for i, run in enumerate(campaign.runs):
        data = format_run(run).encode()
        if dedup == "first" and data:
            data += data.split(b"\n", 1)[0] + b"\n"
        if form == "crlf":
            data = data.replace(b"\n", b"\r\n")
        elif form == "non-ascii":
            data = data.replace(b" Q0 d", " Q0 dé".encode())
        path = folder / f"{i}.run"
        path.write_bytes(data)
        paths.append(path)
    qrels = folder / "qrels.txt"
    qrels.write_text(format_qrels(campaign.qrels))
    return paths, qrels


def _entries(cache):
    return sorted(cache.glob("*.npz")) if cache.is_dir() else []


def _assert_same_load(got, want):
    """The same runs, column bytes and vocabulary, and the same qrels."""
    for run, expected in zip(got.runs, want.runs, strict=True):
        assert run.system_id == expected.system_id
        assert list(run.columns) == list(expected.columns)
        for topic, columns in expected.columns.items():
            cached = run.columns[topic]
            for name in ("codes", "scores", "rank_fields"):
                array, reference = getattr(cached, name), getattr(columns, name)
                assert array.dtype == reference.dtype
                assert array.tobytes() == reference.tobytes()
                assert not array.flags.writeable
            assert cached.vocab.ids == columns.vocab.ids
    assert len({id(c.vocab) for run in got.runs for c in run.columns.values()}) == 1
    assert got.qrels == want.qrels


def _no_parse():
    """Within it, reading a run file fails the test: a load must be a hit."""
    return mock.patch.object(trec_io, "_read_run", side_effect=AssertionError("parsed"))


_CACHED_CAMPAIGN = Campaign(
    [
        make_run("s0", {"t1": ["d1", "d2", "d3"], "t0": ["d2"]}),
        make_run("s1", {"t0": ["d3", "d1"]}),
    ],
    Qrels({"t0": {"d1": 1}, "t1": {"d2": 2, "d4": 0}}),
)


class TestLoadCache:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(
        campaign=tiny_campaigns(),
        form=st.sampled_from(["lf", "crlf", "non-ascii"]),
        dedup=st.sampled_from(["reject", "first"]),
        order=st.sampled_from(["score", "rank-field"]),
    )
    @example(_CACHED_CAMPAIGN, "crlf", "reject", "score")
    @example(_CACHED_CAMPAIGN, "non-ascii", "reject", "score")
    @example(_CACHED_CAMPAIGN, "lf", "first", "score")
    @example(_CACHED_CAMPAIGN, "lf", "reject", "rank-field")
    def test_a_cached_load_is_the_uncached_load(self, campaign, form, dedup, order):
        with tempfile.TemporaryDirectory() as tmp:
            folder = Path(tmp)
            cache = folder / "cache"
            runs, qrels = _write_campaign(folder, campaign, form, dedup)

            def load(where=cache):
                return load_campaign(runs, qrels, dedup=dedup, order=order, cache=where)

            try:
                want = load(None)
            except RarevalError as exc:
                for _ in range(2):  # a parse error is never cached
                    with pytest.raises(type(exc)) as raised:
                        load()
                    assert str(raised.value) == str(exc)
                assert _entries(cache) == []
                return
            _assert_same_load(load(), want)  # cold
            [entry] = _entries(cache)
            size = entry.stat().st_size
            with _no_parse():
                _assert_same_load(load(), want)  # warm
            good = entry.read_bytes()
            # A truncated, empty or garbage entry is a miss, and is rewritten.
            for damaged in (good[: size // 2], b"", b"not an npz archive\n" * 8):
                entry.write_bytes(damaged)
                _assert_same_load(load(), want)
                assert _entries(cache) == [entry] and entry.stat().st_size == size
                with _no_parse():
                    _assert_same_load(load(), want)
            # A cache path that is a regular file: the load parses, and raises nothing.
            _assert_same_load(load(qrels), want)
            assert qrels.read_text() == format_qrels(campaign.qrels)
            # A one-byte edit to a run file (its first rank field) is a miss.
            data = runs[0].read_bytes()
            at = data.index(b" ", data.index(b" ", data.index(b" ") + 1) + 1) + 1
            runs[0].write_bytes(data[:at] + b"9" + data[at + 1:])
            fresh = load(None)
            assert fresh.runs[0].rankings != want.runs[0].rankings
            _assert_same_load(load(), fresh)
            assert len(_entries(cache)) == 2

    def test_a_flipped_byte_anywhere_in_an_entry_changes_no_load(self, tmp_path):
        runs, qrels = _write_campaign(tmp_path, _CACHED_CAMPAIGN, "lf", "reject")
        want = load_campaign(runs, qrels)
        load_campaign(runs, qrels, cache=tmp_path / "cache")
        [entry] = _entries(tmp_path / "cache")
        good = entry.read_bytes()
        for at in range(0, len(good), 7):  # every seventh byte: caught by a check, or inert
            flipped = bytearray(good)
            flipped[at] ^= 0x10
            entry.write_bytes(flipped)
            _assert_same_load(load_campaign(runs, qrels, cache=tmp_path / "cache"), want)
            assert entry.stat().st_size == len(good)

    def test_an_entry_of_the_wrong_shape_is_a_miss(self, tmp_path):
        runs, qrels = _write_campaign(tmp_path, _CACHED_CAMPAIGN, "lf", "reject")
        want = load_campaign(runs, qrels)
        cache = tmp_path / "cache"
        load_campaign(runs, qrels, cache=cache)
        [entry] = _entries(cache)
        with np.load(entry) as stored:
            good = dict(stored)
        topics = good["topics"].tobytes().split(b"\n")  # s0's two topics, then s1's
        for name, bad in [
            ("codes", good["codes"].astype(np.int64)),  # a dtype
            ("codes", good["codes"] + len(want.runs[0].columns["t1"].vocab)),  # past the vocab
            ("codes", good["codes"] - 4),  # negative
            ("lengths", good["lengths"][:-1]),  # a size
            ("scores", good["scores"].astype(np.float32)),  # a dtype
            ("topic_counts", good["topic_counts"] + 1),  # more topics than stored
            ("tags", good["tags"][:1]),  # a tag short
            ("topics", np.frombuffer(b"\n".join([topics[0], *topics[:1], *topics[2:]]), np.uint8)),
        ]:
            with open(entry, "wb") as handle:
                np.savez(handle, **{**good, name: bad})
            _assert_same_load(load_campaign(runs, qrels, cache=cache), want)
            with _no_parse():
                _assert_same_load(load_campaign(runs, qrels, cache=cache), want)

    def test_the_key_covers_the_policies_and_the_file_order(self, tmp_path):
        runs, qrels = _write_campaign(tmp_path, _CACHED_CAMPAIGN, "lf", "reject")
        cache = tmp_path / "cache"
        for order in ("score", "rank-field"):
            for dedup in ("reject", "first"):
                for sources in (runs, runs[::-1]):
                    want = load_campaign(sources, qrels, dedup=dedup, order=order)
                    got = load_campaign(sources, qrels, dedup=dedup, order=order, cache=cache)
                    _assert_same_load(got, want)
        assert len(_entries(cache)) == 8

    def test_the_key_covers_the_module_source_read_at_import(self, tmp_path, monkeypatch):
        runs, qrels = _write_campaign(tmp_path, _CACHED_CAMPAIGN, "lf", "reject")
        want = load_campaign(runs, qrels)
        cache = tmp_path / "cache"
        load_campaign(runs, qrels, cache=cache)
        monkeypatch.setattr(trec_io, "_SOURCE", trec_io._SOURCE + b"\n")  # an edited parser
        _assert_same_load(load_campaign(runs, qrels, cache=cache), want)
        assert len(_entries(cache)) == 2
        monkeypatch.setattr(trec_io, "_SOURCE", None)  # a source that could not be read
        _assert_same_load(load_campaign(runs, qrels, cache=cache), want)
        assert len(_entries(cache)) == 2

    def test_streams_are_not_cached(self, tmp_path):
        runs, qrels = _write_campaign(tmp_path, _CACHED_CAMPAIGN, "lf", "reject")
        cache = tmp_path / "cache"
        with open(runs[0], "rb") as stream:
            got = load_campaign([io.TextIOWrapper(stream), runs[1]], qrels, cache=cache)
        _assert_same_load(got, load_campaign(runs, qrels))
        assert not cache.exists()

    @pytest.mark.parametrize("extra, error", [
        (None, FileNotFoundError),  # a file that is not there
        (b"t1 Q0 d9 1 2.0 s0\n", FormatError),  # a second run tagged s0
        (b"t1 Q0 d9 1 2.0\n", ParseError),  # five fields
    ], ids=["missing", "same-tag", "malformed"])
    def test_a_load_error_writes_no_entry_and_is_raised_again(self, tmp_path, extra, error):
        runs, qrels = _write_campaign(tmp_path, _CACHED_CAMPAIGN, "lf", "reject")
        bad = tmp_path / "bad.run"
        if extra is not None:
            bad.write_bytes(extra)
        with pytest.raises(error) as uncached:
            load_campaign([*runs, bad], qrels)
        for _ in range(2):
            with pytest.raises(error) as cached:
                load_campaign([*runs, bad], qrels, cache=tmp_path / "cache")
            assert str(cached.value) == str(uncached.value)
        assert _entries(tmp_path / "cache") == []

    def test_a_file_edited_between_its_two_reads_writes_no_entry(self, tmp_path):
        runs, qrels = _write_campaign(tmp_path, _CACHED_CAMPAIGN, "lf", "reject")
        cache = tmp_path / "cache"
        original = runs[0].read_bytes()
        edited = original.replace(b" 1 ", b" 7 ", 1)  # s0's first rank field
        read = trec_io._read

        def edit_then_read(source):  # the key has hashed the original bytes
            if source == runs[0]:
                runs[0].write_bytes(edited)
            return read(source)

        with mock.patch.object(trec_io, "_read", side_effect=edit_then_read):
            got = load_campaign(runs, qrels, cache=cache)
        assert _entries(cache) == []
        _assert_same_load(got, load_campaign(runs, qrels))  # the edited file's runs
        runs[0].write_bytes(original)
        want = load_campaign(runs, qrels)
        assert want.runs[0].rankings != got.runs[0].rankings
        _assert_same_load(load_campaign(runs, qrels, cache=cache), want)
        assert len(_entries(cache)) == 1

    def test_an_entry_over_the_budget_is_not_written_and_trims_nothing(
        self, tmp_path, monkeypatch
    ):
        runs, qrels = _write_campaign(tmp_path, _CACHED_CAMPAIGN, "lf", "reject")
        cache = tmp_path / "cache"
        load_campaign(runs, qrels, cache=cache)
        kept = _entries(cache)
        monkeypatch.setattr(trec_io, "_CACHE_BUDGET", 64)  # below any entry's arrays
        got = load_campaign(runs, qrels, cache=cache, order="rank-field")
        _assert_same_load(got, load_campaign(runs, qrels, order="rank-field"))
        assert _entries(cache) == kept and len(kept) == 1

    def test_the_least_recently_used_entry_goes_first_once_over_the_budget(
        self, tmp_path, monkeypatch
    ):
        runs, qrels = _write_campaign(tmp_path, _CACHED_CAMPAIGN, "lf", "reject")
        cache = tmp_path / "cache"

        def new_entry(**policies):
            before = set(_entries(cache))
            load_campaign(runs, qrels, cache=cache, **policies)
            [entry] = set(_entries(cache)) - before
            return entry

        a = new_entry(order="score")
        os.utime(a, (1, 1))
        size = a.stat().st_size  # the other entries hold the same arrays, reordered
        monkeypatch.setattr(trec_io, "_CACHE_BUDGET", 2 * size + size // 2)
        b = new_entry(order="rank-field")
        os.utime(b, (2, 2))
        with _no_parse():  # a hit makes a the most recently used
            load_campaign(runs, qrels, cache=cache, order="score")
        c = new_entry(dedup="first")
        assert _entries(cache) == sorted([a, c])
