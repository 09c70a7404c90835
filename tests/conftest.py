import pytest
from hypothesis import strategies as st

import oracles
from rareval import Campaign, MetricConfig, MetricSpec, Qrels, Run, RunEntry


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One line per acceptance criterion at the end of every run."""
    lines = []
    for outcome in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                name = nodeid.split("::")[-1]
                lines.append((name, "PASS" if outcome == "passed" else "FAIL"))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, outcome in sorted(set(lines)):
            terminalreporter.write_line(f"{name}: {outcome}")


@pytest.fixture(scope="session", autouse=True)
def private_cache_home(tmp_path_factory):
    """Point ``XDG_CACHE_HOME`` at a directory of this test session, so that
    the CLI's load cache, in process and in subprocesses, writes nowhere
    else. Session scope keeps Hypothesis's health check for function-scoped
    fixtures quiet."""
    with pytest.MonkeyPatch.context() as patch:
        home = tmp_path_factory.mktemp("cache-home")
        patch.setenv("XDG_CACHE_HOME", str(home))
        yield home


def make_run(system_id: str, per_topic: dict[str, list[str]]) -> Run:
    """Build a Run whose given doc order is canonical (strictly falling scores)."""
    rankings = {
        topic: tuple(
            RunEntry(doc, float(len(docs) - i), i + 1) for i, doc in enumerate(docs)
        )
        for topic, docs in per_topic.items()
    }
    return oracles.run_of_entries(system_id, rankings)


@pytest.fixture
def toy4() -> Campaign:
    """Four systems, one topic, relevant = {d1, d2, d3}."""
    runs = [
        make_run("A", {"t1": ["d1", "d2", "d4"]}),
        make_run("B", {"t1": ["d1", "d3", "d5"]}),
        make_run("C", {"t1": ["d1", "d2", "d6"]}),
        make_run("D", {"t1": ["d1", "d4", "d5"]}),
    ]
    return Campaign(runs, Qrels({"t1": {"d1": 1, "d2": 1, "d3": 1}}))


POOL = [f"d{i}" for i in range(10)]


@st.composite
def tiny_campaigns(draw):
    """1-6 systems over 1-4 judged topics: rankings of 0-8 pool docs (shared
    across systems; a system may skip a topic), graded 0-2 judgments,
    zero-relevant topics allowed."""
    topics = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    ranking = st.lists(st.sampled_from(POOL), max_size=8, unique=True)
    runs = [
        make_run(f"s{i}", {t: draw(ranking) for t in topics if draw(st.integers(0, 3))})
        for i in range(draw(st.integers(1, 6)))
    ]
    judgments = {}
    for t in topics:
        # A pool doc is unjudged (None) or graded; one topic in four has no relevant doc.
        grades = draw(st.lists(st.sampled_from([None, 0, 1, 1, 2]), min_size=10, max_size=10))
        relevant = draw(st.integers(0, 3)) > 0
        judgments[t] = {doc: g * relevant for doc, g in zip(POOL, grades) if g is not None}
    return Campaign(runs, Qrels(judgments))


@st.composite
def metric_specs(draw, kind):
    alpha = draw(st.sampled_from([0.0, 0.5, 1.0])) if kind not in ("p", "ap") else 0.0
    variant = draw(st.sampled_from(["eq2", "revised"]))
    return MetricSpec(kind, MetricConfig(draw(st.integers(1, 8)), alpha, variant))
