"""Score a tiny four-system campaign and inspect document rarity.

Walks the core objects end to end: parse TREC-format text, print the
per-topic rarity report, build the cross-system retrieval-count index that
the per-cell metrics read, and score one system with the standard and
rarity-weighted metrics.
"""

import io

from rareval import (
    MetricConfig,
    MetricSpec,
    build_rarity_index,
    evaluate_campaign,
    load_campaign,
    mean_scores,
    p_at_k_rareness,
    precision_at_k,
    rank_systems,
    rarity_report,
)

RUN_TEXTS = {
    "A": "t1 Q0 d1 1 3.0 A\nt1 Q0 d2 2 2.0 A\nt1 Q0 d4 3 1.0 A\n",
    "B": "t1 Q0 d1 1 3.0 B\nt1 Q0 d3 2 2.0 B\nt1 Q0 d5 3 1.0 B\n",
    "C": "t1 Q0 d1 1 3.0 C\nt1 Q0 d2 2 2.0 C\nt1 Q0 d6 3 1.0 C\n",
    "D": "t1 Q0 d1 1 3.0 D\nt1 Q0 d4 2 2.0 D\nt1 Q0 d5 3 1.0 D\n",
}
QRELS_TEXT = "t1 0 d1 1\nt1 0 d2 1\nt1 0 d3 1\n"

campaign = load_campaign(
    [io.StringIO(text) for text in RUN_TEXTS.values()], io.StringIO(QRELS_TEXT)
)
print(f"{campaign.n_systems} systems, topics: {campaign.judged_topics}")

# Every system finds d1, two find d2, only B finds d3.
print("\nrarity report for t1 (rarest first):")
for row in rarity_report(campaign, "t1"):
    print(f"  {row.doc}: retrieved by {row.retrievers}/4 systems, rarity {row.rarity:.2f}")

# System B's unique find (d3) is worth extra under the weighted metric.
index = build_rarity_index(campaign)
relevant = campaign.qrels.relevant("t1")
docs_b = campaign.run_for("B").docs("t1")
print(f"\nP@3 for B:                 {precision_at_k(docs_b, relevant, 3):.4f}")
for alpha in (0.0, 0.5, 1.0):
    config = MetricConfig(cutoff=3, alpha=alpha)
    score = p_at_k_rareness(docs_b, relevant, index, "t1", config)
    print(f"P@3_rareness(alpha={alpha:3.1f}):  {score:.4f}")

# Campaign-level view: B overtakes the pack once rarity counts.
print("\nrankings by mean score:")
for name in ("P@3", "P@3_rareness(alpha=1)"):
    matrix = evaluate_campaign(campaign, [MetricSpec.parse(name)])[0]
    ranking = rank_systems(mean_scores(matrix))
    order = ", ".join(f"{e.system_id}(rank {e.rank:g})" for e in ranking.entries)
    print(f"  {matrix.metric_descriptor}: {order}")
