"""Insert hypothetical systems and watch them climb the ranking.

Two probes join a 64-system synthetic campaign on one topic:

* the "rare" probe retrieves D relevant documents nobody else has
* the "common" probe retrieves the D most commonly-found relevant documents

Both improve as D grows, but rarity weighting accelerates only the rare
probe: the number of relevant documents it needs to reach rank 1 shrinks
as alpha rises, while the common probe barely notices alpha.
"""

from rareval import MetricSpec, SynthSpec, generate_campaign, rank_trajectory

campaign = generate_campaign(
    SynthSpec(
        n_systems=64,
        n_topics=4,
        n_relevant_per_topic=50,
        doc_pool_size=1500,
        overlap_bias=0.6,
        run_depth=100,
        seed=101,
    )
)
topic = campaign.judged_topics[0]
specs = [MetricSpec.parse(f"P@100_rareness(alpha={a})") for a in (0.0, 0.5, 1.0)]

for kind in ("rare", "common"):
    d_max = 60 if kind == "rare" else 45
    results = rank_trajectory(campaign, kind, topic, specs, d_max)
    print(f"\n{kind} probe on {topic} (rank among 65 systems):")
    checkpoints = [1, 10, 20, 30, 40, d_max]
    header = "  ".join(f"D={d:<3d}" for d in checkpoints)
    print(f"  alpha  {header}  first rank-1 D")
    for result in results:
        by_d = dict(result.ranks)
        cells = "  ".join(f"{by_d[d]:5.1f}" for d in checkpoints)
        star = result.d_star if result.d_star is not None else "-"
        print(f"  {result.alpha:5.2f}  {cells}  {star}")
