"""How much do rankings move as the rarity weight grows?

Generates a synthetic 30-system campaign, then correlates the baseline
ranking (P@50 or AP) against the rarity-weighted ranking across an alpha
grid. At alpha=0 the weighted metric is the baseline, so tau is exactly 1;
more weight on rare finds drags the correlation down.
"""

from rareval import (
    MetricSpec,
    SynthSpec,
    evaluate_campaign,
    generate_campaign,
    kendall_tau,
    mean_scores,
    rank_systems,
)

campaign = generate_campaign(
    SynthSpec(
        n_systems=30,
        n_topics=8,
        n_relevant_per_topic=30,
        doc_pool_size=600,
        overlap_bias=0.5,
        run_depth=50,
        seed=42,
    )
)
alphas = (0.0, 0.25, 0.5, 0.75, 1.0)

print("tau between baseline and rarity-weighted rankings")
print(f"{'alpha:':16s}" + "  ".join(f"{a:6.2f}" for a in alphas))
for base_name, weighted in (("P@50", "P@50_rareness"), ("AP", "AP_rareness")):
    base = evaluate_campaign(campaign, [MetricSpec.parse(base_name)])[0]
    base_ranking = rank_systems(mean_scores(base))
    taus = []
    for alpha in alphas:
        spec = MetricSpec.parse(f"{weighted}(alpha={alpha})")
        matrix = evaluate_campaign(campaign, [spec])[0]
        taus.append(kendall_tau(base_ranking, rank_systems(mean_scores(matrix))))
    print(f"{weighted:16s}" + "  ".join(f"{t:6.4f}" for t in taus))
