"""Can a metric tell systems apart, and does it keep telling the same story?

Two meta-evaluation lenses on the same synthetic campaign:

* discriminative power -- how many system pairs Tukey's HSD separates at
  95% and 99% significance (more is better);
* stability -- across topic-subsample trials, how consistently each pair
  keeps its winner (1.0 means the ordering never flips; 0.5 is a coin toss).
"""

from rareval import (
    MetricSpec,
    StabilityConfig,
    SynthSpec,
    discriminative_power,
    evaluate_campaign,
    generate_campaign,
    stability,
)
from rareval.stats import total_pairs

campaign = generate_campaign(
    SynthSpec(
        n_systems=24,
        n_topics=12,
        n_relevant_per_topic=25,
        doc_pool_size=500,
        overlap_bias=0.45,
        run_depth=40,
        seed=8,
    )
)
pairs = total_pairs(campaign.n_systems)
names = [
    "P@40",
    "P@40_rareness(alpha=0.5)",
    "P@40_rareness(alpha=1)",
    "AP",
    "AP_rareness(alpha=0.5)",
    "AP_rareness(alpha=1)",
]

print(f"{campaign.n_systems} systems, {len(campaign.judged_topics)} topics, "
      f"{pairs} system pairs\n")
print(f"{'metric':34s} {'sig@95%':>8s} {'sig@99%':>8s} {'stability':>10s}")
for name in names:
    spec = MetricSpec.parse(name)
    matrix = evaluate_campaign(campaign, [spec])[0]
    at95 = discriminative_power(matrix, 0.95)
    at99 = discriminative_power(matrix, 0.99)
    result = stability(matrix, StabilityConfig(sample_size=6, trials=300))
    print(f"{spec.descriptor:34s} {at95:8d} {at99:8d} {result.overall:10.3f}")
print(
    "\nhow the weighted rows compare to their baselines depends on whether"
    "\nrare relevant finds reflect stable system differences or noise; run"
    "\nthis on a real campaign (see README) to measure yours."
)
