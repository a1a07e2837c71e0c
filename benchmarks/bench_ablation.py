"""Ablations — the design choices DESIGN.md calls out.

Not a paper artifact: measures the impact of the reproduction's
resolved ambiguities and optimizations on one fixed workload
(Bridges, threshold limit 6, 3% missing):

* cluster order ascending (worked example) vs descending (Algorithm 2's
  literal wording),
* verification on vs off (quality/cost of IS_FAULTLESS),
* paper verification vs extended check_rhs_rfds (Definition 4.3 gap),
* keyness scope "all" vs "complete".
"""

from harness import TableWriter, bench_dataset, bench_rfds
from repro import (
    Renuver,
    RenuverConfig,
    dataset_validator,
    inject_missing,
    score_imputation,
)

DATASET = "bridges"
THRESHOLD = 6
RATE = 0.03

CONFIGS = {
    "baseline": RenuverConfig(),
    "desc-clusters": RenuverConfig(cluster_order="descending"),
    "no-verify": RenuverConfig(verify=False),
    "verify-rhs": RenuverConfig(check_rhs_rfds=True),
    "keys-complete": RenuverConfig(keyness_scope="complete"),
}


def _run(config: RenuverConfig):
    relation = bench_dataset(DATASET)
    rfds = bench_rfds(DATASET, THRESHOLD).all_rfds
    injection = inject_missing(relation, rate=RATE, seed=21)
    result = Renuver(rfds, config).impute(injection.relation)
    scores = score_imputation(
        result.relation, injection, dataset_validator(DATASET)
    )
    return scores, result.report.elapsed_seconds


def test_ablation_table(benchmark):
    def build():
        return {name: _run(config) for name, config in CONFIGS.items()}

    table = benchmark.pedantic(build, rounds=1, iterations=1)

    writer = TableWriter("ablation")
    writer.header(
        f"Ablations on {DATASET} (thr={THRESHOLD}, rate={RATE:.0%})"
    )
    writer.row(
        f"{'variant':<16}{'precision':>10}{'recall':>8}{'F1':>7}"
        f"{'imputed':>8}{'time(s)':>9}"
    )
    for name, (scores, elapsed) in table.items():
        writer.row(
            f"{name:<16}{scores.precision:>10.3f}{scores.recall:>8.3f}"
            f"{scores.f1:>7.3f}{scores.imputed:>8}{elapsed:>9.2f}"
        )
    writer.close()

    baseline_scores, _ = table["baseline"]
    # Verification can only hold back bad imputations: fill rate without
    # it is at least as high, precision at most as high.
    no_verify_scores, _ = table["no-verify"]
    assert no_verify_scores.imputed >= baseline_scores.imputed
    assert baseline_scores.precision >= no_verify_scores.precision - 0.05
    # The extended RHS check is at least as selective as the paper's.
    verify_rhs_scores, _ = table["verify-rhs"]
    assert verify_rhs_scores.imputed <= no_verify_scores.imputed

