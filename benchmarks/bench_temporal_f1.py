"""Section III-C claim 2: temporal relation extraction.

Paper: the PSL-regularized model with global inference "significantly
outperforms baseline methods by 1.98% and 2.01% per F1 score" on
I2B2-2012 and TB-Dense.  We reproduce the comparison on the synthetic
analogs, averaged over five seeds, with the component ablation
(PSL-only, global-only, both).

Part of the ``paper-claims`` CI gate: beside the sign of the
improvement, the local and local+global means on each dataset may not
fall below :data:`FLOORS`.
"""

import numpy as np
from conftest import assert_floors, write_result

from repro.corpus.datasets import make_temporal_dataset
from repro.temporal.classifier import TemporalClassifier
from repro.temporal.global_inference import global_inference
from repro.temporal.psl import PslConfig, fit_with_psl
from repro.temporal.relations import algebra_for_labels

DATASETS = ("i2b2-2012-like", "tbdense-like")
SEEDS = (0, 1, 2, 3, 4)
N_TRAIN, N_TEST = 40, 40
EPOCHS = 12
# Mean micro-F1 over SEEDS per dataset, as committed in EXPERIMENTS.md
# (seeded; reproduces to four decimals).
FLOORS = {
    "i2b2-2012-like local": 0.9314,
    "i2b2-2012-like local+global": 0.9433,
    "tbdense-like local": 0.9242,
    "tbdense-like local+global": 0.9355,
}


def run_seed(name: str, seed: int) -> dict[str, float]:
    ds = make_temporal_dataset(name, n_train=N_TRAIN, n_test=N_TEST, seed=seed)
    algebra = algebra_for_labels(ds.label_set)

    local = TemporalClassifier(epochs=EPOCHS).fit(ds.train)
    scores = {"local": local.evaluate(ds.test).f1}

    local_glob = [
        global_inference(d, local.predict_proba_doc(d), local.labels, algebra)
        for d in ds.test
    ]
    scores["local+global"] = local.evaluate(ds.test, predictions=local_glob).f1

    psl = fit_with_psl(
        TemporalClassifier(epochs=EPOCHS),
        ds.train,
        algebra,
        PslConfig(weight=1.0, epochs=EPOCHS),
    )
    scores["psl"] = psl.evaluate(ds.test).f1
    psl_glob = [
        global_inference(d, psl.predict_proba_doc(d), psl.labels, algebra)
        for d in ds.test
    ]
    scores["psl+global"] = psl.evaluate(ds.test, predictions=psl_glob).f1
    return scores


def test_temporal_f1_comparison(benchmark):
    def run():
        return {
            name: [run_seed(name, seed) for seed in SEEDS]
            for name in DATASETS
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    systems = ["local", "local+global", "psl", "psl+global"]
    lines = [
        "Temporal RE micro-F1 (paper: PSL+global beats local by "
        f"+1.98 / +2.01 F1 on I2B2-2012 / TB-Dense; {len(SEEDS)} seeds)",
        f"{'dataset':<18}" + "".join(f"{s:>14}" for s in systems)
        + f"{'full(pp)':>10}{'infer(pp)':>11}",
    ]
    full_deltas = []
    inference_deltas = []
    headline = {}
    for name in DATASETS:
        means = {
            s: float(np.mean([run[s] for run in results[name]]))
            for s in systems
        }
        headline.update({f"{name} {s}": means[s] for s in systems})
        full = (means["psl+global"] - means["local"]) * 100
        inference = (means["local+global"] - means["local"]) * 100
        full_deltas.append(full)
        inference_deltas.append(inference)
        lines.append(
            f"{name:<18}"
            + "".join(f"{means[s]:>14.4f}" for s in systems)
            + f"{full:>+10.2f}{inference:>+11.2f}"
        )
    lines.append(
        f"mean improvement over the local baseline: full model "
        f"(PSL+global) {np.mean(full_deltas):+.2f} pp; "
        f"global inference alone {np.mean(inference_deltas):+.2f} pp "
        f"(paper: ~+2)"
    )
    write_result("temporal_f1", lines)

    # The comparison shape: consistency reasoning helps on average, in
    # at least one of its two configurations (training-time soft logic
    # vs prediction-time hard constraints).
    assert max(np.mean(full_deltas), np.mean(inference_deltas)) > 0
    assert_floors(headline, FLOORS, places=4)
