"""Section III-C claim 1: NER quality.

Paper: C-FLAIR's contextualized representations beat "state-of-the-art
methods by 1.5% on average F1" across three public datasets.  We
reproduce the comparison *shape* on the three synthetic datasets with
lexical-holdout test splits: gazetteer < perceptron < CRF < CRF +
pretrained contextual features (the C-FLAIR substitute), plus the
feature-mode ablation.

Part of the ``paper-claims`` CI gate: beside the ordering, the average
F1 of the two headline systems may not fall below :data:`FLOORS`.
"""

from conftest import assert_floors, write_result

from repro.corpus.datasets import NER_DATASET_NAMES, make_ner_dataset
from repro.ml.embeddings import CharNgramEmbedder
from repro.ml.metrics import span_prf1
from repro.ner.baseline import LexiconTagger
from repro.ner.encoding import spans_of_document
from repro.ner.tagger import NerTagger

N_TRAIN, N_TEST, N_UNLABELED = 60, 25, 150
EPOCHS = 5
# Average span F1 over the three datasets, as committed in
# EXPERIMENTS.md (seeded; reproduces to four decimals).
FLOORS = {"crf": 0.9170, "cflair": 0.9333}


def evaluate_dataset(name: str) -> dict[str, float]:
    ds = make_ner_dataset(
        name, n_train=N_TRAIN, n_test=N_TEST, seed=0, n_unlabeled=N_UNLABELED
    )
    gold = [spans_of_document(doc) for doc in ds.test]
    scores: dict[str, float] = {}

    lexicon = LexiconTagger().fit(ds.train)
    predicted = [lexicon.predict_document(doc) for doc in ds.test]
    scores["lexicon"] = span_prf1(gold, predicted).f1

    perceptron = NerTagger(decoder="perceptron", epochs=EPOCHS).fit(ds.train)
    scores["perceptron"] = perceptron.evaluate(ds.test).f1

    crf = NerTagger(decoder="crf", epochs=EPOCHS).fit(ds.train)
    scores["crf"] = crf.evaluate(ds.test).f1

    embedder = CharNgramEmbedder(seed=13).fit(ds.unlabeled)
    embedder.fit_clusters()
    cflair = NerTagger(
        decoder="crf",
        use_context_embeddings=True,
        embedder=embedder,
        epochs=EPOCHS,
    ).fit(ds.train)
    scores["cflair"] = cflair.evaluate(ds.test).f1

    # Ablation: sign-bit features instead of word-class clusters.
    signs = NerTagger(
        decoder="crf",
        use_context_embeddings=True,
        embedding_feature_mode="signs",
        embedder=embedder,
        epochs=EPOCHS,
    ).fit(ds.train)
    scores["cflair-signs-ablation"] = signs.evaluate(ds.test).f1
    return scores


def test_ner_f1_comparison(benchmark):
    def run():
        return {name: evaluate_dataset(name) for name in NER_DATASET_NAMES}

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    systems = [
        "lexicon", "perceptron", "crf", "cflair", "cflair-signs-ablation",
    ]
    lines = [
        "NER span F1 (paper claim: contextual model beats SOTA by +1.5 avg)",
        f"{'dataset':<18}" + "".join(f"{s:>24}" for s in systems),
    ]
    averages = {s: 0.0 for s in systems}
    for name in NER_DATASET_NAMES:
        row = f"{name:<18}"
        for system in systems:
            row += f"{results[name][system]:>24.4f}"
            averages[system] += results[name][system] / len(NER_DATASET_NAMES)
        lines.append(row)
    lines.append(
        f"{'average':<18}" + "".join(f"{averages[s]:>24.4f}" for s in systems)
    )
    delta = (averages["cflair"] - averages["crf"]) * 100
    lines.append(
        f"C-FLAIR-substitute vs best baseline (CRF): {delta:+.2f} F1 points "
        f"(paper: +1.5)"
    )
    write_result("ner_f1", lines)

    # The comparison shape: contextual pretraining wins on average, and
    # every learned model beats the gazetteer.
    assert averages["cflair"] > averages["crf"]
    assert averages["crf"] > averages["lexicon"]
    assert averages["crf"] > averages["perceptron"]
    assert_floors(averages, FLOORS, places=4)
