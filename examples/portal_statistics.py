"""Scenario: curating the portal — statistics, agreement, persistence.

The operational side of running CREATe as a resource platform:

1. the Figure-1 category statistics counted over the document store's
   report records (the ``/categories`` endpoint serves the same table),
2. inter-annotator agreement measurement before accepting a batch of
   expert annotations,
3. exporting the curated corpus to BRAT and CoNLL for external tools,
4. saving the trained extraction models for redeployment.

Run:  python examples/portal_statistics.py
"""

import tempfile
from collections import Counter
from pathlib import Path

from repro.annotation import agreement
from repro.annotation.model import AnnotationDocument
from repro.corpus import export_conll
from repro.corpus.pubmed import build_corpus
from repro.docstore.store import DocumentStore
from repro.ml import load_extractor, save_extractor
from repro.pipeline import ClinicalExtractor


def _by_count(counts: Counter) -> list[tuple]:
    """Rows most frequent first, ties in name order."""
    return sorted(counts.items(), key=lambda row: (-row[1], row[0]))


def main() -> None:
    reports = build_corpus(200, seed=17)

    # ---- 1. Figure 1 statistics counted over the stored records --------
    store = DocumentStore()
    collection = store.collection("reports")
    for report in reports:
        collection.insert_one(report.to_document())
    stored = collection.find(projection=["category", "area"])
    categories = Counter(doc["category"] for doc in stored)
    total = sum(categories.values())
    print("Figure 1 — category distribution of the stored corpus:")
    for category, n in _by_count(categories):
        share = n / total
        bar = "#" * int(share * 50)
        print(f"  {category:<20}{n:>5}  {share:>6.1%} {bar}")

    cvd_areas = Counter(
        doc["area"] for doc in stored if doc["category"] == "cardiovascular"
    )
    print("\nCVD sub-areas (the paper's six query areas):")
    for area, n in _by_count(cvd_areas):
        print(f"  {area:<28}{n:>4}")

    # ---- 2. Inter-annotator agreement before accepting annotations -------
    originals = [r.annotations for r in reports[:20]]
    second_annotator = []
    for doc in originals:
        clone = AnnotationDocument(doc_id=doc.doc_id, text=doc.text)
        spans = doc.spans_sorted()
        for tb in spans[:-1]:  # simulated annotator misses one span/doc
            clone.add_textbound(tb.label, tb.start, tb.end)
        second_annotator.append(clone)
    report = agreement(originals, second_annotator)
    print(
        f"\nInter-annotator agreement over {report.n_documents} documents: "
        f"span F1 = {report.span_f1.f1:.3f}, "
        f"token kappa = {report.token_kappa:.3f}"
    )

    # ---- 3. Export for external tooling --------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        conll_path = Path(tmp) / "corpus.conll"
        n = export_conll(originals, conll_path)
        size_kb = conll_path.stat().st_size / 1024
        print(f"\nExported {n} documents to CoNLL ({size_kb:.0f} KiB)")

        # ---- 4. Train, save, reload and verify the extractor ----------------
        print("\nTraining and persisting the extraction stack...")
        extractor = ClinicalExtractor.train(
            reports[:25], ner_epochs=3, temporal_epochs=8
        )
        model_dir = Path(tmp) / "models"
        save_extractor(extractor, model_dir)
        reloaded = load_extractor(model_dir)
        sample_text = reports[30].text
        assert [
            (s.start, s.end, s.label)
            for s in reloaded.ner.predict_spans(sample_text)
        ] == [
            (s.start, s.end, s.label)
            for s in extractor.ner.predict_spans(sample_text)
        ]
        n_files = sum(1 for _ in model_dir.rglob("*") if _.is_file())
        size_kb = sum(
            f.stat().st_size for f in model_dir.rglob("*") if f.is_file()
        ) / 1024
        print(
            f"Saved to {n_files} open-format files ({size_kb:.0f} KiB); "
            "reloaded model reproduces predictions exactly."
        )


if __name__ == "__main__":
    main()
