"""Figure 6 + the headline IR claim: CREATe-IR "outperforms solr".

A 400-report corpus with a judged query workload (relevance derived
from gold annotations, never from system output).  Systems:

* **CREATe-IR** — graph-first hybrid search (the Figure 6 workflow);
* **CREATe-IR (keyword only)** — ablation without the graph engine;
* **CREATe-IR (no closure)** — ablation without temporal reasoning;
* **Solr** — the plain keyword baseline.

Metrics target the *relational* relevance grade (grade 2: the document
realizes the queried temporal relation), which is exactly the axis the
paper claims relation-based retrieval wins on.

Part of the ``paper-claims`` CI gate: beside the ordering, MAP and
nDCG@10 of CREATe-IR and of the Solr baseline may not fall below
:data:`FLOORS` (a baseline that quietly gets worse inflates the margin).
"""

import numpy as np
from conftest import assert_floors, write_result

from repro.corpus.queries import make_query_workload
from repro.ir.indexer import CreateIrIndexer
from repro.ir.query_parser import ParsedQuery, QueryConceptMention
from repro.ir.searcher import CreateIrSearcher
from repro.ml.metrics import (
    average_precision,
    ndcg_at_k,
    precision_at_k,
    reciprocal_rank,
)
from repro.search.solr import SolrBaseline

N_QUERIES = 25
SIZE = 10
# As committed in EXPERIMENTS.md (seeded; reproduces to three decimals).
FLOORS = {
    "CREATe-IR MAP": 1.000,
    "CREATe-IR nDCG@10": 0.992,
    "Solr MAP": 0.798,
    "Solr nDCG@10": 0.845,
}


def gold_parse(query) -> ParsedQuery:
    """The query's structured form under perfect query parsing."""
    return ParsedQuery(
        text=query.text,
        concepts=[
            QueryConceptMention(c.surface, c.entity_type, 0, 0)
            for c in query.concepts
        ],
        relations=[query.relation] if query.relation else [],
    )


def evaluate(ranked_by_query, queries):
    metrics = {"P@5": [], "MRR": [], "MAP": [], "nDCG@10": []}
    for query, ranked in zip(queries, ranked_by_query):
        relevant = query.relevant_ids(2) or query.relevant_ids(1)
        gains = {d: float(g) for d, g in query.judgements.items()}
        metrics["P@5"].append(precision_at_k(ranked, relevant, 5))
        metrics["MRR"].append(reciprocal_rank(ranked, relevant))
        metrics["MAP"].append(average_precision(ranked, relevant))
        metrics["nDCG@10"].append(ndcg_at_k(ranked, gains, 10))
    return {name: float(np.mean(values)) for name, values in metrics.items()}


def test_ir_vs_solr(benchmark, ir_corpus, gold_ir_index):
    queries = make_query_workload(ir_corpus, n_queries=N_QUERIES, seed=12)

    searcher = CreateIrSearcher(gold_ir_index, parser=None)

    no_closure_index = CreateIrIndexer(close_temporal=False)
    for report in ir_corpus:
        no_closure_index.index_annotation_document(
            report.report_id, report.title, report.annotations
        )
    no_closure = CreateIrSearcher(no_closure_index, parser=None)

    solr = SolrBaseline()
    for report in ir_corpus:
        solr.index(report.report_id, report.title + " " + report.text)

    def run_all():
        rankings = {
            "CREATe-IR": [],
            "CREATe-IR (keyword only)": [],
            "CREATe-IR (no closure)": [],
            "Solr": [],
        }
        for query in queries:
            parsed = gold_parse(query)
            rankings["CREATe-IR"].append(
                [r.doc_id for r in searcher.search(parsed, size=SIZE)]
            )
            rankings["CREATe-IR (keyword only)"].append(
                [
                    r.doc_id
                    for r in searcher.keyword_only(query.text, size=SIZE)
                ]
            )
            rankings["CREATe-IR (no closure)"].append(
                [r.doc_id for r in no_closure.search(parsed, size=SIZE)]
            )
            rankings["Solr"].append(
                [h.doc_id for h in solr.search(query.text, size=SIZE)]
            )
        return rankings

    rankings = benchmark.pedantic(run_all, rounds=1, iterations=1)

    scores = {
        system: evaluate(ranked, queries)
        for system, ranked in rankings.items()
    }
    metric_names = ["P@5", "MRR", "MAP", "nDCG@10"]
    lines = [
        f"Figure 6 / IR claim — {len(queries)} judged queries over "
        f"{len(ir_corpus)} reports (relational relevance)",
        f"{'system':<28}" + "".join(f"{m:>10}" for m in metric_names),
    ]
    for system, values in scores.items():
        lines.append(
            f"{system:<28}"
            + "".join(f"{values[m]:>10.3f}" for m in metric_names)
        )
    lines.append(
        "paper claim reproduced: CREATe-IR > Solr on every metric -> "
        + str(
            all(
                scores["CREATe-IR"][m] >= scores["Solr"][m]
                for m in metric_names
            )
        )
    )
    write_result("ir_vs_solr", lines)

    assert scores["CREATe-IR"]["MAP"] > scores["Solr"]["MAP"]
    assert scores["CREATe-IR"]["nDCG@10"] >= scores["Solr"]["nDCG@10"]
    # The graph engine is what provides the edge over pure keywords.
    assert (
        scores["CREATe-IR"]["MAP"]
        >= scores["CREATe-IR (keyword only)"]["MAP"]
    )
    assert_floors(
        {
            f"{system} {metric}": scores[system][metric]
            for system in ("CREATe-IR", "Solr")
            for metric in ("MAP", "nDCG@10")
        },
        FLOORS,
        places=3,
    )
