"""Scenario: the annotation + temporal-reasoning workflow.

Walks the BRAT data layer end to end: generate a gold-annotated case
report, serialize it to standoff ``.ann``, parse it back, validate
against the clinical typing schema, build the temporal graph, apply
transitive closure (the paper's Figure 5 reasoning), and render both
the network graph and the timeline as SVG files.

Run:  python examples/annotate_and_visualize.py
"""

from repro.annotation.brat import parse_ann, serialize_ann
from repro.corpus.generator import CaseReportGenerator
from repro.ir.indexer import CreateIrIndexer
from repro.schema.validation import SchemaValidator
from repro.temporal.graph import TemporalGraph
from repro.temporal.relations import THREE_WAY_ALGEBRA
from repro.viz.svg import render_graph_svg
from repro.viz.timeline import render_timeline_svg


def main() -> None:
    report = CaseReportGenerator(seed=42).generate("example-case")
    print("Case narrative:\n")
    print(report.text, "\n")

    # --- BRAT standoff round-trip -------------------------------------
    ann_content = serialize_ann(report.annotations)
    print("BRAT .ann (first 8 lines):")
    for line in ann_content.splitlines()[:8]:
        print(f"  {line}")
    parsed = parse_ann(report.report_id, report.text, ann_content)
    issues = SchemaValidator().validate(parsed)
    print(
        f"\nround-trip: {len(parsed.textbounds)} spans, "
        f"{len(parsed.relations)} relations, schema issues: {len(issues)}"
    )

    # --- Figure 5: temporal graph + transitive closure ------------------
    graph = TemporalGraph(algebra=THREE_WAY_ALGEBRA)
    for a, b, label in report.timeline.adjacent_pairs():
        graph.add(a, b, label)
    inferred = graph.close()
    print(
        f"\ntemporal graph: {graph.n_explicit} explicit relations, "
        f"{inferred} inferred by transitivity"
    )
    spans = report.annotations.textbounds
    for a, b, label in graph.edges()[:6]:
        print(f"  {spans[a].text!r} --{label}--> {spans[b].text!r}")

    # --- SVG renderings ---------------------------------------------------
    indexer = CreateIrIndexer()
    indexer.index_annotation_document(
        report.report_id, report.annotations
    )
    svg = render_graph_svg(
        indexer.graph,
        node_filter=lambda n: n.get("doc_id") == report.report_id,
    )
    with open("case_graph.svg", "w", encoding="utf-8") as handle:
        handle.write(svg)

    labels = {
        f"{report.report_id}:{tb.ann_id}": tb.text
        for tb in spans.values()
    }
    doc_graph = TemporalGraph(algebra=THREE_WAY_ALGEBRA)
    for a, b, label in report.timeline.all_pairs():
        doc_graph.add(
            f"{report.report_id}:{a}", f"{report.report_id}:{b}", label
        )
    timeline_svg = render_timeline_svg(doc_graph, labels)
    with open("case_timeline.svg", "w", encoding="utf-8") as handle:
        handle.write(timeline_svg)
    print("\nWrote case_graph.svg and case_timeline.svg")


if __name__ == "__main__":
    main()
