"""Self-test of the benchmark harness, at tiny sizes.

Run with ``python -m pytest benchmarks/e2e -q`` (tier-1 collects only
``tests/``).  It checks the harness, not the program: names against
``BENCHMARK.json``, seed purity, span arithmetic, that wrappers come
off, and that a failure or a slow layer shows where it should.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import harness  # noqa: E402
import run as run_cli  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "REPETITIONS": 1,
    "BLOCK": 5,
    "MIN_BLOCKS": 1,
    "N_TRAIN": 4,
    "N_REPORTS": 12,
    "N_READBACK": 10,
    "INGEST_READBACK": 20,
    "READBACK_DRAWS": 100,
    "DISTINCT_DRAWS": 120,
    "HOT_SET": 8,
    "DRIFT_EVERY": 5,
    "DRIFT": 3,
    "SKEWED_LENGTH": 60,
    "CURATE_LENGTH": 60,
}


@pytest.fixture(scope="module", autouse=True)
def tiny_sizes():
    saved = {name: getattr(wl, name) for name in TINY}
    for name, value in TINY.items():
        setattr(wl, name, value)
    yield
    for name, value in saved.items():
        setattr(wl, name, value)


@pytest.fixture(scope="module")
def system(tiny_sizes, tmp_path_factory):
    """A preloaded tiny pipeline, as a serving repetition builds it."""
    extractor = harness.ClinicalExtractor.train(wl.train_reports())
    pipeline, fs = harness.build_system(extractor, tmp_path_factory.mktemp("wal"))
    corpus = wl.make_corpus(wl.corpus_seed(1, 0))
    harness.timed_ingest(
        pipeline, fs, corpus, harness.Repetition(), None, first=True
    )
    yield pipeline, corpus
    fs.close()


def last_line_metrics(capsys, *argv) -> dict:
    code = run_cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    # Every metric is also printed by name with its unit.
    for name, metric in result["metrics"].items():
        assert any(
            line.split()[:1] == [name] and line.split()[-1:] != [name]
            and metric["unit"] in line
            for line in out.splitlines()[:-1]
        ), name
    return result["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_prints_the_end_to_end_metrics(workload, capsys):
    metrics = last_line_metrics(
        capsys, "--workload", workload, "--seed", "1", "--seconds", "0.2",
        "--trace", "0",
    )
    assert list(wl.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] != 0


def test_traced_run_prints_the_per_layer_metrics_and_removes_wrappers(capsys):
    paths = [p for group in spans.SPAN_TARGETS.values() for p in group]
    before = {path: spans.resolve(path) for path in paths}
    metrics = last_line_metrics(
        capsys, "--workload", "curate_mixed", "--seed", "1", "--seconds", "0.2",
        "--trace", "1",
    )
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    assert metrics["trace.unresolved_targets"]["value"] == 0
    assert metrics["api.handle.calls"]["value"] > 0
    assert metrics["trace.coverage"]["value"] > 0.9
    assert {path: spans.resolve(path) for path in paths} == before


def test_generators_are_a_pure_function_of_the_seed():
    def requests_of(workload, seed):
        corpus = wl.make_corpus(wl.corpus_seed(seed, 0))
        inputs = wl.serving_inputs(workload, seed, 0, corpus)
        client = inputs.make_client([r.pmid for r in corpus.reports], {})
        issued = []
        while (request := client.next()) is not None and request.route == "search":
            issued.append(request.params["q"])
        return [r.text for r in corpus.reports], inputs.warmup, issued

    for workload in ("search_distinct", "search_skewed"):
        assert requests_of(workload, 3) == requests_of(workload, 3)
        assert requests_of(workload, 3) != requests_of(workload, 4)
    assert wl.curate_schedule(3) == wl.curate_schedule(3)
    assert wl.curate_schedule(3) != wl.curate_schedule(4)
    distinct = requests_of("search_distinct", 3)[2]
    assert len(set(distinct)) == len(distinct)
    skewed = requests_of("search_skewed", 3)[2]
    assert len(set(skewed)) <= wl.HOT_SET < len(skewed)


def test_nested_self_times_sum_to_the_root_duration():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.002)

    leaf = tracer.wrap("leaf", leaf)

    def middle():
        leaf()
        time.sleep(0.001)
        leaf()

    middle = tracer.wrap("middle", middle)

    def root():
        middle()
        leaf()

    root = tracer.wrap("root", root)
    root()
    assert tracer.spans == []  # not recording yet
    tracer.recording = True
    root()
    tracer.recording = False
    summary = tracer.summary()
    assert {name: row["calls"] for name, row in summary.items()} == {
        "root": 1, "middle": 1, "leaf": 3,
    }
    (root_span,) = [s for s in tracer.spans if s[0] == "root"]
    total = sum(row["self_s"] for row in summary.values())
    assert total == pytest.approx(root_span[2] - root_span[1], abs=1e-9)
    assert summary["leaf"]["self_s"] >= 0.006
    assert summary["middle"]["self_s"] >= 0.001
    exported = tracer.export()
    assert exported[0]["parent"] is None and exported[1]["parent"] == 0


def test_unknown_id_counts_as_failed(system):
    pipeline, _corpus = system
    rep = harness.Repetition()
    client = wl.ListClient(
        [
            wl.Request("get", "GET", "/reports/no-such-report"),
            wl.Request("get", "GET", "/reports"),
        ]
    )
    harness.run_block(pipeline.app, client, {}, rep, None)
    assert (rep.attempted, rep.failed) == (2, 1)


def test_injected_sleep_shows_in_its_span_and_in_no_other(system, monkeypatch):
    pipeline, corpus = system
    requests, _rest, gains = wl.readback_split(
        corpus, wl.corpus_seed(1, 0), wl.READBACK_DRAWS, wl.N_READBACK
    )

    def per_call_self_ms():
        tracer = spans.Tracer()
        tracer.install()
        try:
            client = wl.ListClient(requests)
            while harness.run_block(
                pipeline.app, client, gains, harness.Repetition(), tracer
            ):
                pass
        finally:
            tracer.uninstall()
        return {
            name: 1e3 * row["self_s"] / row["calls"]
            for name, row in tracer.summary().items()
        }

    baseline = per_call_self_ms()
    from repro.ir.query_parser import QueryParser

    original = QueryParser.parse

    def slow_parse(self, query_text):
        time.sleep(0.005)
        return original(self, query_text)

    monkeypatch.setattr(QueryParser, "parse", slow_parse)
    slowed = per_call_self_ms()
    assert slowed["ir.query_parse"] - baseline["ir.query_parse"] >= 4.5
    for name in ("api.handle", "ir.search", "ir.graph_search", "search.bm25",
                 "ner.predict_spans"):
        assert abs(slowed[name] - baseline[name]) < 2.0, name
