"""Tests of the fuzz harness itself: determinism, shrinking, CLI."""

import json

import pytest

from repro.testing import (
    CHECKERS,
    GENERATORS,
    SUBSYSTEMS,
    check_case,
    generate_case,
    run,
    shrink,
)
from repro.testing.cli import main
from repro.testing.differential import TABLE, case_digest
from repro.testing.rng import case_rng, derive_seed


class TestDeterminism:
    def test_same_seed_same_cases(self):
        for subsystem in SUBSYSTEMS:
            a = generate_case(subsystem, seed=7, case_index=3)
            b = generate_case(subsystem, seed=7, case_index=3)
            assert a == b

    def test_different_seeds_differ(self):
        digests = {
            case_digest(generate_case("search", seed, 0))
            for seed in range(8)
        }
        assert len(digests) > 1

    def test_run_digest_is_reproducible(self):
        first = run(seed=5, cases=5)
        second = run(seed=5, cases=5)
        assert first.digest == second.digest
        assert first.counts == second.counts

    def test_derive_seed_is_stable(self):
        assert derive_seed(1, "search", 2) == derive_seed(1, "search", 2)
        assert derive_seed(1, "search", 2) != derive_seed(1, "graph", 2)

    def test_case_rng_isolated_per_case(self):
        assert case_rng(0, "crf", 0).random() != case_rng(0, "crf", 1).random()

    def test_cases_are_json_serializable(self):
        for subsystem in SUBSYSTEMS:
            case = generate_case(subsystem, seed=0, case_index=0)
            assert json.loads(json.dumps(case)) == case


class TestBatchRun:
    def test_small_batch_runs_clean(self):
        report = run(seed=0, cases=25)
        assert report.ok, report.failures[0].message if report.failures else ""
        assert report.counts == {name: 25 for name in SUBSYSTEMS}
        # The digest hashes the generated cases only: it moves when a
        # generator (or the order it draws from its RNG) changes, never
        # when a checker does.
        assert report.digest.startswith("a14ecf3d1af161dd")

    def test_one_table_of_subsystems(self):
        names = tuple(subsystem.name for subsystem in TABLE)
        assert len(set(names)) == len(names) == 10
        assert SUBSYSTEMS == names
        assert tuple(GENERATORS) == names
        assert tuple(CHECKERS) == names
        for subsystem in TABLE:
            assert GENERATORS[subsystem.name] is subsystem.generate
            assert CHECKERS[subsystem.name] is subsystem.check

    def test_unknown_subsystem_rejected(self):
        with pytest.raises(ValueError):
            run(subsystems=("nope",), seed=0, cases=1)

    def test_differential_has_teeth(self, monkeypatch):
        """A sabotaged idf must be flagged by the search differential."""
        from repro.search.bm25 import BM25Scorer

        original = BM25Scorer.idf
        monkeypatch.setattr(
            BM25Scorer, "idf", lambda self, term: original(self, term) + 0.01
        )
        report = run(subsystems=("search",), seed=0, cases=50)
        assert not report.ok

    def test_invariants_have_teeth(self, monkeypatch):
        """A nondeterministic fusion must be flagged."""
        import repro.ir.ranking as ranking

        original = ranking.fuse_results

        def unsorted_fusion(graph_ranked, keyword_ranked, size):
            # Drop the deterministic tie-break: input order leaks out.
            out = []
            seen = set()
            for doc_id, score in list(graph_ranked) + list(keyword_ranked):
                if doc_id not in seen and len(out) < size:
                    seen.add(doc_id)
                    out.append((doc_id, score, "graph"))
            return out

        monkeypatch.setattr(
            "repro.testing.invariants.fuse_results", unsorted_fusion
        )
        report = run(subsystems=("invariants",), seed=0, cases=50)
        monkeypatch.setattr(
            "repro.testing.invariants.fuse_results", original
        )
        assert not report.ok

    def test_checker_crash_reports_not_raises(self):
        message = check_case("graph", {"nodes": "garbage"})
        assert message is None or "crash" in message


class TestShrink:
    def test_shrinks_list_to_minimal_failing_core(self):
        case = {"items": list(range(20)), "noise": "a b c d e"}

        def fails(candidate):
            return 13 in candidate.get("items", [])

        small = shrink(case, fails)
        assert small["items"] == [13]
        assert small["noise"] == ""

    def test_shrink_preserves_failure(self):
        case = {"values": [5, 3, 13, 8]}
        small = shrink(case, lambda c: 13 in c.get("values", []))
        assert 13 in small["values"]

    def test_budget_respected(self):
        calls = []

        def fails(candidate):
            calls.append(1)
            return True

        shrink({"items": list(range(50))}, fails, max_evaluations=10)
        assert len(calls) <= 11


class TestCli:
    def test_clean_run_exit_zero(self, capsys):
        assert main(["--cases", "5", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "agree with their oracles" in out
        assert "digest" in out

    def test_subsystem_filter(self, capsys):
        assert main(["--cases", "3", "--subsystem", "crf"]) == 0
        out = capsys.readouterr().out
        assert "crf" in out
        assert "graph" not in out

    def test_failure_writes_replayable_seed_file(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.search.bm25 import BM25Scorer

        original = BM25Scorer.idf
        monkeypatch.setattr(
            BM25Scorer, "idf", lambda self, term: original(self, term) + 0.01
        )
        out_file = tmp_path / "failure.json"
        code = main(
            [
                "--cases", "50",
                "--subsystem", "search",
                "--out", str(out_file),
            ]
        )
        assert code == 1
        saved = json.loads(out_file.read_text())
        assert saved["subsystem"] == "search"
        assert saved["message"]
        assert check_case("search", saved["shrunk_case"]) is not None
        # The same file replays to exit 1 while the bug is live ...
        assert main(["--replay", str(out_file)]) == 1
        monkeypatch.undo()
        # ... and to exit 0 once fixed.
        assert main(["--replay", str(out_file)]) == 0


# -- planted bugs: a checker that cannot fail checks nothing ----------------


def _plant_unsynced_ack(monkeypatch):
    """WAL flush that appends but never fsyncs: commits are acknowledged
    while their bytes still sit in the page cache."""
    from repro.durability.wal import WAL_NAME, WriteAheadLog

    def flush(self):
        if self._buffer:
            self.fs.append(WAL_NAME, b"".join(self._buffer))
            self._buffer.clear()

    monkeypatch.setattr(WriteAheadLog, "flush", flush)


def _plant_replay_drops_index_deletes(monkeypatch):
    """Keyword-index replay that ignores delete ops: a recovered index
    resurrects reports the docstore and graph no longer hold."""
    from repro.search.engine import SearchEngine

    original = SearchEngine.durable_apply

    def durable_apply(self, op):
        if op.get("op") != "delete":
            original(self, op)

    monkeypatch.setattr(SearchEngine, "durable_apply", durable_apply)


def _plant_cache_ignores_stamp(monkeypatch):
    """Query cache that serves an entry whatever epoch it was stamped
    under: answers survive the mutation that invalidated them."""
    from repro.ir.cache import QueryCache

    def get(self, key):
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry[1]

    monkeypatch.setattr(QueryCache, "get", get)


def _plant_merge_forgets_deletes(monkeypatch):
    """Segment merge that compacts without the delete bitmaps: deleted
    rows come back to life in the merged segment."""
    import repro.search.segment_engine as segment_engine

    original = segment_engine.merge_segments

    def merge_segments(out_path, inputs):
        return original(
            out_path, [(segment, None) for segment, _deleted in inputs]
        )

    monkeypatch.setattr(segment_engine, "merge_segments", merge_segments)


def _plant_skipped_exclusion(monkeypatch):
    """Cohort evaluation whose short-circuit drops the last exclusion
    criterion unevaluated."""
    from repro.cohort.engine import CohortEngine
    from repro.cohort.model import CohortDefinition

    original = CohortEngine.evaluate

    def evaluate(self, definition):
        return original(
            self,
            CohortDefinition(
                name=definition.name,
                inclusion=definition.inclusion,
                exclusion=definition.exclusion[:-1],
            ),
        )

    monkeypatch.setattr(CohortEngine, "evaluate", evaluate)


class TestCheckersHaveTeeth:
    @pytest.mark.parametrize(
        "subsystem, plant",
        [
            ("durability", _plant_unsynced_ack),
            ("durability", _plant_replay_drops_index_deletes),
            ("segments", _plant_merge_forgets_deletes),
            ("cohort", _plant_skipped_exclusion),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_planted_bug_is_reported_within_60_cases(
        self, subsystem, plant, monkeypatch
    ):
        plant(monkeypatch)
        messages = [
            message
            for index in range(60)
            if (
                message := check_case(
                    subsystem, generate_case(subsystem, 0, index)
                )
            )
            is not None
        ]
        assert messages, f"{plant.__name__} passed 60 {subsystem} cases"
        # A contract violation, not the harness tripping over the plant.
        assert not any("checker crashed" in m for m in messages), messages[0]

    def test_planted_cache_bug_fails_the_property_test(
        self, small_corpus, demo_system, monkeypatch
    ):
        """The result cache's oracle is the property test in test_ir_cache,
        not a fuzz row: it must fail when stamps are ignored."""
        from tests.test_ir_cache import (
            test_cached_searcher_answers_like_an_uncached_one as coherence,
        )

        _plant_cache_ignores_stamp(monkeypatch)
        with pytest.raises(AssertionError):
            coherence(small_corpus, demo_system)


class TestLayering:
    def test_production_never_imports_the_fuzz_kit(self):
        """``repro.testing`` depends on production, never the reverse
        (a fresh interpreter, so this suite's own imports do not count)."""
        import os
        import subprocess
        import sys

        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        probe = (
            "import sys; import repro.api.app, repro.pipeline; "
            "leaked = sorted(m for m in sys.modules "
            "if m.startswith('repro.testing')); "
            "assert not leaked, leaked"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
