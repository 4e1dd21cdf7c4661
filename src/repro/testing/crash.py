"""Crash-recovery fuzzing: injected faults vs. a never-crashed oracle.

:func:`check_crash_contract` owns the durability contract for any
system whose stores ride a :class:`~repro.durability.DurabilityManager`.
One case is an action schedule run under the manager with (usually)
one deterministic fault injected somewhere in the filesystem operation
stream; the checker recovers from the surviving bytes and verifies:

* **Prefix consistency** — the recovered state equals the state an
  oracle reaches after some *whole* prefix of the schedule.  Never a
  partial action, never a reordering, never a record replayed twice.
* **No lost acknowledgements** — that prefix covers at least every
  action whose commit LSN was acknowledged (≤ ``durable_lsn``) before
  the fault.  Recovered state may legitimately be *ahead* of the
  acknowledged prefix: un-fsynced complete records can survive a
  crash via page-cache writeback, and that is allowed — losing an
  acknowledged write is not.
* **Continuation** — re-running the remaining actions on the recovered
  system converges to the same final state as a run that never
  crashed.

Fault-free cases double as a snapshot+WAL equivalence check: the live
in-memory state, the recovered state, and the oracle must all agree.

A crash subsystem supplies how to build its system around a manager,
its action vocabulary and its canonical state, plus any assertion of
its own.  The ``durability`` subsystem below is the assembled
application: a :class:`~repro.pipeline.CreatePipeline` registering,
re-annotating and deleting reports, recovered by ``recover()``, whose
own assertion is that the recovered graph and keyword index equal a
fresh derivation from the recovered docstore and review queue.
"""

from __future__ import annotations

import json
from typing import Any, Callable

from repro.annotation.brat import parse_ann, serialize_ann
from repro.docstore.store import DocumentStore
from repro.durability import DurabilityManager, FaultInjector, InjectedCrash, MemFS
from repro.exceptions import DurabilityError, ReproError
from repro.graphdb.graph import PropertyGraph
from repro.ir.indexer import CreateIrIndexer
from repro.ner.tagger import NerTagger
from repro.pipeline import ClinicalExtractor, CreatePipeline
from repro.review.queue import ReviewQueue
from repro.search.engine import SearchEngine
from repro.testing.lockstep import positive_ints

FAULT_KINDS = FaultInjector.CRASH_KINDS + FaultInjector.ERROR_KINDS


# -- the contract ------------------------------------------------------------


def valid_fault(fault) -> bool:
    """``None`` (fault-free) or a well-formed planned filesystem fault."""
    if fault is None:
        return True
    return (
        isinstance(fault, dict)
        and fault.get("kind") in FAULT_KINDS
        and isinstance(fault.get("at_op"), int)
        and fault["at_op"] >= 0
        and isinstance(fault.get("seed"), int)
    )


def fault_fs(mem: MemFS, fault: dict | None):
    """``mem`` itself, or ``mem`` behind the planned fault."""
    if fault is None:
        return mem
    return FaultInjector(
        mem, kind=fault["kind"], at_op=fault["at_op"], seed=fault["seed"]
    )


def valid_schedule(case, valid_actions: Callable[[list], bool]) -> bool:
    """Structural validation; shrunk cases may violate any of this."""
    if not isinstance(case, dict) or not positive_ints(case, "group_commit"):
        return False
    if case.get("snapshot_every") is not None and not positive_ints(
        case, "snapshot_every"
    ):
        return False
    actions = case.get("actions")
    return (
        isinstance(actions, list)
        and valid_actions(actions)
        and valid_fault(case.get("fault"))
    )


def valid_relations(relations, n_spans: int) -> bool:
    """``[src, dst, label]`` triples between two distinct spans."""
    return isinstance(relations, list) and all(
        isinstance(relation, list)
        and len(relation) == 3
        and isinstance(relation[0], int)
        and isinstance(relation[1], int)
        and isinstance(relation[2], str)
        and 0 <= relation[0] < n_spans
        and 0 <= relation[1] < n_spans
        and relation[0] != relation[1]
        for relation in relations
    )


def check_crash_contract(
    case: dict,
    *,
    valid_actions: Callable[[list], bool],
    fresh_system: Callable[[DurabilityManager | None], Any],
    apply_action: Callable[[Any, dict], None],
    canonical: Callable[[Any], str],
    recover: Callable[[Any, DurabilityManager], object] = (
        lambda system, manager: manager.recover()
    ),
    check_recovered: Callable[[Any], str | None] = lambda system: None,
    check_final: Callable[[Any, Any], str | None] = (
        lambda system, oracle_system: None
    ),
) -> str | None:
    """Run one crash schedule end to end; ``None`` means the contract
    held (or the case was structurally malformed — vacuous).

    Args:
        valid_actions: structural validation of ``case["actions"]``.
        fresh_system: an empty system, its stores attached to the given
            manager (``None`` for the never-crashed oracle).
        apply_action: apply one action to such a system.  It may commit
            through the manager itself; the contract commits after it.
        canonical: identity-free rendering of such a system's state.
        recover: rebuild a fresh system from its manager's files.
        check_recovered: the subsystem's own assertion on the system
            straight after recovery.
        check_final: its own assertion on the recovered system after
            the schedule was finished on it, beside the never-crashed
            oracle's.
    """
    if not valid_schedule(case, valid_actions):
        return None
    actions = case["actions"]

    # oracle[j] = canonical state after the first j actions, on a
    # system with no durability at all.
    oracle_system = fresh_system(None)
    oracle = [canonical(oracle_system)]
    for action in actions:
        apply_action(oracle_system, action)
        oracle.append(canonical(oracle_system))

    mem = MemFS()
    manager = DurabilityManager(
        fault_fs(mem, case["fault"]),
        group_commit=case["group_commit"],
        snapshot_every=case["snapshot_every"],
    )
    system = fresh_system(manager)
    started = 0  # actions begun: the last may have died in its commit
    action_lsns: list[int | None] = []  # last lsn per *committed* action
    crashed = False
    try:
        for action in actions:
            started += 1
            lsn_before = manager.next_lsn
            apply_action(system, action)
            manager.commit()
            action_lsns.append(
                manager.next_lsn - 1
                if manager.next_lsn > lsn_before
                else None
            )
        manager.flush()
    except (InjectedCrash, DurabilityError, OSError):
        crashed = True

    # Acknowledged prefix: the longest run of leading actions whose
    # commits were fsynced (no-op actions — lsn None — ride along).
    acked = 0
    for lsn in action_lsns:
        if lsn is not None and lsn > manager.durable_lsn:
            break
        acked += 1

    # Recover from the surviving bytes with a fault-free filesystem.
    recovery = DurabilityManager(mem, snapshot_every=case["snapshot_every"])
    recovered_system = fresh_system(recovery)
    try:
        recover(recovered_system, recovery)
    except DurabilityError as exc:
        # Includes a store's own double-commit detector raising inside
        # ``durable_apply``.
        return (
            f"recovery failed after "
            f"{'crash' if crashed else 'clean run'}: {exc}"
        )
    recovered = canonical(recovered_system)
    message = check_recovered(recovered_system)
    if message is not None:
        return message

    # Prefix consistency + no lost acknowledgements.
    matched = [j for j in range(started + 1) if oracle[j] == recovered]
    if not matched:
        return (
            f"recovered state matches no action prefix "
            f"(crashed={crashed}, started={started}, acked={acked})"
        )
    resume_from = max(matched)
    if resume_from < acked:
        return (
            f"acknowledged writes lost: recovered to prefix "
            f"{resume_from} but {acked} actions were acknowledged "
            f"(durable_lsn={manager.durable_lsn})"
        )

    # Continuation: finish the schedule on the recovered system.
    for action in actions[resume_from:]:
        apply_action(recovered_system, action)
        recovery.commit()
    recovery.flush()
    message = check_final(recovered_system, oracle_system)
    if message is not None:
        return message
    if canonical(recovered_system) != oracle[-1]:
        return (
            f"continuation after recovery from prefix {resume_from} "
            "diverged from the oracle's final state"
        )

    if not crashed:
        # Fault-free (or fault never fired): live memory, recovered
        # state, and oracle must all be the complete schedule.
        if canonical(system) != oracle[-1]:
            return "fault-free live state diverged from the oracle"
        if recovered != oracle[-1]:
            return (
                "fault-free recovery (snapshot + WAL replay) diverged "
                "from the in-memory state"
            )
        if acked != len(actions):
            return (
                f"fault-free run acknowledged only {acked} of "
                f"{len(actions)} actions"
            )
    return None


# -- the durability subsystem: the assembled application ---------------------


def _fresh_app(manager: DurabilityManager | None) -> CreatePipeline:
    """An empty pipeline whose stores ride ``manager``.  Actions carry
    their annotations and never search, so the extractor and query
    parser are never asked to predict: an untrained tagger stands in."""
    return CreatePipeline(
        ClinicalExtractor(NerTagger(), None), durability=manager
    )


def apply_action(pipeline: CreatePipeline, action: dict) -> None:
    """Apply one workload action to the application: ``register``
    through ``register_report`` (what ingest calls), ``put`` and
    ``delete`` as ``PUT /reports/{id}/ann`` and ``DELETE
    /reports/{id}`` through ``handle``."""
    app = pipeline.app
    doc_id = action["id"]
    if action["act"] == "register":
        annotations = None
        if action.get("ann") is not None:
            annotations = parse_ann(doc_id, action["text"], action["ann"])
        app.register_report(
            {
                "_id": doc_id,
                "title": action["title"],
                "text": action["text"],
                "category": action["category"],
            },
            annotations,
        )
    elif action["act"] == "put":
        app.handle("PUT", f"/reports/{doc_id}/ann", body=action["ann"])
    else:  # delete
        app.handle("DELETE", f"/reports/{doc_id}")


def _engine_state(engine: SearchEngine) -> dict:
    """Scoring-relevant index statistics keyed by *document id*.

    Internal ordinals are allocator values: two histories that differ
    only by an index-then-delete pair reach semantically identical
    states with different ordinal assignments, so canonical equality
    must translate every ``(doc_ord, tf)`` posting back to its
    document id.
    """
    index = engine._index
    doc_of = engine._ids_by_ordinal
    return {
        "postings": {
            term: sorted(
                [str(doc_of[doc_ord]), tf]
                for doc_ord, tf in index.postings(term)
            )
            for term in index.terms()
        },
        "doc_lengths": sorted(
            [str(doc_of[doc_ord]), length]
            for doc_ord, length in index.doc_lengths.items()
        ),
        "total_length": index.total_length,
    }


def canonical_state(
    store: DocumentStore, graph: PropertyGraph, engine: SearchEngine
) -> str:
    """Identity-free canonical rendering of the tripartite state.

    Graph edge ids, engine ordinals and empty collections are excluded
    (allocator values and reads that created a collection, not
    semantics); everything that influences query results or BM25
    scoring is included.
    """
    collections = {}
    for name in store.collection_names():
        docs = sorted(
            json.dumps(doc, sort_keys=True, default=str)
            for doc in store.collection(name)
        )
        if docs:
            collections[name] = docs
    payload = {
        "docstore": collections,
        "graph": _graph_state(graph),
        "engine": _engine_state(engine),
    }
    return json.dumps(payload, sort_keys=True, default=str)


def _graph_state(graph: PropertyGraph) -> dict:
    """Nodes and edges, without edge ids."""
    return {
        "nodes": sorted(
            [node.node_id, sorted(node.properties.items())]
            for node in graph.nodes()
        ),
        "edges": sorted(
            [
                edge.source,
                edge.target,
                edge.label,
                sorted(edge.properties.items()),
            ]
            for edge in graph.edges()
        ),
    }


def canonical_app_state(pipeline: CreatePipeline) -> str:
    """:func:`canonical_state` of the docstore, graph and keyword index,
    plus every enrolled report's text and standoff."""
    review = pipeline.app.review
    documents = [review.annotations(doc_id) for doc_id in review.documents()]
    return json.dumps(
        [
            canonical_state(
                pipeline.store, pipeline.indexer.graph, pipeline.indexer.engine
            ),
            sorted(
                [document.doc_id, document.text, serialize_ann(document)]
                for document in documents
            ),
        ]
    )


def _registrable(doc_id: str, text: str, ann) -> bool:
    """Whether ``ann`` parses against ``text`` and the review queue
    enrolls the result (``None``: a keyword-only registration)."""
    if ann is None:
        return True
    try:
        ReviewQueue().enqueue_document(doc_id, parse_ann(doc_id, text, ann))
    except (ReproError, TypeError):
        return False
    return True


def _valid_actions(actions: list) -> bool:
    live: set[str] = set()
    for action in actions:
        if not isinstance(action, dict):
            return False
        doc_id = action.get("id")
        kind = action.get("act")
        if not isinstance(doc_id, str):
            return False
        if kind == "register":
            if doc_id in live or not all(
                isinstance(action.get(key), str)
                for key in ("title", "text", "category")
            ):
                return False
            if not _registrable(doc_id, action["text"], action.get("ann")):
                return False
            live.add(doc_id)
        elif kind == "put":
            if not isinstance(action.get("ann"), str):
                return False
        elif kind == "delete":
            live.discard(doc_id)
        else:
            return False
    return True


def _derived_from_records(pipeline: CreatePipeline) -> str | None:
    """The recovered graph and keyword index equal a fresh derivation
    from the recovered docstore and review queue: every stored report
    indexed once, from its annotation document when it has one and
    keyword-only from its stored text otherwise."""
    fresh = CreateIrIndexer()
    review = pipeline.app.review
    for document in pipeline.store.collection("reports"):
        doc_id = document["_id"]
        annotations = review.annotations(doc_id)
        if annotations is None:
            fresh.engine.index(doc_id, document.get("text", ""))
        else:
            fresh.index_annotation_document(doc_id, annotations)
    indexer = pipeline.indexer
    if (_graph_state(indexer.graph), _engine_state(indexer.engine)) != (
        _graph_state(fresh.graph),
        _engine_state(fresh.engine),
    ):
        return (
            "recovered graph and keyword index differ from a fresh "
            "derivation from the recovered docstore and review queue"
        )
    return None


def check_durability_case(case: dict) -> str | None:
    """The crash contract over the assembled application."""
    return check_crash_contract(
        case,
        valid_actions=_valid_actions,
        fresh_system=_fresh_app,
        apply_action=apply_action,
        canonical=canonical_app_state,
        recover=lambda pipeline, manager: pipeline.recover(),
        check_recovered=_derived_from_records,
    )
