"""Crash-recovery fuzzing: injected faults vs. a never-crashed oracle.

:func:`check_crash_contract` owns the durability contract for any set
of :class:`~repro.durability.manager.Durable` stores.  One case is an
action schedule run under a :class:`~repro.durability.DurabilityManager`
with (usually) one deterministic fault injected somewhere in the
filesystem operation stream; the checker recovers from the surviving
bytes and verifies:

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

A crash subsystem supplies its stores, its action vocabulary and its
canonical state, plus any assertion of its own.  The ``durability``
subsystem below is the spec for the docstore / property graph / keyword
index triple, whose own assertion is **tripartite atomicity**: after
recovery exactly the same document ids are visible in all three.
"""

from __future__ import annotations

import json
from typing import Callable

from repro.docstore.store import DocumentStore
from repro.durability import DurabilityManager, FaultInjector, InjectedCrash, MemFS
from repro.exceptions import DurabilityError
from repro.graphdb.graph import PropertyGraph
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


def _attached(fs, stores: dict, group_commit: int, snapshot_every):
    manager = DurabilityManager(
        fs, group_commit=group_commit, snapshot_every=snapshot_every
    )
    for name, store in stores.items():
        manager.attach(name, store)
    return manager


def check_crash_contract(
    case: dict,
    *,
    valid_actions: Callable[[list], bool],
    fresh_stores: Callable[[], dict],
    apply_action: Callable[[dict, dict], None],
    canonical: Callable[[dict], str],
    check_recovered: Callable[[dict], str | None] = lambda stores: None,
    check_final: Callable[[dict, dict], str | None] = (
        lambda stores, oracle_stores: None
    ),
) -> str | None:
    """Run one crash schedule end to end; ``None`` means the contract
    held (or the case was structurally malformed — vacuous).

    Args:
        valid_actions: structural validation of ``case["actions"]``.
        fresh_stores: empty ``Durable`` stores keyed by the name each
            attaches to the manager under (attach order = dict order).
        apply_action: apply one action to such a dict (memory only).
        canonical: identity-free rendering of such a dict's state.
        check_recovered: the subsystem's own assertion on the stores
            straight after recovery.
        check_final: its own assertion on the recovered stores after
            the schedule was finished on them, beside the never-crashed
            oracle's stores.
    """
    if not valid_schedule(case, valid_actions):
        return None
    actions = case["actions"]

    # oracle[j] = canonical state after the first j actions, on plain
    # in-memory stores with no durability at all.
    oracle_stores = fresh_stores()
    oracle = [canonical(oracle_stores)]
    for action in actions:
        apply_action(oracle_stores, action)
        oracle.append(canonical(oracle_stores))

    mem = MemFS()
    stores = fresh_stores()
    manager = _attached(
        fault_fs(mem, case["fault"]),
        stores,
        case["group_commit"],
        case["snapshot_every"],
    )
    applied = 0  # actions whose memory mutation completed
    action_lsns: list[int | None] = []  # lsn per *committed* action
    crashed = False
    try:
        for action in actions:
            apply_action(stores, action)
            applied += 1
            action_lsns.append(manager.commit())
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
    recovered_stores = fresh_stores()
    recovery = _attached(mem, recovered_stores, 1, case["snapshot_every"])
    try:
        recovery.recover()
    except DurabilityError as exc:
        # Includes a store's own double-commit detector raising inside
        # ``durable_apply``.
        return (
            f"recovery failed after "
            f"{'crash' if crashed else 'clean run'}: {exc}"
        )
    recovered = canonical(recovered_stores)
    message = check_recovered(recovered_stores)
    if message is not None:
        return message

    # Prefix consistency + no lost acknowledgements.
    matched = [j for j in range(applied + 1) if oracle[j] == recovered]
    if not matched:
        return (
            f"recovered state matches no action prefix "
            f"(crashed={crashed}, applied={applied}, acked={acked})"
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
        apply_action(recovered_stores, action)
        recovery.commit()
    recovery.flush()
    message = check_final(recovered_stores, oracle_stores)
    if message is not None:
        return message
    if canonical(recovered_stores) != oracle[-1]:
        return (
            f"continuation after recovery from prefix {resume_from} "
            "diverged from the oracle's final state"
        )

    if not crashed:
        # Fault-free (or fault never fired): live memory, recovered
        # state, and oracle must all be the complete schedule.
        if canonical(stores) != oracle[-1]:
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


# -- the durability subsystem: docstore + graph + keyword index --------------


def _fresh_stores() -> dict:
    return {
        "docstore": DocumentStore(),
        "graph": PropertyGraph(),
        "index": SearchEngine(),
    }


def apply_action(
    store: DocumentStore,
    graph: PropertyGraph,
    engine: SearchEngine,
    action: dict,
) -> None:
    """Apply one workload action to all three stores (memory only).

    Mirrors what ``CreateApplication.register_report`` does: the
    document lands in the docstore, its report/entity subgraph in the
    graph, and its text fields in the keyword index.
    """
    doc_id = action["id"]
    if action["act"] == "ingest":
        store.collection("reports").insert_one(
            {
                "_id": doc_id,
                "title": action["title"],
                "text": action["body"],
                "category": action["category"],
            }
        )
        graph.add_node(doc_id, entityType="Report", label=action["title"])
        span_ids = []
        for k, (entity_type, label) in enumerate(action["spans"]):
            span_id = f"{doc_id}:T{k + 1}"
            graph.add_node(span_id, entityType=entity_type, label=label)
            graph.add_edge(doc_id, span_id, "HAS_ENTITY")
            span_ids.append(span_id)
        for src, dst, label in action["relations"]:
            graph.add_edge(span_ids[src], span_ids[dst], label)
        engine.index(
            doc_id, {"title": action["title"], "body": action["body"]}
        )
    else:  # delete
        store.collection("reports").delete_one({"_id": doc_id})
        if graph.has_node(doc_id):
            for edge in graph.out_edges(doc_id, "HAS_ENTITY"):
                graph.remove_node(edge.target)
            graph.remove_node(doc_id)
        engine.delete(doc_id)


def _engine_state(engine: SearchEngine) -> dict:
    """Scoring-relevant index statistics keyed by *document id*.

    Internal ordinals are allocator values: two histories that differ
    only by an index-then-delete pair reach semantically identical
    states with different ordinal assignments, so canonical equality
    must translate every posting back to its document id.
    """
    fields = {}
    for field_name in sorted(engine._indexes):
        index = engine._indexes[field_name]
        if index.n_documents == 0 and index.vocabulary_size == 0:
            continue
        fields[field_name] = {
            "postings": {
                term: sorted(
                    [
                        str(engine._ids_by_ordinal[posting.doc_ord]),
                        list(posting.positions),
                    ]
                    for posting in plist
                )
                for term, plist in index._postings.items()
            },
            "doc_lengths": sorted(
                [str(engine._ids_by_ordinal[doc_ord]), length]
                for doc_ord, length in index._doc_lengths.items()
            ),
            "total_length": index._total_length,
        }
    return fields


def canonical_state(
    store: DocumentStore, graph: PropertyGraph, engine: SearchEngine
) -> str:
    """Identity-free canonical rendering of the tripartite state.

    Graph edge ids and engine ordinals are excluded (allocator values,
    not semantics); everything that influences query results or BM25
    scoring is included.
    """
    collections = {}
    for name in store.collection_names():
        docs = sorted(
            json.dumps(doc, sort_keys=True, default=str)
            for doc in store.collection(name)
        )
        collections[name] = docs
    payload = {
        "docstore": collections,
        "graph": {
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
        },
        "engine": _engine_state(engine),
    }
    return json.dumps(payload, sort_keys=True, default=str)


def visible_doc_ids(
    store: DocumentStore, graph: PropertyGraph, engine: SearchEngine
) -> tuple[set, set, set]:
    """Document ids visible in each of the three stores."""
    doc_ids = {doc["_id"] for doc in store.collection("reports")}
    graph_ids = {
        node.node_id
        for node in graph.nodes()
        if node.get("entityType") == "Report"
    }
    engine_ids = {
        hit.doc_id
        for hit in engine.search({"match_all": {}}, size=1_000_000)
    }
    return doc_ids, graph_ids, engine_ids


def _valid_actions(actions: list) -> bool:
    ingested = set()
    for action in actions:
        if not isinstance(action, dict):
            return False
        kind = action.get("act")
        if kind == "ingest":
            doc_id = action.get("id")
            if not isinstance(doc_id, str) or doc_id in ingested:
                return False
            ingested.add(doc_id)
            if not all(
                isinstance(action.get(key), str)
                for key in ("title", "body", "category")
            ):
                return False
            spans = action.get("spans")
            if not isinstance(spans, list) or not all(
                isinstance(span, list)
                and len(span) == 2
                and all(isinstance(part, str) for part in span)
                for span in spans
            ):
                return False
            if not valid_relations(action.get("relations"), len(spans)):
                return False
        elif kind == "delete":
            if not isinstance(action.get("id"), str):
                return False
        else:
            return False
    return True


def _tripartite_atomicity(stores: dict) -> str | None:
    """Same ids everywhere, no partial documents."""
    doc_ids, graph_ids, engine_ids = visible_doc_ids(*stores.values())
    if not (doc_ids == graph_ids == engine_ids):
        return (
            "recovered stores disagree on visible documents: "
            f"docstore {sorted(doc_ids)}, graph {sorted(graph_ids)}, "
            f"index {sorted(engine_ids)}"
        )
    return None


def check_durability_case(case: dict) -> str | None:
    """The crash contract over the docstore / graph / index triple."""
    return check_crash_contract(
        case,
        valid_actions=_valid_actions,
        fresh_stores=_fresh_stores,
        apply_action=lambda stores, action: apply_action(
            *stores.values(), action
        ),
        canonical=lambda stores: canonical_state(*stores.values()),
        check_recovered=_tripartite_atomicity,
    )
