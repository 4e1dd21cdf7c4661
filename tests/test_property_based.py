"""Cross-cutting property-based tests (hypothesis) on core invariants."""

from hypothesis import given, settings, strategies as st

from repro.docstore.store import Collection
from repro.ir.ranking import fuse_results, label_similarity
from repro.temporal.graph import TemporalGraph
from repro.temporal.relations import THREE_WAY_ALGEBRA

# -- docstore: model-based testing against a naive reference ----------------

_FIELD = st.sampled_from(["a", "b", "c"])
_VALUE = st.one_of(st.integers(-3, 3), st.sampled_from(["x", "y"]), st.none())
_DOC = st.dictionaries(_FIELD, _VALUE, max_size=3)


class TestDocstoreModel:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(_DOC, max_size=10),
        _FIELD,
        _VALUE,
        st.integers(0, 4),
        st.one_of(st.none(), st.integers(0, 4)),
    )
    def test_find_agrees_with_reference_filter(
        self, docs, field, value, skip, limit
    ):
        collection = Collection("prop")
        ids = [collection.insert_one(doc) for doc in docs]

        def where(doc):
            return doc.get(field) == value

        found = [doc["_id"] for doc in collection.find(where, skip, limit)]
        expected = sorted(
            doc_id
            for doc_id, doc in zip(ids, docs)
            if where({**doc, "_id": doc_id})
        )[skip:]
        if limit is not None:
            expected = expected[:limit]
        assert found == expected

    @settings(max_examples=40, deadline=None)
    @given(st.lists(_DOC, min_size=1, max_size=8))
    def test_delete_every_doc_then_count_zero(self, docs):
        collection = Collection("del")
        ids = [collection.insert_one(doc) for doc in docs]
        for doc_id in ids:
            assert collection.delete_one(doc_id) == 1
        assert len(collection) == 0
        assert collection.delete_one(ids[0]) == 0


# -- temporal graph: closure properties -------------------------------------


@st.composite
def _consistent_order(draw):
    """Events with integer time buckets -> consistent relation set."""
    n = draw(st.integers(2, 6))
    buckets = draw(
        st.lists(st.integers(0, 3), min_size=n, max_size=n)
    )
    return [(f"e{i}", bucket) for i, bucket in enumerate(buckets)]


def _relation(bucket_a, bucket_b):
    if bucket_a < bucket_b:
        return "BEFORE"
    if bucket_a > bucket_b:
        return "AFTER"
    return "OVERLAP"


class TestTemporalGraphProperties:
    @settings(max_examples=60, deadline=None)
    @given(_consistent_order())
    def test_closure_of_consistent_input_never_contradicts(self, events):
        graph = TemporalGraph(algebra=THREE_WAY_ALGEBRA)
        for (id_a, bucket_a), (id_b, bucket_b) in zip(events, events[1:]):
            graph.add(id_a, id_b, _relation(bucket_a, bucket_b))
        graph.close()  # must not raise
        # Every derived relation agrees with the bucket order.
        by_id = dict(events)
        for id_a, id_b, label in graph.edges():
            assert label == _relation(by_id[id_a], by_id[id_b])

    @settings(max_examples=40, deadline=None)
    @given(_consistent_order())
    def test_closure_idempotent(self, events):
        graph = TemporalGraph(algebra=THREE_WAY_ALGEBRA)
        for (id_a, bucket_a), (id_b, bucket_b) in zip(events, events[1:]):
            graph.add(id_a, id_b, _relation(bucket_a, bucket_b))
        graph.close()
        assert graph.close() == 0  # fixpoint: second pass infers nothing


# -- ranking ----------------------------------------------------------------

_ID = st.text(alphabet="abcdef", min_size=1, max_size=3)
_RANKED = st.lists(
    st.tuples(_ID, st.floats(0, 10, allow_nan=False)), max_size=8
)


class TestRankingProperties:
    @settings(max_examples=60, deadline=None)
    @given(_RANKED, _RANKED, st.integers(0, 10))
    def test_fusion_invariants(self, graph_ranked, keyword_ranked, size):
        fused = fuse_results(graph_ranked, keyword_ranked, size)
        ids = [item[0] for item in fused]
        assert len(ids) == len(set(ids))  # no duplicates
        assert len(fused) <= size
        engines = [item[2] for item in fused]
        if "graph" in engines and "keyword" in engines:
            # All graph results precede all keyword results.
            assert engines.index("keyword") > max(
                i for i, e in enumerate(engines) if e == "graph"
            )

    @settings(max_examples=60, deadline=None)
    @given(
        st.text(alphabet="abcdef ", max_size=20),
        st.text(alphabet="abcdef ", max_size=20),
    )
    def test_label_similarity_bounded_and_symmetric(self, a, b):
        score = label_similarity(a, b)
        assert 0.0 <= score <= 1.0
        assert score == label_similarity(b, a)
