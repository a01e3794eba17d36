"""The Store contract, the persistent SegmentStore, and the Graph facade API.

Three layers of coverage:

* contract tests parameterized over both backends — every pattern shape,
  exact cardinalities, statistics and version semantics must be identical
  whether triples live in nested dicts or in on-disk segments;
* SegmentStore specifics — durability across reopen, write-buffer flushes,
  tombstoned deletes, compaction, corruption handling, and the I/O
  accounting that proves queries don't read the whole file;
* the redesigned construction API — ``Graph(store=...)``, ``Graph.load``,
  ``open_graph``/``open_store`` and ``GraphView``.
"""

from __future__ import annotations

from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import (
    RDF,
    Graph,
    GraphView,
    Literal,
    MemoryStore,
    SegmentStore,
    Store,
    StoreError,
    Triple,
    URIRef,
    open_graph,
    open_store,
)

EX = "http://example.org/"


def u(name: str) -> URIRef:
    return URIRef(EX + name)


BACKENDS = ("memory", "segment")


def make_store(backend: str, tmp_path, **options) -> Store:
    if backend == "memory":
        return MemoryStore()
    options.setdefault("buffer_limit", 4)  # force multi-segment layouts
    return SegmentStore(tmp_path / "store", **options)


def sample_triples() -> list[Triple]:
    triples = [
        Triple(u("alice"), u("knows"), u("bob")),
        Triple(u("alice"), u("knows"), u("carol")),
        Triple(u("bob"), u("knows"), u("carol")),
        Triple(u("alice"), u("name"), Literal("Alice")),
        Triple(u("bob"), u("name"), Literal("Bob")),
        Triple(u("alice"), RDF.type, u("Person")),
        Triple(u("bob"), RDF.type, u("Person")),
        Triple(u("carol"), RDF.type, u("Robot")),
        Triple(u("carol"), u("age"), Literal(7)),
    ]
    assert len(set(triples)) == len(triples)
    return triples


@pytest.fixture(params=BACKENDS)
def populated(request, tmp_path):
    """A graph over either backend holding :func:`sample_triples`."""
    graph = Graph(store=make_store(request.param, tmp_path))
    graph.add_all(sample_triples())
    graph.flush()
    yield graph
    graph.close()


# --------------------------------------------------------------------------- #
# Contract: both backends answer identically
# --------------------------------------------------------------------------- #
class TestStoreContract:
    def test_len_and_contains(self, populated):
        assert len(populated) == len(sample_triples())
        for triple in sample_triples():
            assert triple in populated
        assert Triple(u("carol"), u("knows"), u("alice")) not in populated

    def test_every_pattern_shape_matches_brute_force(self, populated):
        full = set(sample_triples())
        subjects = {t.subject for t in full} | {None, u("nobody")}
        predicates = {t.predicate for t in full} | {None}
        objects = {t.object for t in full} | {None}
        for s, p, o in product(subjects, predicates, objects):
            want = {t for t in full
                    if (s is None or t.subject == s)
                    and (p is None or t.predicate == p)
                    and (o is None or t.object == o)}
            got = set(populated.triples(s, p, o))
            assert got == want, f"pattern ({s}, {p}, {o})"
            assert populated.cardinality(s, p, o) == len(want)

    def test_triples_ids_round_trip(self, populated):
        dictionary = populated.dictionary
        decoded = {
            Triple(dictionary.decode(s), dictionary.decode(p), dictionary.decode(o))
            for s, p, o in populated.triples_ids()
        }
        assert decoded == set(sample_triples())

    def test_triples_ids_bound_positions(self, populated):
        dictionary = populated.dictionary
        knows = dictionary.lookup(u("knows"))
        rows = list(populated.triples_ids(0, knows, 0))
        assert len(rows) == 3
        assert all(p == knows for _, p, _ in rows)
        alice = dictionary.lookup(u("alice"))
        assert len(list(populated.triples_ids(alice, knows, 0))) == 2

    def test_stats_are_exact(self, populated):
        stats = populated.stats
        assert stats.predicate_counts[u("knows")] == 3
        assert stats.predicate_counts[RDF.type] == 3
        assert stats.subject_counts[u("alice")] == 4
        assert stats.class_counts == {u("Person"): 2, u("Robot"): 1}

    def test_duplicate_add_is_a_noop(self, populated):
        version = populated.version
        populated.add(sample_triples()[0])
        assert len(populated) == len(sample_triples())
        assert populated.version == version
        assert populated.stats.predicate_counts[u("knows")] == 3

    def test_discard_updates_everything(self, populated):
        victim = Triple(u("alice"), u("knows"), u("bob"))
        version = populated.version
        populated.discard(victim)
        assert victim not in populated
        assert len(populated) == len(sample_triples()) - 1
        assert populated.version > version
        assert populated.stats.predicate_counts[u("knows")] == 2
        assert populated.cardinality(u("alice"), u("knows"), None) == 1
        assert set(populated.triples(None, u("knows"), u("bob"))) == set()

    def test_discard_absent_is_a_noop(self, populated):
        version = populated.version
        populated.discard(Triple(u("nobody"), u("knows"), u("nobody")))
        assert populated.version == version
        assert len(populated) == len(sample_triples())

    def test_remove_raises_for_absent(self, populated):
        with pytest.raises(KeyError):
            populated.remove(Triple(u("nobody"), u("knows"), u("nobody")))

    def test_remove_last_rdf_type_clears_class_count(self, populated):
        populated.discard(Triple(u("carol"), RDF.type, u("Robot")))
        assert u("Robot") not in populated.stats.class_counts
        assert populated.stats.class_counts == {u("Person"): 2}

    def test_clear(self, populated):
        populated.clear()
        assert len(populated) == 0
        assert not populated
        assert list(populated.triples()) == []
        assert populated.stats.predicate_counts == {}
        assert populated.cardinality() == 0

    def test_cross_backend_equality(self, populated):
        memory = Graph(triples=sample_triples())
        assert populated == memory
        assert memory == populated
        memory.discard(sample_triples()[0])
        assert populated != memory


# --------------------------------------------------------------------------- #
# Property test: stats stay exact under random add/remove interleavings
# --------------------------------------------------------------------------- #
_TERMS = [URIRef(f"{EX}t{i}") for i in range(3)]
_PREDS = [URIRef(f"{EX}p{i}") for i in range(2)] + [RDF.type]
_OBJS = _TERMS + [Literal("x")]

_operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "remove"]),
        st.sampled_from(_TERMS),
        st.sampled_from(_PREDS),
        st.sampled_from(_OBJS),
    ),
    max_size=40,
)


def _recount(model: set[Triple]):
    subjects = Counter(t.subject for t in model)
    predicates = Counter(t.predicate for t in model)
    objects = Counter(t.object for t in model)
    classes = Counter(t.object for t in model if t.predicate == RDF.type)
    return subjects, predicates, objects, classes


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(operations=_operations)
def test_stats_equal_recount_after_interleaving(backend, operations, tmp_path_factory):
    graph = Graph(store=make_store(backend, tmp_path_factory.mktemp("interleave")))
    model: set[Triple] = set()
    try:
        for action, s, p, o in operations:
            triple = Triple(s, p, o)
            if action == "add":
                graph.add(triple)
                model.add(triple)
            else:
                graph.discard(triple)
                model.discard(triple)
        assert len(graph) == len(model)
        assert set(graph.triples()) == model
        subjects, predicates, objects, classes = _recount(model)
        stats = graph.stats
        assert stats.subject_counts == dict(subjects)
        assert stats.predicate_counts == dict(predicates)
        assert stats.object_counts == dict(objects)
        assert stats.class_counts == dict(classes)
        for s, p, o in product(_TERMS + [None], _PREDS + [None], _OBJS + [None]):
            want = sum(
                (s is None or t.subject == s)
                and (p is None or t.predicate == p)
                and (o is None or t.object == o)
                for t in model
            )
            assert graph.cardinality(s, p, o) == want, f"pattern ({s}, {p}, {o})"
    finally:
        graph.close()


# --------------------------------------------------------------------------- #
# SegmentStore specifics
# --------------------------------------------------------------------------- #
class TestSegmentStore:
    def test_buffer_flushes_at_limit(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=3)
        graph = Graph(store=store)
        graph.add_all(sample_triples()[:2])
        assert store.buffered == 2 and store.segment_names == []
        graph.add(sample_triples()[2])
        assert store.buffered == 0 and len(store.segment_names) == 1
        graph.close()

    def test_cold_open_is_rebuild_free_and_identical(self, tmp_path):
        first = Graph(store=SegmentStore(tmp_path, buffer_limit=4))
        first.add_all(sample_triples())
        first.close()

        reopened = open_graph(tmp_path)
        store = reopened.store
        assert isinstance(store, SegmentStore)
        # Opening read only the manifest, term log and per-segment metadata.
        assert store.io.records_read == 0
        assert reopened == Graph(triples=sample_triples())
        assert reopened.stats.class_counts == {u("Person"): 2, u("Robot"): 1}
        assert reopened.cardinality(None, u("knows"), None) == 3
        reopened.close()

    def test_deletes_survive_restart(self, tmp_path):
        graph = Graph(store=SegmentStore(tmp_path, buffer_limit=2))
        graph.add_all(sample_triples())
        victim = Triple(u("alice"), u("knows"), u("bob"))
        graph.discard(victim)          # segment-resident -> tombstone
        graph.close()

        reopened = open_graph(tmp_path)
        assert victim not in reopened
        assert len(reopened) == len(sample_triples()) - 1
        assert reopened.stats.predicate_counts[u("knows")] == 2
        reopened.close()

    def test_discard_from_buffer_never_tombstones(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=100)
        graph = Graph(store=store)
        triple = sample_triples()[0]
        graph.add(triple)
        graph.discard(triple)
        assert store.tombstoned == 0 and len(graph) == 0
        graph.close()

    def test_readding_tombstoned_triple_resurrects_it(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=1)
        graph = Graph(store=store)
        triple = sample_triples()[0]
        graph.add(triple)              # flushed straight to a segment
        graph.discard(triple)
        assert store.tombstoned == 1
        graph.add(triple)
        assert store.tombstoned == 0 and triple in graph
        assert store.buffered == 0     # the segment copy became visible again
        graph.close()

    def test_compact_merges_segments_and_drops_tombstones(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=2)
        graph = Graph(store=store)
        graph.add_all(sample_triples())
        victim = Triple(u("bob"), u("knows"), u("carol"))
        graph.discard(victim)
        assert len(store.segment_names) > 1 and store.tombstoned == 1
        old_files = sorted(p.name for p in tmp_path.glob("seg-*"))

        assert store.compact()
        assert len(store.segment_names) == 1
        assert store.tombstoned == 0
        assert len(graph) == len(sample_triples()) - 1
        # Old segment files are physically gone.
        for name in old_files:
            assert not (tmp_path / name).exists()
        graph.close()

        reopened = open_graph(tmp_path)
        expected = Graph(triples=[t for t in sample_triples() if t != victim])
        assert reopened == expected
        reopened.close()

    def test_compact_on_compact_store_is_a_noop(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=100)
        Graph(store=store).add_all(sample_triples())
        store.flush()
        assert store.compact() is False
        store.close()

    def test_clear_removes_files(self, tmp_path):
        store = SegmentStore(tmp_path, buffer_limit=2)
        graph = Graph(store=store)
        graph.add_all(sample_triples())
        graph.clear()
        assert len(graph) == 0
        assert list(tmp_path.glob("seg-*")) == []
        graph.close()
        assert len(open_graph(tmp_path)) == 0

    def test_bounded_scan_reads_less_than_full_scan(self, tmp_path):
        graph = Graph(store=SegmentStore(tmp_path, buffer_limit=1000))
        for i in range(300):
            graph.add(Triple(u(f"s{i}"), u("p"), Literal(i)))
        graph.add(Triple(u("s0"), u("q"), Literal("needle")))
        graph.flush()
        store = graph.store
        store.io.records_read = 0
        rows = list(graph.triples(None, u("q"), None))
        assert len(rows) == 1
        # Binary search + one-record range: far below the 301-triple scan.
        assert store.io.records_read < 50
        graph.close()

    def test_closed_store_rejects_mutation(self, tmp_path):
        store = SegmentStore(tmp_path)
        store.close()
        with pytest.raises(StoreError):
            store.add(u("a"), u("p"), u("b"))
        store.close()  # idempotent

    def test_unsupported_manifest_format_raises(self, tmp_path):
        (tmp_path / "MANIFEST.json").write_text('{"format": 99, "segments": []}')
        with pytest.raises(StoreError):
            SegmentStore(tmp_path)

    def test_corrupt_term_log_raises(self, tmp_path):
        store = SegmentStore(tmp_path)
        Graph(store=store).add(sample_triples()[0])
        store.close()
        with open(tmp_path / "terms.jsonl", "a", encoding="utf-8") as sink:
            sink.write("not json\n")
        with pytest.raises(StoreError):
            SegmentStore(tmp_path)

    def test_dictionary_ids_stable_across_restart(self, tmp_path):
        graph = Graph(store=SegmentStore(tmp_path))
        graph.add_all(sample_triples())
        before = {term: graph.dictionary.lookup(term)
                  for t in sample_triples() for term in t.as_tuple()}
        graph.close()
        reopened = open_graph(tmp_path)
        for term, term_id in before.items():
            assert reopened.dictionary.lookup(term) == term_id
        reopened.close()

    def test_buffer_limit_validation(self, tmp_path):
        with pytest.raises(ValueError):
            SegmentStore(tmp_path, buffer_limit=0)


# --------------------------------------------------------------------------- #
# The redesigned construction API
# --------------------------------------------------------------------------- #
class TestGraphApi:
    def test_default_graph_uses_memory_store(self):
        graph = Graph()
        assert isinstance(graph.store, MemoryStore)

    def test_graph_wraps_explicit_store(self, tmp_path):
        store = SegmentStore(tmp_path)
        graph = Graph(store=store)
        assert graph.store is store
        graph.close()

    def test_open_graph_factory(self, tmp_path):
        assert isinstance(open_graph(None).store, MemoryStore)
        persistent = open_graph(tmp_path / "g")
        assert isinstance(persistent.store, SegmentStore)
        persistent.close()

    def test_open_store_factory(self, tmp_path):
        assert isinstance(open_store(None), MemoryStore)
        store = open_store(tmp_path / "s", buffer_limit=7)
        assert isinstance(store, SegmentStore) and store.buffer_limit == 7
        store.close()

    def test_graph_load_from_file(self, tmp_path):
        source = tmp_path / "data.ttl"
        source.write_text("@prefix ex: <http://example.org/> . ex:a ex:p ex:b .")
        graph = Graph.load(source)
        assert len(graph) == 1 and Triple(u("a"), u("p"), u("b")) in graph

    def test_graph_load_ntriples_by_suffix(self, tmp_path):
        source = tmp_path / "data.nt"
        source.write_text(
            "<http://example.org/a> <http://example.org/p> <http://example.org/b> .\n")
        assert len(Graph.load(source)) == 1

    def test_graph_load_into_store(self, tmp_path):
        source = tmp_path / "data.ttl"
        source.write_text("@prefix ex: <http://example.org/> . ex:a ex:p ex:b .")
        graph = Graph.load(source, store=SegmentStore(tmp_path / "store"))
        graph.close()
        reopened = open_graph(tmp_path / "store")
        assert Triple(u("a"), u("p"), u("b")) in reopened
        reopened.close()

    def test_graph_view_does_not_warn(self, recwarn):
        GraphView(Graph())
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_public_api_surface(self):
        import repro

        for name in ("open_graph", "open_store", "Graph", "GraphView", "Store",
                     "MemoryStore", "SegmentStore", "shard_graph",
                     "FederatedQueryEngine", "Mediator", "QueryEvaluator"):
            assert name in repro.__all__ or hasattr(repro, name), name
            assert getattr(repro, name) is not None
