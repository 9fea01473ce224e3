"""Persistent factor store: bitwise round trips, corruption, warm restart.

Contracts pinned here:

* **Bitwise round trips** — for every registered
  :class:`~repro.graphs.matrixkind.MatrixKind`, a checkpointed
  :class:`~repro.query.spec.FactorizedSystem` restores bitwise-identically:
  matrix arrays, ordering, every L/U factor entry, and every answer.  Both
  modes of :class:`~repro.lu.factors.LUFactors` (growable and sealed)
  round-trip.
* **Corruption safety** — truncated, bit-flipped, header-torn, foreign and
  empty files are detected by the checksum/structure checks and treated as
  a store miss (``restore_fallbacks``), never decoded into a served system;
  writes are atomic (no partial file is ever visible, no temp litter).
* **Delta compression** — a refresh-produced system spills as a compact
  delta checkpoint (smaller than a full one); restoring it replays the
  recorded Bennett delta against the digest-verified parent and equals both
  the in-memory child and a full-checkpoint restore, bitwise.
* **Warm restart** — a planner or :class:`~repro.serve.server.MeasureServer`
  rebuilt over the same store directory answers its first batch
  bitwise-identically with zero cold factorizations for stored systems.
* **Counter compatibility** — a store-less ``cache_info()`` keeps its exact
  historical shape; the four store counters appear only with a store.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pytest

from repro.errors import MeasureError, StoreFormatError
from repro.graphs.matrixkind import MatrixKind, measure_matrix
from repro.graphs.snapshot import GraphSnapshot
from repro.query import FactorCache, QueryPlanner, make_query
from repro.query import spec as spec_module
from repro.query.spec import FactorizedSystem, MeasureSpec, SystemKey, get_spec
from repro.serve import MeasureServer
from repro.store import FactorStore
from repro.store.factorstore import system_key_digest
from repro.store.serialize import read_blob, write_blob

ALL_KINDS = list(MatrixKind)


def damping_for(kind: MatrixKind) -> float:
    return 0.0 if kind is MatrixKind.LAPLACIAN else 0.85


def random_graph(n: int, edges: int, seed: int) -> GraphSnapshot:
    rng = np.random.default_rng(seed)
    chosen = set()
    while len(chosen) < edges:
        u, v = rng.integers(0, n, size=2)
        if u != v:
            chosen.add((int(u), int(v)))
    return GraphSnapshot(n, chosen)


def evolve(snapshot: GraphSnapshot, seed: int) -> GraphSnapshot:
    """A small edge perturbation of ``snapshot`` (same node count)."""
    rng = np.random.default_rng(seed)
    edges = set(snapshot.edges)
    for edge in sorted(edges)[:2]:
        edges.discard(edge)
    while True:
        u, v = rng.integers(0, snapshot.n, size=2)
        if u != v and (int(u), int(v)) not in edges:
            edges.add((int(u), int(v)))
            break
    return GraphSnapshot(snapshot.n, edges)


def factorized(snapshot: GraphSnapshot, kind: MatrixKind) -> FactorizedSystem:
    matrix = measure_matrix(snapshot, kind=kind, damping=damping_for(kind))
    return FactorizedSystem.factorize(matrix)


def assert_bitwise_equal(a: FactorizedSystem, b: FactorizedSystem) -> None:
    """Matrix, ordering, factors and answers of ``b`` match ``a`` bit for bit."""
    assert a.matrix.indptr.tobytes() == b.matrix.indptr.tobytes()
    assert a.matrix.indices.tobytes() == b.matrix.indices.tobytes()
    assert a.matrix.data.tobytes() == b.matrix.data.tobytes()
    assert (a.ordering is None) == (b.ordering is None)
    if a.ordering is not None:
        assert a.ordering.row.order == b.ordering.row.order
        assert a.ordering.column.order == b.ordering.column.order
    for items_a, items_b in (
        (list(a.factors.l_items()), list(b.factors.l_items())),
        (list(a.factors.u_items()), list(b.factors.u_items())),
    ):
        assert [(i, j) for i, j, _ in items_a] == [(i, j) for i, j, _ in items_b]
        values_a = np.array([v for _, _, v in items_a])
        values_b = np.array([v for _, _, v in items_b])
        assert values_a.tobytes() == values_b.tobytes()
    n = a.matrix.n
    rhs = np.linspace(0.1, 1.0, n)
    assert a.solve(rhs).tobytes() == b.solve(rhs).tobytes()
    block = np.eye(n)[:, : min(4, n)]
    assert a.solve_many(block).tobytes() == b.solve_many(block).tobytes()


# ---------------------------------------------------------------------- #
# Full-checkpoint round trips
# ---------------------------------------------------------------------- #
class TestFullRoundTrip:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_every_kind_restores_bitwise(self, tmp_path, kind):
        snapshot = random_graph(24, 70, seed=7)
        system = factorized(snapshot, kind)
        store = FactorStore(str(tmp_path))
        key = SystemKey(snapshot, kind, damping_for(kind))
        store.save_full(key, system)
        restored = store.load(key)
        assert restored is not None
        assert_bitwise_equal(system, restored)

    def test_static_factors_restore_bitwise(self, tmp_path):
        from repro.core.clude import decompose_sequence_clude

        graphs = [random_graph(18, 50, seed=s) for s in range(3)]
        matrices = [
            measure_matrix(g, MatrixKind.RANDOM_WALK, 0.85) for g in graphs
        ]
        decomposition = decompose_sequence_clude(matrices).decompositions[1]
        system = FactorizedSystem(
            matrices[1], decomposition.ordering, decomposition.factors
        )
        assert system.factors.is_sealed
        store = FactorStore(str(tmp_path))
        key = SystemKey(graphs[1], MatrixKind.RANDOM_WALK, 0.85)
        store.save_full(key, system)
        restored = store.load(key)
        assert restored.factors.is_sealed
        assert_bitwise_equal(system, restored)
        # The sealed container's full slot state (stored zeros included)
        # round-trips, not just the non-zero items.
        original = system.factors.sweep_storage()
        copy = restored.factors.sweep_storage()
        assert np.array(original.pivots).tobytes() == np.array(copy.pivots).tobytes()
        assert original.l_rows == copy.l_rows and original.u_cols == copy.u_cols
        for name in ("l_values", "u_values"):
            assert [list(map(float.hex, values)) for values in getattr(original, name)] \
                == [list(map(float.hex, values)) for values in getattr(copy, name)]

    def test_key_digest_is_content_stable(self):
        g = random_graph(10, 25, seed=1)
        same = GraphSnapshot(10, set(g.edges))
        a = system_key_digest(SystemKey(g, MatrixKind.RANDOM_WALK, 0.85))
        b = system_key_digest(SystemKey(same, MatrixKind.RANDOM_WALK, 0.85))
        assert a == b
        assert a != system_key_digest(SystemKey(g, MatrixKind.RANDOM_WALK, 0.5))
        assert a != system_key_digest(SystemKey(g, MatrixKind.SYMMETRIC_WALK, 0.85))

    def test_atomic_writes_leave_no_temp_litter(self, tmp_path):
        snapshot = random_graph(12, 30, seed=3)
        system = factorized(snapshot, MatrixKind.RANDOM_WALK)
        store = FactorStore(str(tmp_path))
        key = SystemKey(snapshot, MatrixKind.RANDOM_WALK, 0.85)
        for _ in range(3):  # overwrites go through the same atomic path
            store.save_full(key, system)
        assert glob.glob(os.path.join(str(tmp_path), ".tmp-*")) == []
        assert len(store) == 1


# ---------------------------------------------------------------------- #
# Corruption: detected, treated as a miss, never served
# ---------------------------------------------------------------------- #
def _checkpointed(tmp_path):
    snapshot = random_graph(20, 55, seed=11)
    system = factorized(snapshot, MatrixKind.RANDOM_WALK)
    store = FactorStore(str(tmp_path))
    key = SystemKey(snapshot, MatrixKind.RANDOM_WALK, 0.85)
    store.save_full(key, system)
    return store, key, store.path_for(key)


class TestCorruption:
    def test_truncated_file_is_a_miss(self, tmp_path):
        store, key, path = _checkpointed(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        assert store.load(key) is None
        assert store.stats()["restore_failures"] == 1

    @pytest.mark.parametrize("position", [0.1, 0.5, 0.9])
    def test_bit_flip_is_a_miss(self, tmp_path, position):
        store, key, path = _checkpointed(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[int(len(blob) * position)] ^= 0x10
        open(path, "wb").write(bytes(blob))
        assert store.load(key) is None

    def test_header_only_and_empty_and_foreign_files(self, tmp_path):
        store, key, path = _checkpointed(tmp_path)
        for content in (b"", b"RPFS", b"not a checkpoint at all" * 10):
            open(path, "wb").write(content)
            assert store.load(key) is None
        with pytest.raises(StoreFormatError):
            read_blob(path)

    def test_corrupt_checkpoint_counts_restore_fallback_in_cache(self, tmp_path):
        _, key, path = _checkpointed(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0x01
        open(path, "wb").write(bytes(blob))
        cache = FactorCache(store=FactorStore(str(tmp_path)))
        assert cache.lookup_memory(key) is None
        assert cache.restore_from_store(key) is None
        info = cache.cache_info()
        assert info["misses"] == 1
        assert info["restore_fallbacks"] == 1
        assert info["store_misses"] == 1
        assert info["store_hits"] == 0

    def test_wrong_version_is_rejected(self, tmp_path):
        path = os.path.join(str(tmp_path), "v.blob")
        write_blob(path, {"type": "system"}, {})
        blob = bytearray(open(path, "rb").read())
        blob[4] ^= 0xFF  # version field (little-endian u16 at offset 4)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(StoreFormatError):
            read_blob(path)

    def test_malformed_factor_lists_are_rejected(self):
        from repro.store.serialize import (
            decode_factorized_system,
            encode_factorized_system,
        )

        system = factorized(random_graph(20, 55, seed=11), MatrixKind.RANDOM_WALK)
        meta, arrays = encode_factorized_system(system)
        assert_bitwise_equal(system, decode_factorized_system(meta, arrays))
        column = int(np.flatnonzero(arrays["l_lengths"] >= 2)[0])
        start = int(arrays["l_lengths"][:column].sum())

        def tampered(name, edit):
            copy = {key: value.copy() for key, value in arrays.items()}
            edit(copy[name])
            return copy

        def swap(a):
            a[start], a[start + 1] = a[start + 1], a[start]

        def first_at_or_above_diagonal(a):
            a[start] = column

        bad = [
            tampered("l_indices", swap),
            tampered("l_indices", first_at_or_above_diagonal),
            tampered("u_values", lambda a: a.__setitem__(0, 0.0)),
            tampered("l_lengths", lambda a: a.__setitem__(column, a[column] + 1)),
        ]
        for broken in bad:
            with pytest.raises(StoreFormatError):
                decode_factorized_system(meta, broken)
        with pytest.raises(StoreFormatError):
            decode_factorized_system({**meta, "sealed": None}, arrays)

    def test_version_one_checkpoint_fails_closed(self, tmp_path):
        # A checkpoint in the version-1 layout (factors as COO triples under
        # a "dynamic" tag), checksummed and tagged as version 1, as an older
        # writer left it.
        from repro.store import serialize

        store, key, path = _checkpointed(tmp_path)
        meta, arrays, _ = read_blob(path)
        factors = store.load(key).factors
        legacy_meta = {"type": "system", "n": meta["n"],
                       "ordering": meta["ordering"], "factors": "dynamic"}
        legacy = {name: arrays[name] for name in arrays
                  if name.startswith(("matrix_", "order_"))}
        for prefix, triples in (("l", list(factors.l_items())),
                                ("u", list(factors.u_items()))):
            legacy[f"{prefix}_rows"] = np.array([i for i, _, _ in triples], np.int64)
            legacy[f"{prefix}_cols"] = np.array([j for _, j, _ in triples], np.int64)
            legacy[f"{prefix}_vals"] = np.array([v for _, _, v in triples], np.float64)
        body = serialize._build_body(legacy_meta, legacy)
        prefix = serialize._PREFIX.pack(serialize.MAGIC, 1, serialize._digest(body))
        open(path, "wb").write(prefix + body)
        with pytest.raises(StoreFormatError):
            read_blob(path)
        # Served as a miss, so the cache falls back to a cold factorization.
        cache = FactorCache(store=FactorStore(str(tmp_path)))
        assert cache.restore_from_store(key) is None
        assert cache.cache_info()["restore_fallbacks"] == 1
        # Even under the current version tag the old layout does not decode.
        serialize.write_blob(path, legacy_meta, legacy)
        fresh = FactorStore(str(tmp_path))
        assert fresh.load(key) is None
        assert fresh.stats()["restore_failures"] == 1


# ---------------------------------------------------------------------- #
# Delta checkpoints
# ---------------------------------------------------------------------- #
class TestDeltaCheckpoints:
    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_delta_restore_equals_memory_and_full_restore(
        self, tmp_path, kind, monkeypatch
    ):
        # SYMMETRIC_WALK renormalization touches every entry of the affected
        # rows/columns; raise the feasibility gate so all kinds refresh.
        monkeypatch.setattr("repro.query.cache.DEFAULT_REFRESH_THRESHOLD", 10.0)
        # A throwaway measure per kind, so the planner refreshes every kind.
        spec = MeasureSpec(
            name=f"store_delta_{kind.value}",
            kind=kind,
            build_rhs=get_spec("pagerank").build_rhs,
        )
        monkeypatch.setitem(spec_module._REGISTRY, spec.name, spec)
        damping = damping_for(kind)
        parent_graph = random_graph(24, 70, seed=5)
        child_graph = evolve(parent_graph, seed=6)
        parent_key = SystemKey(parent_graph, kind, damping)
        child_key = SystemKey(child_graph, kind, damping)
        store = FactorStore(str(tmp_path / "delta"))
        planner = QueryPlanner(cache=FactorCache(store=store))
        planner.run([make_query(spec.name, parent_graph, damping=damping)])
        planner.register_evolution(parent_graph, child_graph)
        outcome = planner.run([make_query(spec.name, child_graph, damping=damping)])
        assert outcome.stats.refreshes == 1
        child = planner.cache.peek(child_key)
        assert planner.checkpoint() == 2
        assert store.path_for(child_key).endswith(".delta")
        assert store.path_for(parent_key).endswith(".factors")
        # Delta-compressed: the factor payload is gone from the child file.
        assert store.file_bytes(child_key) < store.file_bytes(parent_key)
        restored = FactorStore(str(tmp_path / "delta")).load(child_key)
        assert restored is not None
        assert_bitwise_equal(child, restored)
        # A full checkpoint of the same child restores to the same bits.
        full_store = FactorStore(str(tmp_path / "full"))
        full_store.save_full(child_key, child)
        full_restored = full_store.load(child_key)
        assert_bitwise_equal(restored, full_restored)

    def test_planner_refresh_chain_spills_as_deltas(self, tmp_path):
        graphs = [random_graph(24, 70, seed=9)]
        for step in range(3):
            graphs.append(evolve(graphs[-1], seed=10 + step))
        store = FactorStore(str(tmp_path))
        planner = QueryPlanner(cache=FactorCache(store=store))
        outcomes = [planner.run([make_query("pagerank", graphs[0])])]
        for parent, child in zip(graphs, graphs[1:]):
            planner.register_evolution(parent, child)
            outcomes.append(planner.run([make_query("pagerank", child)]))
        assert outcomes[0].stats.factorizations == 1
        assert all(o.stats.refreshes == 1 for o in outcomes[1:])
        assert planner.checkpoint() == len(graphs)
        keys = [SystemKey(g, MatrixKind.RANDOM_WALK, 0.85) for g in graphs]
        # The chain persists as one full root plus one delta per generation
        # (spilling a grandchild must not force its parent back to full).
        assert store.path_for(keys[0]).endswith(".factors")
        for key in keys[1:]:
            assert store.path_for(key).endswith(".delta")
        # Warm boot: every delta-checkpointed refresh product answers
        # bitwise, including the deepest link (three replays).
        warm = QueryPlanner(cache=FactorCache(store=FactorStore(str(tmp_path))))
        for graph, cold in zip(graphs, outcomes):
            replay = warm.run([make_query("pagerank", graph)])
            assert replay.stats.factorizations == 0
            assert replay.results[0].tobytes() == cold.results[0].tobytes()
        assert warm.cache_info()["store_hits"] == len(graphs)

    def test_delta_with_mismatched_parent_generation_falls_back(self, tmp_path):
        parent_graph = random_graph(20, 60, seed=13)
        child_graph = evolve(parent_graph, seed=14)
        parent_key = SystemKey(parent_graph, MatrixKind.RANDOM_WALK, 0.85)
        child_key = SystemKey(child_graph, MatrixKind.RANDOM_WALK, 0.85)
        store = FactorStore(str(tmp_path))
        planner = QueryPlanner(cache=FactorCache(store=store))
        planner.run([make_query("pagerank", parent_graph)])
        planner.register_evolution(parent_graph, child_graph)
        assert planner.run([make_query("pagerank", child_graph)]).stats.refreshes == 1
        planner.checkpoint()
        # Replace the parent's checkpoint with a *different* payload: the
        # recorded payload digest no longer matches, so the delta must not
        # replay against it.
        other = factorized(evolve(parent_graph, seed=99), MatrixKind.RANDOM_WALK)
        store.save_full(parent_key, other)
        assert store.load(child_key) is None
        assert store.stats()["restore_failures"] == 1
        assert child_key in planner.cache  # the in-memory system is unaffected


# ---------------------------------------------------------------------- #
# Cache integration: spill on eviction, restore on miss, counters
# ---------------------------------------------------------------------- #
class TestCacheIntegration:
    def test_eviction_spills_and_miss_restores(self, tmp_path):
        store = FactorStore(str(tmp_path))
        cache = FactorCache(max_systems=1, store=store)
        graphs = [random_graph(16, 40, seed=s) for s in (21, 22)]
        keys = [SystemKey(g, MatrixKind.RANDOM_WALK, 0.85) for g in graphs]
        systems = [factorized(g, MatrixKind.RANDOM_WALK) for g in graphs]
        cache.store(keys[0], systems[0])
        cache.store(keys[1], systems[1])  # evicts keys[0] -> spill
        info = cache.cache_info()
        assert info["evictions"] == 1 and info["spills"] == 1
        assert cache.lookup_memory(keys[0]) is None
        restored = cache.restore_from_store(keys[0])  # store hit, re-installed
        assert restored is not None
        assert_bitwise_equal(systems[0], restored)
        info = cache.cache_info()
        assert info["store_hits"] == 1
        # Restoring keys[0] into a 1-slot cache evicted (and spilled) keys[1].
        assert info["spills"] == 2

    def test_storeless_cache_info_shape_is_unchanged(self):
        assert FactorCache().cache_info() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "refreshes": 0,
            "refresh_fallbacks": 0,
            "size": 0,
        }

    def test_store_cache_info_shape(self, tmp_path):
        cache = FactorCache(store=FactorStore(str(tmp_path)))
        assert cache.cache_info() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "refreshes": 0,
            "refresh_fallbacks": 0,
            "size": 0,
            "store_hits": 0,
            "store_misses": 0,
            "spills": 0,
            "restore_fallbacks": 0,
        }

    def test_checkpoint_requires_a_store(self):
        with pytest.raises(MeasureError):
            FactorCache().checkpoint()
        with pytest.raises(MeasureError):
            QueryPlanner().checkpoint()

    def test_clear_keeps_the_disk_tier(self, tmp_path):
        store = FactorStore(str(tmp_path))
        cache = FactorCache(store=store)
        g = random_graph(14, 35, seed=31)
        key = SystemKey(g, MatrixKind.RANDOM_WALK, 0.85)
        system = factorized(g, MatrixKind.RANDOM_WALK)
        cache.store(key, system)
        cache.checkpoint()
        cache.clear()
        assert cache.lookup_memory(key) is None
        restored = cache.restore_from_store(key)
        assert restored is not None
        assert_bitwise_equal(system, restored)


# ---------------------------------------------------------------------- #
# Server warm restart
# ---------------------------------------------------------------------- #
class TestServerWarmRestart:
    def test_restarted_server_first_batch_is_bitwise_and_warm(self, tmp_path):
        g1 = random_graph(28, 90, seed=41)
        g2 = random_graph(28, 90, seed=42)
        submissions = [
            ("rwr", g1, {"start_node": 3}),
            ("rwr", g1, {"start_node": 7}),
            ("pagerank", g2, {}),
            ("salsa_authority", g1, {"node": 2}),
        ]

        def run_server(directory):
            with MeasureServer(
                store=FactorStore(directory), max_wait_ms=0
            ) as server:
                futures = [
                    server.submit_measure(measure, snapshot, **params)
                    for measure, snapshot, params in submissions
                ]
                answers = [f.result(timeout=10) for f in futures]
                server.checkpoint().result(timeout=10)
                info = server.planner.cache_info()
            return answers, info

        first_answers, first_info = run_server(str(tmp_path))
        assert first_info["store_hits"] == 0  # cold boot factorized
        second_answers, second_info = run_server(str(tmp_path))
        # Zero cold factorizations: every memory miss was served from disk.
        assert second_info["store_hits"] == second_info["misses"]
        assert second_info["store_misses"] == 0
        for a, b in zip(first_answers, second_answers):
            assert a.tobytes() == b.tobytes()

    def test_server_checkpoint_without_store_reports_on_future(self):
        with MeasureServer(max_wait_ms=0) as server:
            with pytest.raises(MeasureError):
                server.checkpoint().result(timeout=10)
