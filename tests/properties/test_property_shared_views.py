"""Property: state shipped through shared-memory views is lossless.

The planning fleet publishes each baseline's flat plan vectors
(``edge_usage``, ``edge_capacity``, ``sites``, ``used_sites``) through
:class:`repro.parallel.SharedArrayRegistry` and reads them back from
views. This test drives a random interleaving of route commits/rips,
buffer-site commits/rips, and rolled-back ledger transactions against an
authoritative graph, and at random sync points publishes its state and
rebuilds a mirror graph from the attached views. The mirror must be
byte-identical everywhere a reader can look: flat edge usage (and its
h/v reshapes), the site vectors, the ledger's free counts, and the
Eq. (1) congestion costs derived from them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.parallel import AttachmentCache, SharedArrayRegistry
from repro.routing.tree import RouteTree
from repro.tilegraph import CapacityModel, TileGraph

SIZE = 6
NUM_TILES = SIZE * SIZE


def make_graph():
    return TileGraph(
        Rect(0.0, 0.0, float(SIZE), float(SIZE)),
        SIZE,
        SIZE,
        CapacityModel.uniform(4),
    )


def l_path(x1, y1, x2, y2):
    """Horizontal-then-vertical tile path between two tiles."""
    path = [(x, y1) for x in range(x1, x2, 1 if x2 >= x1 else -1)]
    path.append((x2, y1))
    path.extend(
        (x2, y) for y in range(y1 + (1 if y2 >= y1 else -1), y2, 1 if y2 >= y1 else -1)
    )
    if y2 != y1:
        path.append((x2, y2))
    return path


tiles = st.tuples(
    st.integers(0, SIZE - 1), st.integers(0, SIZE - 1)
)

route_op = st.tuples(st.just("route"), tiles, tiles)
rip_op = st.tuples(st.just("rip"), st.integers(0, 10 ** 6))
buffer_op = st.tuples(st.just("buffer"), st.integers(0, NUM_TILES - 1))
unbuffer_op = st.tuples(st.just("unbuffer"), st.integers(0, 10 ** 6))
rollback_op = st.tuples(
    st.just("rollback"),
    st.lists(st.integers(0, NUM_TILES - 1), min_size=1, max_size=4),
)
sync_op = st.tuples(st.just("sync"), st.just(None))

ops = st.lists(
    st.one_of(route_op, rip_op, buffer_op, unbuffer_op, rollback_op, sync_op),
    max_size=40,
)


def mirror_from_views(mirror, cache, usage_spec, used_spec):
    """Replay the published state into the mirror like a pool worker."""
    mirror.edge_usage[...] = cache.view(usage_spec)
    mirror.used_sites.reshape(-1)[...] = cache.view(used_spec)
    mirror.cost_cache().mark_all_dirty()


def assert_identical(graph, mirror):
    assert mirror.edge_usage.tobytes() == graph.edge_usage.tobytes()
    assert mirror.h_usage.tobytes() == graph.h_usage.tobytes()
    assert mirror.v_usage.tobytes() == graph.v_usage.tobytes()
    assert mirror.used_sites.tobytes() == graph.used_sites.tobytes()
    ledger, mledger = graph.ledger(), mirror.ledger()
    assert mledger.used.tobytes() == ledger.used.tobytes()
    assert mledger.capacity.tobytes() == ledger.capacity.tobytes()
    for index in range(NUM_TILES):
        assert mledger.free(index) == ledger.free(index)
    assert (
        mirror.cost_cache().strict_costs()
        == graph.cost_cache().strict_costs()
    )


@settings(max_examples=30, deadline=None)
@given(ops=ops)
def test_shared_views_replay_interleavings_byte_identically(ops):
    graph = make_graph()
    mirror = make_graph()
    committed = []

    with SharedArrayRegistry(prefix="prop") as registry:
        cache = AttachmentCache()
        try:

            def sync_and_check():
                usage_spec = registry.publish("usage", graph.edge_usage)
                used_spec = registry.publish(
                    "used", graph.used_sites.reshape(-1)
                )
                mirror_from_views(mirror, cache, usage_spec, used_spec)
                assert_identical(graph, mirror)

            for op, *args in ops:
                if op == "route":
                    (x1, y1), (x2, y2) = args
                    if (x1, y1) == (x2, y2):
                        continue
                    tree = RouteTree.from_paths(
                        (x1, y1),
                        [l_path(x1, y1, x2, y2)],
                        [(x2, y2)],
                        net_name=f"n{len(committed)}",
                    )
                    tree.add_usage(graph)
                    committed.append(tree)
                elif op == "rip":
                    if committed:
                        tree = committed.pop(args[0] % len(committed))
                        tree.remove_usage(graph)
                elif op == "buffer":
                    graph.use_site_flat(args[0], 1)
                elif op == "unbuffer":
                    index = args[0] % NUM_TILES
                    if graph.used_sites.reshape(-1)[index] > 0:
                        graph.use_site_flat(index, -1)
                elif op == "rollback":
                    # A rolled-back scope must leave no trace in the
                    # published state.
                    ledger = graph.ledger()
                    txn = ledger.begin()
                    for index in args[0]:
                        graph.use_site_flat(index, 1)
                    ledger.rollback(txn)
                elif op == "sync":
                    sync_and_check()
            sync_and_check()
        finally:
            cache.close()
