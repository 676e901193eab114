"""SiteLedger transactions and the SiteCostCache (Eq. (2) at p=0)."""

import math

import pytest

from repro.core.costs import buffer_site_cost
from repro.errors import ConfigurationError
from repro.tilegraph.ledger import SiteCostCache, SiteLedger


class TestLedgerBasics:
    def test_commit_keeps_deltas(self, graph10_sites):
        ledger = graph10_sites.ledger()
        with ledger.transaction():
            graph10_sites.use_site((2, 3), 2)
        assert graph10_sites.used_site_count((2, 3)) == 2
        assert ledger.commits == 1 and ledger.rollbacks == 0

    def test_rollback_restores_sites_and_wires(self, graph10_sites):
        ledger = graph10_sites.ledger()
        graph10_sites.use_site((1, 1), 1)
        txn = ledger.begin()
        graph10_sites.use_site((1, 1), 2)
        graph10_sites.use_site((4, 4), 1)
        graph10_sites.add_wire((0, 0), (1, 0), 3)
        ledger.rollback(txn)
        assert graph10_sites.used_site_count((1, 1)) == 1
        assert graph10_sites.used_site_count((4, 4)) == 0
        assert graph10_sites.wire_usage((0, 0), (1, 0)) == 0
        assert ledger.entries_rolled_back == 3

    def test_exception_rolls_back(self, graph10_sites):
        ledger = graph10_sites.ledger()
        with pytest.raises(RuntimeError):
            with ledger.transaction():
                graph10_sites.use_site((5, 5), 3)
                raise RuntimeError("boom")
        assert graph10_sites.used_site_count((5, 5)) == 0
        assert not ledger.active

    def test_ledger_is_per_graph_singleton(self, graph10_sites):
        assert graph10_sites.ledger() is graph10_sites.ledger()


class TestNesting:
    def test_inner_commit_folds_into_outer_rollback(self, graph10_sites):
        ledger = graph10_sites.ledger()
        outer = ledger.begin()
        with ledger.transaction():  # commits on exit
            graph10_sites.use_site((0, 0), 1)
        graph10_sites.use_site((0, 1), 1)
        ledger.rollback(outer)
        # The inner committed work is undone by the outer rollback.
        assert graph10_sites.used_site_count((0, 0)) == 0
        assert graph10_sites.used_site_count((0, 1)) == 0

    def test_inner_rollback_keeps_outer(self, graph10_sites):
        ledger = graph10_sites.ledger()
        with ledger.transaction():
            graph10_sites.use_site((0, 0), 1)
            inner = ledger.begin()
            graph10_sites.use_site((0, 1), 1)
            ledger.rollback(inner)
        assert graph10_sites.used_site_count((0, 0)) == 1
        assert graph10_sites.used_site_count((0, 1)) == 0

    def test_out_of_order_close_rejected(self, graph10_sites):
        ledger = graph10_sites.ledger()
        outer = ledger.begin()
        inner = ledger.begin()
        with pytest.raises(ConfigurationError):
            ledger.commit(outer)
        ledger.rollback(inner)
        ledger.rollback(outer)
        assert not ledger.active

    def test_double_close_rejected(self, graph10_sites):
        ledger = graph10_sites.ledger()
        txn = ledger.begin()
        ledger.commit(txn)
        with pytest.raises(ConfigurationError):
            ledger.commit(txn)

    def test_early_explicit_rollback_in_scope(self, graph10_sites):
        ledger = graph10_sites.ledger()
        with ledger.transaction() as txn:
            graph10_sites.use_site((3, 3), 1)
            txn.rollback()
        assert graph10_sites.used_site_count((3, 3)) == 0
        assert ledger.rollbacks == 1 and ledger.commits == 0


class TestBulkGuards:
    def test_bulk_reset_inside_txn_rejected(self, graph10_sites):
        ledger = graph10_sites.ledger()
        with pytest.raises(ConfigurationError):
            with ledger.transaction():
                graph10_sites.reset_usage()
        assert not ledger.active

    def test_bulk_reset_outside_txn_ok(self, graph10_sites):
        graph10_sites.ledger()  # registered observer
        graph10_sites.use_site((0, 0), 1)
        graph10_sites.reset_usage()
        assert graph10_sites.total_used_sites == 0


class TestFlatReads:
    def test_free_matches_graph(self, graph10_sites):
        ledger = graph10_sites.ledger()
        graph10_sites.use_site((7, 2), 2)
        assert ledger.free_tile((7, 2)) == graph10_sites.free_sites((7, 2)) == 1

    def test_overbooked_indices(self, graph10_sites):
        ledger = graph10_sites.ledger()
        graph10_sites.use_site((9, 9), 4)  # capacity 3
        assert ledger.overbooked_indices() == [graph10_sites.tile_index((9, 9))]


class TestSiteCostCache:
    def test_matches_scalar_cost(self, graph10_sites):
        cache = graph10_sites.site_cost_cache()
        graph10_sites.use_site((2, 2), 2)
        for tile in [(0, 0), (2, 2), (9, 9)]:
            assert cache.cost(tile) == buffer_site_cost(graph10_sites, tile)

    def test_inf_on_exhausted_or_siteless(self, graph10):
        cache = graph10.site_cost_cache()
        graph10.set_sites((1, 1), 1)
        graph10.use_site((1, 1), 1)
        assert math.isinf(cache.cost((0, 0)))  # no sites at all
        assert math.isinf(cache.cost((1, 1)))  # exhausted

    def test_dirty_set_recompute_is_partial(self, graph10_sites):
        cache = graph10_sites.site_cost_cache()
        cache.costs()  # full refresh
        full = cache.tiles_recomputed
        graph10_sites.use_site((4, 4), 1)
        cache.costs()
        assert cache.tiles_recomputed == full + 1

    def test_cost_fn_sees_later_changes(self, graph10_sites):
        cache = graph10_sites.site_cost_cache()
        index = graph10_sites.tile_index((6, 6))
        before = cache.costs()[index]
        graph10_sites.use_site((6, 6), 1)
        after = cache.costs()[index]
        assert after > before
        assert after == buffer_site_cost(graph10_sites, (6, 6))

    def test_cache_is_per_graph_singleton(self, graph10_sites):
        assert graph10_sites.site_cost_cache() is graph10_sites.site_cost_cache()


class TestKindedJournals:
    """Per-kind site bookings must roll back exactly like plain ones.

    A kinded ``use_site`` journals two entries — the site count and the
    kind tally — and rollback must undo both without double-counting the
    shared ``used_sites`` vector.
    """

    def _key(self, graph, tile, kind):
        return (graph.tile_index(tile), kind)

    def test_rollback_restores_kind_used(self, graph10_sites):
        g = graph10_sites
        ledger = g.ledger()
        g.use_site((1, 1), 1, kind="BUF_X4")
        txn = ledger.begin()
        g.use_site((1, 1), 1, kind="BUF_X4")
        g.use_site((2, 2), 1, kind="BUF_X2")
        g.use_site((3, 3), 1)  # default kind: no kind journal entry
        ledger.rollback(txn)
        assert g.used_site_count((1, 1)) == 1
        assert g.used_site_count((2, 2)) == 0
        assert g.used_site_count((3, 3)) == 0
        assert g.kind_used == {self._key(g, (1, 1), "BUF_X4"): 1}

    def test_rip_inside_rollback_restores_kinds(self, graph10_sites):
        """The Stage-4 shape: release a kinded buffer inside a scope that
        then rolls back — the kind tally must come back."""
        g = graph10_sites
        ledger = g.ledger()
        g.use_site((4, 4), 2, kind="BUF_X2")
        with pytest.raises(RuntimeError):
            with ledger.transaction():
                g.use_site((4, 4), -2, kind="BUF_X2")
                g.use_site((5, 5), 1, kind="BUF_X4")
                raise RuntimeError("boom")
        assert g.used_site_count((4, 4)) == 2
        assert g.used_site_count((5, 5)) == 0
        assert g.kind_used == {self._key(g, (4, 4), "BUF_X2"): 2}

    def test_nested_inner_commit_outer_rollback(self, graph10_sites):
        g = graph10_sites
        ledger = g.ledger()
        outer = ledger.begin()
        with ledger.transaction():
            g.use_site((0, 0), 1, kind="BUF_X4")
        g.use_site((0, 1), 1, kind="BUF_X2")
        ledger.rollback(outer)
        assert g.used_site_count((0, 0)) == 0
        assert g.used_site_count((0, 1)) == 0
        assert g.kind_used == {}

    def test_snapshot_state_round_trips_kinds(self, graph10_sites):
        g = graph10_sites
        ledger = g.ledger()
        g.use_site((2, 3), 2, kind="BUF_X4")
        g.use_site((2, 3), 1)
        state = ledger.snapshot_state()
        assert state["kinds"] == [[g.tile_index((2, 3)), "BUF_X4", 2]]
        g.use_site((2, 3), -2, kind="BUF_X4")
        ledger.restore_state(state)
        assert g.used_site_count((2, 3)) == 3
        assert g.kind_used == {(g.tile_index((2, 3)), "BUF_X4"): 2}

    def test_legacy_state_without_kinds_accepted(self, graph10_sites):
        g = graph10_sites
        ledger = g.ledger()
        g.use_site((6, 6), 1, kind="BUF_X2")
        state = ledger.snapshot_state()
        del state["kinds"]  # a checkpoint written before the library era
        ledger.restore_state(state)
        assert g.used_site_count((6, 6)) == 1
        assert g.kind_used == {}  # all bookings become the default kind

    def test_default_only_snapshot_has_no_kinds_key(self, graph10_sites):
        g = graph10_sites
        g.use_site((1, 2), 2)
        state = g.ledger().snapshot_state()
        assert "kinds" not in state  # payload stays byte-identical to v1
