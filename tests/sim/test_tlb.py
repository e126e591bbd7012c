"""Unit tests for the TLB models."""

import pytest

from repro.sim.params import MachineParams, TlbParams
from repro.sim.stats import Stats
from repro.sim.tlb import Tlb, TlbHierarchy


@pytest.fixture
def tiny_tlb():
    stats = Stats()
    return Tlb(TlbParams(entries=4, ways=2), stats.scoped("t")), stats


def test_miss_then_hit(tiny_tlb):
    tlb, stats = tiny_tlb
    assert tlb.lookup(5) is None
    tlb.insert(5, 99)
    assert tlb.lookup(5) == 99
    assert stats["t.hits"] == 1
    assert stats["t.misses"] == 1


def test_lru_within_set(tiny_tlb):
    tlb, _ = tiny_tlb
    # 2 sets x 2 ways; vpns 0, 2, 4 map to set 0.
    tlb.insert(0, 10)
    tlb.insert(2, 20)
    tlb.lookup(0)
    tlb.insert(4, 40)  # evicts vpn 2
    assert tlb.lookup(2) is None
    assert tlb.lookup(0) == 10
    assert tlb.lookup(4) == 40


def test_insert_updates_existing(tiny_tlb):
    tlb, _ = tiny_tlb
    tlb.insert(1, 10)
    tlb.insert(1, 20)
    assert tlb.lookup(1) == 20
    assert tlb.occupancy == 1


def test_invalidate(tiny_tlb):
    tlb, _ = tiny_tlb
    tlb.insert(3, 30)
    assert tlb.invalidate(3)
    assert not tlb.invalidate(3)
    assert tlb.lookup(3) is None


def test_flush(tiny_tlb):
    tlb, stats = tiny_tlb
    tlb.insert(0, 1)
    tlb.insert(1, 2)
    tlb.flush()
    assert tlb.occupancy == 0
    assert stats["t.flushes"] == 1


def test_hierarchy_l2_hit_promotes_to_l1():
    stats = Stats()
    hier = TlbHierarchy(MachineParams(), stats)
    hier.l2.insert(7, 70)
    assert hier.lookup(7) == 70
    # Promotion: next lookup hits L1.
    assert hier.l1.lookup(7) == 70


def test_hierarchy_insert_fills_both_levels():
    stats = Stats()
    hier = TlbHierarchy(MachineParams(), stats)
    hier.insert(9, 90)
    assert hier.l1.lookup(9) == 90
    assert hier.l2.lookup(9) == 90


def test_hierarchy_miss_returns_none():
    hier = TlbHierarchy(MachineParams(), Stats())
    assert hier.lookup(1234) is None


def test_hierarchy_invalidate_both():
    hier = TlbHierarchy(MachineParams(), Stats())
    hier.insert(5, 50)
    hier.invalidate_pages([5])
    assert hier.lookup(5) is None


def test_table3_geometry():
    params = MachineParams()
    assert params.tlb_l1.entries == 64 and params.tlb_l1.ways == 4
    assert params.tlb_l2.entries == 2048 and params.tlb_l2.ways == 12
