"""Unit tests for the invariant checker: each rule passes on a healthy
system, fires on a deliberately corrupted one, and the Auditor's gating
mirrors the observability hooks."""

import dataclasses

import pytest

from repro.audit import (
    AuditContext,
    Auditor,
    DEFAULT_RULES,
    Violation,
)
from repro.audit.invariants import (
    ArenaListMembership,
    BypassCounterRange,
    CacheWritebackLedger,
    HotAacBacking,
    PoolBalance,
    ShootdownCoverage,
)
from repro.core.bypass import COUNTER_MAX
from repro.harness.system import SimulatedSystem
from repro.obs.instruments import current, instrumented
from repro.workloads.registry import get_workload


def small_spec(num_allocs=300):
    return dataclasses.replace(
        get_workload("html").resolved(), num_allocs=num_allocs
    )


@pytest.fixture
def run_system():
    """A Memento system mid-flight: replayed but not torn down."""
    system = SimulatedSystem(small_spec(), stack="memento")
    from repro.workloads.synth import generate_trace

    system._replay_columnar(generate_trace(system.spec).columnar())
    return system


def check_rule(rule_cls, system):
    return rule_cls().check(AuditContext.from_system(system))


# ------------------------------------------------------------ clean state


def test_all_rules_pass_on_clean_replay(run_system):
    ctx = AuditContext.from_system(run_system)
    for rule_cls in DEFAULT_RULES:
        assert rule_cls().check(ctx) == [], rule_cls.name


def test_baseline_stack_is_also_clean():
    system = SimulatedSystem(small_spec(), stack="baseline")
    from repro.workloads.synth import generate_trace

    system._replay_columnar(generate_trace(system.spec).columnar())
    ctx = AuditContext.from_system(system)
    for rule_cls in DEFAULT_RULES:
        assert rule_cls().check(ctx) == [], rule_cls.name


# ------------------------------------------------------- corrupted state


def test_membership_catches_header_off_every_list(run_system):
    allocator = run_system.runtime.context.object_allocator
    header = next(iter(allocator.headers.values()))
    # Forge a header that claims a list but is linked on none.
    saved = header.list_name
    hot = allocator.hot.lookup(header.size_class)
    if hot.header is header:
        hot.header = None  # make it neither HOT-resident nor listed
        if saved is not None:
            header.list_name = None
    else:
        allocator.available[header.size_class].remove(header) \
            if saved == "available" else \
            allocator.full[header.size_class].remove(header)
    messages = check_rule(ArenaListMembership, run_system)
    assert any("neither HOT-resident nor reachable" in m for m in messages)


def test_membership_catches_stale_link(run_system):
    allocator = run_system.runtime.context.object_allocator
    for lst in list(allocator.available) + list(allocator.full):
        if lst.head is not None:
            break
    else:
        # Small replays keep every arena HOT-resident; demote one onto
        # its available list so there is a linked node to corrupt.
        entry = next(e for e in allocator.hot.entries if e.header is not None)
        header, entry.header = entry.header, None
        lst = allocator.available[header.size_class]
        lst.push_head(header)
    lst.head.prev = lst.head  # corrupt the head's prev link
    messages = check_rule(ArenaListMembership, run_system)
    assert any("stale prev link" in m for m in messages)


def test_counter_range_catches_overflow(run_system):
    allocator = run_system.runtime.context.object_allocator
    header = next(iter(allocator.headers.values()))
    header.bypass_counter = COUNTER_MAX + 5  # 11-bit wraparound forged
    messages = check_rule(BypassCounterRange, run_system)
    assert any("outside" in m for m in messages)


def test_hot_backing_catches_dead_header(run_system):
    allocator = run_system.runtime.context.object_allocator
    for entry in allocator.hot.entries:
        if entry.header is not None:
            del allocator.headers[entry.header.va]  # kill it behind HOT
            break
    else:
        pytest.skip("no HOT-resident arena in this replay")
    messages = check_rule(HotAacBacking, run_system)
    assert any("dead header" in m for m in messages)


def test_pool_balance_catches_leaked_frame(run_system):
    page_allocator = run_system.page_allocator
    page_allocator.pool.pop()  # frame vanishes without ledger movement
    messages = check_rule(PoolBalance, run_system)
    assert any("pooled pages" in m for m in messages)


def test_pool_balance_catches_double_pooled_leaf(run_system):
    page_allocator = run_system.page_allocator
    state = next(iter(page_allocator._states.values()))
    vpn, pfn = next(iter(state.page_table.mappings()))
    page_allocator.pool.append(pfn)  # mapped leaf also sitting in pool
    messages = check_rule(PoolBalance, run_system)
    assert any("leaf frames are still in the pool" in m for m in messages)


def test_shootdown_catches_unrecorded_walker(run_system):
    page_allocator = run_system.page_allocator
    state = next(iter(page_allocator._states.values()))
    vpn = next(iter(state.page_table.mappings()))[0]
    assert run_system.core.core_id in state.walker_cores
    state.walker_cores.clear()  # core's TLB still caches the region
    # Ensure the translation really is cached on the core.
    run_system.core.tlb.insert(vpn, 12345)
    messages = check_rule(ShootdownCoverage, run_system)
    assert any("not in walker_cores" in m for m in messages)


def test_writeback_ledger_catches_unpaired_bytes(run_system):
    run_system.machine.dram._write_bytes.pending += 7  # bytes w/o lines
    messages = check_rule(CacheWritebackLedger, run_system)
    assert any("unpaired" in m for m in messages)


def test_writeback_ledger_catches_int_dirty_bit(run_system):
    caches = run_system.core.caches
    for cache_set in caches.l1d._sets:
        if cache_set:
            line = next(iter(cache_set))
            cache_set[line] = 1  # int where a bool belongs
            break
    messages = check_rule(CacheWritebackLedger, run_system)
    assert any("non-boolean dirty bit" in m for m in messages)


# ------------------------------------------------------------- Auditor


def test_auditor_epoch_gating():
    run = Auditor(epoch="run")
    assert not run.should_check(0)
    event = Auditor(epoch="event")
    assert event.should_check(7)
    interval = Auditor(epoch="interval", every=10)
    assert not interval.should_check(0)
    assert interval.should_check(9)
    with pytest.raises(ValueError):
        Auditor(epoch="sometimes")


@pytest.mark.parametrize("every", [0, -1])
def test_auditor_rejects_nonpositive_interval(every):
    # Clamping to 1 would silently check after every event.
    with pytest.raises(ValueError, match="every must be a positive"):
        Auditor(epoch="interval", every=every)


def test_auditor_caps_stored_violations(run_system):
    class Noisy:
        name = "noisy"

        def check(self, ctx):
            return [f"m{i}" for i in range(10)]

    auditor = Auditor(rules=[Noisy()], max_violations=4)
    auditor.check(AuditContext.from_system(run_system), 3)
    assert auditor.total_violations == 10
    assert len(auditor.violations) == 4
    assert auditor.violations[0] == Violation("noisy", "m0", 3)
    summary = auditor.summary()
    assert summary["violations"] == 10
    assert summary["rules"] == ["noisy"]


def test_auditor_survives_crashing_rule(run_system):
    class Crashy:
        name = "crashy"

        def check(self, ctx):
            raise RuntimeError("boom")

    auditor = Auditor(rules=[Crashy()])
    auditor.check(AuditContext.from_system(run_system))
    assert auditor.total_violations == 1
    assert "rule crashed" in auditor.violations[0].message


def test_install_audit_returns_previous():
    first = Auditor()
    second = Auditor()
    assert current().audit is None
    with instrumented(audit=first):
        assert current().audit is first
        with pytest.raises(RuntimeError):
            with instrumented(audit=second):
                assert current().audit is second
                raise RuntimeError("boom")
        assert current().audit is first
    assert current().audit is None


def test_disabled_audit_leaves_result_untouched():
    result = SimulatedSystem(small_spec(150), stack="memento").run()
    assert result.audit is None


def test_audited_run_reports_summary_and_matches_unaudited():
    spec = small_spec(150)
    plain = SimulatedSystem(spec, stack="memento").run()
    with instrumented(audit=Auditor(epoch="event")):
        audited = SimulatedSystem(spec, stack="memento").run()
    assert audited.audit is not None
    assert audited.audit["violations"] == 0
    assert audited.audit["checks"] > len(spec.resolved().name)
    # Auditing must observe, never perturb: every simulated number of the
    # audited run is bit-identical to the unaudited one.
    plain_d, audited_d = plain.to_dict(), audited.to_dict()
    audited_d["audit"] = plain_d["audit"] = None
    assert plain_d == audited_d
