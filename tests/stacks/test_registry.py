"""The stack registry contract: every registered stack satisfies the
identity/knob/charge surface, coercion covers the legacy boolean, and the
knob guards fail loudly naming the offending stack."""

import dataclasses

import pytest

from repro import stacks
from repro.harness.system import SimulatedSystem
from repro.resolve import UsageError, resolve_stack, resolve_stack_list
from repro.sim.cycles import DEFAULT_COSTS
from repro.workloads.registry import get_workload

ALL_STACKS = list(stacks.stack_names())


def small_spec(**overrides):
    spec = dataclasses.replace(
        get_workload("html").resolved(), num_allocs=150
    )
    return dataclasses.replace(spec, **overrides) if overrides else spec


# ------------------------------------------------------------- contract


def test_builtin_registration_order():
    # Wire payloads, reports, and CLI help all lean on this order.
    assert ALL_STACKS == ["baseline", "memento", "snapshot", "reclaim"]


@pytest.mark.parametrize("name", ALL_STACKS)
def test_contract_surface(name):
    stack = stacks.get_stack(name)
    assert stack.name == name
    assert stack.description
    assert isinstance(stack.hardware, bool)
    assert isinstance(stack.knobs, frozenset)
    assert 0.0 <= stack.resident_fraction <= 1.0
    assert stack.legacy_memento in (None, True, False)
    # resident_bytes scales the footprint by the declared fraction.
    assert stack.resident_bytes(1000.0) == pytest.approx(
        1000.0 * stack.resident_fraction
    )


def test_legacy_spellings_map_to_paper_stacks():
    assert stacks.get_stack("baseline").legacy_memento is False
    assert stacks.get_stack("memento").legacy_memento is True
    assert stacks.get_stack("snapshot").legacy_memento is None
    assert stacks.get_stack("reclaim").legacy_memento is None
    assert stacks.get_stack("memento").hardware is True
    assert stacks.get_stack("snapshot").hardware is False


def test_coerce_accepts_bool_name_and_stack():
    # One resolver: a name or a Stack resolves; a bool or anything else
    # is a usage error naming every registered choice.
    memento = stacks.get_stack("memento")
    assert resolve_stack("snapshot") == "snapshot"
    assert resolve_stack(memento) == "memento"
    for value in (True, False, 3.5):
        with pytest.raises(UsageError, match="choose from baseline"):
            resolve_stack(value)


def test_unknown_stack_names_every_choice():
    with pytest.raises(ValueError, match="unknown stack 'bogus'"):
        stacks.get_stack("bogus")
    with pytest.raises(UsageError, match="unknown stack"):
        resolve_stack("bogus")


def test_register_rejects_incomplete_stacks():
    class NoName(stacks.Stack):
        pass

    with pytest.raises(ValueError, match="non-empty name"):
        stacks.register(NoName())

    class ListKnobs(stacks.Stack):
        name = "listknobs"
        knobs = ["allocator"]  # type: ignore[assignment]

    with pytest.raises(ValueError, match="frozenset"):
        stacks.register(ListKnobs())

    class Duplicate(stacks.Stack):
        name = "baseline"
        knobs = frozenset()

    with pytest.raises(ValueError, match="already registered"):
        stacks.register(Duplicate())


# ------------------------------------------------------------- resolver


def test_resolve_stack_centralizes_boolean_derivation():
    # The boolean derivation is gone from the program: only the wire
    # (RunRequest.from_dict) still reads the legacy flag.
    assert resolve_stack("reclaim") == "reclaim"
    with pytest.raises(UsageError, match="unknown stack True"):
        resolve_stack(True)
    with pytest.raises(UsageError, match="unknown stack False"):
        resolve_stack(False)
    with pytest.raises(UsageError, match="unknown stack"):
        resolve_stack_list([True])


def test_resolve_stack_list_aliases_and_dedup():
    assert resolve_stack_list(None) == tuple(ALL_STACKS)
    assert resolve_stack_list("both") == ("baseline", "memento")
    assert resolve_stack_list("all") == tuple(ALL_STACKS)
    assert resolve_stack_list("snapshot, snapshot ,baseline") == (
        "snapshot",
        "baseline",
    )
    with pytest.raises(UsageError, match="no stacks selected"):
        resolve_stack_list(",")
    with pytest.raises(UsageError, match="unknown stack"):
        resolve_stack_list("baseline,bogus")


# ------------------------------------------------------------- behavior


@pytest.mark.parametrize("name", ALL_STACKS)
def test_every_stack_replays_a_workload(name):
    result = SimulatedSystem(small_spec(), name).run()
    assert result.total_cycles > 0
    assert result.memento is stacks.get_stack(name).hardware


@pytest.mark.parametrize("name", ALL_STACKS)
def test_every_stack_is_deterministic(name):
    first = SimulatedSystem(small_spec(), name).run()
    second = SimulatedSystem(small_spec(), name).run()
    assert first.to_dict() == second.to_dict()


def test_snapshot_charges_restore_on_warm_runs_only():
    warm = SimulatedSystem(small_spec(), "snapshot").run()
    assert warm.cycles.get("restore", 0) > 0
    cold = SimulatedSystem(
        small_spec(), "snapshot", cold_start=True
    ).run()
    assert cold.cycles.get("restore", 0) == 0


def test_reclaim_charges_release_on_function_exit():
    result = SimulatedSystem(small_spec(), "reclaim").run()
    assert result.cycles.get("reclaim_release", 0) > 0


def test_snapshot_charges_formula():
    # restore = 2200 + 480 x warm_pages on a warm restore (US at 600
    # allocations prefetches 768 pages); a cold record run pays nothing.
    snapshot = stacks.get_stack("snapshot")
    facts = stacks.ReplayFacts(warm_pages=768, exit_user_pages=900)
    assert snapshot.charges(False, facts, DEFAULT_COSTS) == {
        "restore": 370_840
    }
    assert snapshot.charges(
        False, facts._replace(warm_pages=0), DEFAULT_COSTS
    ) == {"restore": 2_200}
    assert snapshot.charges(True, facts, DEFAULT_COSTS) == {}


def test_reclaim_charges_formula():
    # reclaim_release = 150 x the user pages live at function exit,
    # warm or cold, and no entry at all when none are live.
    reclaim = stacks.get_stack("reclaim")
    facts = stacks.ReplayFacts(warm_pages=0, exit_user_pages=901)
    for cold in (False, True):
        assert reclaim.charges(cold, facts, DEFAULT_COSTS) == {
            "reclaim_release": 135_150
        }
        assert reclaim.charges(
            cold, facts._replace(exit_user_pages=0), DEFAULT_COSTS
        ) == {}


@pytest.mark.parametrize("name", ["baseline", "memento"])
def test_paper_stacks_charge_nothing(name):
    facts = stacks.ReplayFacts(warm_pages=768, exit_user_pages=900)
    for cold in (False, True):
        assert stacks.get_stack(name).charges(
            cold, facts, DEFAULT_COSTS
        ) == {}


def test_paper_stacks_carry_no_rival_cost_categories():
    # Bit-identity guard: baseline/memento totals must not move.
    for name in ("baseline", "memento"):
        result = SimulatedSystem(small_spec(), name).run()
        assert result.cycles.get("restore", 0) == 0
        assert result.cycles.get("reclaim_release", 0) == 0


# ------------------------------------------------------------ knob guards


@pytest.mark.parametrize(
    "name", [n for n in ALL_STACKS if "mmap_populate" not in
             stacks.get_stack(n).knobs]
)
def test_mmap_populate_guard_names_the_stack(name):
    with pytest.raises(ValueError, match=f"not supported by the {name!r}"):
        SimulatedSystem(small_spec(), name, mmap_populate=True)


def test_allocator_override_guard_names_the_stack():
    with pytest.raises(ValueError, match="'memento'"):
        SimulatedSystem(
            small_spec(), "memento", allocator_cls=object
        )
