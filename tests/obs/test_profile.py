"""Cycle-attribution profiler: exactness, determinism, zero perturbation.

The load-bearing properties:

* attributed component cycles sum to the run's ``total_cycles`` exactly
  (the per-category residual assignment leaves nothing unattributed);
* profiling the same request twice yields identical payloads (the
  simulator is deterministic and the profiler adds no state of its own);
* enabling the profiler changes *nothing* about the simulation — the
  RunResult counter digest is identical with it on or off.
"""

import json
from dataclasses import replace

import pytest

from repro.harness.engine import ExperimentEngine, RunRequest
from repro.obs.instruments import instrumented
from repro.obs.ledger import payload_digest
from repro.obs.profile import (
    CATEGORY_RESIDUAL,
    COMPONENT_CATEGORY,
    CycleProfile,
    Log2Histogram,
    render_histograms,
    render_profile,
    render_top_consumers,
)
from repro.sim.cycles import DEFAULT_COSTS
from repro.workloads.registry import get_workload

#: One workload per language stack keeps the integration matrix honest
#: without replaying all 23 workloads per test.
WORKLOADS = ("html", "Redis", "deploy")


#: The paper's two stacks; the ids keep the names these tests had when
#: they were parametrized over the retired ``memento`` boolean.
STACKS = ["baseline", "memento"]
STACK_IDS = ["False", "True"]


def small_spec(name="html", num_allocs=1_200):
    return replace(get_workload(name).resolved(), num_allocs=num_allocs)


def profiled_run(spec, stack):
    """Execute one request under a fresh profile; returns (result, run)."""
    profile = CycleProfile()
    with instrumented(profile=profile):
        result = RunRequest(spec=spec, stack=stack).execute()
    (run,) = profile.runs
    return result, run, profile


# -- Log2Histogram ------------------------------------------------------------


class TestLog2Histogram:
    def test_bucket_placement_is_bit_length(self):
        hist = Log2Histogram("op")
        for value in (0, 1, 2, 3, 4, 7, 8, 1023, 1024):
            hist.record(value)
        assert hist.buckets[0] == 1  # 0
        assert hist.buckets[1] == 1  # 1
        assert hist.buckets[2] == 2  # 2, 3
        assert hist.buckets[3] == 2  # 4, 7
        assert hist.buckets[4] == 1  # 8
        assert hist.buckets[10] == 1  # 1023
        assert hist.buckets[11] == 1  # 1024
        assert hist.count == 9

    def test_huge_values_clamp_to_last_bucket(self):
        hist = Log2Histogram("op")
        hist.record(1 << 40)
        assert hist.buckets[-1] == 1
        assert hist.total == 1 << 40

    def test_round_trip(self):
        hist = Log2Histogram("op")
        for value in (1, 5, 900):
            hist.record(value)
        payload = hist.to_dict()
        assert payload["upper_bounds"][3] == 7
        clone = Log2Histogram.from_dict(json.loads(json.dumps(payload)))
        assert clone.to_dict() == payload


# -- finish_run reconciliation (synthetic) ------------------------------------


class TestFinishRun:
    def test_residual_absorbs_uninstrumented_cycles(self):
        profile = CycleProfile()
        ckpt = profile.checkpoint()
        profile.cell("kernel.fault").add(100)
        run = profile.finish_run(
            workload="w", stack="baseline",
            categories={"kernel_page": 150, "app": 40},
            total_cycles=190, checkpoint=ckpt,
        )
        components = run["components"]
        assert components["kernel.fault"] == {"count": 1, "cycles": 100}
        assert components["kernel.page_other"]["cycles"] == 50
        assert components["app.compute"]["cycles"] == 40
        assert run["attributed_cycles"] == 190
        assert run["unattributed_cycles"] == 0

    def test_checkpoint_scopes_the_delta(self):
        profile = CycleProfile()
        profile.cell("kernel.fault").add(999)  # a previous run's charge
        ckpt = profile.checkpoint()
        profile.cell("kernel.fault").add(10)
        run = profile.finish_run(
            workload="w", stack="baseline",
            categories={"kernel_page": 10},
            total_cycles=10, checkpoint=ckpt,
        )
        assert run["components"]["kernel.fault"]["cycles"] == 10

    def test_uncategorized_cell_is_an_overlay(self):
        profile = CycleProfile()
        ckpt = profile.checkpoint()
        profile.cell("dram.access").add(256)
        run = profile.finish_run(
            workload="w", stack="memento", categories={"app": 7},
            total_cycles=7, checkpoint=ckpt,
        )
        assert run["overlays"]["dram.access"]["cycles"] == 256
        # Overlays never count toward attribution.
        assert run["attributed_cycles"] == 7

    def test_derived_components_join_their_category(self):
        profile = CycleProfile()
        run = profile.finish_run(
            workload="w", stack="memento", categories={"touch": 100},
            total_cycles=100,
            derived={"touch.bypass_instantiate": (5, 60)},
        )
        assert run["components"]["touch.bypass_instantiate"] == {
            "count": 5, "cycles": 60,
        }
        assert run["components"]["touch.demand_lines"]["cycles"] == 40

    def test_every_residual_name_has_a_consistent_category(self):
        # A residual sink that is also an instrumented component must
        # map back to the same category, or reconciliation double counts.
        for category, name in CATEGORY_RESIDUAL.items():
            if name in COMPONENT_CATEGORY:
                assert COMPONENT_CATEGORY[name] == category


# -- full-system integration --------------------------------------------------


class TestAttributionExactness:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("stack", STACKS, ids=STACK_IDS)
    def test_components_sum_to_total(self, name, stack):
        result, run, _ = profiled_run(small_spec(name), stack)
        assert run["total_cycles"] == result.total_cycles
        component_sum = sum(
            row["cycles"] for row in run["components"].values()
        )
        assert component_sum == result.total_cycles
        assert run["unattributed_cycles"] == 0

    def test_categories_match_the_stats_counters(self):
        result, run, _ = profiled_run(small_spec(), stack="memento")
        assert run["categories"] == {
            k: int(v) for k, v in result.cycles.items()
        }

    def test_phases_partition_the_total(self):
        _, run, _ = profiled_run(small_spec(), stack="memento")
        assert sum(run["phases"].values()) == run["total_cycles"]
        assert "replay" in run["phases"]

    def test_memento_attributes_hardware_components(self):
        _, run, profile = profiled_run(small_spec(), stack="memento")
        names = set(run["components"])
        assert "hot.alloc_hit" in names
        assert "touch.bypass_instantiate" in names
        assert {"aac.hit", "aac.miss"} & names
        assert "op.alloc" in profile.hists
        assert "op.page_walk" in profile.hists

    def test_baseline_attributes_software_components(self):
        _, run, _ = profiled_run(small_spec(), stack="baseline")
        names = set(run["components"])
        assert "swalloc.alloc_fast" in names
        assert "kernel.fault" in names
        assert not any(n.startswith("hot.") for n in names)


class TestChargedStacks:
    """The stacks that add charges after teardown: a profiled run prices
    the same way directly and through the engine, and its ``charges``
    phase is exactly what the stack charged."""

    @pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
    @pytest.mark.parametrize("stack", ["snapshot", "reclaim"])
    def test_direct_and_engine_profiles_agree(self, stack, cold):
        request = RunRequest(
            spec=small_spec("US", num_allocs=400), stack=stack,
            cold_start=cold,
        )
        direct_profile, engine_profile = CycleProfile(), CycleProfile()
        with instrumented(profile=direct_profile):
            direct = request.execute()
        with instrumented(profile=engine_profile):
            through_engine = ExperimentEngine(use_disk_cache=False).run(
                request
            )
        assert through_engine.to_dict() == direct.to_dict()
        assert json.dumps(engine_profile.to_dict(), sort_keys=True) == (
            json.dumps(direct_profile.to_dict(), sort_keys=True)
        )

        system = request.build_system()
        system.run()
        charges = system.stack.charges(cold, system.facts, DEFAULT_COSTS)
        (run,) = direct_profile.runs
        assert run["phases"].get("charges", 0) == sum(charges.values())
        assert sum(run["phases"].values()) == run["total_cycles"]
        assert run["total_cycles"] == direct.total_cycles


# -- determinism and zero perturbation ----------------------------------------


class TestDeterminism:
    def test_identical_requests_identical_payloads(self):
        spec = small_spec()
        _, run_a, profile_a = profiled_run(spec, stack="memento")
        _, run_b, profile_b = profiled_run(spec, stack="memento")
        assert run_a == run_b
        payload_a = json.dumps(profile_a.to_dict(), sort_keys=True)
        payload_b = json.dumps(profile_b.to_dict(), sort_keys=True)
        assert payload_a == payload_b

    @pytest.mark.parametrize("stack", STACKS, ids=STACK_IDS)
    def test_profiler_does_not_perturb_the_simulation(self, stack):
        spec = small_spec()
        request = RunRequest(spec=spec, stack=stack)
        plain = request.execute()
        profiled, _, _ = profiled_run(spec, stack)
        assert payload_digest(plain.stats) == payload_digest(profiled.stats)
        assert plain.total_cycles == profiled.total_cycles


# -- rendering ----------------------------------------------------------------


class TestRendering:
    def test_render_profile_shows_components_and_categories(self):
        _, _, profile = profiled_run(small_spec(), stack="memento")
        text = render_profile(profile.to_dict())
        assert "html [memento]" in text
        assert "hot.alloc_hit" in text
        assert "kernel_page" in text
        assert "#" in text
        assert "! unattributed" not in text

    def test_render_top_consumers_ranks_and_limits(self):
        _, _, profile = profiled_run(small_spec(), stack="memento")
        text = render_top_consumers(profile.to_dict(), top=3)
        assert "top 3 cycle consumers" in text
        assert len(text.splitlines()) == 4

    def test_render_histograms_shows_buckets(self):
        _, _, profile = profiled_run(small_spec(), stack="memento")
        text = render_histograms(profile.to_dict())
        assert "op.alloc" in text
        assert "mean=" in text

    def test_empty_payload_renders_placeholders(self):
        assert render_profile({"runs": []}) == "(no profiled runs)"
        assert render_top_consumers({"runs": []}) == "(no profiled runs)"
        assert render_histograms({}) == "(no histograms)"
