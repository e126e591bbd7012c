"""Simulated-cycle attribution profiler and per-op latency histograms.

Where :mod:`repro.obs.tracing` answers "where did the *wall clock* go?",
this module answers the paper's own question: *where did the simulated
cycles go?* — 2-cycle HOT hits, 1-cycle AAC hits, four-digit kernel
fault paths, bypass instantiations (PAPER.md §3, §6.4, Fig. 9).

Design mirrors :mod:`repro.obs.events`: a :class:`CycleProfile` is
bound (or not) in the instrument bundle (:mod:`repro.obs.instruments`)
*before* the system under study is constructed. Components bind its
interned :class:`ProfileCell` / :class:`Log2Histogram` handles at
construction time; when no profile is bound they bind ``None`` and
every emit site is a single attribute ``is None`` test on a
method-level (never per-line) path, or is compiled out entirely by the
closure factories.
The disabled replay loop is byte-identical to the uninstrumented one.

Attribution is exact, not approximate. Every ``core.cycles`` bump in the
simulator is paired with a ``cycles.<category>`` Stats counter bump
(DESIGN.md §12), so per-category totals partition the grand total. The
profiler instruments the *interesting* sites inside each category
(HOT hit/miss, AAC hit/miss, page walks, TLB shootdowns, kernel faults,
software-allocator slow paths, ...) and :meth:`CycleProfile.finish_run`
assigns each category's residual — cycles the category charged outside
any instrumented site — to a named residual component. Components
therefore sum to ``total_cycles`` exactly; the acceptance bound of "within
1%" holds with zero slack.

Two component names double as residual sinks: every software allocator
(Mallacc included) charges its small fast paths inline in its closures,
so those cycles are deliberately *not* instrumented per call — they
surface as the ``user_alloc``/``user_free`` residual and are folded into
``swalloc.alloc_fast`` / ``swalloc.free_fast``, which is exactly what
they are. On a software stack the ``op.alloc``/``op.free`` histograms
therefore sample only the charge hooks: slow paths and the glibc large
path.

Cells whose name has no ``COMPONENT_CATEGORY`` entry are *overlays*:
cross-cutting tallies (e.g. ``dram.access``, charged by several
categories) reported alongside the breakdown but excluded from the
category reconciliation so nothing is double counted.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

SCHEMA_VERSION = 1

#: Instrumented component -> cycle category (``cycles.<category>`` Stats
#: counter) it charges into. One category per component; reconciliation
#: depends on this partition.
COMPONENT_CATEGORY: Dict[str, str] = {
    "hot.alloc_hit": "hw_alloc",
    "hot.alloc_miss": "hw_alloc",
    "hot.free_hit": "hw_free",
    "hot.free_miss": "hw_free",
    "aac.hit": "hw_page",
    "aac.miss": "hw_page",
    "hw_page.fill": "hw_page",
    "hw_page.arena_free": "hw_page",
    "tlb.shootdown": "hw_page",
    "walk.page_walk": "walk",
    "kernel.fault": "kernel_page",
    "kernel.pool_replenish": "kernel_page",
    "kernel.switch": "kernel_other",
    "swalloc.alloc_fast": "user_alloc",
    "swalloc.alloc_slow": "user_alloc",
    "swalloc.free_fast": "user_free",
    "swalloc.free_slow": "user_free",
    "touch.bypass_instantiate": "touch",
}

#: Category -> component name its residual (un-instrumented) cycles are
#: attributed to. When the name is also an instrumented component the
#: residual folds into it (every software allocator's small fast paths,
#: Mallacc's included, charge inline in their closures, so their cycles
#: arrive as category residual).
CATEGORY_RESIDUAL: Dict[str, str] = {
    "app": "app.compute",
    "touch": "touch.demand_lines",
    "walk": "walk.other",
    "hw_alloc": "hw_alloc.wrapper",
    "hw_free": "hw_free.wrapper",
    "hw_page": "hw_page.other",
    "kernel_page": "kernel.page_other",
    "kernel_other": "kernel.other",
    "mem_backpressure": "dram.backpressure",
    "user_alloc": "swalloc.alloc_fast",
    "user_free": "swalloc.free_fast",
}


class ProfileCell:
    """One interned attribution bucket: occurrence count + cycle total.

    Hot sites bind the cell once at construction and call :meth:`add`
    (or bump the slots directly) only when a profile is installed.
    """

    __slots__ = ("name", "count", "cycles")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.cycles = 0

    def add(self, cycles: int) -> None:
        self.count += 1
        self.cycles += cycles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProfileCell({self.name!r}, n={self.count}, cyc={self.cycles})"


class Log2Histogram:
    """Fixed-bucket log2 histogram of per-op simulated-cycle costs.

    Bucket ``i`` holds values with ``value.bit_length() == i`` — i.e. the
    half-open power-of-two range ``[2**(i-1), 2**i)`` — so bucket upper
    bounds are ``2**i - 1``. Values beyond the last bucket clamp into it.
    Memory is constant regardless of sample count.
    """

    __slots__ = ("name", "buckets", "count", "total")

    N_BUCKETS = 24  # values 0 .. 2**23-1 resolved; larger clamp to last

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets = [0] * self.N_BUCKETS
        self.count = 0
        self.total = 0

    def record(self, value: int, times: int = 1) -> None:
        """Record ``times`` samples of ``value``."""
        idx = value.bit_length() if value > 0 else 0
        if idx >= self.N_BUCKETS:
            idx = self.N_BUCKETS - 1
        self.buckets[idx] += times
        self.count += times
        self.total += value * times

    def upper_bounds(self) -> List[int]:
        """Inclusive ``le`` upper bound per bucket (last is unbounded)."""
        return [(1 << i) - 1 for i in range(self.N_BUCKETS)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "buckets": list(self.buckets),
            "upper_bounds": self.upper_bounds(),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Log2Histogram":
        hist = cls(str(payload.get("name", "")))
        buckets = list(payload.get("buckets", ()))[: cls.N_BUCKETS]
        hist.buckets[: len(buckets)] = [int(b) for b in buckets]
        hist.count = int(payload.get("count", sum(hist.buckets)))
        hist.total = int(payload.get("total", 0))
        return hist


class CycleProfile:
    """Process-wide accumulator of cycle attribution and op histograms.

    Bind one with ``instrumented(profile=...)`` *before* constructing the
    :class:`~repro.harness.system.SimulatedSystem` whose cycles you want
    attributed; the system takes a :meth:`checkpoint` at construction and
    calls :meth:`finish_run` after its stats fold, which reconciles the
    interned cell deltas against the run's per-category cycle totals and
    appends one entry to :attr:`runs`.

    The profiler only ever *reads* simulated state — it never charges
    cycles — so enabling it cannot perturb results: the RunResult (and
    its sha256 counter digest) is identical with the profiler on or off.
    """

    def __init__(self) -> None:
        self.cells: Dict[str, ProfileCell] = {}
        self.hists: Dict[str, Log2Histogram] = {}
        self.runs: List[Dict[str, Any]] = []

    # -- interning ------------------------------------------------------

    def cell(self, name: str) -> ProfileCell:
        """The interned cell for ``name`` (created on first use)."""
        cell = self.cells.get(name)
        if cell is None:
            cell = self.cells[name] = ProfileCell(name)
        return cell

    def hist(self, name: str) -> Log2Histogram:
        """The interned histogram for ``name`` (created on first use)."""
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = Log2Histogram(name)
        return hist

    # -- per-run attribution --------------------------------------------

    def checkpoint(self) -> Dict[str, Tuple[int, int]]:
        """Snapshot of every cell's (count, cycles), for run deltas."""
        return {
            name: (cell.count, cell.cycles)
            for name, cell in self.cells.items()
        }

    def finish_run(
        self,
        workload: str,
        stack: str,
        categories: Mapping[str, int],
        total_cycles: int,
        checkpoint: Optional[Mapping[str, Tuple[int, int]]] = None,
        derived: Optional[Mapping[str, Tuple[int, int]]] = None,
        phases: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, Any]:
        """Reconcile cell deltas against category totals; record one run.

        ``categories`` maps category name -> cycles charged under
        ``cycles.<category>`` during the run. ``derived`` supplies
        components computed analytically rather than via a cell (e.g.
        ``touch.bypass_instantiate`` = bypassed lines x bypass cost) as
        ``name -> (count, cycles)``. Residual cycles per category land on
        :data:`CATEGORY_RESIDUAL` components, so component cycles sum to
        ``sum(categories.values())`` exactly.
        """
        base = checkpoint or {}
        components: Dict[str, Dict[str, int]] = {}
        overlays: Dict[str, Dict[str, int]] = {}
        attributed: Dict[str, int] = {}
        for name, cell in self.cells.items():
            b_count, b_cycles = base.get(name, (0, 0))
            d_count = cell.count - b_count
            d_cycles = cell.cycles - b_cycles
            if d_count == 0 and d_cycles == 0:
                continue
            row = {"count": d_count, "cycles": d_cycles}
            category = COMPONENT_CATEGORY.get(name)
            if category is None:
                overlays[name] = row
            else:
                components[name] = row
                attributed[category] = attributed.get(category, 0) + d_cycles
        for name, (d_count, d_cycles) in (derived or {}).items():
            if d_count == 0 and d_cycles == 0:
                continue
            category = COMPONENT_CATEGORY.get(name)
            row = components.setdefault(name, {"count": 0, "cycles": 0})
            row["count"] += d_count
            row["cycles"] += d_cycles
            if category is not None:
                attributed[category] = attributed.get(category, 0) + d_cycles
        for category, total in categories.items():
            residual = int(total) - attributed.get(category, 0)
            if residual == 0:
                continue
            name = CATEGORY_RESIDUAL.get(category, f"{category}.other")
            row = components.setdefault(name, {"count": 0, "cycles": 0})
            row["cycles"] += residual
        attributed_total = sum(row["cycles"] for row in components.values())
        entry = {
            "workload": workload,
            "stack": stack,
            "total_cycles": int(total_cycles),
            "attributed_cycles": attributed_total,
            "unattributed_cycles": int(total_cycles) - attributed_total,
            "categories": {k: int(v) for k, v in sorted(categories.items())},
            "components": {k: components[k] for k in sorted(components)},
        }
        if overlays:
            entry["overlays"] = {k: overlays[k] for k in sorted(overlays)}
        if phases:
            entry["phases"] = {k: int(v) for k, v in sorted(phases.items())}
        self.runs.append(entry)
        return entry

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (metrics sidecar / CI artifact payload)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "runs": [dict(run) for run in self.runs],
            "histograms": {
                name: self.hists[name].to_dict()
                for name in sorted(self.hists)
            },
        }

    def clear(self) -> None:
        self.cells = {}
        self.hists = {}
        self.runs = []


# -- rendering ----------------------------------------------------------------


def _bar(fraction: float, width: int = 30) -> str:
    filled = int(round(max(0.0, min(1.0, fraction)) * width))
    return "#" * filled + "." * (width - filled)


def render_profile(payload: Mapping[str, Any]) -> str:
    """Fig. 9-style ASCII cycle breakdown, one block per recorded run.

    Components are grouped under their cycle category; each line shows
    cycles, share of the run total, occurrence count, and a bar scaled to
    the largest component in the run.
    """
    lines: List[str] = []
    runs = payload.get("runs", [])
    if not runs:
        return "(no profiled runs)"
    by_category: Dict[str, str] = dict(COMPONENT_CATEGORY)
    for category, name in CATEGORY_RESIDUAL.items():
        by_category.setdefault(name, category)
    for run in runs:
        total = run.get("total_cycles") or 0
        lines.append(
            f"{run.get('workload', '?')} [{run.get('stack', '?')}]  "
            f"total {total:,} cycles"
        )
        components = run.get("components", {})
        peak = max(
            (abs(row.get("cycles", 0)) for row in components.values()),
            default=1,
        ) or 1
        grouped: Dict[str, List[str]] = {}
        for name in components:
            grouped.setdefault(by_category.get(name, "?"), []).append(name)
        for category in sorted(grouped):
            cat_total = run.get("categories", {}).get(category)
            suffix = f"  {cat_total:,} cycles" if cat_total is not None else ""
            lines.append(f"  {category}{suffix}")
            names = sorted(
                grouped[category],
                key=lambda n: -components[n].get("cycles", 0),
            )
            for name in names:
                row = components[name]
                cycles = row.get("cycles", 0)
                count = row.get("count", 0)
                pct = 100.0 * cycles / total if total else 0.0
                count_text = f" n={count:,}" if count else ""
                lines.append(
                    f"    {name:<26} {cycles:>14,}  {pct:5.1f}%  "
                    f"{_bar(cycles / peak)}{count_text}"
                )
        for name, row in sorted(run.get("overlays", {}).items()):
            lines.append(
                f"  ~ {name:<26} {row.get('cycles', 0):>12,} cycles  "
                f"n={row.get('count', 0):,}  (overlay, cross-category)"
            )
        unattr = run.get("unattributed_cycles", 0)
        if unattr:
            lines.append(f"  ! unattributed {unattr:,} cycles")
        lines.append("")
    return "\n".join(lines).rstrip("\n")


def render_top_consumers(
    payload: Mapping[str, Any], top: int = 10
) -> str:
    """Inverted view: components aggregated across runs, biggest first."""
    totals: Dict[str, Dict[str, int]] = {}
    grand = 0
    for run in payload.get("runs", []):
        grand += run.get("total_cycles") or 0
        for name, row in run.get("components", {}).items():
            agg = totals.setdefault(name, {"count": 0, "cycles": 0})
            agg["count"] += row.get("count", 0)
            agg["cycles"] += row.get("cycles", 0)
    if not totals:
        return "(no profiled runs)"
    ranked = sorted(totals.items(), key=lambda kv: -kv[1]["cycles"])[:top]
    peak = max(abs(row["cycles"]) for _, row in ranked) or 1
    lines = [f"top {len(ranked)} cycle consumers across "
             f"{len(payload.get('runs', []))} run(s)"]
    for name, row in ranked:
        pct = 100.0 * row["cycles"] / grand if grand else 0.0
        lines.append(
            f"  {name:<26} {row['cycles']:>16,}  {pct:5.1f}%  "
            f"{_bar(row['cycles'] / peak)}  n={row['count']:,}"
        )
    return "\n".join(lines)


def render_histograms(payload: Mapping[str, Any]) -> str:
    """Compact ASCII rendering of the per-op latency histograms."""
    hists = payload.get("histograms", {})
    if not hists:
        return "(no histograms)"
    lines: List[str] = []
    for name in sorted(hists):
        hist = Log2Histogram.from_dict(hists[name])
        mean = hist.total / hist.count if hist.count else 0.0
        lines.append(
            f"{name}  n={hist.count:,}  total={hist.total:,}  "
            f"mean={mean:.1f} cycles"
        )
        peak = max(hist.buckets) or 1
        bounds = hist.upper_bounds()
        for idx, filled in enumerate(hist.buckets):
            if not filled:
                continue
            lo = 0 if idx == 0 else 1 << (idx - 1)
            hi = "inf" if idx == hist.N_BUCKETS - 1 else str(bounds[idx])
            lines.append(
                f"  [{lo:>8} .. {hi:>8}]  {filled:>10,}  "
                f"{_bar(filled / peak, 20)}"
            )
    return "\n".join(lines)
