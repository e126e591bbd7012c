"""The memory-management stack contract and registry.

A *stack* is one answer to the serverless ephemeral-memory problem: who
backs the function's heap, what a warm invocation pays to get its pages
back, and how much memory an idle instance strands between invocations.
Before this package a stack was a boolean (``memento: bool``) threaded
through the harness; the registry makes it a first-class object, named
everywhere inside the program by its registry name, so rival
designs from the related work — REAP-style snapshot/restore, Squeezy-style
reclamation — can race the paper's two stacks in the same harness.

The contract (:class:`Stack`) has three parts:

* **identity** — ``name``, a one-line ``description``, and ``hardware``
  (does the stack run Memento's hardware allocators and routing runtime,
  or a software allocator?).
* **knob declaration** — ``knobs``, the set of :class:`SimulatedSystem`
  configuration knobs the stack supports (``mmap_populate``,
  ``allocator``). Every stack must declare its set explicitly
  (:func:`register` asserts it), so an unsupported knob fails loudly
  naming the offending stack instead of silently inheriting another
  stack's semantics.
* **behavior** — three pure methods: ``allocator_warm`` decides whether
  heap pages arrive pre-backed, ``charges`` prices an invocation from
  two counts its replay recorded (:class:`ReplayFacts`), and
  ``resident_bytes`` is the idle residency the fleet pool strands.

A stack cannot touch a replay except through ``allocator_warm``: the
replay of a software stack is a function of that one boolean and the
request's other fields, and every result is that replay priced with
the stack's ``charges`` by :meth:`RunResult.with_charges`, in
:meth:`SimulatedSystem.run` and in the engine alike. So software stacks
that agree on the warm-heap setting share one replay, which the engine
prices once per stack. The baseline and memento entries charge nothing,
so their results are bit-identical to the pre-registry harness.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.cycles import CostModel
    from repro.workloads.synth import WorkloadSpec


class ReplayFacts(NamedTuple):
    """The two counts a replay records for :meth:`Stack.charges`."""

    #: Heap pages backed pre-faulted because the allocator started warm
    #: (the ``kernel.warm_prefaulted_pages`` stat).
    warm_pages: int
    #: Live user pages at function exit, sampled before teardown (0 when
    #: the trace is not a ``function`` trace, which has no exit).
    exit_user_pages: int


class Stack:
    """One registered memory-management stack.

    Subclasses override the methods below; the base implementations are
    the baseline software path (no charges, ``spec.warm_heap``
    semantics), so a stack only states where it differs.
    """

    #: Registry name (also the wire/CLI spelling).
    name: str = ""
    #: One-line description for ``--help`` and reports.
    description: str = ""
    #: True when the stack runs Memento's hardware allocators and the
    #: routing runtime; False for software-allocator stacks.
    hardware: bool = False
    #: SimulatedSystem knobs this stack supports. Must be declared
    #: explicitly (asserted at registration): an undeclared knob raises
    #: naming the stack instead of inheriting another stack's behavior.
    knobs: frozenset = frozenset()
    #: Fraction of a warm instance's peak footprint that stays resident
    #: while the instance idles in the fleet pool — the stranding model.
    #: 1.0 keeps everything (baseline/memento keep-alive); stacks that
    #: snapshot to disk or release pages to the host pool keep less.
    resident_fraction: float = 1.0
    #: Legacy wire/cache spelling: the value of the pre-registry
    #: ``memento`` boolean this stack corresponds to, or ``None`` for
    #: stacks that postdate the boolean (their requests carry an
    #: explicit ``stack`` field in wire payloads and content keys).
    legacy_memento: Optional[bool] = None

    # -- behavior --------------------------------------------------------

    def allocator_warm(
        self, spec: "WorkloadSpec", cold_start: bool
    ) -> bool:
        """Whether heap mmaps arrive pre-backed (no demand faults).

        The baseline semantics: a warm container retains its heap when
        the workload says so (``spec.warm_heap``).
        """
        return spec.warm_heap

    def charges(
        self, cold_start: bool, facts: ReplayFacts, costs: "CostModel"
    ) -> Dict[str, int]:
        """Cycles per category this stack adds to a finished replay.

        Pure: the same arguments give the same charges, and nothing else
        about the replay is visible here. The default charges nothing.
        """
        return {}

    def resident_bytes(self, peak_bytes: float) -> float:
        """Idle residency an instance of this stack strands in the pool."""
        return float(peak_bytes) * self.resident_fraction


_REGISTRY: Dict[str, Stack] = {}


def register(stack: Stack) -> Stack:
    """Add a stack to the registry, asserting the contract is complete."""
    if not stack.name or not isinstance(stack.name, str):
        raise ValueError("stack must declare a non-empty name")
    if not isinstance(stack.knobs, frozenset):
        raise ValueError(
            f"stack {stack.name!r} must declare its supported knobs as a "
            f"frozenset (got {type(stack.knobs).__name__})"
        )
    if not isinstance(stack.hardware, bool):
        raise ValueError(f"stack {stack.name!r} must declare hardware")
    if not 0.0 <= stack.resident_fraction <= 1.0:
        raise ValueError(
            f"stack {stack.name!r} resident_fraction must be in [0, 1]"
        )
    if stack.name in _REGISTRY:
        raise ValueError(f"stack {stack.name!r} already registered")
    _REGISTRY[stack.name] = stack
    return stack


def get_stack(name: str) -> Stack:
    """Look up a registered stack; raises ``ValueError`` when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown stack {name!r}; choose from {', '.join(_REGISTRY)}"
        ) from None


def stack_names() -> Tuple[str, ...]:
    """All registered stack names, in registration order."""
    return tuple(_REGISTRY)

