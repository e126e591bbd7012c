"""Pluggable memory-management stacks (see :mod:`repro.stacks.base`).

Importing the package registers the four built-in stacks: ``baseline``,
``memento``, ``snapshot`` (REAP-style record/replay), and ``reclaim``
(Squeezy-style page release).
"""

from repro.stacks.base import (
    ReplayFacts,
    Stack,
    get_stack,
    register,
    stack_names,
)
from repro.stacks.builtin import (
    BUILTIN_STACKS,
    BaselineStack,
    MementoStack,
    ReclaimStack,
    SnapshotStack,
)

__all__ = [
    "ReplayFacts",
    "Stack",
    "get_stack",
    "register",
    "stack_names",
    "BUILTIN_STACKS",
    "BaselineStack",
    "MementoStack",
    "SnapshotStack",
    "ReclaimStack",
]
