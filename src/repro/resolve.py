"""Unified runtime-option resolution: argument → environment → default.

``--jobs`` and the cache directory once each had their own resolution
path, with different error behaviours. This module is the single front
door: every entry point (CLI subcommands, ``repro serve``, the engine,
the benchmark conftest) resolves options here, and a bad value always
raises :class:`UsageError`, which ``repro``'s ``main`` reports as one
``repro: error: ...`` line with exit code 2. :func:`resolve_cache_dir`
is the only place the ``$REPRO_CACHE_DIR`` → ``.repro-cache`` fallback
is spelled.
"""

from __future__ import annotations

import os
from typing import Any, Optional

#: Worker-process count for engine fan-out (``--jobs``).
JOBS_ENV = "REPRO_JOBS"

#: Result-cache location (``--cache-dir``).
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: The result cache's location when neither ``--cache-dir`` nor
#: ``$REPRO_CACHE_DIR`` names one.
DEFAULT_CACHE_DIR = ".repro-cache"


class UsageError(ValueError):
    """A bad runtime option: reported as ``repro: error:`` with exit 2."""


def resolve_count(value: Any, what: str, default: int = 1) -> int:
    """Validate a positive worker/thread count.

    ``None`` means unspecified and resolves to ``default``. Raises
    :class:`UsageError` instead of letting a zero or negative count
    surface later as a ``ProcessPoolExecutor`` traceback.
    """
    if value is None:
        return default
    try:
        count = int(value)
    except (TypeError, ValueError):
        raise UsageError(f"{what} must be a positive integer, got {value!r}")
    if count != value and not isinstance(value, str):
        # int() would silently truncate (e.g. 1.5 -> 1).
        raise UsageError(f"{what} must be a positive integer, got {value!r}")
    if count < 1:
        raise UsageError(f"{what} must be a positive integer, got {value!r}")
    return count


def resolve_jobs(jobs: Any = None) -> int:
    """Worker-process count: argument → ``$REPRO_JOBS`` → 1."""
    if jobs is None:
        jobs = os.environ.get(JOBS_ENV) or None
    return resolve_count(jobs, "jobs")


def resolve_workers(workers: Any = None, default: int = 2) -> int:
    """Job-queue worker-thread count for ``repro serve``."""
    return resolve_count(workers, "workers", default=default)


def resolve_cache_dir(cache_dir: Optional[os.PathLike] = None) -> str:
    """Result-cache root: argument → ``$REPRO_CACHE_DIR`` → default."""
    if cache_dir is not None:
        return str(cache_dir)
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


def resolve_stack(value: Any) -> str:
    """Canonical stack name for a registered name or a Stack.

    The one stack resolver inside the program: anything else, the
    retired ``memento`` boolean included, raises :class:`UsageError`
    naming the registered choices, which the CLI and service report as
    ``repro: error:`` + exit 2 / HTTP 400.
    """
    from repro import stacks

    if isinstance(value, stacks.Stack):
        return value.name
    if isinstance(value, str) and value in stacks.stack_names():
        return value
    raise UsageError(
        f"unknown stack {value!r}; choose from "
        f"{', '.join(stacks.stack_names())}"
    )


def resolve_stack_list(
    value: Any, default: Optional[tuple] = None
) -> tuple:
    """Validated stack-name tuple from CLI-style input.

    Accepts ``None`` (→ ``default``, itself defaulting to every
    registered stack), a comma-separated string, or a sequence of
    names. The aliases ``all`` (every registered stack) and
    ``both`` (the paper's baseline/memento pair) expand in place.
    Duplicates collapse, order is preserved, and any unknown name
    raises :class:`UsageError`.
    """
    from repro import stacks

    if default is None:
        default = stacks.stack_names()
    if value is None:
        return tuple(default)
    if isinstance(value, str):
        value = [part.strip() for part in value.split(",") if part.strip()]
    names = []
    for item in value:
        if item == "all":
            expanded = stacks.stack_names()
        elif item == "both":
            expanded = ("baseline", "memento")
        else:
            expanded = (resolve_stack(item),)
        for name in expanded:
            if name not in names:
                names.append(name)
    if not names:
        raise UsageError("no stacks selected")
    return tuple(names)
