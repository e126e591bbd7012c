"""Shared fixtures for allocator tests."""

import pytest

from repro.kernel.kernel import Kernel
from repro.sim.machine import Machine


def _new_system():
    machine = Machine()
    kernel = Kernel(machine)
    process = kernel.create_process()
    return machine, kernel, process


@pytest.fixture
def system():
    return _new_system()


@pytest.fixture
def other_system():
    """A second, independent system for A/B comparisons in one test."""
    return _new_system()
