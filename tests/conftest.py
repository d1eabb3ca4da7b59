"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
from unittest import mock

import numpy as np
import pytest

from repro.dd.edge import Edge
from repro.dd.node import DDNode
from repro.states.statevector import StateVector


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed random generator for deterministic tests."""
    return np.random.default_rng(12345)


@contextlib.contextmanager
def no_nodes():
    """Make ``DDNode`` and ``Edge`` construction raise inside the block."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"made a {type(self).__name__}")

    with mock.patch.object(DDNode, "__init__", refuse), mock.patch.object(
        Edge, "__init__", refuse
    ):
        yield


def random_statevector(
    dims: tuple[int, ...], seed: int = 0
) -> StateVector:
    """A normalised complex-Gaussian random state for tests."""
    generator = np.random.default_rng(seed)
    size = int(np.prod(dims))
    amplitudes = generator.normal(size=size) + 1j * generator.normal(
        size=size
    )
    return StateVector(amplitudes / np.linalg.norm(amplitudes), dims)


#: Small mixed-dimensional registers exercised across many test files.
SMALL_MIXED_DIMS: list[tuple[int, ...]] = [
    (2,),
    (3,),
    (5,),
    (2, 2),
    (3, 2),
    (2, 3),
    (3, 3),
    (4, 2),
    (2, 3, 2),
    (3, 2, 4),
    (3, 6, 2),
    (2, 2, 2, 2),
    (4, 3, 2),
]
