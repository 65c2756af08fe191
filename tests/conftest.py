"""Shared fixtures and hypothesis strategies for the test suite.

Two trace strategies are provided:

* ``exact_traces`` — Fraction-valued times/sizes on a coarse grid, so every
  invariant can be asserted with ``==`` (no tolerances);
* ``float_traces`` — float-valued, broader, for robustness properties
  (asserted with tolerances).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from repro import Item


# ---------------------------------------------------------------------------
# Builders


def build_items(triples, *, prefix="h"):
    return [
        Item(arrival=a, departure=d, size=s, item_id=f"{prefix}{i}")
        for i, (a, d, s) in enumerate(triples)
    ]


def mixed_float_trace():
    """About 4,000 float items over 500 time units: sessions of 1-12, sizes 0.05-0.6."""
    from repro.workloads import Clipped, Exponential, Uniform, generate_trace

    return generate_trace(
        arrival_rate=8.0,
        horizon=500.0,
        duration=Clipped(Exponential(4.0), 1.0, 12.0),
        size=Uniform(0.05, 0.6),
        seed=0,
    )


def scaling_trace(n_items: int):
    """About ``n_items`` float items over 1000 time units: sessions of 1-15, sizes 0.05-0.5."""
    from repro.workloads import Clipped, Exponential, Uniform, generate_trace

    return generate_trace(
        arrival_rate=n_items / 1000.0,
        horizon=1000.0,
        duration=Clipped(Exponential(5.0), 1.0, 15.0),
        size=Uniform(0.05, 0.5),
        seed=0,
    )


# ---------------------------------------------------------------------------
# Hypothesis strategies


@st.composite
def exact_items(draw, max_items: int = 25, max_time: int = 40, size_den: int = 8):
    """Items with Fraction grid values: arrivals in [0, max_time], durations
    in [1/2, max_time], sizes in {1/size_den .. size_den/size_den}."""
    n = draw(st.integers(min_value=1, max_value=max_items))
    items = []
    for i in range(n):
        a = Fraction(draw(st.integers(min_value=0, max_value=2 * max_time)), 2)
        dur = Fraction(draw(st.integers(min_value=1, max_value=2 * max_time)), 2)
        s = Fraction(draw(st.integers(min_value=1, max_value=size_den)), size_den)
        items.append(Item(arrival=a, departure=a + dur, size=s, item_id=f"x{i}"))
    return items


@st.composite
def float_items(draw, max_items: int = 30):
    """Float items: arbitrary-ish arrivals/durations, sizes in (0, 1]."""
    n = draw(st.integers(min_value=1, max_value=max_items))
    items = []
    for i in range(n):
        a = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
        dur = draw(st.floats(min_value=0.25, max_value=50.0, allow_nan=False))
        s = draw(st.floats(min_value=0.01, max_value=1.0, allow_nan=False))
        items.append(Item(arrival=a, departure=a + dur, size=s, item_id=f"f{i}"))
    return items


@st.composite
def small_exact_items(draw, size_cap_den: int = 4, size_den: int = 16, max_items: int = 20):
    """Exact items with every size < 1/size_cap_den (Theorem 4's premise)."""
    n = draw(st.integers(min_value=1, max_value=max_items))
    items = []
    for i in range(n):
        a = Fraction(draw(st.integers(min_value=0, max_value=60)), 2)
        dur = Fraction(draw(st.integers(min_value=1, max_value=40)), 2)
        max_num = size_den // size_cap_den - 1
        s = Fraction(draw(st.integers(min_value=1, max_value=max(1, max_num))), size_den)
        items.append(Item(arrival=a, departure=a + dur, size=s, item_id=f"s{i}"))
    return items


# ---------------------------------------------------------------------------
# Fixtures


@pytest.fixture
def tiny_trace():
    """Three items that First Fit packs into two bins."""
    return build_items([(0, 10, Fraction(1, 2)), (0, 2, Fraction(1, 2)), (1, 3, Fraction(1, 2))])


@pytest.fixture
def gaming_trace():
    from repro.workloads import generate_gaming_trace

    return generate_gaming_trace(seed=11, horizon=6 * 60.0)


@pytest.fixture(scope="session")
def gaming_trace_day():
    """A full 24 h day of the synthetic cloud-gaming workload (seed 0)."""
    from repro.workloads import generate_gaming_trace

    return generate_gaming_trace(seed=0, horizon=24 * 60.0)
