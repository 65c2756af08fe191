"""Typed validation errors at the trace/stream boundary.

Every malformed input raises a structured exception from
``repro.core.validation`` carrying the offending values; all of them
subclass :class:`ValueError`, so pre-existing ``pytest.raises(ValueError)``
call sites keep working.
"""

import math

import pytest

from repro import (
    DuplicateItemIdError,
    FirstFit,
    InvalidIntervalError,
    InvalidItemSizeError,
    Item,
    OversizedItemError,
    Simulator,
    TraceValidationError,
    make_items,
    simulate,
    validate_items,
)
from repro.cloud import FaultInjector, simulate_faulty_stream
from repro.core.events import EventOrderError
from repro.core.resources import Resources
from repro.core.streaming import simulate_stream
from repro.core.validation import ResourceDimensionError


class TestItemConstruction:
    def test_negative_size(self):
        with pytest.raises(InvalidItemSizeError) as exc:
            Item(arrival=0, departure=1, size=-0.5, item_id="x")
        assert exc.value.size == -0.5
        assert exc.value.item_id == "x"

    def test_zero_size(self):
        with pytest.raises(InvalidItemSizeError):
            Item(arrival=0, departure=1, size=0, item_id="x")

    def test_departure_not_after_arrival(self):
        with pytest.raises(InvalidIntervalError) as exc:
            Item(arrival=5, departure=5, size=0.5, item_id="x")
        assert exc.value.arrival == 5
        assert exc.value.departure == 5

    def test_departure_before_arrival(self):
        with pytest.raises(InvalidIntervalError):
            Item(arrival=5, departure=2, size=0.5, item_id="x")

    def test_nan_rejected(self):
        with pytest.raises(TraceValidationError):
            Item(arrival=math.nan, departure=1, size=0.5, item_id="x")
        with pytest.raises(TraceValidationError):
            Item(arrival=0, departure=1, size=math.nan, item_id="x")


class TestTraceValidation:
    def test_duplicate_ids(self):
        items = [
            Item(arrival=0, departure=1, size=0.5, item_id="dup"),
            Item(arrival=2, departure=3, size=0.5, item_id="dup"),
        ]
        with pytest.raises(DuplicateItemIdError) as exc:
            validate_items(items, capacity=1)
        assert exc.value.item_id == "dup"

    def test_oversized_item(self):
        items = [Item(arrival=0, departure=1, size=1.5, item_id="big")]
        with pytest.raises(OversizedItemError) as exc:
            validate_items(items, capacity=1)
        assert exc.value.size == 1.5
        assert exc.value.capacity == 1
        assert exc.value.item_id == "big"


#: Every driver boundary, fed the same items: ``run(items, capacity)``.
DRIVERS = {
    "simulate(list)": lambda items, cap: simulate(list(items), FirstFit(), capacity=cap),
    "simulate(iter)": lambda items, cap: simulate(iter(items), FirstFit(), capacity=cap),
    "simulate_stream": lambda items, cap: simulate_stream(iter(items), FirstFit(), capacity=cap),
    "simulate_faulty_stream": lambda items, cap: simulate_faulty_stream(
        iter(items), FirstFit(), injector=FaultInjector(), capacity=cap
    ),
}


class TestStreamBoundary:
    @pytest.mark.parametrize("driver", DRIVERS)
    def test_oversized_item_in_stream(self, driver):
        items = [Item(arrival=0, departure=1, size=2.0, item_id="big")]
        with pytest.raises(OversizedItemError) as exc:
            DRIVERS[driver](items, 1)
        assert exc.value.item_id == "big"

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_decreasing_arrivals_in_stream(self, driver):
        items = [
            Item(arrival=5, departure=6, size=0.5, item_id="a"),
            Item(arrival=1, departure=2, size=0.5, item_id="b"),
        ]
        if driver == "simulate(list)":
            # A list is sorted by arrival before it is replayed.
            result = DRIVERS[driver](items, 1)
            assert [it.item_id for it in result.items] == ["b", "a"]
            return
        with pytest.raises(EventOrderError) as exc:
            DRIVERS[driver](items, 1)
        assert exc.value.item_id == "b"

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_scalar_size_against_vector_capacity(self, driver):
        items = [Item(arrival=0, departure=1, size=0.5, item_id="s")]
        with pytest.raises(ResourceDimensionError) as exc:
            DRIVERS[driver](items, Resources(1.0, 1.0))
        assert (exc.value.expected, exc.value.got, exc.value.item_id) == (2, None, "s")

    @pytest.mark.parametrize("driver", DRIVERS)
    def test_size_dimensions_differ_from_capacity(self, driver):
        items = [Item(arrival=0, departure=1, size=Resources(0.1, 0.1, 0.1), item_id="v")]
        with pytest.raises(ResourceDimensionError) as exc:
            DRIVERS[driver](items, Resources(1.0, 1.0))
        assert (exc.value.expected, exc.value.got, exc.value.item_id) == (2, 3, "v")

    def test_simulator_arrive_bad_size(self):
        sim = Simulator(FirstFit())
        with pytest.raises(InvalidItemSizeError):
            sim.arrive(0.0, -1.0, item_id="neg")


class TestHierarchy:
    """The typed errors stay catchable as plain ValueError."""

    @pytest.mark.parametrize(
        "exc_cls",
        [
            TraceValidationError,
            InvalidItemSizeError,
            InvalidIntervalError,
            OversizedItemError,
            DuplicateItemIdError,
            EventOrderError,
        ],
    )
    def test_subclasses_value_error(self, exc_cls):
        assert issubclass(exc_cls, ValueError)
        assert issubclass(exc_cls, TraceValidationError)

    def test_legacy_catch_still_works(self):
        with pytest.raises(ValueError, match="positive"):
            Item(arrival=0, departure=1, size=0, item_id="x")
        with pytest.raises(ValueError, match="strictly after"):
            Item(arrival=1, departure=1, size=0.5, item_id="x")

    def test_simulate_rejects_oversized_with_typed_error(self):
        items = make_items([(0, 1, 0.5)]) + [
            Item(arrival=0, departure=2, size=3.0, item_id="big")
        ]
        with pytest.raises(OversizedItemError):
            simulate(items, FirstFit(), capacity=1)


class TestEmptySweepError:
    """The empty-sweep error is typed, attributed, and raised consistently."""

    def test_is_a_value_error_with_context(self):
        from repro.core.validation import EmptySweepError

        err = EmptySweepError("experiment batch")
        assert isinstance(err, ValueError)
        assert err.what == "experiment batch"
        assert "empty experiment batch" in str(err)

    def test_registry_rejects_empty_batch_on_both_paths(self):
        from repro.core.validation import EmptySweepError
        from repro.experiments import run_experiments

        with pytest.raises(EmptySweepError):
            run_experiments([])
        with pytest.raises(EmptySweepError):
            run_experiments([], parallel=4)
