"""Tests for the Trace container and its (de)serialisation."""

import pytest

from repro import Item
from repro.core.resources import Resources
from repro.core.validation import InvalidItemTypeError
from repro.workloads import Trace


def mk_trace():
    return Trace.from_items(
        [
            Item(arrival=0.0, departure=5.0, size=0.5, item_id="a", tag="skyrim"),
            Item(arrival=2.0, departure=4.0, size=0.25, item_id="b"),
            Item(arrival=10.0, departure=12.0, size=0.75, item_id="c"),
        ],
        name="demo",
    )


class TestBasics:
    def test_len_iter_index(self):
        tr = mk_trace()
        assert len(tr) == 3
        assert [it.item_id for it in tr] == ["a", "b", "c"]
        assert tr[1].item_id == "b"

    def test_stats_cached(self):
        tr = mk_trace()
        assert tr.stats is tr.stats
        assert tr.mu == 2.5
        assert tr.stats.span == 7.0

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Trace.from_items(
                [
                    Item(arrival=0, departure=1, size=0.5, item_id="x"),
                    Item(arrival=1, departure=2, size=0.5, item_id="x"),
                ]
            )

    def test_sorted_by_arrival(self):
        tr = Trace.from_items(
            [
                Item(arrival=5, departure=6, size=0.5, item_id="later"),
                Item(arrival=0, departure=1, size=0.5, item_id="early"),
            ]
        )
        assert [it.item_id for it in tr.sorted_by_arrival()] == ["early", "later"]

    def test_window(self):
        tr = mk_trace()
        w = tr.window(0, 6)
        assert [it.item_id for it in w] == ["a", "b"]
        with pytest.raises(ValueError):
            tr.window(3, 3)

    def test_merged_with(self):
        a = mk_trace()
        b = Trace.from_items([Item(arrival=0, departure=1, size=0.1, item_id="z")], name="o")
        merged = a.merged_with(b)
        assert len(merged) == 4


class TestSerialisation:
    def test_json_roundtrip(self):
        tr = mk_trace()
        back = Trace.from_json(tr.to_json())
        assert back.name == "demo"
        assert [(it.item_id, it.arrival, it.departure, it.size, it.tag) for it in back] == [
            (it.item_id, it.arrival, it.departure, it.size, it.tag) for it in tr
        ]

    def test_csv_roundtrip(self):
        tr = mk_trace()
        back = Trace.from_csv(tr.to_csv(), name="demo")
        assert [(it.item_id, it.arrival, it.size) for it in back] == [
            (it.item_id, it.arrival, it.size) for it in tr
        ]
        assert back[0].tag == "skyrim"
        assert back[1].tag is None

    @pytest.mark.parametrize("writer", ["to_json", "to_csv"])
    def test_vector_sizes_raise_a_typed_error_naming_the_item(self, writer):
        # Trace files store scalar sizes; a 2-D trace is refused before any
        # text is built, not with a bare TypeError from float().
        tr = Trace.from_items(
            [
                Item(arrival=0, departure=2, size=Resources(0.5, 0.25), item_id="v0"),
                Item(arrival=1, departure=3, size=Resources(0.1, 0.2), item_id="v1"),
            ]
        )
        with pytest.raises(InvalidItemTypeError, match=r"trace file \(item 'v0'\)") as err:
            getattr(tr, writer)()
        assert err.value.item_id == "v0"
        assert err.value.field == "size"

    def test_csv_header_required(self):
        with pytest.raises(ValueError, match="header"):
            Trace.from_csv("a,0,1,0.5,")

    def test_simulation_accepts_trace_items(self):
        from repro import FirstFit, simulate

        result = simulate(mk_trace().items, FirstFit())
        assert result.num_bins_used >= 1
