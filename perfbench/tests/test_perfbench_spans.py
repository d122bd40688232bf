import math

import pytest

from benchlib.layers import layer_metrics, layer_of
from benchlib.spans import Span, SpanRecorder, covered, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def toy_spans():
    """root [0, 10] with children a [1, 4] and b [5, 9]; a has child c [2, 3]."""
    return [
        Span(0, None, 0, "cli.main", 0.0, 10.0),
        Span(1, 0, 0, "oracle.summarize_ideal", 1.0, 4.0),
        Span(2, 1, 0, "linalg.kernel", 2.0, 3.0, {"cells": 12}),
        Span(3, 0, 0, "linalg.pfaffian", 5.0, 9.0, {"order": 6}),
    ]


def test_self_time_subtracts_direct_children_only():
    own = self_times(toy_spans())
    assert own == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_self_times_add_up_to_the_root_duration():
    assert math.isclose(sum(self_times(toy_spans()).values()), 10.0)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0, 10, []) == 0
    assert covered(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered(2, 6, [(0, 3), (5, 9)]) == 2
    assert covered(0, 10, [(11, 12)]) == 0


def test_recorder_nests_spans_and_groups_them_by_trace():
    clock = FakeClock()
    rec = SpanRecorder(clock)

    def inner():
        clock.now += 1.0

    def outer():
        clock.now += 0.5
        traced_inner()
        clock.now += 0.5

    traced_inner = rec.wrap("linalg.rank", inner, lambda: {"cells": 4})
    traced_outer = rec.wrap("cli.main", outer)
    traced_outer()
    traced_outer()
    names = [(s.name, s.parent, s.trace) for s in rec.spans]
    assert names == [("cli.main", None, 0), ("linalg.rank", 0, 0),
                     ("cli.main", None, 1), ("linalg.rank", 2, 1)]
    assert rec.spans[1].attrs == {"cells": 4}
    assert self_times(rec.spans) == {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0}


def test_recorder_closes_a_span_when_the_call_raises():
    rec = SpanRecorder(FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("oracle.wlp_test", boom)()
    assert not math.isnan(rec.spans[0].end)
    rec.wrap("cli.main", lambda: None)()
    assert rec.spans[1].parent is None


def test_layers_are_named_after_modules():
    assert layer_of("linalg.rank") == "linalg.elim"
    assert layer_of("linalg.signed_maximal_pfaffians") == "linalg.pfaffian"
    assert layer_of("resolution.explicit_generators") == "resolution"
    assert layer_of("cli.main") == "cli"


def test_layer_metrics_of_toy_spans():
    m = layer_metrics(toy_spans())
    assert m["cli.self_s"] == 3.0
    assert m["oracle.self_s"] == 2.0
    assert m["linalg.elim.self_s"] == 1.0
    assert m["linalg.elim.calls"] == 1 and m["linalg.elim.cells"] == 12
    assert m["linalg.pfaffian.self_s"] == 4.0
    assert m["linalg.pfaffian.max_order"] == 6
    assert m["resolution.self_s"] == 0 and m["oracle.annihilator_degree.calls"] == 0
