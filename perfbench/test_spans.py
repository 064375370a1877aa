"""Span accounting pinned on a toy nesting with a scripted clock.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

from layers import OTHER, Spans


def test_self_times_partition_the_root_span():
    # root [0,12] holds a [1,5] > b [2,3], then c [6,11] > a [7,10] > b [8,9]
    ticks = iter([0, 1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12])
    spans = Spans(clock=lambda: next(ticks))
    A, B, C = 1, 2, 3
    b = spans._wrap(lambda: None, B, "b")
    a = spans._wrap(lambda: b() or True, A, "a")
    c = spans._wrap(lambda: a(), C, "c")

    spans.enter(spans.layers.index(OTHER))
    a()
    c()
    spans.exit()

    assert spans.self_s[:4] == [3, 5, 2, 2]  # other, a, b, c
    assert sum(spans.self_s) == spans.root_s == 12
    assert spans.spans_per_layer[:4] == [1, 2, 2, 1]
    # calls and empty (None/False) results per entry point
    assert spans.entries == {"b": [2, 2], "a": [2, 0], "c": [1, 0]}
    # each span names its parent; the root closes last
    by_id = {sid: (parent, layer) for sid, parent, layer, _, _ in spans.log}
    assert by_id == {
        0: (-1, 0),
        1: (0, A),
        2: (1, B),
        3: (0, C),
        4: (3, A),
        5: (4, B),
    }


def test_span_log_is_bounded_but_totals_are_not():
    clock = iter(range(100))
    spans = Spans(clock=lambda: next(clock), keep=2)
    leaf = spans._wrap(lambda: None, 1, "leaf")
    spans.enter(0)
    for _ in range(3):
        leaf()
    spans.exit()
    assert [layer for _, _, layer, _, _ in spans.log] == [1, 1, 0]
    assert spans.dropped == 1
    assert spans.spans_per_layer[:2] == [1, 3]
    assert sum(spans.self_s) == spans.root_s
