"""The tracer's arithmetic and its patching of the program."""

import pytest

from perfbench.tracer import Patcher, Tracer, covered_time, self_times, span_wrapper


def test_self_time_of_nested_synthetic_spans():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]), b [3, 6]
    # overlapping a, and c [8, 12] running past the root's end.
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    root, a, g, b, c = self_times(starts, ends, parents)
    # Children cover [1, 6] and [8, 10] of the root: 7 of its 10 s.
    assert root == pytest.approx(3.0)
    assert a == pytest.approx(2.0)
    assert g == pytest.approx(1.0)
    assert b == pytest.approx(3.0)
    assert c == pytest.approx(4.0)


def test_self_times_of_a_stack_sum_to_the_root():
    starts = [0.0, 0.5, 0.6, 2.0]
    ends = [5.0, 1.5, 1.0, 3.0]
    parents = [-1, 0, 1, 0]
    assert sum(self_times(starts, ends, parents)) == pytest.approx(5.0)


def test_covered_time_counts_chosen_spans_inside_the_window():
    starts = [0.0, 1.0, 4.0, 6.0, 7.0]
    ends = [10.0, 2.0, 5.0, 20.0, 8.0]
    counted = [False, True, True, True, True]
    # [1, 2], [4, 5] and [6, 20] (which holds [7, 8]) clipped to the
    # window [1, 10]; the uncounted [0, 10] adds nothing.
    assert covered_time(starts, ends, counted, (1.0, 10.0)) == pytest.approx(6.0)


def test_wrapped_calls_nest_and_cancel():
    tracer = Tracer()

    def inner():
        return 1

    wrapped_inner = span_wrapper(tracer, "inner")(inner)

    def outer():
        return wrapped_inner() + wrapped_inner()

    assert span_wrapper(tracer, "outer")(outer)() == 2
    names = [name for name, _, _, _ in tracer.spans()]
    assert names == ["outer", "inner", "inner"]
    assert [parent for _, _, _, parent in tracer.spans()] == [-1, 0, 0]
    tracer.cancel(1)
    assert [name for name, _, _, _ in tracer.spans()] == ["outer"]
    tracer.clear()
    assert tracer.spans() == [] and tracer.names == ["inner", "outer"]


def test_patcher_reaches_every_importer_and_restores():
    import repro.experiments.tables as tables
    import repro.quorum.optimizer as optimizer

    original = optimizer.optimal_read_quorum
    tracer = Tracer()
    with Patcher() as patcher:
        patcher.function("repro.quorum.optimizer", "optimal_read_quorum",
                         span_wrapper(tracer, "quorum.optimize"))
        assert optimizer.optimal_read_quorum is not original
        assert tables.optimal_read_quorum is optimizer.optimal_read_quorum
    assert optimizer.optimal_read_quorum is original
    assert tables.optimal_read_quorum is original
