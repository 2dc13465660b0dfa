"""Tests of the benchmark's span recorder and self-time computation.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import numpy as np
import pytest

from spans import Recorder, self_times


def test_self_times_on_synthetic_tree():
    # 0 root [0, 10]
    # +- 1 [1, 4]
    # |  +- 3 [2, 3]
    # +- 2 [3, 6]     overlaps span 1 on [3, 4]
    # +- 4 [9, 12]    runs past the root's end
    # 5 second root [20, 21]
    parents = [-1, 0, 0, 1, 0, -1]
    starts = [0.0, 1.0, 3.0, 2.0, 9.0, 20.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0, 21.0]
    got = self_times(parents, starts, ends)
    # root: children cover [1, 6] and [9, 10] -> 6 of 10
    np.testing.assert_allclose(got, [4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_self_times_without_children_is_duration():
    got = self_times([-1, -1], [0.0, 5.0], [2.0, 5.5])
    np.testing.assert_allclose(got, [2.0, 0.5])


def test_self_times_ignores_empty_and_outside_children():
    parents = [-1, 0, 0]
    starts = [0.0, 2.0, 20.0]
    ends = [10.0, 2.0, 30.0]
    np.testing.assert_allclose(self_times(parents, starts, ends), [10.0, 0.0, 10.0])


def test_recorder_nests_spans_and_counts_errors():
    rec = Recorder(spans=True)

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x

    leaf_w = rec.wrap("leaf", leaf)

    def outer(x):
        return leaf_w(x) + leaf_w(x)

    outer_w = rec.wrap("outer", outer)
    assert outer_w(2) == 4
    with pytest.raises(ValueError):
        outer_w(-1)
    rec.enabled = False
    assert outer_w(3) == 6
    names, parents, starts, ends = rec.span_arrays()
    assert [rec.names[i] for i in names] == ["outer", "leaf", "leaf", "outer", "leaf"]
    assert parents.tolist() == [-1, 0, 0, -1, 3]
    assert np.all(ends >= starts)
    assert rec.count("outer") == 2 and rec.count("leaf") == 3
    assert rec.error_count("leaf") == 1 and rec.error_count("outer") == 1
    assert np.all(self_times(parents, starts, ends) >= 0.0)


def test_untraced_recorder_counts_and_times_without_spans():
    rec = Recorder(spans=False, timed=("slow",))
    fast = rec.wrap("fast", lambda: 1)
    slow = rec.wrap("slow", lambda: 2)
    assert fast() + slow() + slow() == 5
    assert rec.count("fast") == 1 and rec.count("slow") == 2
    assert len(rec.durations["slow"]) == 2 and "fast" not in rec.durations
    assert len(rec.span_start) == 0
