"""Tests of the benchmark's own helpers (fast, no wall-clock asserts).

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import itertools
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import spec  # noqa: E402
from stats import percentile, samples_beyond, supported, tail  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


@pytest.mark.parametrize("n, q, ok", [
    (20, 0.5, True), (19, 0.5, False),
    (100, 0.9, True), (99, 0.9, False),
    (1000, 0.99, True), (999, 0.99, False),
])
def test_percentile_needs_ten_samples_beyond(n, q, ok):
    assert supported(n, q) is ok
    assert (tail(list(range(n)), q) is not None) is ok


def test_samples_beyond_counts_values_above_the_rank():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(10, 0.0) == 10
    with pytest.raises(ValueError):
        samples_beyond(10, 1.5)


def test_percentile_interpolates():
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert percentile([7.0], 0.9) == 7.0
    assert percentile([0.0, 10.0], 0.9) == 9.0


def _span(name, start, end, parent=None):
    span = Span(name, "x", start, parent, 0)
    span.end = end
    return span


def test_self_time_subtracts_nested_children():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    leaf = _span("leaf", 2.0, 3.0, a)
    b = _span("b", 5.0, 7.0, root)
    own = self_times([root, a, leaf, b])
    assert own[root] == 5.0
    assert own[a] == 2.0
    assert own[leaf] == 1.0
    assert own[b] == 2.0
    assert sum(own.values()) == root.duration


def test_self_time_counts_overlapping_children_once():
    root = _span("root", 0.0, 10.0)
    first = _span("a", 2.0, 6.0, root)
    second = _span("b", 4.0, 8.0, root)
    clipped = _span("c", 9.0, 12.0, root)
    assert self_times([root, first, second, clipped])[root] == 3.0


def test_tracer_records_parents_and_restores_originals():
    ticks = itertools.count()
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 1

    outer_calls = []

    def outer():
        outer_calls.append(traced_inner())
        return 2

    traced_inner = tracer.wrap(inner, "inner", "core")
    traced_outer = tracer.wrap(outer, "outer", "llm")
    assert traced_outer() == 2
    spans = {span.name: span for span in tracer.spans}
    assert spans["inner"].parent is spans["outer"]
    assert spans["outer"].parent is None
    assert self_times(tracer.spans)[spans["outer"]] == 2.0


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    first = spec.make_inputs(name, 7, 15.0)
    assert first == spec.make_inputs(name, 7, 15.0)
    assert first != spec.make_inputs(name, 8, 15.0)
    assert first != spec.make_inputs(name, 7, 15.0, phase=1)
    assert spec.warmup_inputs(name) == spec.warmup_inputs(name)


def test_prefill_prompts_share_no_page():
    requests = spec.make_inputs("prefill_batch", 3, 15.0)
    firsts = {r.prompt[:spec.PAGE_SIZE] for r in requests}
    assert len(firsts) == len(requests)
    lo, hi = spec.PREFILL_LEN
    assert all(lo <= len(r.prompt) <= hi for r in requests)


def test_chat_schedule_shares_prefix_and_fits_the_phase():
    requests = spec.make_inputs("chat_shared_prefix", 3, 15.0)
    prefix = requests[0].prompt[:spec.CHAT_PREFIX]
    assert all(r.prompt[:spec.CHAT_PREFIX] == prefix for r in requests)
    dues = [r.due_s for r in requests]
    assert dues == sorted(dues) and 0.0 < dues[0] and dues[-1] < 15.0
