"""Fast tests of the benchmark's own arithmetic on synthetic data.

    python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from measure import (  # noqa: E402
    Span,
    Tracer,
    busy_frac,
    covered_time,
    failed_frac,
    relative_spread,
    self_time_by_name,
    self_times,
    tail_percentile,
    union_length,
)


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0


def test_self_time_subtracts_nested_children():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("spectra.eig", 1.0, 4.0, 0, 0),
        Span("fileio.write", 5.0, 6.0, 0, 0),
        Span("inner", 2.0, 3.0, 1, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    totals = self_time_by_name(spans)
    assert totals == {"spectra.eig": 2.0, "fileio.write": 1.0, "inner": 1.0}
    assert covered_time(spans, 0) == 4.0


def test_self_time_merges_parallel_children():
    # two worker threads' trials overlap inside one pool span
    spans = [
        Span("experiments.pool", 0.0, 10.0, None, 0),
        Span("experiments.trial", 0.0, 6.0, 0, 0),
        Span("experiments.trial", 2.0, 9.0, 0, 0),
    ]
    assert self_times(spans)[0] == pytest.approx(1.0)
    assert self_time_by_name(spans) == {"experiments.trial": pytest.approx(13.0)}


def test_self_time_clips_children_to_parent():
    spans = [Span("a", 0.0, 2.0, None, 0), Span("b", 1.0, 5.0, 0, 0)]
    assert self_times(spans)[0] == 1.0


def test_tracer_links_parents_and_ops_across_threads():
    from concurrent.futures import ThreadPoolExecutor

    tr = Tracer()

    def work(_):
        with tr.span("worker", parent=root):
            with tr.span("leaf"):
                pass

    with tr.span("op", op=7) as root:
        with tr.span("child"):
            pass
        with ThreadPoolExecutor(max_workers=2) as ex:
            list(ex.map(work, range(2)))
    assert [s.name for s in tr.spans[:2]] == ["op", "child"]
    assert all(s.op == 7 and s.end >= s.start for s in tr.spans)
    workers = [i for i, s in enumerate(tr.spans) if s.name == "worker"]
    assert all(tr.spans[i].parent == root for i in workers)
    assert sorted(s.parent for s in tr.spans if s.name == "leaf") == workers
    tr.count("x", 2)
    tr.count("x", 3)
    tr.peak("m", 4)
    tr.peak("m", 2)
    assert tr.counts == {"x": 5, "m": 4}


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = list(range(1, 31))  # 30 samples: index 19 has 10 above it
    value, pct, beyond = tail_percentile(samples)
    assert value == 20 and beyond == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert sum(1 for s in samples if s > value) == 10
    assert tail_percentile(list(range(21))) == (10, 100 * 11 / 21, 10)


def test_tail_falls_back_to_max_when_no_percentile_above_median_qualifies():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert tail_percentile(list(range(20))) == (19, 100.0, 0)
    with pytest.raises(ValueError):
        tail_percentile([])


def test_failed_frac_counts_against_attempted():
    assert failed_frac(0, 12) == 0.0
    assert failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(5, 4)


def test_busy_frac_is_busy_over_workers_times_wall():
    assert busy_frac(18.0, 2, 10.0) == pytest.approx(0.9)
    assert busy_frac(10.0, 1, 10.0) == 1.0
    with pytest.raises(ValueError):
        busy_frac(1.0, 0, 1.0)


def test_relative_spread_uses_quartiles_over_median():
    assert relative_spread([10.0] * 10) == 0.0
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    # statistics.quantiles (exclusive): q1 = 2.75, q3 = 8.25, median 5.5
    assert relative_spread(values) == pytest.approx(5.5 / 5.5)
