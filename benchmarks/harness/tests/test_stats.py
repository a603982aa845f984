"""The percentile rule, fastest-repetition selection and the spread rule."""

import pytest

from benchmarks.harness import spec, stats


def test_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 0.50) == 50
    assert stats.percentile(values, 0.99) == 99
    assert stats.percentile([7.0], 0.99) == 7.0
    assert stats.percentile_rank(1008, 0.99) == 998
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


@pytest.mark.parametrize("name", [w.name for w in spec.WORKLOADS.values() if w.serving])
def test_every_pass_has_ten_samples_beyond_p99(name):
    n = spec.WORKLOADS[name].requests_per_pass
    assert stats.samples_beyond(n, 0.99) >= stats.MIN_SAMPLES_BEYOND
    assert stats.samples_beyond(n, 0.50) >= stats.MIN_SAMPLES_BEYOND


def test_percentiles_sit_inside_one_query_class():
    # classes from fastest to slowest; Q5 appears twice in the cycle of seven
    seven = [2 * 144, 144, 144, 144, 144, 144]  # Q5, Q6, Q3, Q2, Q4, Q1
    assert stats.class_margin(seven, 0.50) >= stats.MIN_CLASS_MARGIN
    assert stats.class_margin(seven, 0.99) >= stats.MIN_CLASS_MARGIN
    paths = [48 * 20, 20, 20]  # LIN, P4, P1
    assert stats.class_margin(paths, 0.50) >= stats.MIN_CLASS_MARGIN
    assert stats.class_margin(paths, 0.99) >= stats.MIN_CLASS_MARGIN
    # the failure the seven-slot cycle avoids: six equal classes put p50 on an edge
    assert stats.class_margin([100] * 6, 0.50) == 0


def test_fastest_and_pointwise_fastest():
    assert stats.fastest([3.0, 1.5, 2.0]) == 1
    assert stats.pointwise_fastest([[3, 1, 5], [2, 4, 4]]) == [2, 1, 4]
    with pytest.raises(ValueError):  # a round that lost a step is not truncated away
        stats.pointwise_fastest([[3, 1, 5], [2, 4]])
    assert stats.spread([2.0, 3.0]) == 1.5


def test_iqr_share_is_the_drivers_rule():
    import statistics

    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.iqr_share(values) == (q3 - q1) / statistics.median(values)
