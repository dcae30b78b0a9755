import math
import random
import statistics

import pytest
from hypothesis import given, strategies as st

from discodep import (
    DependencyArc,
    DependencyGraph,
    GraphFlavor,
    MetricsRecord,
    SenseTag,
    corpus_mean,
    mdd_local,
    mdd_rooted,
    metrics_record,
    pearson,
    sd_distances,
)
from discodep.metrics import ConstantSeries, LengthMismatch, UndefinedMetric


def graph_with_distances(distances, flavor=GraphFlavor.LOCAL_FOREST, unit_count=None, root_unit=None):
    """Build a graph whose arcs have exactly the given distance multiset."""
    arcs = []
    dependent = 1
    max_unit = 1
    for d in distances:
        arcs.append(DependencyArc(dependent, dependent + d, SenseTag("x")))
        max_unit = max(max_unit, dependent + d)
        dependent += 1
    if root_unit is not None:
        arcs.append(DependencyArc(root_unit, 0, SenseTag("ROOT", "NONE")))
    n = unit_count if unit_count is not None else max_unit
    return DependencyGraph("g", n, tuple(arcs), flavor)


FIG1_ROOTED_DISTANCES = [2, 1, 1, 1, 3, 4, 5, 6, 7, 1]
FIG1_LOCAL_DISTANCES = [2, 1, 1, 1, 1, 1, 1, 1]
WSJ_DISTANCES = [1] * 9 + [2, 3]


class TestMddRooted:
    def test_fig1_value(self):
        g = graph_with_distances(
            FIG1_ROOTED_DISTANCES, GraphFlavor.ROOTED_TREE, unit_count=11, root_unit=17
        )
        assert mdd_rooted(g) == pytest.approx(3.1, abs=1e-12)

    def test_two_edu_tree(self):
        g = graph_with_distances([1], GraphFlavor.ROOTED_TREE, unit_count=2, root_unit=2)
        assert mdd_rooted(g) == 1.0

    def test_single_edu_undefined(self):
        g = DependencyGraph("g", 1, (DependencyArc(1, 0, SenseTag("ROOT")),), GraphFlavor.ROOTED_TREE)
        with pytest.raises(UndefinedMetric):
            mdd_rooted(g)

    def test_root_arc_excluded_from_sum(self, fig1_tree):
        from discodep import hirao_convert

        graph = hirao_convert(fig1_tree)
        assert mdd_rooted(graph) == pytest.approx(31 / 10)


class TestMddLocal:
    def test_wsj_value(self, wsj_graph):
        assert mdd_local(wsj_graph) == pytest.approx(14 / 11, abs=1e-12)
        assert round(mdd_local(wsj_graph), 2) == 1.27

    def test_fig1_local_value(self):
        g = graph_with_distances(FIG1_LOCAL_DISTANCES)
        assert mdd_local(g) == pytest.approx(1.125, abs=1e-12)
        assert abs(mdd_local(g) - 1.13) <= 5e-3  # reported two-decimal value

    def test_single_arc(self):
        g = graph_with_distances([7])
        assert mdd_local(g) == 7.0

    def test_no_arcs_undefined(self):
        g = DependencyGraph("g", 3, (), GraphFlavor.LOCAL_FOREST)
        with pytest.raises(UndefinedMetric):
            mdd_local(g)

    def test_equals_naive_mean_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            distances = [rng.randint(1, 9) for _ in range(rng.randint(1, 20))]
            g = graph_with_distances(distances)
            total = 0
            for arc in g.arcs:
                total += abs(arc.dependent - arc.head)
            assert abs(mdd_local(g) - total / len(distances)) < 1e-9


class TestSdDistances:
    def test_fig1_rooted_sd(self):
        g = graph_with_distances(FIG1_ROOTED_DISTANCES)
        assert sd_distances(g) == pytest.approx(2.2828, abs=5e-4)

    def test_fig1_local_sd(self):
        g = graph_with_distances(FIG1_LOCAL_DISTANCES)
        assert sd_distances(g) == pytest.approx(0.353553, abs=1e-6)

    def test_wsj_sd_frozen_oracle_value(self, wsj_graph):
        # sample SD over {1 x9, 2, 3}, mean 14/11, computed independently
        assert sd_distances(wsj_graph) == pytest.approx(0.646670, abs=1e-6)

    def test_all_equal_gives_zero(self):
        assert sd_distances(graph_with_distances([3, 3, 3])) == 0.0

    def test_sample_not_population_denominator(self):
        g = graph_with_distances(FIG1_ROOTED_DISTANCES)
        sd = sd_distances(g)
        assert abs(sd - 2.283) < 0.005
        assert abs(sd - 2.166) > 0.05  # population SD would land here

    def test_fewer_than_two_undefined(self):
        with pytest.raises(UndefinedMetric):
            sd_distances(graph_with_distances([4]))

    def test_variance_identity_against_naive_loop(self):
        rng = random.Random(12)
        for _ in range(50):
            distances = [rng.randint(1, 12) for _ in range(rng.randint(2, 25))]
            g = graph_with_distances(distances)
            sd = sd_distances(g)
            mean = sum(distances) / len(distances)
            ssq = sum((d - mean) ** 2 for d in distances)
            assert abs(sd * sd * (len(distances) - 1) - ssq) < 1e-9


class TestMetricsRecord:
    def test_undefined_becomes_absent(self):
        g = DependencyGraph("g", 1, (), GraphFlavor.LOCAL_FOREST)
        rec = metrics_record(g, "local")
        assert rec.mdd is None and rec.sd is None

    def test_wsj_record(self, wsj_graph):
        rec = metrics_record(wsj_graph, "local")
        assert (rec.unit_count, rec.arc_count) == (17, 11)
        assert rec.mdd == pytest.approx(14 / 11)

    def test_bad_mode_rejected(self, wsj_graph):
        with pytest.raises(ValueError):
            metrics_record(wsj_graph, "global")


class TestCorpusMean:
    def rec(self, doc_id, mdd):
        return MetricsRecord(doc_id, 5, 4, mdd, None)

    def test_single_value(self):
        assert corpus_mean([self.rec("a", 1.27)], "mdd") == (pytest.approx(1.27), 0)

    def test_two_values(self):
        mean, skipped = corpus_mean([self.rec("a", 1.0), self.rec("b", 3.0)], "mdd")
        assert mean == 2.0 and skipped == 0

    def test_undefined_skipped_not_zeroed(self):
        mean, skipped = corpus_mean(
            [self.rec("a", 2.0), self.rec("b", None), self.rec("c", 4.0)], "mdd"
        )
        assert mean == 3.0 and skipped == 1

    def test_all_undefined_raises(self):
        with pytest.raises(UndefinedMetric):
            corpus_mean([self.rec("a", None)], "mdd")


class TestPearson:
    def test_perfect_positive_linearity(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        result = pearson(xs, [2 * x + 1 for x in xs])
        assert result.r == pytest.approx(1.0, abs=1e-12)
        assert result.t == math.inf
        assert result.df == 2

    def test_perfect_negative(self):
        xs = [1.0, 2.0, 5.0]
        result = pearson(xs, [-x for x in xs])
        assert result.r == pytest.approx(-1.0, abs=1e-12)
        # rounding can leave r one ulp shy of -1; t is then merely enormous
        assert result.t == -math.inf or result.t < -1e6

    def test_against_textbook_oracle(self):
        # fixed pseudorandom vectors; oracle is the raw-sums formula
        rng = random.Random(99)
        xs = [rng.uniform(0, 10) for _ in range(10)]
        ys = [rng.uniform(0, 10) for _ in range(10)]
        n = len(xs)
        sx, sy = sum(xs), sum(ys)
        sxx = sum(x * x for x in xs)
        syy = sum(y * y for y in ys)
        sxy = sum(x * y for x, y in zip(xs, ys))
        oracle = (n * sxy - sx * sy) / math.sqrt((n * sxx - sx * sx) * (n * syy - sy * sy))
        result = pearson(xs, ys)
        assert abs(result.r - oracle) < 1e-12
        expected_t = oracle * math.sqrt((n - 2) / (1 - oracle * oracle))
        assert abs(result.t - expected_t) < 1e-9

    def test_matches_statistics_correlation(self):
        xs = [1.0, 4.0, 2.0, 8.0, 5.0]
        ys = [2.0, 3.0, 9.0, 1.0, 4.0]
        assert pearson(xs, ys).r == pytest.approx(statistics.correlation(xs, ys), abs=1e-12)

    def test_constant_series_rejected(self):
        with pytest.raises(ConstantSeries):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(LengthMismatch):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(LengthMismatch):
            pearson([1.0, 2.0], [1.0, 2.0])

    @staticmethod
    def _well_spread(xs, ys):
        return max(xs) - min(xs) >= 0.5 and max(ys) - min(ys) >= 0.5

    @given(
        data=st.lists(
            st.tuples(
                st.floats(-100, 100).map(lambda v: round(v, 3)),
                st.floats(-100, 100).map(lambda v: round(v, 3)),
            ),
            min_size=3,
            max_size=30,
        ),
        a=st.floats(0.5, 50).map(lambda v: round(v, 3)),
        b=st.floats(-100, 100).map(lambda v: round(v, 3)),
    )
    def test_scale_invariance(self, data, a, b):
        xs = [x for x, _ in data]
        ys = [y for _, y in data]
        if not self._well_spread(xs, ys):
            return
        base = pearson(xs, ys)
        scaled = pearson([a * x + b for x in xs], ys)
        assert abs(base.r - scaled.r) < 1e-12

    @given(
        data=st.lists(
            st.tuples(st.floats(-100, 100), st.floats(-100, 100)), min_size=3, max_size=30
        ),
        seed=st.integers(0, 2**16),
    )
    def test_permutation_invariance(self, data, seed):
        xs = [x for x, _ in data]
        ys = [y for _, y in data]
        if not self._well_spread(xs, ys):
            return
        order = list(range(len(xs)))
        random.Random(seed).shuffle(order)
        base = pearson(xs, ys)
        permuted = pearson([xs[i] for i in order], [ys[i] for i in order])
        assert abs(base.r - permuted.r) < 1e-12


def test_pearson_overflowing_moment_is_correlation_error():
    from discodep.metrics import CorrelationError

    with pytest.raises(CorrelationError):
        pearson([1e200, -1e200, 3.0], [1.0, 2.0, 3.0])
