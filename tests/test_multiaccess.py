"""Unit tests for the multi-access mapping: shared-cache placement, user
views, schedule reuse, the memory-sharing rate bound, and the
access-degree comparison table."""

from fractions import Fraction

import pytest

from cachecode.delivery import generate_schedule, rate
from cachecode.errors import InstanceError, RegimeError, UnsupportedMemoryPoint
from cachecode.model import SubpacketId, SystemParams, wrap
from cachecode.multiaccess import (
    CcdnParams,
    ccdn_cache_contents,
    ccdn_rate_at_supported_points,
    ccdn_rate_bound_curve,
    ccdn_schedule,
    ccdn_upper_bound,
    ccdn_user_view,
    effective_cache_run,
    f_subfiles,
    optimality_table,
)
from cachecode.verify import (
    random_file_store,
    simulate_end_to_end,
    verify_instantaneous_decodability,
)


def ccdn(K: int, L: int, i: int, N: int | None = None) -> CcdnParams:
    return CcdnParams(
        n_files=N if N is not None else K,
        n_users=K,
        access_degree=L,
        cache_units=i,
    )


class TestCcdnParams:
    def test_validation(self):
        with pytest.raises(InstanceError):
            ccdn(10, 0, 1)
        with pytest.raises(InstanceError):
            ccdn(10, 11, 1)
        with pytest.raises(InstanceError):
            ccdn(10, 3, 5)  # ceil(10/3) = 4
        with pytest.raises(InstanceError):
            ccdn(10, 3, -1)

    @pytest.mark.parametrize(
        "K,N", [(0, 5), (5, 0), (0, 0)], ids=["no users", "no files", "none"]
    )
    def test_needs_a_user_and_a_file(self, K, N):
        with pytest.raises(
            InstanceError, match="^need at least one user and one file$"
        ):
            ccdn(K, 1, 0, N=N)

    @pytest.mark.parametrize(
        "fields,name",
        [
            ((10, 10.0, 6, 1), "n_users"),
            ((10.5, 10, 6, 1), "n_files"),
            ((10, 10, 6.0, 1), "access_degree"),
            ((10, 10, 6, "1"), "cache_units"),
        ],
    )
    def test_rejects_non_integer_fields(self, fields, name):
        with pytest.raises(InstanceError, match=f"^{name} is "):
            CcdnParams(*fields)

    def test_memory_is_per_cache(self):
        assert ccdn(10, 6, 1).memory == Fraction(1)
        assert ccdn(10, 3, 3, N=5).memory == Fraction(3, 2)


class TestSubfileCount:
    def test_single_unit_caches_always_fit(self):
        assert f_subfiles(10, 1, 3) == 10
        assert f_subfiles(12, 1, 5) == 12

    def test_full_ring_tiling_fits(self):
        assert f_subfiles(10, 3, 3) == 10

    def test_intermediate_point_needs_more_subfiles(self):
        assert f_subfiles(10, 2, 3) == 25

    def test_rejects_empty_caches(self):
        with pytest.raises(InstanceError):
            f_subfiles(10, 0, 3)


class TestUserView:
    def test_effective_run_is_capped(self):
        assert effective_cache_run(ccdn(10, 6, 1)) == 6
        assert effective_cache_run(ccdn(10, 3, 3)) == 9
        assert effective_cache_run(ccdn(6, 3, 2)) == 6

    def test_cache_contents_tile_the_ring(self):
        caches = ccdn_cache_contents(ccdn(10, 3, 3))
        assert caches[0] == frozenset({1, 2, 3})
        assert caches[1] == frozenset({4, 5, 6})
        assert caches[3] == frozenset({10, 1, 2})
        assert ccdn_cache_contents(ccdn(6, 3, 1)) == tuple(
            frozenset({j}) for j in range(1, 7)
        )

    def test_single_unit_view_is_the_dedicated_run(self):
        view = ccdn_user_view(ccdn(6, 3, 1))
        assert view.packets(2) == frozenset({2, 3, 4})

    def test_tiled_view_misses_exactly_one_packet(self):
        view = ccdn_user_view(ccdn(10, 3, 3))
        for k in range(1, 11):
            missing = view.missing(k)
            assert len(missing) == 1
            assert missing == frozenset({wrap(3 * (k - 1), 10)})

    def test_empty_caches_see_nothing(self):
        view = ccdn_user_view(ccdn(10, 3, 0))
        assert all(not view.packets(k) for k in range(1, 11))

    def test_full_view_is_always_supported(self):
        view = ccdn_user_view(ccdn(6, 3, 2))
        assert all(view.packets(k) == frozenset(range(1, 7)) for k in range(1, 7))

    def test_unsupported_point_raises(self):
        with pytest.raises(UnsupportedMemoryPoint):
            ccdn_user_view(ccdn(10, 3, 2))


class TestCcdnSchedule:
    def test_single_unit_caches_reduce_to_the_dedicated_schedule(self):
        params = ccdn(10, 6, 1)
        schedule = ccdn_schedule(params)
        dedicated = generate_schedule(SystemParams(10, 10, 6))
        assert schedule.codewords == dedicated.codewords

    def test_tiled_placement_relabels_the_packets(self):
        params = ccdn(10, 3, 3)
        schedule = ccdn_schedule(params)
        dedicated = generate_schedule(SystemParams(10, 10, 9))
        assert schedule.codewords == tuple(
            tuple(SubpacketId(u, wrap(3 * p, 10)) for u, p in cw)
            for cw in dedicated.codewords
        )

    @pytest.mark.parametrize("K,L,i", [(10, 6, 1), (10, 3, 3), (9, 4, 2), (12, 7, 1)])
    def test_schedules_verify_against_the_multi_access_view(self, K, L, i):
        params = ccdn(K, L, i)
        schedule = ccdn_schedule(params)
        report = verify_instantaneous_decodability(
            schedule, layout=ccdn_user_view(params)
        )
        assert report.ok

    @pytest.mark.parametrize("K,L,i", [(10, 6, 1), (10, 3, 3), (9, 4, 2), (12, 7, 1)])
    def test_schedules_simulate_bit_exactly(self, K, L, i):
        params = ccdn(K, L, i)
        schedule = ccdn_schedule(params)
        store = random_file_store(schedule.params, seed=K + i)
        assert simulate_end_to_end(
            schedule.params,
            range(1, K + 1),
            store,
            layout=ccdn_user_view(params),
            schedule=schedule,
            strict=True,
        )

    def test_full_view_yields_an_empty_schedule(self):
        schedule = ccdn_schedule(ccdn(6, 3, 2))
        assert schedule.codewords == ()
        assert schedule.rate == Fraction(0)

    def test_unsupported_point_raises(self):
        with pytest.raises(UnsupportedMemoryPoint):
            ccdn_schedule(ccdn(10, 3, 2))


class TestSupportedPointRates:
    def test_empty_caches_cost_the_library(self):
        assert ccdn_rate_at_supported_points(ccdn(10, 3, 0)) == Fraction(10)

    def test_rate_equals_the_dedicated_rate_at_the_effective_run(self):
        assert ccdn_rate_at_supported_points(ccdn(10, 6, 1)) == Fraction(1)
        assert ccdn_rate_at_supported_points(ccdn(10, 9, 1)) == Fraction(1, 10)
        assert ccdn_rate_at_supported_points(ccdn(10, 3, 3)) == rate(
            SystemParams(10, 10, 9)
        )

    def test_full_view_is_free(self):
        assert ccdn_rate_at_supported_points(ccdn(6, 3, 2)) == Fraction(0)

    def test_unsupported_point_raises(self):
        with pytest.raises(UnsupportedMemoryPoint):
            ccdn_rate_at_supported_points(ccdn(10, 3, 2))


class TestRateBound:
    def test_breakpoints(self):
        curve = ccdn_rate_bound_curve(ccdn(10, 6, 1))
        assert curve.breakpoints == (
            (Fraction(0), Fraction(10)),
            (Fraction(1), Fraction(1)),
            (Fraction(2), Fraction(0)),
        )

    def test_interpolation_and_saturation(self):
        curve = ccdn_rate_bound_curve(ccdn(10, 6, 1))
        assert curve.evaluate(0) == Fraction(10)
        assert curve.evaluate(Fraction(1, 2)) == Fraction(11, 2)
        assert curve.evaluate(1) == Fraction(1)
        assert curve.evaluate(Fraction(3, 2)) == Fraction(1, 2)
        assert curve.evaluate(2) == Fraction(0)
        assert curve.evaluate(5) == Fraction(0)
        assert curve.evaluate("3/2") == Fraction(1, 2)
        with pytest.raises(InstanceError):
            curve.evaluate(-1)

    @pytest.mark.parametrize("memory", ["abc", "1/0", None, float("inf")])
    def test_a_memory_that_is_no_number_is_rejected(self, memory):
        params = ccdn(10, 6, 1)
        with pytest.raises(InstanceError, match="is not a number"):
            ccdn_rate_bound_curve(params).evaluate(memory)
        with pytest.raises(InstanceError, match="is not a number"):
            ccdn_upper_bound(memory, params)

    def test_small_access_degree_is_out_of_regime(self):
        with pytest.raises(RegimeError):
            ccdn_rate_bound_curve(ccdn(10, 4, 1))

    def test_pointwise_helper_matches_the_curve(self):
        params = ccdn(10, 8, 1)
        curve = ccdn_rate_bound_curve(params)
        assert curve.breakpoints[1] == (Fraction(1), Fraction(2, 5))
        for m in (Fraction(0), Fraction(1, 3), Fraction(1), Fraction(7, 4)):
            assert ccdn_upper_bound(m, params) == curve.evaluate(m)


class TestOptimalityTable:
    def test_needs_at_least_four_users(self):
        with pytest.raises(InstanceError):
            optimality_table(3)

    def test_twelve_user_rows(self):
        rows = {(r.label, r.access_degree): r for r in optimality_table(12)}
        named = {
            ("L=K-1", 11): (Fraction(1, 12), Fraction(1, 12), True),
            ("L=K-2", 10): (Fraction(1, 4), Fraction(1, 4), True),
            ("L=K-3", 9): (Fraction(1, 2), Fraction(1, 2), True),
            ("s=2", 7): (Fraction(5, 4), Fraction(5, 4), True),
            ("s=3", 9): (Fraction(1, 2), Fraction(1, 2), True),
            ("s=4", 10): (Fraction(1, 4), Fraction(1, 4), True),
            ("s=6", 11): (Fraction(1, 12), Fraction(1, 12), True),
            ("s=12", 12): (Fraction(0), Fraction(0), True),
        }
        assert set(rows) == set(named)
        for key, (optimal, achieved, matches) in named.items():
            row = rows[key]
            assert (row.optimal_rate, row.new_rate, row.matches) == (
                optimal,
                achieved,
                matches,
            )

    def test_five_user_rows_report_the_gaps(self):
        rows = {r.label: r for r in optimality_table(5)}
        assert rows["L=K-1"].new_rate == Fraction(1, 5)
        assert rows["L=K-1"].matches
        assert rows["L=K-2"].optimal_rate == Fraction(3, 5)
        assert rows["L=K-2"].new_rate == Fraction(4, 5)
        assert not rows["L=K-2"].matches
        assert rows["L=K-3"].optimal_rate == Fraction(6, 5)
        assert rows["L=K-3"].new_rate == Fraction(8, 5)
        assert not rows["L=K-3"].matches
        assert rows["s=5"].new_rate == Fraction(0)
        assert rows["s=5"].matches

    def test_match_flag_is_consistent(self):
        for K in (4, 6, 7, 9, 10, 16, 21):
            for row in optimality_table(K):
                assert row.matches == (row.optimal_rate == row.new_rate)
