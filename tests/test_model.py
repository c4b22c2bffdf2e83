"""Unit tests for the instance model: wrap-around index arithmetic, cyclic
placement, demand lists, and demand vectors."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cachecode.errors import InstanceError
from cachecode.model import (
    SubpacketId,
    SystemParams,
    build_cache_layout,
    build_demand_list,
    identity_demand,
    random_demand,
    validate_demand,
    wrap,
)


def instance(K: int, i: int, N: int | None = None) -> SystemParams:
    return SystemParams(n_files=N if N is not None else K, n_users=K, cache_units=i)


class TestWrap:
    def test_one_past_the_end_wraps_to_one(self):
        assert wrap(7, 6) == 1

    def test_identity_inside_the_range(self):
        assert wrap(6, 6) == 6

    def test_one_before_the_start_wraps_to_the_end(self):
        assert wrap(0, 6) == 6

    @given(st.integers(-10_000, 10_000), st.integers(1, 64))
    def test_always_lands_in_range_and_is_periodic(self, x, K):
        w = wrap(x, K)
        assert 1 <= w <= K
        assert wrap(x + K, K) == w
        assert wrap(x, K) == (x - 1) % K + 1


class TestSystemParams:
    def test_rejects_nonpositive_counts(self):
        with pytest.raises(InstanceError):
            SystemParams(n_files=0, n_users=6, cache_units=2)
        with pytest.raises(InstanceError):
            SystemParams(n_files=6, n_users=0, cache_units=0)

    def test_rejects_cache_size_outside_range(self):
        with pytest.raises(InstanceError):
            instance(6, 7)
        with pytest.raises(InstanceError):
            instance(6, -1)

    @pytest.mark.parametrize(
        "fields,name",
        [
            ((6, 6.0, 4), "n_users"),
            ((6, 6, 4.0), "cache_units"),
            ((6.5, 6, 4), "n_files"),
            (("6", 6, 4), "n_files"),
        ],
    )
    def test_rejects_non_integer_fields(self, fields, name):
        with pytest.raises(InstanceError, match=f"^{name} is "):
            SystemParams(*fields)

    def test_integer_like_fields_are_stored_as_ints(self):
        params = SystemParams(True, 6, 4)
        assert params == instance(6, 4, N=1)
        assert type(params.n_files) is int

    def test_memory_accounting(self):
        params = instance(6, 4)
        assert params.cache_fraction == Fraction(2, 3)
        assert params.memory == Fraction(4)
        assert instance(10, 3, N=5).memory == Fraction(3, 2)


class TestCacheLayout:
    def test_consecutive_runs_of_the_reference_instance(self):
        layout = build_cache_layout(instance(6, 4))
        assert layout.packets(1) == frozenset({1, 2, 3, 4})
        assert layout.packets(4) == frozenset({4, 5, 6, 1})

    def test_full_cache_holds_everything(self):
        layout = build_cache_layout(instance(5, 5))
        assert all(layout.packets(k) == frozenset(range(1, 6)) for k in range(1, 6))

    def test_empty_cache_holds_nothing(self):
        layout = build_cache_layout(instance(4, 0))
        assert all(not layout.packets(k) for k in range(1, 5))
        assert layout.missing(2) == frozenset(range(1, 5))

    def test_knows_and_missing_are_complements(self):
        layout = build_cache_layout(instance(7, 3))
        for k in range(1, 8):
            cached = {p for p in range(1, 8) if layout.knows(k, p)}
            assert cached == layout.packets(k)
            assert cached | layout.missing(k) == set(range(1, 8))
            assert not cached & layout.missing(k)

    def test_every_layout_up_to_k30_follows_the_wrap_definition(self):
        for K in range(1, 31):
            for i in range(K + 1):
                assert build_cache_layout(instance(K, i)).cached == tuple(
                    frozenset(wrap(k + j, K) for j in range(i))
                    for k in range(1, K + 1)
                ), (K, i)

    @given(st.integers(1, 32).flatmap(lambda K: st.tuples(st.just(K), st.integers(0, K))))
    def test_every_user_is_a_rotation_of_user_one(self, Ki):
        K, i = Ki
        layout = build_cache_layout(instance(K, i))
        base = layout.packets(1)
        for k in range(1, K + 1):
            assert layout.packets(k) == frozenset(wrap(p + k - 1, K) for p in base)
            assert len(layout.packets(k)) == i

    @given(st.integers(1, 32).flatmap(lambda K: st.tuples(st.just(K), st.integers(1, K))))
    def test_union_of_caches_covers_all_packets(self, Ki):
        K, i = Ki
        layout = build_cache_layout(instance(K, i))
        assert frozenset().union(*(layout.packets(k) for k in range(1, K + 1))) == frozenset(
            range(1, K + 1)
        )


class TestDemandList:
    def test_per_user_slices_of_the_reference_instance(self):
        demands = build_demand_list(instance(6, 4))
        assert demands[0:2] == [SubpacketId(1, 5), SubpacketId(1, 6)]
        assert demands[2:4] == [SubpacketId(2, 6), SubpacketId(2, 1)]

    def test_full_cache_demands_nothing(self):
        assert build_demand_list(instance(5, 5)) == []

    def test_packets_follow_the_wrapped_formula(self):
        # Every instance with K <= 40 and 1 <= i <= K-1, term by term.
        for K in range(2, 41):
            for i in range(1, K):
                expected = [
                    (u, wrap(u + i + s, K))
                    for u in range(1, K + 1)
                    for s in range(K - i)
                ]
                demands = build_demand_list(instance(K, i))
                assert [(t.user, t.packet) for t in demands] == expected, (K, i)
                assert demands == [SubpacketId(*t) for t in expected]
                assert all(type(t) is SubpacketId for t in demands)

    def test_demand_vector_is_validated_but_does_not_change_the_list(self):
        params = instance(6, 4)
        assert build_demand_list(params, (1,) * 6) == build_demand_list(params)
        with pytest.raises(InstanceError):
            build_demand_list(params, (1, 2, 3))

    @given(st.integers(1, 64).flatmap(lambda K: st.tuples(st.just(K), st.integers(0, K))))
    def test_count_and_complement_structure(self, Ki):
        K, i = Ki
        params = instance(K, i)
        demands = build_demand_list(params)
        layout = build_cache_layout(params)
        assert len(demands) == K * (K - i)
        assert len(set(demands)) == len(demands)
        for u in range(1, K + 1):
            packets = {p for (user, p) in demands if user == u}
            assert packets == set(layout.missing(u))


class TestDemandVectors:
    def test_validate_normalizes_and_bounds(self):
        params = instance(4, 2, N=6)
        assert validate_demand(params, [6, 1, 2, 3]) == (6, 1, 2, 3)
        with pytest.raises(InstanceError):
            validate_demand(params, [0, 1, 2, 3])
        with pytest.raises(InstanceError):
            validate_demand(params, [1, 2, 3, 7])
        with pytest.raises(InstanceError):
            validate_demand(params, [1, 2, 3])

    @pytest.mark.parametrize("entry", [1.7, 2.0, "x", "2", None])
    def test_an_entry_that_is_not_an_integer_names_its_user(self, entry):
        with pytest.raises(InstanceError, match="^user 2 demands "):
            validate_demand(instance(3, 1), [1, entry, 3])

    def test_identity_needs_enough_files(self):
        assert identity_demand(instance(5, 2)) == (1, 2, 3, 4, 5)
        with pytest.raises(InstanceError):
            identity_demand(instance(5, 2, N=4))

    def test_random_demand_is_seed_deterministic(self):
        params = instance(8, 3, N=5)
        first = random_demand(params, seed=11)
        assert first == random_demand(params, seed=11)
        assert len(first) == 8
        assert all(1 <= f <= 5 for f in first)
        assert first != random_demand(params, seed=12)
