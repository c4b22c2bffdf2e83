"""Unit tests for delivery: scheme constants, rate formulas, the seed
codeword, replacement rules, schedule generation, and the pairwise
closed form."""

import logging
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecode.delivery import (
    _SWEEP_NODE_BUDGET,
    _Ring,
    _solve_schedule,
    closed_form_pairs,
    generate_schedule,
    initial_codeword_terms,
    mn_rate,
    mn_subpacketization,
    rate,
    rule,
    scheme_constants,
    tail_subroutine,
    check,
    update,
)
from cachecode.errors import (
    InstanceError,
    NoSeedTerm,
    RegimeError,
    ReplacementExhausted,
)
from cachecode.model import (
    SubpacketId,
    SystemParams,
    build_cache_layout,
    build_demand_list,
)


def instance(K: int, i: int, N: int | None = None) -> SystemParams:
    return SystemParams(n_files=N if N is not None else K, n_users=K, cache_units=i)


# The three transmissions of the K=6, i=4 instance, frozen as sets per
# transmission (within-codeword order is not part of the contract).
GOLDEN_6_4 = (
    frozenset({SubpacketId(1, 5), SubpacketId(2, 1), SubpacketId(4, 2), SubpacketId(5, 4)}),
    frozenset({SubpacketId(2, 6), SubpacketId(3, 2), SubpacketId(5, 3), SubpacketId(6, 5)}),
    frozenset({SubpacketId(3, 1), SubpacketId(4, 3), SubpacketId(6, 4), SubpacketId(1, 6)}),
)


class TestSchemeConstants:
    @pytest.mark.parametrize(
        "K,i,stride,arity,n_transmissions",
        [
            (6, 4, 3, 4, 3),
            (6, 5, 2, 6, 1),
            (6, 1, 6, 2, 15),
            (7, 5, 3, 4, 4),
        ],
    )
    def test_known_values(self, K, i, stride, arity, n_transmissions):
        consts = scheme_constants(instance(K, i))
        assert (consts.stride, consts.arity, consts.n_transmissions) == (
            stride,
            arity,
            n_transmissions,
        )

    def test_rejects_degenerate_cache_sizes(self):
        with pytest.raises(InstanceError):
            scheme_constants(instance(6, 0))
        with pytest.raises(InstanceError):
            scheme_constants(instance(6, 6))

    @given(st.integers(2, 64).flatmap(lambda K: st.tuples(st.just(K), st.integers(1, K - 1))))
    def test_transmission_count_is_the_ceiling(self, Ki):
        K, i = Ki
        consts = scheme_constants(instance(K, i))
        assert consts.stride == K - i + 1
        assert consts.arity == 2 + i // consts.stride + (i - 1) // consts.stride
        assert consts.n_transmissions == math.ceil(K * (K - i) / consts.arity)


class TestRates:
    def test_reference_instance(self):
        assert rate(instance(6, 4)) == Fraction(1, 2)

    def test_near_full_cache(self):
        assert rate(instance(6, 5)) == Fraction(1, 6)

    def test_mid_regime_value_matches_the_generator(self):
        params = instance(7, 5)
        assert rate(params) == Fraction(4, 7)
        assert generate_schedule(params).n_transmissions == 4

    def test_degenerate_endpoints(self):
        assert rate(instance(6, 0)) == Fraction(6)
        assert rate(instance(6, 6)) == Fraction(0)

    def test_binomial_baseline(self):
        params = instance(6, 4)
        assert mn_rate(params) == Fraction(2, 5)
        assert mn_subpacketization(params) == 15
        assert mn_rate(instance(6, 0)) == Fraction(6)
        assert mn_subpacketization(instance(6, 0)) == 1
        assert mn_rate(instance(6, 6)) == Fraction(0)

    @given(st.integers(2, 64).flatmap(lambda K: st.tuples(st.just(K), st.integers(1, K - 1))))
    def test_linear_subpacketization_never_beats_the_baseline(self, Ki):
        K, i = Ki
        params = instance(K, i)
        assert rate(params) >= mn_rate(params)

    @given(st.integers(2, 64))
    def test_rate_is_non_increasing_in_cache_size(self, K):
        rates = [rate(instance(K, i)) for i in range(K + 1)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestSeedCodeword:
    def test_reference_instance(self):
        assert initial_codeword_terms(instance(6, 4)) == [
            SubpacketId(1, 5),
            SubpacketId(2, 1),
            SubpacketId(4, 2),
            SubpacketId(5, 4),
        ]

    def test_single_transmission_instance_seeds_all_users(self):
        assert initial_codeword_terms(instance(6, 5)) == [
            SubpacketId(1, 6),
            SubpacketId(2, 1),
            SubpacketId(3, 2),
            SubpacketId(4, 3),
            SubpacketId(5, 4),
            SubpacketId(6, 5),
        ]

    def test_unit_cache_seeds_one_pair(self):
        assert initial_codeword_terms(instance(6, 1)) == [
            SubpacketId(1, 2),
            SubpacketId(2, 1),
        ]

    def test_odd_arity_bumps_the_trailing_packet(self):
        # K=7, i=4 has arity 3; the unbumped seed would end at (5, 2).
        assert initial_codeword_terms(instance(7, 4)) == [
            SubpacketId(1, 5),
            SubpacketId(2, 1),
            SubpacketId(5, 3),
        ]

    @given(st.integers(2, 32).flatmap(lambda K: st.tuples(st.just(K), st.integers(1, K - 1))))
    def test_seed_terms_are_distinct_demands_of_full_arity(self, Ki):
        K, i = Ki
        params = instance(K, i)
        terms = initial_codeword_terms(params)
        assert len(terms) == scheme_constants(params).arity
        assert len(set(terms)) == len(terms)
        owed = set(build_demand_list(params))
        assert all(term in owed for term in terms)


class TestTailSubroutine:
    def test_pairs_across_half_the_ring(self):
        remaining = [SubpacketId(u, (u + 3) % 5 + 1) for u in range(1, 6)]
        assert remaining[0] == SubpacketId(1, 5)
        assert tail_subroutine(remaining, instance(5, 2)) == [
            SubpacketId(1, 5),
            SubpacketId(3, 2),
        ]

    def test_offset_is_half_of_six(self):
        remaining = [SubpacketId(u, (u + 4) % 6 + 1) for u in range(1, 7)]
        assert tail_subroutine(remaining, instance(6, 3)) == [
            SubpacketId(1, 6),
            SubpacketId(4, 3),
        ]

    def test_seeds_at_the_smallest_leftover_of_user_one(self):
        remaining = [
            SubpacketId(1, 4),
            SubpacketId(1, 3),
            SubpacketId(2, 4),
            SubpacketId(3, 1),
        ]
        terms = tail_subroutine(remaining, instance(4, 2))
        assert terms[0] == SubpacketId(1, 3)

    def test_rejects_wrong_size(self):
        with pytest.raises(InstanceError):
            tail_subroutine([SubpacketId(1, 5)], instance(5, 2))

    def test_needs_a_seed_from_user_one(self):
        remaining = [SubpacketId(2, p) for p in (1, 4, 5)] + [
            SubpacketId(3, 1),
            SubpacketId(4, 2),
        ]
        with pytest.raises(NoSeedTerm):
            tail_subroutine(remaining, instance(5, 2))


class TestReplacementRules:
    def test_the_four_moves(self):
        term = SubpacketId(3, 5)
        assert rule(term, 1, 6) == SubpacketId(3, 6)
        assert rule(term, 2, 6) == SubpacketId(4, 5)
        assert rule(term, 3, 6) == SubpacketId(2, 5)
        assert rule(term, 4, 6) == SubpacketId(3, 4)

    def test_moves_wrap_around(self):
        assert rule(SubpacketId(1, 6), 1, 6) == SubpacketId(1, 1)
        assert rule(SubpacketId(6, 2), 2, 6) == SubpacketId(1, 2)
        assert rule(SubpacketId(1, 2), 3, 6) == SubpacketId(6, 2)
        assert rule(SubpacketId(3, 1), 4, 6) == SubpacketId(3, 6)

    def test_rejects_unknown_flags(self):
        with pytest.raises(ValueError):
            rule(SubpacketId(1, 1), 0, 6)
        with pytest.raises(ValueError):
            rule(SubpacketId(1, 1), 5, 6)


class TestCheck:
    def setup_method(self):
        self.params = instance(6, 4)
        self.layout = build_cache_layout(self.params)
        self.remaining = set(build_demand_list(self.params))

    def test_served_terms_fail(self):
        served = SubpacketId(1, 5)
        assert not check(served, self.layout, self.remaining - {served}, [])

    def test_mutually_cached_pair_passes(self):
        # User 1 caches packet 1, user 2 caches packet 5.
        assert check(
            SubpacketId(2, 1), self.layout, self.remaining, [SubpacketId(1, 5)]
        )

    def test_empty_codeword_accepts_any_owed_term(self):
        assert check(SubpacketId(3, 2), self.layout, self.remaining, [])

    def test_one_sided_knowledge_fails(self):
        # (6,4) is owed and user 1 caches packet 4, but user 6 does not
        # cache packet 5, so the pair cannot share a transmission.
        assert SubpacketId(6, 4) in self.remaining
        assert not check(
            SubpacketId(6, 4), self.layout, self.remaining, [SubpacketId(1, 5)]
        )


class TestUpdate:
    def setup_method(self):
        self.params = instance(6, 4)
        self.layout = build_cache_layout(self.params)
        self.remaining = set(build_demand_list(self.params))

    def test_unset_flag_takes_the_first_fitting_rule(self):
        dead = SubpacketId(1, 4)  # cached by user 1, so never demanded
        term, flag = update(dead, self.remaining, self.layout, [], 0)
        assert (term, flag) == (SubpacketId(1, 5), 1)

    def test_unset_flag_skips_rules_that_fail(self):
        # (1,5) already served: rule 1 lands on it and must be skipped;
        # rule 2 gives (2,4), cached by user 2; rule 3 gives (6,4), owed.
        dead = SubpacketId(1, 4)
        remaining = self.remaining - {SubpacketId(1, 5)}
        term, flag = update(dead, remaining, self.layout, [], 0)
        assert (term, flag) == (SubpacketId(6, 4), 3)

    def test_set_flags_pair_up_without_rechecking(self):
        dead = SubpacketId(3, 2)
        assert update(dead, self.remaining, self.layout, [], 1) == (
            SubpacketId(4, 2),
            2,
        )
        assert update(dead, self.remaining, self.layout, [], 2) == (
            SubpacketId(3, 3),
            1,
        )
        assert update(dead, self.remaining, self.layout, [], 3) == (
            SubpacketId(3, 1),
            4,
        )
        assert update(dead, self.remaining, self.layout, [], 4) == (
            SubpacketId(2, 2),
            3,
        )

    def test_rejects_unknown_flags(self):
        with pytest.raises(ValueError):
            update(SubpacketId(1, 4), self.remaining, self.layout, [], 5)

    def test_exhaustion_raises(self):
        with pytest.raises(ReplacementExhausted):
            update(SubpacketId(1, 4), set(), self.layout, [], 0)


class TestGenerateSchedule:
    def test_reference_instance_term_for_term(self):
        schedule = generate_schedule(instance(6, 4), demands=(1, 2, 3, 4, 5, 6))
        assert tuple(frozenset(cw) for cw in schedule.codewords) == GOLDEN_6_4
        assert schedule.rate == Fraction(1, 2)
        assert schedule.subpacketization == 6

    def test_single_codeword_instance(self):
        schedule = generate_schedule(instance(4, 3))
        assert schedule.n_transmissions == 1
        assert frozenset(schedule.codewords[0]) == frozenset(
            {SubpacketId(1, 4), SubpacketId(2, 1), SubpacketId(3, 2), SubpacketId(4, 3)}
        )

    def test_pair_regime_instance(self):
        schedule = generate_schedule(instance(5, 2))
        assert schedule.n_transmissions == 8
        assert all(1 <= len(cw) <= 2 for cw in schedule.codewords)
        assert schedule.total_terms() == 15

    def test_full_cache_yields_an_empty_schedule(self):
        schedule = generate_schedule(instance(5, 5))
        assert schedule.codewords == ()
        assert schedule.rate == Fraction(0)
        assert schedule.constants is None

    def test_empty_cache_is_rejected(self):
        with pytest.raises(InstanceError):
            generate_schedule(instance(5, 0))

    def test_needs_enough_files_for_the_worst_case(self):
        with pytest.raises(InstanceError):
            generate_schedule(instance(6, 4, N=5))

    def test_schedule_structure_ignores_the_demand_vector(self):
        params = instance(6, 4)
        identity = generate_schedule(params, demands=(1, 2, 3, 4, 5, 6))
        repeated = generate_schedule(params, demands=(1,) * 6)
        assert identity.codewords == repeated.codewords

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 14).flatmap(lambda K: st.tuples(st.just(K), st.integers(1, K - 1))))
    def test_schedules_partition_the_demands_at_the_closed_form_count(self, Ki):
        K, i = Ki
        params = instance(K, i)
        schedule = generate_schedule(params)
        consts = scheme_constants(params)
        assert schedule.n_transmissions == consts.n_transmissions
        assert all(1 <= len(cw) <= consts.arity for cw in schedule.codewords)
        served = [term for cw in schedule.codewords for term in cw]
        assert len(served) == len(set(served)) == K * (K - i)
        assert set(served) == set(build_demand_list(params))


class TestClosedFormPairs:
    def test_even_gap_count(self):
        schedule = closed_form_pairs(instance(6, 2))
        assert schedule.n_transmissions == 12
        assert all(len(cw) == 2 for cw in schedule.codewords)

    def test_odd_gap_count_has_a_singleton_tail(self):
        schedule = closed_form_pairs(instance(5, 2))
        assert schedule.n_transmissions == 8
        assert sorted(len(cw) for cw in schedule.codewords) == [1] + [2] * 7
        assert schedule.total_terms() == 15

    def test_first_emitted_pair(self):
        schedule = closed_form_pairs(instance(6, 2))
        assert schedule.codewords[0] == (SubpacketId(1, 3), SubpacketId(2, 1))

    def test_regime_bounds(self):
        with pytest.raises(RegimeError):
            closed_form_pairs(instance(6, 1))
        with pytest.raises(RegimeError):
            closed_form_pairs(instance(6, 4))

    @given(
        st.integers(4, 16).flatmap(
            lambda K: st.tuples(st.just(K), st.integers(2, K // 2))
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_count_matches_the_sweeping_generator(self, Ki):
        K, i = Ki
        params = instance(K, i)
        pairs = closed_form_pairs(params)
        assert pairs.n_transmissions == math.ceil(K * (K - i) / 2)
        assert pairs.n_transmissions == generate_schedule(params).n_transmissions
        served = [term for cw in pairs.codewords for term in cw]
        assert len(served) == len(set(served)) == K * (K - i)
        assert set(served) == set(build_demand_list(params))


def ring_instances():
    return [(K, i) for K in range(1, 10) for i in range(K + 1)] + [(24, 17)]


class TestIntegerCells:
    @pytest.mark.parametrize("K,i", ring_instances())
    def test_compatibility_table_matches_the_layout(self, K, i):
        layout = build_cache_layout(instance(K, i))
        ring = _Ring(layout)
        terms = [SubpacketId(u, p) for u in range(1, K + 1) for p in range(1, K + 1)]
        for a, (ua, pa) in enumerate(terms):
            row = ring.compat[a]
            for b, (ub, pb) in enumerate(terms):
                mutual = layout.knows(ub, pa) and layout.knows(ua, pb)
                assert bool(row >> b & 1) == mutual, (terms[a], terms[b])

    @pytest.mark.parametrize("K,i", [(1, 0), (6, 4), (13, 9)])
    def test_cells_follow_subpacket_order_and_advance_diagonally(self, K, i):
        ring = _Ring(build_cache_layout(instance(K, i)))
        assert ring.terms == sorted(ring.terms)
        for c, (u, p) in enumerate(ring.terms):
            assert ring.cell(SubpacketId(u, p)) == c
            assert ring.terms[ring.adv[c]] == (u % K + 1, p % K + 1)
            assert ring.diag[c] == (p - u) % K


class TestSweepNodeBudget:
    def solve(self, K, i):
        params = instance(K, i)
        return _solve_schedule(
            params,
            build_cache_layout(params),
            scheme_constants(params),
            initial_codeword_terms(params),
            build_demand_list(params),
            node_budget=_SWEEP_NODE_BUDGET,
        )

    def test_fallback_class_instance_exhausts_the_budget(self):
        assert self.solve(13, 10) is None

    def test_sweep_class_instance_finishes(self):
        codewords = self.solve(13, 9)
        assert codewords is not None
        assert codewords == list(generate_schedule(instance(13, 9)).codewords)

    @pytest.mark.parametrize(
        "K,i,outcome",
        [
            (13, 9, "done after 7 decisions"),
            (13, 10, "gave up after 20001 decisions"),
            (23, 13, "done after 15709 decisions"),
        ],
    )
    def test_decisions_spent(self, K, i, outcome, caplog):
        with caplog.at_level(logging.DEBUG, logger="cachecode.delivery"):
            self.solve(K, i)
        assert caplog.messages == [f"sweep for K={K}, i={i} {outcome}"]
