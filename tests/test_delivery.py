"""Unit tests for delivery: scheme constants, rate formulas, the seed
codeword, the tail step, replacement rules, schedule generation, the orbit
fallbacks, and the pairwise closed form."""

import dataclasses
import functools
import importlib
import itertools
import logging
import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Collection, Iterable, Iterator, Sequence

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cachecode import delivery
from cachecode.delivery import (
    _ANY_CELL,
    _SWEEP_NODE_BUDGET,
    Codeword,
    SchemeConstants,
    _bits,
    _capacity,
    _checked_tail,
    _free_run,
    _orbit_base,
    _orbit_plans,
    _replacement_choices,
    _Ring,
    _rule_cells,
    _solve_schedule,
    _spaced_run_cover,
    _tile_leftover,
    _tile_minconf,
    closed_form_pairs,
    generate_schedule,
    initial_codeword_terms,
    mn_rate,
    mn_subpacketization,
    rate,
    scheme_constants,
)
from cachecode.errors import InstanceError, RegimeError, ScheduleError
from cachecode.model import (
    CacheLayout,
    SubpacketId,
    SystemParams,
    build_cache_layout,
    build_demand_list,
    wrap,
)
from cachecode.verify import verify_instantaneous_decodability


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


class TestCheckedTail:
    """The tail codeword: user 1's first owed cell and its shifts."""

    def ring(self):
        # K=8, i=5 has arity 4, so the shifts are by 0, 2, 4 and 6.
        return _Ring(8, 5)

    def diagonal(self, ring, offset):
        return sum(1 << ring.on_diagonal(u, offset) for u in range(8))

    def test_seeds_at_the_lowest_owed_packet_of_user_one(self):
        ring = self.ring()
        # User 1 owes packets 7 and 8; the seed is (1, 7), on diagonal 6.
        owed = self.diagonal(ring, 6) | self.diagonal(ring, 7)
        seed = ring.on_diagonal(0, 6)
        cells = _checked_tail(ring, owed, 4)
        assert cells == [ring.shift(seed, s) for s in (0, 2, 4, 6)]
        assert ring.codeword(cells) == (
            SubpacketId(1, 7),
            SubpacketId(3, 1),
            SubpacketId(5, 3),
            SubpacketId(7, 5),
        )

    def test_user_one_owing_nothing_gives_none(self):
        ring = self.ring()
        # Diagonal 6 without user 1's cell, (1, 7).
        owed = self.diagonal(ring, 6) & ~(1 << ring.on_diagonal(0, 6))
        assert _checked_tail(ring, owed, 4) is None

    def test_a_shifted_cell_not_owed_gives_none(self):
        ring = self.ring()
        owed = self.diagonal(ring, 6) & ~(1 << ring.on_diagonal(4, 6))
        assert _checked_tail(ring, owed, 4) is None

    def test_a_conflicting_shifted_cell_gives_none(self):
        # Cells of diagonal 7 are at least 3 users apart in a codeword, and
        # the first shift moves the seed (1, 8) by two users, onto an owed
        # cell.
        ring = self.ring()
        owed = self.diagonal(ring, 7)
        seed = ring.on_diagonal(0, 7)
        assert ring.spacing[7] == 3
        assert owed >> ring.shift(seed, 2) & 1
        assert not ring.compat[seed] >> ring.shift(seed, 2) & 1
        assert _checked_tail(ring, owed, 4) is None

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_the_reference_tail(self, data):
        # Every owed cell but a few, so that tails are often well formed.
        K = data.draw(st.integers(3, 14))
        i = data.draw(st.integers(K // 2 + 1, K - 1))
        arity = scheme_constants(instance(K, i)).arity
        ring = _Ring(K, i)
        old = ReferenceRing(build_cache_layout(instance(K, i)))
        terms = build_demand_list(instance(K, i))
        gone = data.draw(st.sets(st.sampled_from(terms), max_size=3))
        kept = [t for t in terms if t not in gone]
        tail = _checked_tail(ring, sum(1 << ring.cell(t) for t in kept), arity)
        expected = reference_checked_tail(
            old, sum(1 << old.cell(t) for t in kept), arity
        )
        assert (tail and ring.codeword(tail)) == (
            expected and old.codeword(expected)
        )


class TestTailStep:
    def test_the_tail_codeword_is_emitted(self, monkeypatch):
        # K=8, i=5 reaches the tail step once, and its codeword is sent; with
        # the step refused, the sweep finishes on another schedule.
        params = instance(8, 5)
        built = []

        def recording(ring, owed, arity):
            cells = _checked_tail(ring, owed, arity)
            built.append(None if cells is None else ring.codeword(cells))
            return cells

        monkeypatch.setattr(delivery, "_checked_tail", recording)
        codewords = generate_schedule(params).codewords
        assert built == [
            (
                SubpacketId(1, 7),
                SubpacketId(3, 1),
                SubpacketId(5, 3),
                SubpacketId(7, 5),
            )
        ]
        assert built[0] in codewords
        monkeypatch.setattr(delivery, "_checked_tail", lambda *args: None)
        assert generate_schedule(params).codewords != codewords


def moved(term: SubpacketId, flag: int, ring: _Ring) -> SubpacketId:
    """Rule ``flag`` of ``_rule_cells`` applied to a sub-packet id."""
    cell = _rule_cells(ring.cell(term), ring.n_users)[flag - 1]
    return ring.codeword([cell])[0]


# The rules are stated on sub-packets, whatever cache size numbers the
# cells.
RULE_RINGS = [_Ring(6, i) for i in range(7)]


class TestReplacementRules:
    def test_the_four_moves(self):
        term = SubpacketId(3, 5)
        for ring in RULE_RINGS:
            assert moved(term, 1, ring) == SubpacketId(3, 6)
            assert moved(term, 2, ring) == SubpacketId(4, 5)
            assert moved(term, 3, ring) == SubpacketId(2, 5)
            assert moved(term, 4, ring) == SubpacketId(3, 4)

    def test_moves_wrap_around(self):
        for ring in RULE_RINGS:
            assert moved(SubpacketId(1, 6), 1, ring) == SubpacketId(1, 1)
            assert moved(SubpacketId(6, 2), 2, ring) == SubpacketId(1, 2)
            assert moved(SubpacketId(1, 2), 3, ring) == SubpacketId(6, 2)
            assert moved(SubpacketId(3, 1), 4, ring) == SubpacketId(3, 6)


class TestReplacementChoices:
    """The placement options of a served term, on K=6, i=4: those worth
    walking in the order tried, as (cost, term or None, flag), and the cost
    of the options after the last one walked."""

    def setup_method(self):
        self.ring = _Ring(6, 4)
        self.owed = set(build_demand_list(instance(6, 4)))

    def choices(self, dead, flag, owed=None, lead=(), doomed=False, lost=False):
        ring = self.ring
        cells = [ring.cell(t) for t in (self.owed if owed is None else owed)]
        # The seats the sweep walks: those in the lead and, unless it is
        # doomed, those compatible with every lead cell.
        fit = _ANY_CELL
        for t in lead:
            fit &= ring.compat[ring.cell(t)]
        walk = sum(1 << ring.cell(t) for t in lead) | (0 if doomed else fit)
        options, rest = _replacement_choices(
            ring.cell(dead), flag, ring, sum(1 << c for c in cells), [],
            _ANY_CELL, 3, walk, lost,
        )
        tried = [
            (cost, None if seat is None else ring.codeword([seat])[0], k)
            for cost, seat, k in reversed(options)
        ]
        return tried, rest

    def test_unset_flag_tries_the_rules_in_order(self):
        # (1,4) is cached by user 1; rules 2 and 4 land on cached cells.
        options, _ = self.choices(SubpacketId(1, 4), 0)
        assert options[:2] == [
            (1, SubpacketId(1, 5), 1), (1, SubpacketId(6, 4), 3)
        ]

    def test_rules_landing_on_served_cells_are_skipped(self):
        served = SubpacketId(1, 5)
        options, _ = self.choices(SubpacketId(1, 4), 0, self.owed - {served})
        assert options[0] == (1, SubpacketId(6, 4), 3)
        assert all(term != served for _, term, _ in options)

    @pytest.mark.parametrize(
        "flag,first", [(1, (SubpacketId(4, 2), 2)), (3, (SubpacketId(3, 1), 4))]
    )
    def test_a_set_flag_tries_its_partner_rule_first(self, flag, first):
        options, _ = self.choices(SubpacketId(3, 2), flag)
        assert options[0] == (1, *first)

    def test_rescues_follow_the_rules_and_abandoning_comes_last(self):
        options, rest = self.choices(SubpacketId(1, 4), 0)
        seats = [term for _, term, _ in options[:-1]]
        assert len(seats) == len(set(seats)) == len(self.owed)
        assert all(cost == 1 for cost, _, _ in options)
        assert all(k == 0 for _, _, k in options[2:-1])
        assert options[-1] == (1, None, 0)
        assert rest == 0

    def test_nothing_owed_leaves_only_abandoning(self):
        assert self.choices(SubpacketId(1, 4), 2, set()) == ([(1, None, 2)], 0)

    def test_abandoning_when_lost_is_the_rest(self):
        ranked, _ = self.choices(SubpacketId(1, 4), 0)
        assert self.choices(SubpacketId(1, 4), 0, lost=True) == (ranked[:-1], 1)

    def test_rescues_that_all_fail_on_the_lead_are_counted(self):
        # Doomed lead cells fail every seat outside them: the rule seat
        # (6,4) and the rescues, unranked, add to abandoning's cost.
        ranked, _ = self.choices(SubpacketId(1, 4), 0)
        counted = self.choices(
            SubpacketId(1, 4), 0, lead=[SubpacketId(1, 5)], doomed=True
        )
        assert counted == ([ranked[0], (len(ranked) - 1, None, 0)], 0)
        lost = self.choices(
            SubpacketId(1, 4), 0, lead=[SubpacketId(1, 5)], doomed=True,
            lost=True,
        )
        assert lost == ([ranked[0]], len(ranked) - 1)

    def test_a_lead_cell_conflicting_with_every_seat_counts_them(self):
        # Besides the two rule seats only (1,6), (2,6) and (6,5) are owed.
        # Each of them, and the rule seat (6,4), conflicts with the lead
        # cell (1,5): the four add to abandoning's cost.
        owed = {
            SubpacketId(u, p) for u, p in [(1, 5), (1, 6), (2, 6), (6, 4), (6, 5)]
        }
        ranked, _ = self.choices(SubpacketId(1, 4), 0, owed)
        assert len(ranked) == 6
        counted = self.choices(SubpacketId(1, 4), 0, owed, lead=[SubpacketId(1, 5)])
        assert counted == ([ranked[0], (5, None, 0)], 0)

    def test_a_rescue_seat_inside_the_lead_keeps_the_ranking(self):
        # Only the fifth option, a rescue, is walked besides abandoning: it
        # costs the four ranked before it, and abandoning the rest.
        ranked, _ = self.choices(SubpacketId(1, 4), 0)
        seat = ranked[4][1]
        assert self.choices(
            SubpacketId(1, 4), 0, lead=[seat], doomed=True
        ) == ([(5, seat, 0), (len(ranked) - 5, None, 0)], 0)


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

    def test_a_copy_with_other_codewords_reports_its_own_rate(self):
        schedule = generate_schedule(instance(8, 5))
        short = dataclasses.replace(schedule, codewords=schedule.codewords[:-1])
        assert short.rate == Fraction(schedule.n_transmissions - 1, 8)
        assert short.constants == schedule.constants == scheme_constants(instance(8, 5))

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


def over_arity(codewords, arity):
    """The codewords with the first one grown past the arity by a term
    from each later one that keeps a term."""
    first, rest = list(codewords[0]), [list(cw) for cw in codewords[1:]]
    for cw in rest:
        if len(first) <= arity and len(cw) > 1:
            first.append(cw.pop())
    return (tuple(first), *map(tuple, rest))


class TestScheduleShape:
    """The shape check that every generated schedule passes."""

    @pytest.mark.parametrize("K,i", [(6, 4), (13, 10)])  # sweep, fallback
    def test_bad_copies_are_refused_by_name(self, K, i):
        schedule = generate_schedule(instance(K, i))
        consts = scheme_constants(schedule.params)
        codewords = schedule.codewords
        n, terms = consts.n_transmissions, K * (K - i)
        dropped = len(codewords[-1])
        first, second = codewords[0], codewords[1]
        twice = (first, (first[0],) + second[1:]) + codewords[2:]
        partition = "served sub-packets do not partition the demands"
        bad = [
            (
                codewords[:-1],
                f"{n - 1} transmissions instead of {n}; "
                f"{terms - dropped} terms instead of {terms}; {partition}",
            ),
            (twice, partition),
            (
                over_arity(codewords, consts.arity),
                f"codeword arity outside [1, {consts.arity}]",
            ),
        ]
        for copy, problems in bad:
            with pytest.raises(ScheduleError) as caught:
                delivery._assert_schedule_shape(
                    dataclasses.replace(schedule, codewords=copy)
                )
            assert str(caught.value) == f"K={K}, i={i}: {problems}"

    def test_an_instance_nothing_builds_raises(self, monkeypatch):
        monkeypatch.setattr(delivery, "_orbit_schedule", lambda *args: None)
        with pytest.raises(
            ScheduleError,
            match=r"^K=13, i=10: no schedule of 7 transmissions found$",
        ):
            generate_schedule(instance(13, 10))


# The shape check before it worked on integer cells, kept verbatim as a
# reference: `TestScheduleShapeMatchesReference` checks that both refuse the
# same schedules with the same message.
def reference_assert_schedule_shape(schedule) -> None:
    params, consts = schedule.params, schedule.constants
    K, i = params.n_users, params.cache_units
    problems = []
    if consts is not None and len(schedule.codewords) != consts.n_transmissions:
        problems.append(
            f"{len(schedule.codewords)} transmissions instead of "
            f"{consts.n_transmissions}"
        )
    if schedule.total_terms() != K * (K - i):
        problems.append(
            f"{schedule.total_terms()} terms instead of {K * (K - i)}"
        )
    if consts is not None and any(
        not 1 <= len(cw) <= consts.arity for cw in schedule.codewords
    ):
        problems.append(f"codeword arity outside [1, {consts.arity}]")
    served = [term for cw in schedule.codewords for term in cw]
    if len(set(served)) != len(served) or set(served) != set(
        build_demand_list(params)
    ):
        problems.append("served sub-packets do not partition the demands")
    if problems:
        detail = "; ".join(problems)
        raise ScheduleError(f"K={K}, i={i}: {detail}")


@functools.lru_cache(maxsize=None)
def generated(K: int, i: int):
    return generate_schedule(instance(K, i))


@st.composite
def reshaped_schedules(draw):
    """A generated schedule after a few tamperings: dropped, emptied and
    split codewords, terms swapped, moved or duplicated, terms outside the
    grid or cached by their user, and plain-tuple terms."""
    K = draw(st.integers(2, 12))
    schedule = generated(K, draw(st.integers(1, K)))
    i = schedule.params.cache_units
    codewords = [list(cw) for cw in schedule.codewords]

    def pick(seq) -> int:
        return draw(st.integers(0, len(seq) - 1))

    def add(term) -> None:
        """Put the term in place of one, into a codeword, or alone."""
        at = draw(st.integers(0, len(codewords)))
        if at == len(codewords):
            codewords.append([term])
        elif codewords[at] and draw(st.booleans()):
            codewords[at][pick(codewords[at])] = term
        else:
            codewords[at].insert(draw(st.integers(0, len(codewords[at]))), term)

    kinds = [
        "drop", "empty", "split", "swap", "move", "duplicate", "outside",
        "cached", "plain",
    ]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        cw = codewords[pick(codewords)] if codewords else []
        if kind == "empty":
            codewords.insert(draw(st.integers(0, len(codewords))), [])
        elif kind == "outside":
            u = draw(st.integers(-1, K + 1))
            outside = st.sampled_from([-1, 0, K + 1])
            add(SubpacketId(u, draw(outside if 1 <= u <= K else st.integers(-1, K + 1))))
        elif kind == "cached":
            u = draw(st.integers(1, K))
            add(SubpacketId(u, wrap(u + draw(st.integers(0, i - 1)), K)))
        elif not cw:
            continue
        elif kind == "drop":
            codewords.remove(cw)
        elif kind == "split":
            at = pick(cw)
            codewords.append(cw[at:])
            del cw[at:]
        elif kind == "swap":
            other = codewords[pick(codewords)]
            if other:
                x, y = pick(cw), pick(other)
                cw[x], other[y] = other[y], cw[x]
        elif kind == "move":
            codewords[pick(codewords)].append(cw.pop(pick(cw)))
        elif kind == "duplicate":
            add(cw[pick(cw)])
        else:
            cw[:] = [tuple(term) for term in cw]
    return dataclasses.replace(schedule, codewords=tuple(map(tuple, codewords)))


def shape_problem(check, schedule) -> str | None:
    """The message a shape check refuses the schedule with, or None."""
    try:
        check(schedule)
    except ScheduleError as err:
        return str(err)
    return None


class TestScheduleShapeMatchesReference:
    @settings(max_examples=400, derandomize=True)
    @given(reshaped_schedules())
    def test_tampered_schedules(self, schedule):
        assert shape_problem(delivery._assert_schedule_shape, schedule) == (
            shape_problem(reference_assert_schedule_shape, schedule)
        )

    @pytest.mark.parametrize(
        "term", [(0, 5), (7, 5), (1, 0), (1, 7), (1, -5), (2, 2)]
    )
    def test_a_term_outside_the_grid_or_cached_replaces_a_demand(self, term):
        # K=6, i=4: (1, 5) is owed; the stray term takes its place, so the
        # counts hold and only the partition fails.
        schedule = generated(6, 4)
        codewords = [
            tuple(SubpacketId(*term) if t == (1, 5) else t for t in cw)
            for cw in schedule.codewords
        ]
        copy = dataclasses.replace(schedule, codewords=tuple(codewords))
        message = "K=6, i=4: served sub-packets do not partition the demands"
        assert shape_problem(delivery._assert_schedule_shape, copy) == message
        assert shape_problem(reference_assert_schedule_shape, copy) == message


def sweep(params: SystemParams) -> list[Codeword] | None:
    """The sweep search alone, with the budget ``generate_schedule`` sets."""
    return _solve_schedule(
        params,
        build_cache_layout(params),
        scheme_constants(params),
        initial_codeword_terms(params),
        build_demand_list(params),
        node_budget=_SWEEP_NODE_BUDGET,
    )


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

    def test_terms_follow_the_wrapped_formula(self):
        # Every pair-regime instance with K <= 40, against the families
        # written with wrap.
        for K in range(2, 41):
            for i in range(1, K // 2 + 1):
                expected = [
                    (SubpacketId(wrap(1 + a, K), wrap(i + a + k, K)),
                     SubpacketId(wrap(1 + k + a, K), wrap(1 + a, K)))
                    for k in range(1, (K - i) // 2 + 1)
                    for a in range(K)
                ]
                if (K - i) % 2 == 1:
                    mid, half = (K + i - 1) // 2, K // 2
                    expected += [
                        (SubpacketId(a, wrap(a + mid, K)),
                         SubpacketId(a + half, wrap(a + half + mid, K)))
                        for a in range(1, half + 1)
                    ]
                    if K % 2 == 1:
                        expected.append((SubpacketId(K, mid),))
                codewords = closed_form_pairs(instance(K, i)).codewords
                assert codewords == tuple(expected), (K, i)
                assert [(t.user, t.packet) for cw in codewords for t in cw] == [
                    tuple(t) for cw in expected for t in cw
                ]
                assert all(type(t) is SubpacketId for cw in codewords for t in cw)

    def test_regime_bounds(self):
        with pytest.raises(RegimeError):
            closed_form_pairs(instance(6, 0))
        with pytest.raises(RegimeError):
            closed_form_pairs(instance(6, 4))
        schedule = closed_form_pairs(instance(6, 1))
        assert schedule.n_transmissions == math.ceil(6 * 5 / 2)
        assert all(len(cw) == 2 for cw in schedule.codewords)

    @given(
        st.integers(4, 16).flatmap(
            lambda K: st.tuples(st.just(K), st.integers(1, K // 2))
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_count_matches_the_sweeping_generator(self, Ki):
        K, i = Ki
        params = instance(K, i)
        pairs = closed_form_pairs(params)
        assert pairs.n_transmissions == math.ceil(K * (K - i) / 2)
        assert list(pairs.codewords) == sweep(params)
        served = [term for cw in pairs.codewords for term in cw]
        assert len(served) == len(set(served)) == K * (K - i)
        assert set(served) == set(build_demand_list(params))


def ring_instances():
    return [(K, i) for K in range(1, 10) for i in range(K + 1)] + [
        (24, 17), (64, 56),
    ]


class TestIntegerCells:
    """The ring's numbering and compatibility against the placement."""

    @pytest.mark.parametrize("K,i", ring_instances())
    def test_compatibility_table_matches_the_layout(self, K, i):
        layout = build_cache_layout(instance(K, i))
        ring = _Ring(K, i)
        terms = build_demand_list(instance(K, i))
        cells = [ring.cell(t) for t in terms]
        # The owed cells come first; only they have masks, of owed cells.
        n_owed = (K - i) * K
        assert sorted(cells) == list(range(n_owed))
        assert len(ring.compat) == n_owed
        assert all(0 <= mask < 1 << n_owed for mask in ring.compat)
        for a, (ua, pa) in zip(cells, terms):
            row = ring.compat[a]
            for b, (ub, pb) in zip(cells, terms):
                mutual = layout.knows(ub, pa) and layout.knows(ua, pb)
                assert bool(row >> b & 1) == mutual, ((ua, pa), (ub, pb))

    @pytest.mark.parametrize("K,i", ring_instances() + [(13, 9)])
    def test_cells_follow_subpacket_order_and_advance_diagonally(self, K, i):
        # Every cell round-trips through its sub-packet id on its diagonal;
        # ``rank`` puts the owed cells in (user, packet) order, and a sweep
        # step keeps an owed cell in its field.
        ring = _Ring(K, i)
        users = range(1, K + 1)
        terms = [SubpacketId(u, p) for u in users for p in users]
        cells = [ring.cell(t) for t in terms]
        assert sorted(cells) == list(range(K * K))
        assert list(ring.codeword(cells)) == terms
        for c, (u, p) in zip(cells, terms):
            assert c // K == ((p - u) % K - i) % K
        n_owed = (K - i) * K
        assert len(ring.adv) == len(ring.rank) == n_owed
        for place, (c, (u, p)) in enumerate(zip(cells, terms)):
            if c >= n_owed:
                continue
            assert ring.rank[c] == place
            assert ring.codeword([ring.adv[c]]) == ((u % K + 1, p % K + 1),)
            assert ring.adv[c] // K == c // K


class TestSweepNodeBudget:
    def solve(self, K, i):
        return sweep(instance(K, i))

    def test_fallback_class_instance_exhausts_the_budget(self):
        assert self.solve(13, 10) is None

    def test_sweep_class_instance_finishes(self):
        codewords = self.solve(13, 9)
        assert codewords is not None
        assert codewords == list(generate_schedule(instance(13, 9)).codewords)

    def test_the_benchmark_derivation_runs_the_sweep(self, monkeypatch):
        # perfbench/derive_lists.py calls _solve_schedule positionally with
        # a layout, which the sweep does not read; that call must keep
        # working.
        perfbench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        derive_lists = importlib.import_module("derive_lists")
        assert derive_lists.sweep_finishes(13, 9) is True
        assert derive_lists.sweep_finishes(13, 10) is False

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


# The plain depth-first sweep that the counting one replaced, kept verbatim
# as a reference: `TestSweepMatchesReference` checks that both return the
# same schedule and log the same decisions spent under every budget.  It
# runs on the ring it was written for, which numbers cells in (user,
# packet) order and derives compatibility from a `CacheLayout`, kept
# verbatim too, with its tail step.
log = logging.getLogger("cachecode.delivery")


class ReferenceRing:
    """The K x K (user, packet) ring of one instance as integer cells.

    Cell ``c = (u-1)*K + (p-1)`` stands for sub-packet (u, p); int order is
    (user, packet) order, so sorting cells sorts sub-packets.  Sets of
    cells are K*K-bit masks.  ``compat[c]`` holds the cells that can share
    a codeword with c: bit c' is set when the user of each cell caches the
    packet of the other.  A demanded cell never caches its own packet, so
    it is never in its own mask.  ``adv[c]`` is the cell one sweep step
    further, (u+1, p+1), and ``diag[c]`` the diagonal p - u mod K it stays
    on.  Under cyclic placement two cells are compatible exactly when the
    user offset between them suits both diagonals.

    ``dmajor[c] = d*K + u`` numbers the cells diagonal by diagonal: in a
    mask in that order, diagonal d is one K-bit field, user u at bit u.

    Two cells of diagonal d in one codeword are at least ``spacing[d]`` =
    max(d - i + 1, K - d) users apart around the ring, so a codeword holds
    at most ``team[d]`` = K // spacing[d] of them.  The demands fill the
    ``owed_diagonals`` i..K-1.
    """

    __slots__ = (
        "n_users", "compat", "adv", "diag", "dmajor", "spacing", "team",
        "owed_diagonals",
    )

    def __init__(self, layout: CacheLayout) -> None:
        K = layout.n_users
        i = len(layout.packets(1))
        cells = range(K * K)
        row = (1 << K) - 1
        every_row = sum(1 << (r * K) for r in range(K))
        # holders[p]: every cell of the users caching packet p;
        # known[u]: every cell whose packet user u caches.
        holders = [0] * K
        known = [0] * K
        for u in range(K):
            for p in layout.packets(u + 1):
                holders[p - 1] |= row << (u * K)
                known[u] |= every_row << (p - 1)
        self.n_users = K
        self.compat = [holders[c % K] & known[c // K] for c in cells]
        self.adv = [self.shift(c, 1) for c in cells]
        self.diag = [(c % K - c // K) % K for c in cells]
        self.dmajor = [d * K + c // K for c, d in enumerate(self.diag)]
        self.spacing = [max(d - i + 1, K - d) for d in range(K)]
        self.team = [K // gap for gap in self.spacing]
        self.owed_diagonals = range(i, K)

    def cell(self, term: SubpacketId) -> int:
        return (term.user - 1) * self.n_users + term.packet - 1

    def on_diagonal(self, user: int, offset: int) -> int:
        """The cell of 0-based ``user`` on diagonal ``offset``."""
        K = self.n_users
        return user * K + (user + offset) % K

    def shift(self, c: int, steps: int) -> int:
        """The cell ``steps`` sweep steps after c."""
        K = self.n_users
        return (c // K + steps) % K * K + (c + steps) % K

    def codeword(self, cells: Iterable[int]) -> Codeword:
        K = self.n_users
        return tuple(SubpacketId(c // K + 1, c % K + 1) for c in cells)



def reference_checked_tail(ring: ReferenceRing, owed: int, arity: int) -> list[int] | None:
    """The tail codeword, or None when it is not well formed.

    Seeds at user 1's owed cell with the lowest packet and adds its shifts
    by floor(j*K/arity), j = 1..arity-1, each of which must be owed and fit
    the cells before it.  None also when user 1 owes nothing.
    """
    K = ring.n_users
    # User 1's cells are 0..K-1, in packet order.
    row = owed & ((1 << K) - 1)
    if not row:
        return None
    seed = (row & -row).bit_length() - 1
    built: list[int] = []
    allowed = owed
    for j in range(arity):
        cell = ring.shift(seed, j * K // arity)
        if not allowed >> cell & 1:
            return None
        built.append(cell)
        allowed &= ring.compat[cell]
    return built




def reference_run_ahead(
    cell: int, free: int, adv: Sequence[int], n_users: int
) -> int:
    """Transmissions a term seated at ``cell`` survives before colliding.

    ``free`` holds the cells still owed and not in the codeword under
    construction.
    """
    run = 0
    cur = cell
    while run < n_users and free >> cur & 1:
        run += 1
        cur = adv[cur]
    return run


_PARTNER = {1: 2, 2: 1, 3: 4, 4: 3}


def reference_rule_cell(cell: int, flag: int, n_users: int) -> int:
    """One of the four replacement moves for an already-served term.

    1: bump the packet, 2: bump the user, 3: drop the user, 4: drop the
    packet -- all cyclically.
    """
    u, p = divmod(cell, n_users)
    if flag == 1:
        return u * n_users + (p + 1) % n_users
    if flag == 2:
        return (u + 1) % n_users * n_users + p
    if flag == 3:
        return (u - 1) % n_users * n_users + p
    return u * n_users + (p - 1) % n_users


def reference_replacement_choices(
    dead: int,
    flag: int,
    ring: ReferenceRing,
    owed: int,
    owed_on: Sequence[int],
    partial: Sequence[int],
    allowed: int,
    steps_left: int,
) -> list[tuple[int | None, int]]:
    """Ordered placement options for a term whose advance was already served.

    The four local rules of :func:`reference_rule_cell` come first, each
    only if the cell it lands on is owed and fits the codeword.  Once a
    rule has fired, later replacements in the same codeword try its partner
    rule first (1 and 2 pair up, as do 3 and 4).  When the rules dead-end
    the term may re-seat on any still-owed sub-packet compatible with the
    codeword built so far; rescues prefer diagonals holding the most owed
    cells per committed term, then seats whose unobstructed run matches the
    transmissions left.  Abandoning the term is the final option.

    ``owed`` is the owed-cell mask, ``owed_on[d]`` the owed cells on
    diagonal d, and ``allowed`` the cells compatible with every term of
    ``partial``.
    """
    K = ring.n_users
    choices: list[tuple[int | None, int]] = []
    seen = 0
    if flag == 0:
        order: tuple[int, ...] = (1, 2, 3, 4)
    else:
        first = _PARTNER[flag]
        order = (first,) + tuple(k for k in (1, 2, 3, 4) if k != first)
    fits = owed & allowed
    for k in order:
        cand = reference_rule_cell(dead, k, K)
        if fits >> cand & 1 and not seen >> cand & 1:
            choices.append((cand, k))
            seen |= 1 << cand
    diag, adv = ring.diag, ring.adv
    claimed = 0
    committed = [0] * K
    for t in partial:
        claimed |= 1 << t
        committed[diag[t]] += 1
    free = owed & ~claimed
    rescue: list[tuple[float, int, int]] = []
    for cell in _bits(free & allowed & ~seen):
        d = diag[cell]
        need = owed_on[d] / (1 + committed[d])
        fit = abs(reference_run_ahead(cell, free, adv, K) - steps_left)
        rescue.append((-need, fit, cell))
    rescue.sort()
    choices.extend((cell, 0) for _, _, cell in rescue)
    choices.append((None, flag))
    return choices


def reference_diagonals_feasible(
    left_on: Sequence[int], steps: int, team: Sequence[int]
) -> bool:
    """Necessary condition for finishing the owed cells in ``steps``.

    ``left_on[d]`` counts the cells left on diagonal d; one transmission
    ships at most ``team[d]`` of them (see :class:`_Ring`).
    """
    for count, size in zip(left_on, team):
        if count > size * steps:
            return False
    return True


def reference_solve_schedule(
    params: SystemParams,
    layout: CacheLayout,
    consts: SchemeConstants,
    seed: Sequence[SubpacketId],
    demand_cells: Sequence[SubpacketId],
    node_budget: int = _SWEEP_NODE_BUDGET,
) -> list[Codeword] | None:
    """Depth-first construction of an exact-length schedule by sweeping.

    Follows the advancing sweep greedily -- owed terms are kept, served
    terms patched through :func:`_replacement_choices` -- and backtracks
    over replacement placements whenever the counting bounds show the
    remainder cannot finish within budget.  Every appended term is checked
    against the whole codeword under construction, so the result is
    instantaneously decodable by construction.

    Returns None when the search space is exhausted or ``node_budget``
    replacement decisions were spent without completing a schedule.
    """
    K = params.n_users
    arity, budget, stride = consts.arity, consts.n_transmissions, consts.stride
    ring = ReferenceRing(layout)
    compat, adv, diag = ring.compat, ring.adv, ring.diag
    owed = 0
    for term in demand_cells:
        owed |= 1 << ring.cell(term)
    n_owed = owed.bit_count()
    owed_on = [0] * K
    for cell in _bits(owed):
        owed_on[diag[cell]] += 1
    seed_cells = [ring.cell(term) for term in seed]
    codewords: list[list[int]] = []
    queue = list(seed_cells)
    # The codeword under construction and the cells compatible with all
    # of its terms.
    partial: list[int] = []
    allowed = _ANY_CELL
    flag = 0
    pos = 0
    # The owed state before each committed codeword.  Between two commits
    # only (partial, flag, pos) change, so a decision records the commit
    # count, and backtracking restores the owed state from here.
    saved: list[tuple[int, int, list[int]]] = []
    # Untried options for each replacement decision, newest last.
    decisions: list[
        tuple[int, tuple[int, ...], int, int, list[tuple[int | None, int]]]
    ] = []
    nodes = 0

    def backtrack() -> bool:
        nonlocal queue, partial, allowed, flag, pos, nodes
        nonlocal owed, n_owed, owed_on
        while decisions:
            n_committed, part, part_allowed, px, options = decisions[-1]
            if not options:
                decisions.pop()
                continue
            nodes += 1
            if len(codewords) > n_committed:
                owed, n_owed, owed_on = saved[n_committed]
                del saved[n_committed:], codewords[n_committed:]
            queue = (
                [adv[cell] for cell in codewords[-1]]
                if codewords
                else list(seed_cells)
            )
            partial = list(part)
            allowed = part_allowed
            term, flag = options.pop(0)
            if term is not None:
                partial.append(term)
                allowed &= compat[term]
            pos = px + 1
            return True
        return False

    while True:
        if nodes > node_budget:
            log.debug(
                "sweep for K=%d, i=%d gave up after %d decisions",
                K,
                params.cache_units,
                nodes,
            )
            return None
        if pos == len(queue):
            if not partial:
                if backtrack():
                    continue
                return None
            done = len(codewords) + 1
            steps = budget - done
            left = n_owed - len(partial)
            # Without the tail construction (possible only while at least
            # K cells are owed) the term count can never grow again.
            cap = arity if left >= K else min(arity, len(partial))
            left_on = list(owed_on)
            for cell in partial:
                left_on[diag[cell]] -= 1
            if left > cap * steps or (
                left
                and not reference_diagonals_feasible(left_on, steps, ring.team)
            ):
                if backtrack():
                    continue
                return None
            saved.append((owed, n_owed, owed_on))
            for cell in partial:
                owed ^= 1 << cell
            n_owed = left
            owed_on = left_on
            codewords.append(partial)
            if not owed:
                log.debug(
                    "sweep for K=%d, i=%d done after %d decisions",
                    K,
                    params.cache_units,
                    nodes,
                )
                return [ring.codeword(cw) for cw in codewords]
            queue = [adv[cell] for cell in partial]
            partial = []
            allowed = _ANY_CELL
            flag = 0
            pos = 0
            continue
        cand = queue[pos]
        if len(partial) >= arity or cand in partial:
            pos += 1
            continue
        if owed >> cand & 1:
            if allowed >> cand & 1:
                partial.append(cand)
                allowed &= compat[cand]
                pos += 1
                continue
            if backtrack():
                continue
            return None
        if not partial and n_owed == K:
            tail = reference_checked_tail(ring, owed, arity)
            if tail is not None:
                partial = tail
                for cell in tail:
                    allowed &= compat[cell]
                pos += 1
                continue
        options = reference_replacement_choices(
            cand,
            flag,
            ring,
            owed,
            owed_on,
            partial,
            allowed,
            budget - len(codewords),
        )
        nodes += 1
        decisions.append((len(codewords), tuple(partial), allowed, pos, options))
        term, flag = options.pop(0)
        if term is not None:
            partial.append(term)
            allowed &= compat[term]
        pos += 1


# Two sweeps that finish (13:9, and 23:13 after 15709 decisions) and seven
# fallback-class instances whose sweep gives up at the default budget.
EQUIVALENCE_INSTANCES = [
    (13, 9), (13, 10), (16, 12), (17, 13), (19, 10),
    (21, 17), (22, 16), (23, 13), (24, 20),
]
# Budgets from none to the default; 15708 and 15709 sit on either side of
# 23:13 finishing, and the search runs out of budget inside replayed
# states, inside runs of counted rescues, on single counted options and on
# walked ones.
EQUIVALENCE_BUDGETS = [0, 1, 2, 3, 7, 50, 1000, 5000, 15708, 15709, 20000]


def sweep_outcome(solve, K, i, budget, caplog, seed=None):
    """What one sweep run shows: its codewords and its log messages."""
    params = instance(K, i)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="cachecode.delivery"):
        codewords = solve(
            params,
            build_cache_layout(params),
            scheme_constants(params),
            initial_codeword_terms(params) if seed is None else seed,
            build_demand_list(params),
            budget,
        )
    return codewords, list(caplog.messages)


class TestSweepMatchesReference:
    @pytest.mark.parametrize("K,i", EQUIVALENCE_INSTANCES)
    def test_same_result_and_decisions_under_every_budget(self, K, i, caplog):
        for budget in EQUIVALENCE_BUDGETS:
            assert sweep_outcome(
                _solve_schedule, K, i, budget, caplog
            ) == sweep_outcome(reference_solve_schedule, K, i, budget, caplog), budget

    @pytest.mark.parametrize("K,i", [(6, 4), (13, 10)])
    def test_a_seed_longer_than_the_arity_is_rejected(self, K, i, caplog):
        # The seed is one codeword: its arity terms, plus one owed cell.
        params = instance(K, i)
        seed = initial_codeword_terms(params)
        extra = next(t for t in build_demand_list(params) if t not in seed)
        with pytest.raises(ValueError, match="exceeds arity"):
            sweep_outcome(_solve_schedule, K, i, 0, caplog, seed + [extra])

    def test_known_outcomes_are_not_expanded_again(self, caplog, monkeypatch):
        calls = spy_on_choices(monkeypatch)
        codewords, messages = sweep_outcome(
            _solve_schedule, 13, 10, _SWEEP_NODE_BUDGET, caplog
        )
        assert codewords is None
        assert messages == ["sweep for K=13, i=10 gave up after 20001 decisions"]
        # The plain search expands 6157 decisions here.  Known outcomes are
        # keyed on the queue left, not on the whole queue and the position,
        # so states that differ only in the queue already walked share one;
        # and a decision that walks no option is counted without ranking
        # its options.
        assert len(calls) == 671

    def test_seats_closing_a_failing_commit_are_counted(
        self, caplog, monkeypatch
    ):
        # K=6, i=4 sends 3 codewords of 4 terms.  Seeded with the served
        # (1,4) and the owed (1,5), the first decision's lead is (1,5) and
        # ends the queue.  Seating the term on it (rule 1) or abandoning
        # the term commits (1,5) alone, and any other seat commits 2 terms:
        # each leaves more than 8 owed cells for 2 codewords.  So no option
        # is walked, and the decision -- its 12 owed seats, then abandoning
        # -- is counted whole without ranking its options.
        seed = [SubpacketId(1, 4), SubpacketId(1, 5)]
        calls = spy_on_choices(monkeypatch)
        for budget in range(15):
            assert sweep_outcome(
                _solve_schedule, 6, 4, budget, caplog, seed
            ) == sweep_outcome(
                reference_solve_schedule, 6, 4, budget, caplog, seed
            ), budget
        assert not calls
        assert sweep_outcome(_solve_schedule, 6, 4, 12, caplog, seed) == (
            None, ["sweep for K=6, i=4 gave up after 13 decisions"]
        )
        assert sweep_outcome(_solve_schedule, 6, 4, 13, caplog, seed) == (
            None, []
        )

    @pytest.mark.parametrize(
        "seed,lead,walked",
        [
            # The lead (5,3) ends the queue: seating on it or abandoning
            # commits 3 terms and leaves 9 owed cells for 2 codewords of 4,
            # while the seat (2,6) commits 4.
            ([(6, 5), (3, 2), (4, 6), (5, 3)], [(5, 3)], [(2, 6)]),
        ],
    )
    def test_lead_seats_and_abandoning_fail_together(
        self, seed, lead, walked, caplog, monkeypatch
    ):
        ring = _Ring(6, 4)
        seed = [SubpacketId(u, p) for u, p in seed]
        calls = spy_on_choices(monkeypatch)
        assert_matches_reference_until_it_ends(6, 4, seed, caplog)
        first = calls[0]
        fits, walk = first[3] & first[5], first[7]
        assert all(fits >> ring.cell(SubpacketId(*t)) & 1 for t in lead)
        assert ring.codeword(_bits(fits & walk)) == tuple(
            SubpacketId(*t) for t in walked
        )

    def test_a_decision_that_walks_nothing_is_not_ranked(
        self, caplog, monkeypatch
    ):
        # The lead (3,2) conflicts with the partial codeword (2,1), so every
        # seat and abandoning fail on it: the first decision costs its 7
        # owed seats that fit and abandoning, and nothing ranks them.
        seed = [SubpacketId(2, 1), SubpacketId(5, 6), SubpacketId(3, 2)]
        calls = spy_on_choices(monkeypatch)
        assert_matches_reference_until_it_ends(6, 4, seed, caplog)
        assert not calls
        assert sweep_outcome(_solve_schedule, 6, 4, 7, caplog, seed) == (
            None, ["sweep for K=6, i=4 gave up after 8 decisions"]
        )

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_random_seeds_and_budgets(self, caplog, data):
        # Seeds of served and owed cells, of one codeword at most.
        K = data.draw(st.integers(5, 14))
        i = data.draw(st.integers(K // 2 + 1, K - 1))
        arity = scheme_constants(instance(K, i)).arity
        cells = st.builds(
            SubpacketId, st.integers(1, K), st.integers(1, K)
        )
        seed = data.draw(
            st.lists(cells, min_size=1, max_size=arity, unique=True)
        )
        budget = data.draw(st.integers(0, 3000))
        assert sweep_outcome(
            _solve_schedule, K, i, budget, caplog, seed
        ) == sweep_outcome(reference_solve_schedule, K, i, budget, caplog, seed)


real_choices = delivery._replacement_choices


def spy_on_choices(monkeypatch) -> list[tuple]:
    """Record the arguments of every ``_replacement_choices`` call."""
    calls: list[tuple] = []

    def spy(*args):
        calls.append(args)
        return real_choices(*args)

    monkeypatch.setattr(delivery, "_replacement_choices", spy)
    return calls


def assert_matches_reference_until_it_ends(K, i, seed, caplog):
    """Both sweeps agree at every budget from 0 until the plain one stops
    giving up."""
    budget = 0
    while True:
        reference = sweep_outcome(
            reference_solve_schedule, K, i, budget, caplog, seed
        )
        assert sweep_outcome(
            _solve_schedule, K, i, budget, caplog, seed
        ) == reference, budget
        if not any("gave up" in m for m in reference[1]):
            return
        budget += 1


@functools.lru_cache(maxsize=None)
def sweep_steps(K: int) -> list[int]:
    """The cell one sweep step after each of the K*K cells."""
    ring = _Ring(K, K - 1)
    return [ring.shift(c, 1) for c in range(K * K)]


class TestFreeRun:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_the_free_run_is_the_walked_run(self, data):
        # Every cell owed, or none claimed, gives long runs and full ones.
        K = data.draw(st.integers(3, 40))
        masks = st.integers(0, (1 << K * K) - 1)
        owed = data.draw(st.just((1 << K * K) - 1) | masks)
        claimed = data.draw(st.just(0) | masks)
        cell = data.draw(st.integers(0, K * K - 1))
        free = owed & ~claimed
        assert _free_run(free, cell, K) == reference_run_ahead(
            cell, free, sweep_steps(K), K
        )


def reference_commit_fits(
    left: int, size: int, steps: int, arity: int, ring: _Ring
) -> bool:
    """The reference sweep's commit check on the owed mask ``left``."""
    K = ring.n_users
    n = left.bit_count()
    cap = arity if n >= K else min(arity, size)
    left_on = [
        (left >> field * K & (1 << K) - 1).bit_count()
        for field in range(len(ring.owed_diagonals))
    ]
    team = [ring.team[d] for d in ring.owed_diagonals]
    return not (
        n > cap * steps
        or n and not reference_diagonals_feasible(left_on, steps, team)
    )


class TestCapacity:
    """``_capacity`` against the reference sweep's commit check, for the
    commit and for each cell that one more term of it may take."""

    def ring(self, data) -> _Ring:
        K = data.draw(st.integers(3, 16))
        return _Ring(K, data.draw(st.integers(1, K - 1)))

    def check(self, left: int, ring: _Ring, data) -> None:
        # Few steps make the bounds bind.
        arity = data.draw(st.integers(2, ring.n_users))
        size = data.draw(st.integers(0, arity))
        steps = data.draw(st.integers(0, 4))
        fits, line = _capacity(left, size, steps, arity, ring)
        assert fits == reference_commit_fits(left, size, steps, arity, ring)
        for cell in _bits(left):
            assert bool(line >> cell & 1) == reference_commit_fits(
                left ^ 1 << cell, size + 1, steps, arity, ring
            )

    @settings(max_examples=300)
    @given(st.data())
    def test_diagonals_around_their_bound(self, data):
        # Runs of every length put diagonals on both sides of their bound,
        # and exactly one over it; empty ones keep the term count in bound.
        ring = self.ring(data)
        K = ring.n_users
        run = st.integers(0, K).map(lambda n: (1 << n) - 1)
        field = st.just(0) | run.flatmap(
            lambda r: st.integers(0, K - 1).map(
                lambda u: (r << u | r >> K - u) & (1 << K) - 1
            )
        )
        fields = range(len(ring.owed_diagonals))
        self.check(sum(data.draw(field) << f * K for f in fields), ring, data)

    @settings(max_examples=300)
    @given(st.data())
    def test_about_k_cells_left(self, data):
        # The term cap changes at K cells left.
        ring = self.ring(data)
        K = ring.n_users
        cells = data.draw(st.permutations(range(len(ring.compat))))
        n = data.draw(st.integers(K - 1, K + 1))
        self.check(sum(1 << cell for cell in cells[:n]), ring, data)


class TestSpacing:
    @pytest.mark.parametrize("K", range(2, 17))
    def test_no_closer_pair_on_a_diagonal_is_compatible(self, K):
        for i in range(1, K):
            ring = _Ring(K, i)
            for off in range(i, K):
                spacing = ring.spacing[off]
                fits = ring.compat[ring.on_diagonal(0, off)]
                for user in range(1, K):
                    if min(user, K - user) < spacing:
                        assert not fits >> ring.on_diagonal(user, off) & 1


def orbit_construction(K, i, caplog):
    """Which orbit construction finished ``generate_schedule`` for (K, i).

    Reads the fallback's debug line, which names the plan that finished
    and the tiler of its leftover diagonals, if it had any: the coset or
    mirrored plan; the whole-region plan when there were transversal
    groups, which failed; else the tiler, of the diagonals the orbits leave
    loose or of the whole region when there are no groups to orbit; else
    the transversal orbits alone.
    """
    n_groups = (K - i) // scheme_constants(instance(K, i)).arity
    with caplog.at_level(logging.DEBUG, logger="cachecode.delivery"):
        generate_schedule(instance(K, i))
    [line] = [m for m in caplog.messages if m.startswith("orbit fallback ")]
    plan, tiler = re.fullmatch(
        rf"orbit fallback for K={K}, i={i}: (\S+) plan(?:, tiled by (.+))?",
        line,
    ).groups()
    if plan in ("coset", "mirrored"):
        return plan
    if plan == "whole-region" and n_groups:
        return "whole-region tiling"
    return tiler or "transversal orbits"


class TestOrbitConstructions:
    """Each orbit construction finishes at least one instance, all but the
    mirrored plan one with K <= 24."""

    @pytest.mark.parametrize(
        "K,i,construction",
        [
            (14, 11, "coset"),
            (19, 10, "transversal orbits"),
            (19, 13, "spaced run"),
            (13, 10, "min-conflicts"),
            (22, 16, "whole-region tiling"),
            (27, 15, "mirrored"),
        ],
    )
    def test_construction_is_reached(self, K, i, construction, caplog):
        assert orbit_construction(K, i, caplog) == construction


class TestTransversalBlocks:
    def test_only_the_mirrored_blocks_admit_a_transversal(self):
        # K=27, i=15 owes diagonals 15..26; of the 495 blocks of four, only
        # the five closed under the mirror d -> 41 - d have a transversal.
        ring = _Ring(27, 15)
        found = [
            block
            for block in itertools.combinations(ring.owed_diagonals, 4)
            if _orbit_base(block, 1, 27, ring) is not None
        ]
        assert found == [
            (15, 16, 25, 26),
            (16, 17, 24, 25),
            (17, 18, 23, 24),
            (18, 19, 22, 23),
            (19, 20, 21, 22),
        ]


# `_orbit_base` as it was when its callers passed the run starts
# (``anchors``) and it built each later diagonal's reach from them, cell by
# cell, kept verbatim as a reference.  `TestOrbitBaseMatchesReference`
# checks that both find the same base, or none, given the starts the
# callers passed: users 0..d-1 for the plans' blocks, where m*d = K, and
# every user for the spaced-run cover, where d is coprime to K.
def reference_orbit_base(
    offsets: Sequence[int],
    m: int,
    d: int,
    anchors: Sequence[int],
    ring: _Ring,
) -> list[int] | None:
    """First base codeword with m cells spaced d apart on each diagonal.

    On diagonal ``offsets[k]`` the base holds the cells of users a, a+d,
    ..., a+(m-1)d (mod K): a = 0 on the first diagonal, and an anchor a
    from ``anchors`` on the others.  A diagonal is the set of cells
    (u, u + offset mod K), and the shift (u, p) -> (u+1, p+1) keeps every
    cell on its diagonal and keeps mutual caching intact.  So the shifts
    of one base sweep its diagonals (the callers pick m, d and the anchors
    so that they cover each cell once), and a shifted base is again a
    base: as the anchors start every run of m cells d apart, a base exists
    only if one exists whose first run starts at user 0.

    Depth-first over the anchors in the order given, checking every cell
    against all cells chosen before it, and abandoning a branch as soon as
    some later diagonal has no cell its anchors could use left: that
    prunes only branches holding no base, so the first base found is the
    same.
    """
    K = ring.n_users
    compat = ring.compat
    chosen: list[int] = []
    # reach[k]: every cell the anchors may use on diagonal offsets[k + 1].
    reach = []
    for off in offsets[1:]:
        mask = 0
        for a in anchors:
            for l in range(m):
                mask |= 1 << ring.on_diagonal((a + l * d) % K, off)
        reach.append(mask)

    def extend(idx: int, allowed: int) -> bool:
        if idx == len(offsets):
            return True
        if not all(allowed & mask for mask in reach[idx:]):
            return False
        for a in anchors if idx else (0,):
            cells = []
            after = allowed
            for l in range(m):
                cell = ring.on_diagonal((a + l * d) % K, offsets[idx])
                if not after >> cell & 1:
                    break
                cells.append(cell)
                after &= compat[cell]
            else:
                chosen.extend(cells)
                if extend(idx + 1, after):
                    return True
                del chosen[-m:]
        return False

    return chosen if extend(0, _ANY_CELL) else None


# The K <= 24 instances whose sweep gives up, so the orbit fallback runs.
FALLBACK_24 = [
    (13, 10), (14, 11), (16, 12), (17, 9), (17, 12), (17, 13), (17, 14),
    (18, 14), (18, 15), (19, 10), (19, 13), (19, 14), (19, 15), (20, 14),
    (20, 15), (21, 11), (21, 16), (21, 17), (21, 18), (22, 15), (22, 16),
    (22, 18), (22, 19), (23, 12), (23, 17), (23, 18), (23, 19), (24, 18),
    (24, 20),
]


@st.composite
def orbit_base_inputs(draw, coprime):
    """A ring with K <= 30, up to four of its owed diagonals, and a run
    shape: m cells d = K/m apart, or d coprime to K and any m <= K."""
    K = draw(st.integers(2, 30))
    # Large caches and short runs make bases that exist more common.
    i = draw(st.integers(K // 2, K - 1) | st.integers(1, K - 1))
    offsets = draw(
        st.lists(st.integers(i, K - 1), min_size=1, max_size=4, unique=True)
    )
    if coprime:
        coprime_steps = [d for d in range(1, K) if math.gcd(d, K) == 1]
        d = draw(st.sampled_from(coprime_steps))
        m = draw(st.integers(1, min(K, 3)) | st.integers(1, K))
    else:
        m = draw(st.sampled_from([m for m in range(1, K + 1) if K % m == 0]))
        d = K // m
    return offsets, m, d, _Ring(K, i)


class TestOrbitBaseMatchesReference:
    @settings(max_examples=300, derandomize=True)
    @given(orbit_base_inputs(coprime=False))
    def test_coset_runs(self, inputs):
        offsets, m, d, ring = inputs
        assert _orbit_base(offsets, m, d, ring) == reference_orbit_base(
            offsets, m, d, range(d), ring
        )

    @settings(max_examples=300, derandomize=True)
    @given(orbit_base_inputs(coprime=True))
    def test_coprime_runs(self, inputs):
        offsets, m, d, ring = inputs
        assert _orbit_base(offsets, m, d, ring) == reference_orbit_base(
            offsets, m, d, range(ring.n_users), ring
        )

    @pytest.mark.parametrize("K", range(2, 31))
    def test_a_run_through_every_user(self, K):
        # m = K, d = 1: one start gives the run the K starts all give.
        for i in range(1, K):
            ring = _Ring(K, i)
            for offsets in ([K - 1], [i, K - 1], [K - 1, i]):
                assert _orbit_base(offsets, K, 1, ring) == (
                    reference_orbit_base(offsets, K, 1, range(K), ring)
                )
        ring = _Ring(K, K - 1)
        assert _orbit_base([K - 1], K, 1, ring) == [
            ring.on_diagonal(u, K - 1) for u in range(K)
        ]

    def test_every_block_the_fallback_plans_try(self, monkeypatch):
        # The plans passed users 0..K/m-1 and the spaced-run cover every
        # user, whatever m and d.
        calls = []
        real = delivery._orbit_base

        def spy(offsets, m, d, ring):
            caller = sys._getframe(1).f_code.co_name
            K = ring.n_users
            anchors = range(K // m if caller == "_orbit_schedule" else K)
            base = real(offsets, m, d, ring)
            assert base == reference_orbit_base(offsets, m, d, anchors, ring)
            calls.append((caller, base is not None))
            return base

        monkeypatch.setattr(delivery, "_orbit_base", spy)
        for K, i in FALLBACK_24:
            consts = scheme_constants(instance(K, i))
            delivery._orbit_schedule(_Ring(K, i), consts)
        assert sorted(set(calls)) == [
            ("_orbit_schedule", False), ("_orbit_schedule", True),
            ("_spaced_run_cover", False), ("_spaced_run_cover", True),
        ]


# `_coset_cover` and the plan list of `_orbit_schedule` as they were before
# one generator, `_orbit_plans`, yielded the plans as they are tried, kept
# verbatim as a reference.  `TestOrbitPlansMatchReference` checks that both
# give the same plans in the same order.
def reference_coset_cover(
    ring: _Ring, consts: SchemeConstants
) -> Iterator[list[tuple[int, list[int]]]]:
    """Block lists of shift-orbit covers of all owed diagonals.

    Assigns each diagonal a multiplicity m (cells per codeword, a divisor
    of K, with coset spacing K/m no tighter than the diagonal's minimum),
    and packs diagonals of equal multiplicity into blocks (m, diagonals)
    of at most floor(arity/m).  A multiplicity profile is usable only when
    the block counts add up to exactly the required number of
    transmissions; yields the blocks of every usable profile in turn.
    """
    K = ring.n_users
    arity, total = consts.arity, consts.n_transmissions
    offsets = ring.owed_diagonals
    by_cap = sorted(offsets, key=lambda off: (ring.team[off], off))
    caps = [ring.team[off] for off in by_cap]
    divisors = [m for m in range(1, arity + 1) if K % m == 0]
    profiles: list[list[int]] = []

    def enumerate_profiles(
        idx: int, left: int, cws: int, profile: list[int]
    ) -> None:
        if idx == len(divisors):
            if left == 0 and cws == total:
                profiles.append(profile.copy())
            return
        m = divisors[idx]
        width = arity // m
        for n in range(left + 1):
            blocks = -(-n // width) if n else 0
            add = blocks * (K // m)
            if cws + add > total:
                break
            profile.append(n)
            enumerate_profiles(idx + 1, left - n, cws + add, profile)
            profile.pop()

    enumerate_profiles(0, len(offsets), 0, [])
    for profile in profiles:
        # Loosest diagonals take the highest multiplicities; with nested
        # eligibility the sorted pairing is feasible whenever anything is.
        mults: list[int] = []
        for m, n in zip(divisors, profile):
            mults.extend([m] * n)
        mults.sort()
        if any(m > c for m, c in zip(mults, caps)):
            continue
        blocks: list[tuple[int, list[int]]] = []
        for m in sorted(set(mults)):
            group = sorted(off for off, k in zip(by_cap, mults) if k == m)
            width = arity // m
            blocks.extend(
                (m, group[g : g + width]) for g in range(0, len(group), width)
            )
        yield blocks


def reference_orbit_plans(ring: _Ring, consts: SchemeConstants) -> list:
    """The plans `_orbit_schedule` tried, in order, built as it built them."""
    offsets = ring.owed_diagonals
    plans = [("coset", blocks, []) for blocks in reference_coset_cover(ring, consts)]
    n_groups = len(offsets) // consts.arity
    if n_groups:
        by_spacing = sorted(offsets, key=lambda off: (ring.spacing[off], off))
        n_loose = len(offsets) % consts.arity
        grouped = sorted(by_spacing[n_loose:])
        stripes = [(1, grouped[g::n_groups]) for g in range(n_groups)]
        loose = sorted(by_spacing[:n_loose])
        plans.append(("transversal", stripes, loose))
        half = consts.arity // 2
        mirrored = [
            (1, sorted(
                d
                for k in range(g * half, (g + 1) * half)
                for d in (offsets[k], offsets[-1 - k])
            ))
            for g in range(n_groups)
        ]
        if (
            consts.arity % 2 == 0
            and set(loose).isdisjoint(d for _, b in mirrored for d in b)
            and mirrored != stripes
        ):
            plans.append(("mirrored", mirrored, loose))
    plans.append(("whole-region", [], offsets))
    return plans


# `_spaced_run_cover` as it was with its three extra prunes, kept verbatim
# as a reference, its seat budget read from `delivery` at call time.  The
# prunes skip only seatings that cannot land, so both return the same
# cover, or None, wherever neither runs out of seats.
def reference_spaced_run_cover(
    offsets: Sequence[int],
    n_cliques: int,
    arity: int,
    ring: _Ring,
) -> list[tuple[int, ...]] | None:
    """Cover full diagonals with shifted runs of a common step d.

    With d coprime to K, the multiples of d walk through every user index,
    so a base codeword holding m consecutive d-multiples on each listed
    diagonal, shifted q times by m*d, covers the first m*q multiples on
    each diagonal exactly once.  The last K - m*q multiples of each walk
    become extras, seated one by one into the first shifted codeword with
    room and full mutual caching, an already opened extra codeword, or a
    fresh one while fewer than n_cliques - q are open; the first
    depth-first seating that lands the count exactly on ``n_cliques``
    wins.  Everything is tried in one fixed order, smallest m and largest q
    first, so the result is deterministic.
    """
    K = ring.n_users
    compat = ring.compat
    n_diag = len(offsets)
    bases: dict[tuple[int, int], list[int] | None] = {}
    for m in range(1, arity // n_diag + 1):
        spare = arity - m * n_diag
        for q in range(min(K // m, n_cliques), 0, -1):
            rem = K - m * q
            n_extra = n_cliques - q
            extras_total = rem * n_diag
            if extras_total > 2 * arity:
                continue
            if extras_total == 0 and n_extra > 0:
                continue
            if extras_total > q * spare + n_extra * arity:
                continue
            for d in range(1, K):
                if math.gcd(d, K) != 1:
                    continue
                if (m, d) not in bases:
                    bases[m, d] = _orbit_base(offsets, m, d, ring)
                base = bases[m, d]
                if base is None:
                    continue
                # The q shifted codewords first, then the extra ones.
                cliques = [
                    [ring.shift(c, r * m * d) for c in base] for r in range(q)
                ]
                extras = [
                    ring.shift(base[k * m], (m * q + x) * d)
                    for k in range(n_diag)
                    for x in range(rem)
                ]
                budget = delivery._SPACED_RUN_SEATS

                def seat(idx: int) -> bool:
                    nonlocal budget
                    budget -= 1
                    if budget < 0:
                        return False
                    opened = len(cliques) - q
                    if idx == len(extras):
                        return opened == n_extra
                    if opened + (len(extras) - idx) < n_extra:
                        return False
                    cell = extras[idx]
                    for clique in cliques:
                        if len(clique) < arity and all(
                            compat[cell] >> c & 1 for c in clique
                        ):
                            clique.append(cell)
                            if seat(idx + 1):
                                return True
                            clique.pop()
                    if opened < n_extra:
                        cliques.append([cell])
                        if seat(idx + 1):
                            return True
                        cliques.pop()
                    return False

                if seat(0):
                    return [
                        tuple(sorted(c, key=ring.rank.__getitem__))
                        for c in cliques
                    ]
    return None


# The fallback instances past K = 24 that `FALLBACK_DIGESTS` in
# test_schedule_digest.py pins.
FALLBACK_PAST_24 = [
    (31, 26), (32, 27), (25, 13), (31, 20), (38, 23), (39, 24), (40, 34),
    (25, 19), (27, 15), (29, 16), (31, 17), (33, 18), (35, 19), (37, 20),
    (39, 21),
]


class TestOrbitPlansMatchReference:
    def test_every_instance_the_sweep_runs_on(self):
        # All 870 instances with 2i > K and K <= 60, whether or not their
        # sweep gives up.
        kinds = set()
        for K in range(3, 61):
            for i in range(K // 2 + 1, K):
                ring = _Ring(K, i)
                consts = scheme_constants(instance(K, i))
                plans = list(_orbit_plans(ring, consts))
                assert plans == reference_orbit_plans(ring, consts)
                kinds.update(name for name, _, _ in plans)
        assert kinds == {"coset", "transversal", "mirrored", "whole-region"}

    def test_the_fallback_draws_plans_until_one_finishes(self, monkeypatch):
        # K=14, i=11 finishes on the first of its two plans, K=19, i=10 on
        # the second of its three.
        drawn = []
        real = delivery._orbit_plans

        def spy(ring, consts):
            for plan in real(ring, consts):
                drawn.append((ring.n_users, plan[0]))
                yield plan

        monkeypatch.setattr(delivery, "_orbit_plans", spy)
        for K, i in ((14, 11), (19, 10)):
            consts = scheme_constants(instance(K, i))
            assert delivery._orbit_schedule(_Ring(K, i), consts) is not None
        assert drawn == [(14, "coset"), (19, "coset"), (19, "transversal")]

    def test_every_spaced_run_cover_the_fallback_tries(self, monkeypatch):
        calls = []
        real = delivery._spaced_run_cover

        def spy(offsets, n_cliques, arity, ring):
            built = real(offsets, n_cliques, arity, ring)
            assert built == reference_spaced_run_cover(
                offsets, n_cliques, arity, ring
            )
            calls.append(built is not None)
            return built

        monkeypatch.setattr(delivery, "_spaced_run_cover", spy)
        for K, i in FALLBACK_24 + FALLBACK_PAST_24:
            consts = scheme_constants(instance(K, i))
            assert delivery._orbit_schedule(_Ring(K, i), consts) is not None
        assert sorted(set(calls)) == [False, True]


# The min-conflicts tiler that the bit-sliced one replaced, kept verbatim
# as a reference, its budgets read from `delivery` at call time:
# `TestMinconfMatchesReference` checks that both return the same tilings,
# and None on the same inputs.  The reference checks the state only before
# each move, so it loses a pass whose last move clears the last conflict.
def reference_conflicts(order: Sequence[int], ring: ReferenceRing) -> list[int]:
    """Bit b of entry a: cells order[a] and order[b] cannot share a codeword."""
    conflicts = []
    for a, cell in enumerate(order):
        fits = ring.compat[cell]
        conflicts.append(
            sum(
                1 << b
                for b, other in enumerate(order)
                if b != a and not fits >> other & 1
            )
        )
    return conflicts


def reference_tile_minconf(
    cells: Collection[int],
    n_cliques: int,
    arity: int,
    ring: ReferenceRing,
) -> list[tuple[int, ...]] | None:
    """Partition ``cells`` into ``n_cliques`` codewords by local search.

    Deals the cells round-robin into the codeword slots, then repairs:
    each step picks a cell that conflicts with a slot-mate and applies the
    best conflict-reducing move or swap, breaking ties by seeded choice,
    with a one-percent chance of a random swap to shake loose of plateaus.
    A stalled pass restarts from a reshuffled deal with the next seed, so
    the whole procedure is reproducible.  Fast on the irregular instances
    that admit no shift structure; returns None when every pass stalls,
    which says nothing about feasibility.
    """
    order = sorted(set(cells))
    n = len(order)
    if not (0 < n_cliques <= n <= arity * n_cliques):
        return None
    adj = reference_conflicts(order, ring)
    floor_size = max(1, n - arity * (n_cliques - 1))
    for seed in range(delivery._MINCONF_SEEDS):
        rng = random.Random(seed)
        deal = list(range(n))
        rng.shuffle(deal)
        assign = [0] * n
        slots = [0] * n_cliques
        for pos, b in enumerate(deal):
            j = pos % n_cliques
            assign[b] = j
            slots[j] |= 1 << b
        # own[b]: conflicts of b with its slot-mates; members[j]: the
        # occupants of slot j in ascending order.
        own = [(adj[b] & slots[assign[b]]).bit_count() for b in range(n)]
        conflicted = {b for b in range(n) if own[b]}
        members = [_bits(slot) for slot in slots]

        def refresh(touched: set[int]) -> None:
            for x in touched:
                own[x] = (adj[x] & slots[assign[x]]).bit_count()
                if own[x]:
                    conflicted.add(x)
                else:
                    conflicted.discard(x)

        for _ in range(delivery._MINCONF_MOVES):
            if not conflicted:
                return [
                    tuple(order[b] for b in members[j])
                    for j in range(n_cliques)
                ]
            pool = sorted(conflicted)
            cell = pool[rng.randrange(len(pool))]
            cur = assign[cell]
            target = -1
            partner = -1
            if n_cliques > 1 and rng.random() < 0.01:
                target = rng.randrange(n_cliques - 1)
                if target >= cur:
                    target += 1
                seats = members[target]
                partner = seats[rng.randrange(len(seats))]
            else:
                cell_adj = adj[cell]
                can_leave = len(members[cur]) > floor_size
                best: int | None = None
                moves: list[tuple[int, int]] = []
                for j in range(n_cliques):
                    if j == cur:
                        continue
                    gain = (cell_adj & slots[j]).bit_count() - own[cell]
                    if can_leave and len(members[j]) < arity:
                        delta = gain
                        if best is None or delta <= best:
                            if best is None or delta < best:
                                moves = []
                            best = delta
                            moves.append((j, -1))
                    for b in members[j]:
                        # Swapping cell and b: neither counts the other
                        # as a conflict once they have traded slots.
                        delta = (
                            gain
                            - 2 * (cell_adj >> b & 1)
                            + (adj[b] & slots[cur]).bit_count()
                            - own[b]
                        )
                        if best is None or delta <= best:
                            if best is None or delta < best:
                                moves = []
                            best = delta
                            moves.append((j, b))
                if not moves:
                    break
                target, partner = moves[rng.randrange(len(moves))]
            slots[cur] &= ~(1 << cell)
            if partner >= 0:
                slots[target] &= ~(1 << partner)
                slots[cur] |= 1 << partner
                assign[partner] = cur
            slots[target] |= 1 << cell
            assign[cell] = target
            members[cur] = _bits(slots[cur])
            members[target] = _bits(slots[target])
            touched = {cell}
            if partner >= 0:
                touched.add(partner)
            near = adj[cell] | (adj[partner] if partner >= 0 else 0)
            touched.update(_bits(near & (slots[cur] | slots[target])))
            refresh(touched)
    return None


def reference_tiling(cells, n_cliques, arity, ring):
    """`reference_tile_minconf` on the same cells of `ReferenceRing`, as
    sub-packet ids."""
    old = ReferenceRing(build_cache_layout(instance(ring.n_users, ring.cache_units)))
    tiled = reference_tile_minconf(
        [old.cell(t) for t in ring.codeword(cells)], n_cliques, arity, old
    )
    return None if tiled is None else [old.codeword(cw) for cw in tiled]


def tiling(cells, n_cliques, arity, ring):
    """`_tile_minconf` as sub-packet ids."""
    tiled = _tile_minconf(cells, n_cliques, arity, ring)
    return None if tiled is None else [ring.codeword(cw) for cw in tiled]


def orbit_tilings(K, i):
    """The min-conflicts calls of (K, i)'s orbit fallback, with results."""
    calls = []
    real = delivery._tile_minconf

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    params = instance(K, i)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(delivery, "_tile_minconf", spy)
        delivery._orbit_schedule(_Ring(K, i), scheme_constants(params))
    return calls


def whole_region(K, i):
    """The tiler's input for all of (K, i)'s owed diagonals."""
    params = instance(K, i)
    ring = _Ring(K, i)
    arity = scheme_constants(params).arity
    cells = [
        ring.on_diagonal(u, off)
        for off in ring.owed_diagonals
        for u in range(K)
    ]
    return cells, -(-len(cells) // arity), arity, ring


class TestMinconfMatchesReference:
    @pytest.mark.parametrize("K,i", [(13, 10), (19, 14), (22, 16)])
    def test_orbit_fallback_tilings(self, K, i):
        calls = orbit_tilings(K, i)
        assert calls
        for args, tiled in calls:
            assert tiled is not None
            ring = args[-1]
            assert [ring.codeword(cw) for cw in tiled] == reference_tiling(*args)

    def test_stalled_passes_restart_alike(self, monkeypatch):
        # With 1000 moves a pass, seeds 0-3 stall on 19:14 and seed 4 tiles.
        args = whole_region(19, 14)
        monkeypatch.setattr(delivery, "_MINCONF_MOVES", 1000)
        monkeypatch.setattr(delivery, "_MINCONF_SEEDS", 4)
        assert _tile_minconf(*args) is None
        monkeypatch.setattr(delivery, "_MINCONF_SEEDS", 8)
        tiled = tiling(*args)
        assert tiled is not None
        assert tiled == reference_tiling(*args)

    def test_every_pass_stalls_alike(self, monkeypatch):
        monkeypatch.setattr(delivery, "_MINCONF_MOVES", 200)
        monkeypatch.setattr(delivery, "_MINCONF_SEEDS", 5)
        args = whole_region(22, 16)
        assert _tile_minconf(*args) is None
        assert reference_tiling(*args) is None

    def test_one_codeword_alike(self):
        # The cases of `TestTilingGuards.test_minconf_for_one_codeword`.
        for K, i in ((13, 10), (4, 3)):
            ring = _Ring(K, i)
            cells = [ring.on_diagonal(u, i) for u in range(K)]
            assert tiling(cells, 1, K, ring) == reference_tiling(
                cells, 1, K, ring
            )

    def test_the_state_after_the_last_move_counts(self, monkeypatch):
        # Seed 0 clears 13:10's last three diagonals on its 58th move.  The
        # reference checks only before each move, so it needs a 59th.
        ring = _Ring(13, 10)
        cells = [
            ring.on_diagonal(u, off) for off in (10, 11, 12) for u in range(13)
        ]
        monkeypatch.setattr(delivery, "_MINCONF_SEEDS", 1)
        monkeypatch.setattr(delivery, "_MINCONF_MOVES", 58)
        tiled = tiling(cells, 7, 6, ring)
        assert tiled is not None
        assert reference_tiling(cells, 7, 6, ring) is None
        monkeypatch.setattr(delivery, "_MINCONF_MOVES", 59)
        assert reference_tiling(cells, 7, 6, ring) == tiled


def refuse(name):
    def call(*args):
        raise AssertionError(f"{name} was called")

    return call


class TestTilingGuards:
    """Guards of the tilers that no instance in the test suite reaches."""

    def ring(self, K, i):
        return _Ring(K, i)

    @pytest.mark.parametrize(
        "offsets,n_cliques",
        [
            # 39 cells, at most 6 per codeword: 7 codewords at least.
            ([10, 11, 12], 6),
            # At most 4 cells of diagonal 10 per codeword: 4 at least.
            ([10], 3),
            # No diagonals fill no codeword.
            ([], 1),
        ],
    )
    def test_tiling_below_its_lower_bound_runs_no_tiler(
        self, offsets, n_cliques, monkeypatch
    ):
        ring = self.ring(13, 10)
        assert ring.team[10] == 4
        monkeypatch.setattr(
            delivery, "_spaced_run_cover", refuse("_spaced_run_cover")
        )
        monkeypatch.setattr(delivery, "_tile_minconf", refuse("_tile_minconf"))
        assert _tile_leftover(offsets, n_cliques, 6, ring) is None

    def test_tiling_at_its_lower_bound_runs_the_tilers(self):
        ring = self.ring(13, 10)
        tiled, tiler = _tile_leftover([10, 11, 12], 7, 6, ring)
        assert tiler == "min-conflicts"
        assert len(tiled) == 7
        assert sorted(c for cw in tiled for c in cw) == sorted(
            ring.on_diagonal(u, off) for off in (10, 11, 12) for u in range(13)
        )
        assert _tile_leftover([], 0, 6, ring) == ([], "")

    def test_minconf_for_one_codeword(self):
        # With one slot there is nothing to move or swap into: conflicting
        # cells stall every pass, and a compatible set is its own codeword.
        ring = self.ring(13, 10)
        diagonal = [ring.on_diagonal(u, 10) for u in range(13)]
        assert _tile_minconf(diagonal, 1, 13, ring) is None
        ring = self.ring(4, 3)
        codeword = [ring.on_diagonal(u, 3) for u in range(4)]
        assert _tile_minconf(codeword, 1, 4, ring) == [tuple(codeword)]

    @pytest.mark.parametrize(
        "n_cliques,arity",
        [
            # No codeword to fill.
            (0, 4),
            # Four cells, at most three per codeword.
            (1, 3),
            # Four cells cannot fill five codewords.
            (5, 4),
        ],
    )
    def test_minconf_needs_cells_its_codewords_can_hold(self, n_cliques, arity):
        # The four cells of K=4, i=3 form one codeword, so only the count
        # check stands between them and a tiling.
        ring = self.ring(4, 3)
        codeword = [ring.on_diagonal(u, 3) for u in range(4)]
        assert _tile_minconf(codeword, n_cliques, arity, ring) is None

    def test_spaced_run_needs_a_cell_per_diagonal(self, monkeypatch):
        # K=25, i=18 owes seven diagonals; a codeword holds at most six
        # cells, so no base can sample all of them.
        ring = self.ring(25, 18)
        monkeypatch.setattr(delivery, "_orbit_base", refuse("_orbit_base"))
        assert _spaced_run_cover(ring.owed_diagonals, 30, 6, ring) is None

    def test_a_spaced_run_cover_out_of_seats_leaves_min_conflicts(
        self, monkeypatch, caplog
    ):
        # K=19, i=13 tiles its loose diagonals by spaced runs; with no seat
        # to spend every run gives up, and min-conflicts tiles them.
        monkeypatch.setattr(delivery, "_SPACED_RUN_SEATS", 0)
        with caplog.at_level(logging.DEBUG, logger="cachecode.delivery"):
            schedule = generate_schedule(instance(19, 13))
        assert caplog.messages[-1] == (
            "orbit fallback for K=19, i=13: transversal plan, "
            "tiled by min-conflicts"
        )
        assert verify_instantaneous_decodability(schedule).ok

    def test_no_plan_finishing_raises(self, monkeypatch):
        # K=13, i=10 has only the whole-region plan: with both tilers
        # refusing, the orbit fallback finds nothing.
        monkeypatch.setattr(delivery, "_spaced_run_cover", lambda *args: None)
        monkeypatch.setattr(delivery, "_tile_minconf", lambda *args: None)
        plans = []
        real = delivery._orbit_schedule

        def orbit_schedule(*args):
            plans.append(real(*args))
            return plans[-1]

        monkeypatch.setattr(delivery, "_orbit_schedule", orbit_schedule)
        with pytest.raises(
            ScheduleError,
            match=r"^K=13, i=10: no schedule of 7 transmissions found$",
        ):
            generate_schedule(instance(13, 10))
        assert plans == [None]


def test_generation_imports_neither_numpy_nor_scipy(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "from cachecode import SystemParams, generate_schedule, "
        "min_pair_transmissions\n"
        "from cachecode.cli import main\n"
        "generate_schedule(SystemParams(13, 13, 10))\n"
        "main(['schedule', '--K', '6', '--i', '4', '--verify', '--out', 'x'])\n"
        "main(['simulate', '--K', '6', '--i', '4', '--out', 'x'])\n"
        "print(sorted({'networkx', 'numpy', 'scipy'} & set(sys.modules)))\n"
        "min_pair_transmissions(SystemParams(8, 8, 3))\n"
        "print(sorted({'networkx', 'numpy', 'scipy'} & set(sys.modules)))\n"
    )
    # -S skips site-packages, so any third-party import would fail here.
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, check=True, cwd=tmp_path,
    )
    assert done.stdout == "[]\n[]\n"
