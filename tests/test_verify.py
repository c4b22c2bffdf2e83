"""Unit tests for the verifier: structural decodability checks, the byte
store, end-to-end XOR simulation (against a byte-level reference), and the
exact pair-schedule oracle."""

import functools
import itertools
import logging
import random
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachecode import verify
from cachecode.delivery import TransmissionSchedule, generate_schedule
from cachecode.errors import InstanceError, RegimeError, SimulationMismatch
from cachecode.model import (
    CacheLayout,
    SubpacketId,
    SystemParams,
    build_cache_layout,
    build_demand_list,
    random_demand,
    validate_demand,
)
from cachecode.multiaccess import CcdnParams, ccdn_schedule, ccdn_user_view
from cachecode.verify import (
    FileStore,
    VerificationReport,
    Violation,
    min_pair_transmissions,
    random_file_store,
    simulate_end_to_end,
    verify_instantaneous_decodability,
)


def instance(K: int, i: int, N: int | None = None) -> SystemParams:
    return SystemParams(n_files=N if N is not None else K, n_users=K, cache_units=i)


def schedule_with(params: SystemParams, codewords) -> TransmissionSchedule:
    """Hand-built schedule wrapper for tamper tests (shape not asserted)."""
    return TransmissionSchedule(tuple(tuple(cw) for cw in codewords), params)


class TestStructuralVerifier:
    def test_generated_schedule_passes(self):
        report = verify_instantaneous_decodability(generate_schedule(instance(6, 4)))
        assert report.ok
        assert report.decodable and report.coverage_ok
        assert report.violations == ()

    def test_every_schedule_up_to_k_24_is_decodable(self):
        # The 276 instances with 2 <= K <= 24 and 1 <= i <= K-1.
        for K in range(2, 25):
            for i in range(1, K):
                schedule = generate_schedule(instance(K, i))
                assert verify_instantaneous_decodability(schedule).ok, (K, i)

    def test_one_sided_codeword_is_flagged_at_the_blind_term(self):
        # User 3 caches packet 5, but user 1 does not cache packet 6: user 1
        # cannot cancel the companion, so the violation lands on (1, 5).
        tampered = schedule_with(
            instance(6, 4), [[SubpacketId(1, 5), SubpacketId(3, 6)]]
        )
        report = verify_instantaneous_decodability(tampered)
        assert not report.decodable
        undecodable = [
            v for v in report.violations if v.reason.startswith("undecodable")
        ]
        assert len(undecodable) == 1
        assert undecodable[0].codeword_index == 0
        assert undecodable[0].term == SubpacketId(1, 5)

    def test_duplicate_terms_are_flagged(self):
        base = generate_schedule(instance(6, 4))
        tampered = schedule_with(
            base.params, list(base.codewords) + [(SubpacketId(1, 5),)]
        )
        report = verify_instantaneous_decodability(tampered)
        assert report.decodable
        assert not report.coverage_ok
        assert any(v.reason.startswith("duplicate") for v in report.violations)

    def test_undemanded_terms_are_flagged(self):
        tampered = schedule_with(instance(6, 4), [[SubpacketId(1, 1)]])
        report = verify_instantaneous_decodability(tampered)
        assert any(v.reason.startswith("not-demanded") for v in report.violations)

    def test_dropped_codeword_reports_the_missing_demands(self):
        base = generate_schedule(instance(6, 4))
        tampered = schedule_with(base.params, base.codewords[:-1])
        report = verify_instantaneous_decodability(tampered)
        assert report.decodable
        assert not report.coverage_ok
        missing = [v for v in report.violations if v.reason.startswith("missing")]
        assert {v.term for v in missing} == set(base.codewords[-1])
        assert all(v.codeword_index is None for v in missing)

    @pytest.mark.parametrize("user", [0, 7])
    @pytest.mark.parametrize("companion", [False, True])
    def test_a_user_outside_the_instance_is_one_not_demanded_term(
        self, user, companion
    ):
        # K=6, i=4: user 1 caches packet 2, so the companion (1, 5) stays
        # decodable and only the stray term is at fault (besides the
        # companion being sent twice).
        stray = SubpacketId(user, 2)
        extra = (SubpacketId(1, 5), stray) if companion else (stray,)
        base = generate_schedule(instance(6, 4))
        tampered = schedule_with(base.params, list(base.codewords) + [extra])
        report = verify_instantaneous_decodability(tampered)
        assert report.decodable
        assert not report.coverage_ok
        n = len(base.codewords)
        assert [v for v in report.violations if v.term == stray] == [
            (n, stray, f"not-demanded: user {user} is outside 1..6")
        ]
        assert len(report.violations) == 1 + companion

    @pytest.mark.parametrize("packet", [0, 7])
    @pytest.mark.parametrize("companion", [False, True])
    def test_a_packet_outside_the_instance_is_one_not_demanded_term(
        self, packet, companion
    ):
        # K=6, i=4: the companion (1, 5) is checked against no packet of
        # the stray term, so only the stray term is at fault (besides the
        # companion being sent twice).
        stray = SubpacketId(2, packet)
        extra = (SubpacketId(1, 5), stray) if companion else (stray,)
        base = generate_schedule(instance(6, 4))
        tampered = schedule_with(base.params, list(base.codewords) + [extra])
        report = verify_instantaneous_decodability(tampered)
        assert report.decodable
        assert not report.coverage_ok
        n = len(base.codewords)
        assert [v for v in report.violations if v.term == stray] == [
            (n, stray, f"not-demanded: packet {packet} is outside 1..6")
        ]
        assert len(report.violations) == 1 + companion

    def test_plain_tuple_terms_are_checked_like_subpacket_ids(self):
        base = generate_schedule(instance(6, 4))
        plain = [tuple((u, p) for u, p in cw) for cw in base.codewords]
        assert verify_instantaneous_decodability(schedule_with(base.params, plain)).ok
        report = verify_instantaneous_decodability(
            schedule_with(base.params, plain + [((7, 2),)])
        )
        assert [v.reason for v in report.violations] == [
            "not-demanded: user 7 is outside 1..6"
        ]
        report = verify_instantaneous_decodability(
            schedule_with(base.params, plain + [((1, 9),), ((1, 2),)])
        )
        assert [v.reason for v in report.violations] == [
            "not-demanded: packet 9 is outside 1..6",
            "not-demanded: user 1 already caches packet 2",
        ]

    def test_full_cache_empty_schedule_is_ok(self):
        report = verify_instantaneous_decodability(generate_schedule(instance(5, 5)))
        assert report.ok

    def test_explicit_layout_is_honored(self):
        schedule = generate_schedule(instance(6, 4))
        own = build_cache_layout(schedule.params)
        assert verify_instantaneous_decodability(schedule, layout=own).ok
        # Against a much smaller cache the same codewords are undecodable.
        foreign = build_cache_layout(instance(6, 1))
        assert not verify_instantaneous_decodability(schedule, layout=foreign).ok


# The verifier that the bitmask one replaced, kept verbatim as a reference:
# `TestVerifierMatchesReference` checks that both give the same report,
# violations in order, on tampered schedules.
def reference_verify(
    schedule: TransmissionSchedule, layout: CacheLayout | None = None
) -> VerificationReport:
    if layout is None:
        layout = build_cache_layout(schedule.params)
    K = layout.n_users
    violations: list[Violation] = []
    for ci, cw in enumerate(schedule.codewords):
        for u, p in cw:
            if not (1 <= u <= K and 1 <= p <= K):
                continue
            for u2, p2 in cw:
                if (u2, p2) == (u, p) or not 1 <= p2 <= K:
                    continue
                if not layout.knows(u, p2):
                    violations.append(
                        Violation(
                            ci,
                            SubpacketId(u, p),
                            f"undecodable: user {u} does not cache packet "
                            f"{p2} of companion term ({u2},{p2})",
                        )
                    )
    expected = {
        SubpacketId(u, p) for u in range(1, K + 1) for p in layout.missing(u)
    }
    first_seen: dict[SubpacketId, int] = {}
    for ci, cw in enumerate(schedule.codewords):
        for term in cw:
            user, packet = term
            if not 1 <= user <= K:
                violations.append(
                    Violation(
                        ci, term, f"not-demanded: user {user} is outside 1..{K}"
                    )
                )
            elif not 1 <= packet <= K:
                violations.append(
                    Violation(
                        ci,
                        term,
                        f"not-demanded: packet {packet} is outside 1..{K}",
                    )
                )
            elif term in first_seen:
                violations.append(
                    Violation(
                        ci,
                        term,
                        f"duplicate: already sent in transmission "
                        f"{first_seen[term]}",
                    )
                )
            elif term not in expected:
                violations.append(
                    Violation(
                        ci,
                        term,
                        f"not-demanded: user {user} already caches "
                        f"packet {packet}",
                    )
                )
            else:
                first_seen[term] = ci
    for term in sorted(expected - set(first_seen)):
        violations.append(
            Violation(None, term, "missing: demanded sub-packet never sent")
        )
    decodable = not any(v.reason.startswith("undecodable") for v in violations)
    coverage_ok = not any(
        v.reason.startswith(("duplicate", "not-demanded", "missing"))
        for v in violations
    )
    return VerificationReport(decodable, coverage_ok, tuple(violations))


@functools.lru_cache(maxsize=None)
def schedule_and_layout(K: int, i: int, L: int | None = None):
    """A generated schedule and the layout to check it against: the cyclic
    placement, or the users' views of multi-access point (K, L, i)."""
    if L is None:
        schedule = generate_schedule(instance(K, i))
        return schedule, build_cache_layout(schedule.params)
    point = CcdnParams(n_files=K, n_users=K, access_degree=L, cache_units=i)
    return ccdn_schedule(point), ccdn_user_view(point)


def same_report(schedule: TransmissionSchedule, layout=None) -> VerificationReport:
    """Both verifiers' report, after asserting that they agree, term types
    included."""
    new = verify_instantaneous_decodability(schedule, layout)
    old = reference_verify(schedule, layout)
    assert new == old
    assert [type(v.term) for v in new.violations] == [
        type(v.term) for v in old.violations
    ]
    return new


@st.composite
def tampered_schedules(draw):
    """(schedule, layout) for a generated schedule after a few tamperings:
    dropped codewords, swapped terms, duplicated terms, terms with a user or
    packet outside 1..K, terms the user caches, a packet repeated inside one
    codeword, and plain-tuple terms.  The layout is None for the cyclic
    placement, so the verifiers build their own."""
    key = draw(
        st.one_of(
            st.integers(2, 12).flatmap(
                lambda K: st.tuples(st.just(K), st.integers(1, K))
            ),
            # Multi-access points (K, i, L), checked against the users' views.
            st.sampled_from([(10, 1, 6), (10, 3, 3), (9, 2, 4), (12, 1, 7)]),
        )
    )
    schedule, layout = schedule_and_layout(*key)
    K = layout.n_users
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

    kinds = ["drop", "swap", "duplicate", "outside", "cached", "repeat", "plain"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4)):
        cw = codewords[pick(codewords)] if codewords else []
        if kind == "outside":
            u = draw(st.integers(-1, K + 1))
            outside = st.sampled_from([-1, 0, K + 1])
            add(SubpacketId(u, draw(outside if 1 <= u <= K else st.integers(-1, K + 1))))
        elif kind == "cached":
            u = draw(st.integers(1, K))
            cached = sorted(layout.cached[u - 1])
            if cached:
                add(SubpacketId(u, draw(st.sampled_from(cached))))
        elif not cw:
            continue
        elif kind == "drop":
            codewords.remove(cw)
        elif kind == "swap":
            other = codewords[pick(codewords)]
            if other:
                x, y = pick(cw), pick(other)
                cw[x], other[y] = other[y], cw[x]
        elif kind == "duplicate":
            add(cw[pick(cw)])
        elif kind == "repeat":
            packet = cw[pick(cw)][1]
            cw.insert(pick(cw) + 1, SubpacketId(draw(st.integers(1, K)), packet))
        else:
            cw[:] = [tuple(term) for term in cw]
    layout = layout if len(key) == 3 else None
    return schedule_with(schedule.params, codewords), layout


class TestVerifierMatchesReference:
    @settings(max_examples=400, derandomize=True)
    @given(tampered_schedules())
    def test_tampered_schedules(self, case):
        same_report(*case)

    @pytest.mark.parametrize("K,i,at", [(2, 1, 0), (6, 4, 1), (10, 3, 7)])
    def test_a_packet_repeated_in_one_codeword(self, K, i, at):
        # A second user's term on a demanded packet of the codeword: the
        # first term's user does not cache that packet, though every other
        # packet of the codeword is one it caches.
        schedule, layout = schedule_and_layout(K, i)
        codewords = [list(cw) for cw in schedule.codewords]
        u, p = codewords[at][0]
        u2 = u % K + 1
        codewords[at].append(SubpacketId(u2, p))
        report = same_report(schedule_with(schedule.params, codewords))
        assert not report.decodable
        assert report.violations[0] == (
            at,
            SubpacketId(u, p),
            f"undecodable: user {u} does not cache packet {p} of companion "
            f"term ({u2},{p})",
        )


class TestFileStore:
    def test_slicing(self):
        store = FileStore(files=(b"abcdef", b"ghijkl"), n_subpackets=3)
        assert store.subpacket_size == 2
        assert store.subpacket(1, 2) == b"cd"
        assert store.subpacket(2, 3) == b"kl"

    @pytest.mark.parametrize(
        "file_index,packet,message",
        [
            (0, 1, "file 0 is outside 1..2"),
            (3, 1, "file 3 is outside 1..2"),
            (1, -1, "packet -1 is outside 1..3"),
            (1, 0, "packet 0 is outside 1..3"),
            (1, 4, "packet 4 is outside 1..3"),
        ],
    )
    def test_rejects_a_file_or_packet_outside_the_store(
        self, file_index, packet, message
    ):
        store = FileStore(files=(b"abcdef", b"ghijkl"), n_subpackets=3)
        with pytest.raises(InstanceError) as err:
            store.subpacket(file_index, packet)
        assert str(err.value) == message

    def test_rejects_ragged_or_indivisible_files(self):
        with pytest.raises(InstanceError):
            FileStore(files=(), n_subpackets=3)
        with pytest.raises(InstanceError):
            FileStore(files=(b"abc", b"de"), n_subpackets=3)
        with pytest.raises(InstanceError):
            FileStore(files=(b"abcd", b"efgh"), n_subpackets=3)
        with pytest.raises(InstanceError):
            FileStore(files=(b"", b""), n_subpackets=3)

    @pytest.mark.parametrize("n_subpackets", [0, -2])
    def test_rejects_fewer_than_one_subpacket(self, n_subpackets):
        with pytest.raises(InstanceError, match="at least one sub-packet"):
            FileStore(files=(b"abcd",), n_subpackets=n_subpackets)

    @pytest.mark.parametrize("n_subpackets", [2.0, 4.0, "3", None])
    def test_rejects_a_count_that_is_not_an_integer(self, n_subpackets):
        with pytest.raises(InstanceError) as err:
            FileStore(files=(b"abcd",), n_subpackets=n_subpackets)
        assert str(err.value) == (
            f"n_subpackets is {n_subpackets!r}, which is not an integer"
        )

    def test_an_integer_like_count_is_stored_as_an_int(self):
        store = FileStore(files=(b"ab",), n_subpackets=True)
        assert type(store.n_subpackets) is int
        assert store.subpacket(1, 1) == b"ab"

    def test_a_float_count_never_reaches_the_simulator(self):
        # 4.0 == 4 would pass the simulator's check against K = 4.
        params = instance(4, 2)
        files = random_file_store(params, seed=1).files
        with pytest.raises(InstanceError, match="n_subpackets is 4.0"):
            simulate_end_to_end(params, range(1, 5), FileStore(files, 4.0))

    @pytest.mark.parametrize("size", [2.0, "3", None])
    def test_random_store_rejects_a_size_that_is_not_an_integer(self, size):
        with pytest.raises(InstanceError) as err:
            random_file_store(instance(4, 2), seed=1, subpacket_size=size)
        assert str(err.value) == (
            f"subpacket_size is {size!r}, which is not an integer"
        )

    def test_random_store_is_seed_deterministic(self):
        params = instance(6, 4, N=4)
        first = random_file_store(params, seed=3, subpacket_size=2)
        again = random_file_store(params, seed=3, subpacket_size=2)
        assert first.files == again.files
        assert len(first.files) == 4
        assert all(len(f) == 12 for f in first.files)
        assert first.files != random_file_store(params, seed=4, subpacket_size=2).files


# The byte-level simulator that the int-slice one replaced, kept verbatim as
# a reference: `TestSimulatorMatchesReference` checks that both give the same
# result, the same strict message and the same warnings on every input.
log = logging.getLogger("cachecode.verify")


def _xor(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise ValueError(f"cannot XOR {len(a)} bytes with {len(b)} bytes")
    x = int.from_bytes(a, "big") ^ int.from_bytes(b, "big")
    return x.to_bytes(len(a), "big")


def reference_simulate(
    params: SystemParams,
    demands: Sequence[int],
    store: FileStore,
    seed: int = 0,
    *,
    layout: CacheLayout | None = None,
    schedule: TransmissionSchedule | None = None,
    strict: bool = False,
) -> bool:
    """Run placement, delivery, and decoding on real bytes.

    Caches are filled from the layout (packet slices of every file), each
    codeword becomes the XOR of the demanded slices it combines, and every
    user then decodes using only its cache and the broadcast payloads:
    whenever a codeword has exactly one slice the user does not know, the
    known ones are cancelled and the leftover is learned.  One pass suffices
    for a decodable schedule; needing more is logged as a warning because it
    signals a decodability violation.  Returns True iff every user's
    reassembled file equals its demanded file bit for bit.  With
    ``strict=True`` the first failure raises :class:`SimulationMismatch`
    naming the user and packet; ``seed`` is echoed in that message so runs
    can be reproduced.
    """
    demands = validate_demand(params, demands)
    K = params.n_users
    if store.n_subpackets != K:
        raise InstanceError(
            f"store splits files into {store.n_subpackets} sub-packets, "
            f"instance needs {K}"
        )
    if len(store.files) < params.n_files:
        raise InstanceError(
            f"store holds {len(store.files)} files, instance has "
            f"{params.n_files}"
        )
    if layout is None:
        layout = build_cache_layout(params)
    if schedule is None:
        schedule = generate_schedule(params, demands)
    payloads = []
    for cw in schedule.codewords:
        acc = bytes(store.subpacket_size)
        for u, p in cw:
            acc = _xor(acc, store.subpacket(demands[u - 1], p))
        payloads.append(acc)

    def fail(user: int, packet: int | None, why: str) -> bool:
        if strict:
            where = f"sub-packet {packet} of " if packet is not None else ""
            raise SimulationMismatch(
                f"user {user}: {where}file {demands[user - 1]} {why} "
                f"(seed={seed})"
            )
        return False

    for user in range(1, K + 1):
        known: dict[tuple[int, int], bytes] = {}
        for n in range(1, len(store.files) + 1):
            for p in layout.packets(user):
                known[(n, p)] = store.subpacket(n, p)
        want = demands[user - 1]
        passes = 0
        while any((want, p) not in known for p in range(1, K + 1)):
            passes += 1
            progress = False
            for cw, payload in zip(schedule.codewords, payloads):
                unknown = [
                    (u, p) for u, p in cw if (demands[u - 1], p) not in known
                ]
                if len(unknown) != 1:
                    continue
                u1, p1 = unknown[0]
                residual = payload
                for u2, p2 in cw:
                    if (u2, p2) == (u1, p1):
                        continue
                    residual = _xor(residual, known[(demands[u2 - 1], p2)])
                known[(demands[u1 - 1], p1)] = residual
                progress = True
            if not progress:
                hole = next(
                    p for p in range(1, K + 1) if (want, p) not in known
                )
                return fail(user, hole, "was never recovered")
        if passes > 1:
            log.warning(
                "user %d needed %d decoding passes; the schedule is not "
                "decodable on sight",
                user,
                passes,
            )
        rebuilt = b"".join(known[(want, p)] for p in range(1, K + 1))
        if rebuilt != store.files[want - 1]:
            return fail(user, None, "reassembled with wrong bytes")
    return True


class TestSimulation:
    def test_identity_demand_round_trip(self):
        params = instance(6, 4)
        store = random_file_store(params, seed=0)
        assert simulate_end_to_end(params, range(1, 7), store, strict=True)

    def test_repeated_demands_round_trip(self):
        params = instance(6, 4)
        store = random_file_store(params, seed=1)
        assert simulate_end_to_end(params, [1] * 6, store, strict=True)

    def test_random_demand_round_trips(self):
        params = instance(7, 3, N=9)
        store = random_file_store(params, seed=2)
        for seed in range(5):
            demands = random_demand(params, seed)
            assert simulate_end_to_end(params, demands, store, seed=seed, strict=True)

    def test_full_cache_needs_no_transmissions(self):
        params = instance(5, 5)
        store = random_file_store(params, seed=0)
        assert simulate_end_to_end(params, [1] * 5, store, strict=True)

    def test_wide_subpackets_round_trip(self):
        params = instance(6, 4)
        store = random_file_store(params, seed=7, subpacket_size=5)
        assert simulate_end_to_end(params, range(1, 7), store, strict=True)

    def test_dropped_codeword_fails_the_simulation(self):
        params = instance(6, 4)
        base = generate_schedule(params)
        broken = schedule_with(params, base.codewords[:-1])
        store = random_file_store(params, seed=0)
        assert not simulate_end_to_end(
            params, range(1, 7), store, schedule=broken
        )
        with pytest.raises(SimulationMismatch, match="user 1"):
            simulate_end_to_end(
                params, range(1, 7), store, schedule=broken, strict=True
            )

    # The reference simulator's XOR, which the package no longer needs.
    @pytest.mark.parametrize("size", [0, 1, 3, 1024])
    def test_xor_matches_the_bytewise_definition(self, size):
        a = bytes((7 * k + 1) % 256 for k in range(size))
        b = bytes((13 * k + 200) % 256 for k in range(size))
        assert _xor(a, b) == bytes(x ^ y for x, y in zip(a, b))
        assert _xor(a, a) == bytes(size)

    def test_xor_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            _xor(bytes(3), bytes(4))

    @pytest.mark.parametrize("user", [0, 7])
    @pytest.mark.parametrize("companion", [False, True])
    def test_a_user_outside_the_instance_is_rejected(self, user, companion):
        params = instance(6, 4)
        stray = SubpacketId(user, 2)
        extra = (SubpacketId(1, 5), stray) if companion else (stray,)
        schedule = schedule_with(
            params, list(generate_schedule(params).codewords) + [extra]
        )
        store = random_file_store(params, seed=0)
        with pytest.raises(InstanceError, match=rf"term \({user},2\) names user {user}"):
            simulate_end_to_end(
                params, range(1, 7), store, schedule=schedule, strict=True
            )

    def test_store_shape_is_validated(self):
        params = instance(6, 4)
        wrong_split = FileStore(files=(bytes(5),) * 6, n_subpackets=5)
        with pytest.raises(InstanceError):
            simulate_end_to_end(params, range(1, 7), wrong_split)
        too_few = FileStore(files=(bytes(6),) * 5, n_subpackets=6)
        with pytest.raises(InstanceError):
            simulate_end_to_end(params, range(1, 7), too_few)


def outcome(simulate, caplog, *args, **kwargs):
    """What one simulator run shows: its result, or its strict message, and
    the warnings it logged."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="cachecode.verify"):
        try:
            result = simulate(*args, **kwargs)
        except SimulationMismatch as err:
            result = f"mismatch: {err}"
    return result, [(r.name, r.levelno, r.getMessage()) for r in caplog.records]


def same_as_reference(caplog, params, demands, store, schedule, **kwargs):
    """Run both simulators with and without ``strict``; return the
    (lenient, strict) outcomes after asserting that they agree."""
    seen = []
    for strict in (False, True):
        args = (params, demands, store)
        kw = dict(seed=5, schedule=schedule, strict=strict, **kwargs)
        new = outcome(simulate_end_to_end, caplog, *args, **kw)
        assert new == outcome(reference_simulate, caplog, *args, **kw)
        seen.append(new)
    return tuple(seen)


def singletons_except(params: SystemParams, left_out):
    """One singleton codeword per demanded cell, in cell order."""
    return [(cell,) for cell in build_demand_list(params) if cell not in left_out]


class TestSimulatorMatchesReference:
    @pytest.mark.parametrize("K", range(2, 11))
    def test_generated_schedules(self, caplog, K):
        for i in range(1, K + 1):
            params = instance(K, i, N=K + 2)
            store = random_file_store(params, seed=K * i, subpacket_size=3)
            for demands in (
                tuple(range(1, K + 1)),
                (1,) * K,
                random_demand(params, seed=i),
            ):
                schedule = generate_schedule(params, demands)
                lenient, strict = same_as_reference(
                    caplog, params, demands, store, schedule
                )
                assert lenient == strict == (True, [])

    @pytest.mark.parametrize("K,L,i", [(10, 6, 1), (10, 3, 3), (9, 4, 2), (12, 7, 1)])
    def test_multi_access_schedules(self, caplog, K, L, i):
        point = CcdnParams(n_files=K, n_users=K, access_degree=L, cache_units=i)
        schedule = ccdn_schedule(point)
        store = random_file_store(schedule.params, seed=K + L, subpacket_size=2)
        for demands in (tuple(range(1, K + 1)), (2,) * K):
            lenient, _ = same_as_reference(
                caplog, schedule.params, demands, store, schedule,
                layout=ccdn_user_view(point),
            )
            assert lenient == (True, [])

    def test_a_dropped_codeword(self, caplog):
        params = instance(6, 4)
        base = generate_schedule(params)
        store = random_file_store(params, seed=0)
        broken = schedule_with(params, base.codewords[:-1])
        lenient, strict = same_as_reference(
            caplog, params, range(1, 7), store, broken
        )
        assert lenient == (False, [])
        assert strict[0].startswith("mismatch: user 1: sub-packet")

    def test_no_codewords_at_all(self, caplog):
        # User 1 misses packets 5 and 6; the message names the first.
        params = instance(6, 4)
        store = random_file_store(params, seed=0)
        lenient, strict = same_as_reference(
            caplog, params, range(1, 7), store, schedule_with(params, [])
        )
        assert lenient == (False, [])
        assert strict == (
            "mismatch: user 1: sub-packet 5 of file 1 was never recovered "
            "(seed=5)",
            [],
        )

    @pytest.mark.parametrize("packet", [0, 7, -1])
    def test_a_packet_outside_the_file(self, packet):
        # Both simulators slice through the same store, which rejects the
        # packet; -1 would otherwise read the slice of packet 5.
        params = instance(6, 4)
        store = random_file_store(params, seed=0, subpacket_size=2)
        broken = schedule_with(params, [(SubpacketId(1, packet),)])
        messages = []
        for simulate in (simulate_end_to_end, reference_simulate):
            with pytest.raises(InstanceError) as err:
                simulate(params, range(1, 7), store, schedule=broken)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == f"packet {packet} is outside 1..6"

    def test_two_swapped_terms(self, caplog):
        params = instance(8, 3)
        codewords = [list(cw) for cw in generate_schedule(params).codewords]
        codewords[0][0], codewords[1][-1] = codewords[1][-1], codewords[0][0]
        store = random_file_store(params, seed=1)
        results = [
            same_as_reference(
                caplog, params, demands, store, schedule_with(params, codewords)
            )[0][0]
            for demands in (range(1, 9), [1] * 8)
        ]
        # Distinct files leave users 1 and 3 stuck; under one shared file
        # other users' codewords carry the slices they miss.
        assert results == [False, True]

    def test_a_duplicated_codeword(self, caplog):
        params = instance(7, 3)
        codewords = list(generate_schedule(params).codewords)
        store = random_file_store(params, seed=2)
        for at in (0, len(codewords) // 2, len(codewords)):
            doubled = codewords[:at] + [codewords[at - 1]] + codewords[at:]
            lenient, _ = same_as_reference(
                caplog, params, range(1, 8), store, schedule_with(params, doubled)
            )
            assert lenient == (True, [])

    @pytest.mark.parametrize("seed", range(12))
    def test_random_tampering(self, caplog, seed):
        rng = random.Random(seed)
        K, i = rng.choice([(6, 4), (7, 3), (8, 5), (9, 2)])
        # Three files under K >= 6 users: demands repeat, so users can learn
        # slices they want from other users' codewords.
        params = instance(K, i, N=3)
        codewords = [list(cw) for cw in generate_schedule(instance(K, i)).codewords]
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randrange(len(codewords)), rng.randrange(len(codewords))
            kind = rng.choice(["drop", "swap", "duplicate"])
            if kind == "drop" and len(codewords) > 1:
                del codewords[a]
            elif kind == "swap":
                x, y = rng.randrange(len(codewords[a])), rng.randrange(len(codewords[b]))
                codewords[a][x], codewords[b][y] = codewords[b][y], codewords[a][x]
            else:
                codewords.insert(b, list(codewords[a]))
        store = random_file_store(params, seed=seed, subpacket_size=2)
        same_as_reference(
            caplog, params, random_demand(params, seed), store,
            schedule_with(params, codewords),
        )

    def test_a_schedule_that_needs_two_passes(self, caplog):
        # User 1 caches packets 1..4 of every file, and users 1 and 2 both
        # want file 1.  The first codeword mixes user 1's packet 5 with packet
        # 6 of the same file, which user 1 learns only from the second one.
        params = instance(6, 4)
        first = (SubpacketId(1, 5), SubpacketId(2, 6))
        codewords = [first, (SubpacketId(1, 6),)] + singletons_except(
            params, {*first, SubpacketId(1, 6)}
        )
        store = random_file_store(params, seed=3, subpacket_size=4)
        lenient, strict = same_as_reference(
            caplog, params, [1, 1, 3, 4, 5, 6], store,
            schedule_with(params, codewords),
        )
        warning = (
            "cachecode.verify",
            logging.WARNING,
            "user 1 needed 2 decoding passes; the schedule is not decodable "
            "on sight",
        )
        assert lenient == strict == (True, [warning])

    def test_a_slice_learned_from_another_users_codeword(self, caplog):
        # No codeword holds user 1's packet 5, but under repeated demands
        # user 6's singleton (6, 5) carries the same slice of file 1.
        params = instance(6, 4)
        codewords = singletons_except(params, {SubpacketId(1, 5)})
        store = random_file_store(params, seed=4)
        lenient, _ = same_as_reference(
            caplog, params, [1] * 6, store, schedule_with(params, codewords)
        )
        assert lenient == (True, [])
        lenient, strict = same_as_reference(
            caplog, params, range(1, 7), store, schedule_with(params, codewords)
        )
        assert lenient == (False, [])
        assert strict[0].startswith("mismatch: user 1: sub-packet 5 of file 1")


def exhaustive_min_pair_count(
    params: SystemParams, layout: CacheLayout | None = None
) -> int:
    """Independent brute force: smallest partition of the demands into
    mutually cached pairs and singletons, by exhaustive branch and bound."""
    if layout is None:
        layout = build_cache_layout(params)
    cells = tuple(build_demand_list(params))
    compatible = {
        frozenset((x, y))
        for x, y in itertools.combinations(cells, 2)
        if layout.knows(x.user, y.packet) and layout.knows(y.user, x.packet)
    }
    best = len(cells)

    def descend(uncovered: tuple, count: int) -> None:
        nonlocal best
        if count + (len(uncovered) + 1) // 2 >= best:
            return
        if not uncovered:
            best = count
            return
        first, rest = uncovered[0], uncovered[1:]
        for j, partner in enumerate(rest):
            if frozenset((first, partner)) in compatible:
                descend(rest[:j] + rest[j + 1 :], count + 1)
        descend(rest, count + 1)

    descend(cells, 0)
    return best


class TestPairOracle:
    # Every instance in the oracle's domain, K <= 8 and 1 <= i <= K/2.
    @pytest.mark.parametrize(
        "K,i,expected",
        [
            (2, 1, 1), (3, 1, 3), (4, 1, 6), (4, 2, 4), (5, 1, 10), (5, 2, 8),
            (6, 1, 15), (6, 2, 12), (6, 3, 9), (7, 1, 21), (7, 2, 18),
            (7, 3, 14), (8, 1, 28), (8, 2, 24), (8, 3, 20), (8, 4, 16),
        ],
    )
    def test_known_minima(self, K, i, expected):
        assert min_pair_transmissions(instance(K, i)) == expected

    @pytest.mark.parametrize(
        "K,i",
        [(2, 1), (3, 1), (4, 1), (4, 2), (5, 1), (5, 2), (6, 1), (6, 2),
         (6, 3), (7, 1), (7, 3), (8, 1)],
    )
    def test_matching_agrees_with_exhaustive_search(self, K, i):
        params = instance(K, i)
        assert min_pair_transmissions(params) == exhaustive_min_pair_count(params)

    @pytest.mark.parametrize("K,i,j", [(6, 2, 1), (8, 4, 2)])
    def test_search_proves_a_count_above_half(self, monkeypatch, K, i, j):
        # Against the smaller cache of i = j the demands of i cannot all be
        # paired, so the search has to rule out every shorter partition.
        params, layout = instance(K, i), build_cache_layout(instance(K, j))
        monkeypatch.setattr(verify, "build_cache_layout", lambda _: layout)
        expected = exhaustive_min_pair_count(params, layout)
        assert expected > (K * (K - i) + 1) // 2
        assert min_pair_transmissions(params) == expected

    def test_size_limit(self):
        with pytest.raises(InstanceError):
            min_pair_transmissions(instance(9, 2))

    @pytest.mark.parametrize(
        "demands", [(1, 2, 3), (1, 2, 3, 4, 7), (1, 2, 3, 4, "5")]
    )
    def test_an_invalid_demand_vector_is_rejected(self, demands):
        with pytest.raises(InstanceError):
            min_pair_transmissions(instance(5, 2), demands)

    def test_regime_bounds(self):
        with pytest.raises(RegimeError):
            min_pair_transmissions(instance(6, 0))
        with pytest.raises(RegimeError):
            min_pair_transmissions(instance(6, 4))
        assert min_pair_transmissions(instance(6, 1)) == 15
