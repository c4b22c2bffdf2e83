"""Unit tests for the verifier: structural decodability checks, the byte
store, end-to-end XOR simulation, and the exact pair-schedule oracle."""

import itertools
from fractions import Fraction

import pytest

from cachecode.delivery import TransmissionSchedule, generate_schedule, scheme_constants
from cachecode.errors import InstanceError, RegimeError, SimulationMismatch
from cachecode.model import (
    SubpacketId,
    SystemParams,
    build_cache_layout,
    build_demand_list,
    random_demand,
)
from cachecode.verify import (
    FileStore,
    _xor,
    min_pair_transmissions,
    random_file_store,
    simulate_end_to_end,
    verify_instantaneous_decodability,
)


def instance(K: int, i: int, N: int | None = None) -> SystemParams:
    return SystemParams(n_files=N if N is not None else K, n_users=K, cache_units=i)


def schedule_with(params: SystemParams, codewords) -> TransmissionSchedule:
    """Hand-built schedule wrapper for tamper tests (shape not asserted)."""
    return TransmissionSchedule(
        tuple(tuple(cw) for cw in codewords),
        params,
        scheme_constants(params),
        Fraction(len(codewords), params.n_users),
    )


class TestStructuralVerifier:
    def test_generated_schedule_passes(self):
        report = verify_instantaneous_decodability(generate_schedule(instance(6, 4)))
        assert report.ok
        assert report.decodable and report.coverage_ok
        assert report.violations == ()

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


class TestFileStore:
    def test_slicing(self):
        store = FileStore(files=(b"abcdef", b"ghijkl"), n_subpackets=3)
        assert store.subpacket_size == 2
        assert store.subpacket(1, 2) == b"cd"
        assert store.subpacket(2, 3) == b"kl"

    def test_rejects_ragged_or_indivisible_files(self):
        with pytest.raises(InstanceError):
            FileStore(files=(), n_subpackets=3)
        with pytest.raises(InstanceError):
            FileStore(files=(b"abc", b"de"), n_subpackets=3)
        with pytest.raises(InstanceError):
            FileStore(files=(b"abcd", b"efgh"), n_subpackets=3)
        with pytest.raises(InstanceError):
            FileStore(files=(b"", b""), n_subpackets=3)

    def test_random_store_is_seed_deterministic(self):
        params = instance(6, 4, N=4)
        first = random_file_store(params, seed=3, subpacket_size=2)
        again = random_file_store(params, seed=3, subpacket_size=2)
        assert first.files == again.files
        assert len(first.files) == 4
        assert all(len(f) == 12 for f in first.files)
        assert first.files != random_file_store(params, seed=4, subpacket_size=2).files


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

    @pytest.mark.parametrize("size", [0, 1, 3, 1024])
    def test_xor_matches_the_bytewise_definition(self, size):
        a = bytes((7 * k + 1) % 256 for k in range(size))
        b = bytes((13 * k + 200) % 256 for k in range(size))
        assert _xor(a, b) == bytes(x ^ y for x, y in zip(a, b))
        assert _xor(a, a) == bytes(size)

    def test_xor_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            _xor(bytes(3), bytes(4))

    def test_store_shape_is_validated(self):
        params = instance(6, 4)
        wrong_split = FileStore(files=(bytes(5),) * 6, n_subpackets=5)
        with pytest.raises(InstanceError):
            simulate_end_to_end(params, range(1, 7), wrong_split)
        too_few = FileStore(files=(bytes(6),) * 5, n_subpackets=6)
        with pytest.raises(InstanceError):
            simulate_end_to_end(params, range(1, 7), too_few)


def exhaustive_min_pair_count(params: SystemParams) -> int:
    """Independent brute force: smallest partition of the demands into
    mutually cached pairs and singletons, by exhaustive branch and bound."""
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
    @pytest.mark.parametrize("K,i,expected", [(4, 2, 4), (5, 2, 8), (6, 3, 9)])
    def test_known_minima(self, K, i, expected):
        assert min_pair_transmissions(instance(K, i)) == expected

    @pytest.mark.parametrize("K,i", [(4, 2), (5, 2)])
    def test_matching_agrees_with_exhaustive_search(self, K, i):
        params = instance(K, i)
        assert min_pair_transmissions(params) == exhaustive_min_pair_count(params)

    def test_size_limit(self):
        with pytest.raises(InstanceError):
            min_pair_transmissions(instance(9, 2))

    def test_regime_bounds(self):
        with pytest.raises(RegimeError):
            min_pair_transmissions(instance(6, 1))
        with pytest.raises(RegimeError):
            min_pair_transmissions(instance(6, 4))
