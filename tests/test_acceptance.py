"""Acceptance suite: the nine high-level guarantees the package makes.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces the runtime budget where one applies.  Expected values are
either frozen golden data, closed forms evaluated independently in this
file, or independent oracles (exact pair-schedule minima, XOR algebra).
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from cachecode.cli import main
from cachecode.delivery import (
    closed_form_pairs,
    generate_schedule,
    mn_rate,
    mn_subpacketization,
    rate,
    scheme_constants,
)
from cachecode.model import (
    SubpacketId,
    SystemParams,
    identity_demand,
    random_demand,
)
from cachecode.multiaccess import CcdnParams, ccdn_rate_bound_curve, optimality_table
from cachecode.verify import (
    min_pair_transmissions,
    random_file_store,
    simulate_end_to_end,
    verify_instantaneous_decodability,
)


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(
            f"criterion {number} ({description}): FAIL "
            f"(took {elapsed:.2f}s, budget {budget:.0f}s)"
        )
        raise AssertionError(
            f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"
        )
    print(f"criterion {number} ({description}): PASS ({elapsed:.2f}s)")


def instance(K: int, i: int) -> SystemParams:
    return SystemParams(n_files=K, n_users=K, cache_units=i)


GOLDEN_6_4 = (
    frozenset({SubpacketId(1, 5), SubpacketId(2, 1), SubpacketId(4, 2), SubpacketId(5, 4)}),
    frozenset({SubpacketId(2, 6), SubpacketId(3, 2), SubpacketId(5, 3), SubpacketId(6, 5)}),
    frozenset({SubpacketId(3, 1), SubpacketId(4, 3), SubpacketId(6, 4), SubpacketId(1, 6)}),
)


def test_criterion_1_golden_small_instance():
    with criterion(1, "golden schedule for K=6, i=4", budget=1.0):
        params = instance(6, 4)
        schedule = generate_schedule(params, demands=(1, 2, 3, 4, 5, 6))
        assert tuple(frozenset(cw) for cw in schedule.codewords) == GOLDEN_6_4
        assert schedule.rate == Fraction(1, 2)
        assert schedule.subpacketization == 6
        assert mn_rate(params) == Fraction(2, 5)
        assert mn_subpacketization(params) == 15


def test_criterion_2_rate_endpoints():
    with criterion(2, "rate endpoints for K in [2, 64]", budget=1.0):
        for K in range(2, 65):
            assert rate(instance(K, 1)) == Fraction(K - 1, 2)
            assert rate(instance(K, K - 1)) == Fraction(1, K)


def test_criterion_3_schedule_count_law():
    with criterion(3, "schedule-count law for K in [2, 24]", budget=30.0):
        for K in range(2, 25):
            for i in range(1, K):
                params = instance(K, i)
                schedule = generate_schedule(params, identity_demand(params))
                consts = scheme_constants(params)
                assert schedule.n_transmissions == consts.n_transmissions, (K, i)
                assert schedule.total_terms() == K * (K - i), (K, i)


def test_criterion_4_decodability_and_round_trip():
    with criterion(
        4, "decodability and bit-exact round trip for K in [2, 12]", budget=120.0
    ):
        for K in range(2, 13):
            for i in range(1, K):
                params = instance(K, i)
                schedule = generate_schedule(params)
                report = verify_instantaneous_decodability(schedule)
                assert report.ok, (K, i, report.violations[:3])
                store = random_file_store(params, seed=1000 + 31 * K + i)
                demand_vectors = [identity_demand(params)] + [
                    random_demand(params, seed) for seed in range(20)
                ]
                for seed, demands in enumerate(demand_vectors):
                    assert simulate_end_to_end(
                        params, demands, store, seed=seed,
                        schedule=schedule, strict=True,
                    )


def test_criterion_5_pair_regime_equivalence():
    with criterion(5, "pair-regime equivalence for K in [4, 16]", budget=120.0):
        for K in range(4, 17):
            for i in range(1, K // 2 + 1):
                params = instance(K, i)
                expected = math.ceil(K * (K - i) / 2)
                pairs = closed_form_pairs(params)
                swept = generate_schedule(params)
                assert pairs.n_transmissions == expected, (K, i)
                assert swept.n_transmissions == expected, (K, i)
                assert verify_instantaneous_decodability(pairs).ok, (K, i)
                assert verify_instantaneous_decodability(swept).ok, (K, i)
                if K <= 8:
                    assert min_pair_transmissions(params) == expected, (K, i)


def test_criterion_6_access_degree_table():
    with criterion(6, "access-degree comparison table for K in [4, 60]"):
        for K in range(4, 61):
            rows = {(r.label, r.access_degree): r for r in optimality_table(K)}

            row = rows[("L=K-1", K - 1)]
            assert row.optimal_rate == row.new_rate == Fraction(1, K)
            assert row.matches

            row = rows[("L=K-2", K - 2)]
            assert row.optimal_rate == Fraction(3, K)
            expected = Fraction(3, K) if K % 3 == 0 else Fraction(4, K)
            assert row.new_rate == expected, K
            assert row.matches == (K % 3 == 0)

            row = rows[("L=K-3", K - 3)]
            assert row.optimal_rate == Fraction(6, K)
            if K == 6:
                expected = Fraction(9, K)
            elif K in (5, 10):
                expected = Fraction(8, K)
            elif K % 4 == 0:
                expected = Fraction(6, K)
            else:
                expected = Fraction(7, K)
            assert row.new_rate == expected, K
            assert row.matches == (expected == Fraction(6, K))

            for s in range(2, K + 1):
                if K % s:
                    continue
                row = rows[(f"s={s}", K - K // s + 1)]
                assert row.optimal_rate == Fraction(K - s, 2 * s * s)
                assert row.new_rate == row.optimal_rate, (K, s)
                assert row.matches


def test_criterion_7_rate_bound_breakpoints_and_grid():
    with criterion(7, "rate-bound breakpoints and grid at K=N=10"):
        anchors = {6: Fraction(1), 8: Fraction(2, 5), 9: Fraction(1, 10)}
        for L, r1 in anchors.items():
            assert rate(SystemParams(10, 10, L)) == r1
            curve = ccdn_rate_bound_curve(
                CcdnParams(n_files=10, n_users=10, access_degree=L, cache_units=1)
            )
            assert curve.breakpoints == (
                (Fraction(0), Fraction(10)),
                (Fraction(1), r1),
                (Fraction(2), Fraction(0)),
            )
            grid = [Fraction(22, 10) * j / 99 for j in range(100)]
            values = [curve.evaluate(m) for m in grid]
            assert all(a >= b for a, b in zip(values, values[1:]))
            for m, value in zip(grid, values):
                if m <= 1:
                    assert value == Fraction(10) + (r1 - Fraction(10)) * m
                elif m <= 2:
                    assert value == r1 * (2 - m)
                else:
                    assert value == 0


def test_criterion_8_divisible_cache_identity():
    with criterion(8, "divisible-cache rate identity for K <= 60"):
        checked = 0
        for s in range(2, 61):
            for m in range(1, 60 // s + 1):
                K = m * s
                assert rate(instance(K, K - K // s + 1)) == Fraction(
                    K - s, 2 * s * s
                ), (K, s)
                checked += 1
        assert checked > 100


def test_criterion_9_cli_byte_determinism(tmp_path):
    with criterion(9, "CLI byte determinism"):
        commands = [
            ("schedule", "--K", "6", "--N", "6", "--i", "4"),
            ("schedule", "--K", "13", "--i", "9", "--format", "csv"),
            ("simulate", "--K", "8", "--i", "5", "--seed", "11"),
            ("rate-curve", "--K", "12"),
            ("ccdn-bound", "--K", "10", "--L", "6", "--format", "json"),
            ("optimality-table", "--K", "24", "--format", "csv"),
        ]
        for index, argv in enumerate(commands):
            first = tmp_path / f"first_{index}"
            second = tmp_path / f"second_{index}"
            assert main([*argv, "--out", str(first)]) == 0
            assert main([*argv, "--out", str(second)]) == 0
            payload = first.read_bytes()
            assert payload and payload == second.read_bytes()
