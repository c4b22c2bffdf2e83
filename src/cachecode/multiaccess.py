"""Multi-access networks: K shared caches, each user reading L of them.

Users and caches sit on the same ring; user k reads caches k..k+L-1
(cyclically) and each cache holds i of the K sub-packets every file is split
into, so a cache costs i*N/K file units.  At the supported memory points the
union a user sees is a consecutive run of sub-packets, which turns the
delivery problem into the dedicated-cache one with an effective cache of
``i*L`` sub-packets:

* i = 1: cache j holds sub-packet j, user k sees the run {k, ..., k+L-1} --
  literally the dedicated layout with cache size L.
* i >= 2 with a K-subfile placement: counting shows this forces
  i*L = K - 1, caches tile the ring in stride-i runs, and every user sees
  all but one sub-packet.  Dedicated schedules carry over by relabeling
  packets p -> wrap(p*i) (i is coprime to K = i*L + 1).

Points where the required subfile count exceeds K raise
:class:`UnsupportedMemoryPoint`.  The module also provides the
piecewise-linear rate upper bound available when L >= K/2 and the
comparison table of delivery rates against the known per-L optima at
M = N/K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .delivery import TransmissionSchedule, generate_schedule, rate
from .errors import InstanceError, RegimeError, UnsupportedMemoryPoint
from .model import (
    CacheLayout,
    SubpacketId,
    SystemParams,
    _check_int_fields,
    wrap,
)

__all__ = [
    "CcdnParams",
    "RateBoundCurve",
    "OptimalityRow",
    "f_subfiles",
    "effective_cache_run",
    "ccdn_cache_contents",
    "ccdn_user_view",
    "ccdn_schedule",
    "ccdn_rate_at_supported_points",
    "ccdn_rate_bound_curve",
    "ccdn_upper_bound",
    "optimality_table",
]


@dataclass(frozen=True)
class CcdnParams:
    """A multi-access instance: N files, K caches/users, access degree L.

    ``cache_units`` is the number of sub-packets of each file one cache
    stores; it ranges over 0..ceil(K/L) (beyond that caches would exceed
    what a user can even use).
    """

    n_files: int
    n_users: int
    access_degree: int
    cache_units: int

    def __post_init__(self) -> None:
        _check_int_fields(self)
        K, L, i = self.n_users, self.access_degree, self.cache_units
        if K < 1 or self.n_files < 1:
            raise InstanceError("need at least one user and one file")
        if not 1 <= L <= K:
            raise InstanceError(f"access degree {L} outside [1, {K}]")
        top = -(-K // L)
        if not 0 <= i <= top:
            raise InstanceError(
                f"cache size {i} sub-packets outside [0, ceil(K/L)={top}]"
            )

    @property
    def memory(self) -> Fraction:
        """Per-cache size in file units, M = i*N/K."""
        return Fraction(self.cache_units * self.n_files, self.n_users)


def _binom(n: int, k: int) -> int:
    # Counting convention used throughout: empty when n < 1 or n < k.
    if n < 1 or k < 0 or n < k:
        return 0
    return math.comb(n, k)


def f_subfiles(n_users: int, cache_units: int, access_degree: int) -> int:
    """Subfiles per file a multi-access placement needs at this point.

    Evaluates binom(K - i*L + i - 1, i - 1) * K / i.  Only points where
    this equals K reduce to the K-subfile cyclic scheme.
    """
    K, i, L = n_users, cache_units, access_degree
    if i < 1:
        raise InstanceError(f"subfile count needs i >= 1, got {i}")
    n = K - i * L + i - 1
    # Exact: binom(n, i-1) * K / i = binom(n+1, i) + (L-1) * binom(n, i-1),
    # since K = n + 1 + (L-1)*i and binom(n+1, i) = binom(n, i-1) * (n+1)/i.
    return _binom(n, i - 1) * K // i


def effective_cache_run(params: CcdnParams) -> int:
    """Consecutive sub-packets a user can read, capped at K."""
    return min(params.cache_units * params.access_degree, params.n_users)


def ccdn_cache_contents(params: CcdnParams) -> tuple[frozenset[int], ...]:
    """Per-cache sub-packet sets: cache j holds the stride-i run
    {(j-1)*i + 1, ..., j*i} (wrapped).  For i = 1 this is just {j}."""
    K, i = params.n_users, params.cache_units
    return tuple(
        frozenset(wrap((j - 1) * i + 1 + s, K) for s in range(i))
        for j in range(1, K + 1)
    )


def ccdn_user_view(params: CcdnParams) -> CacheLayout:
    """What each user can read: the union of its L caches.

    Supported points are those whose placement fits in K subfiles; there the
    view is a consecutive run of ``effective_cache_run`` sub-packets.  A full
    view (i*L >= K) is always supported.  Anything else raises
    :class:`UnsupportedMemoryPoint`.
    """
    K, L, i = params.n_users, params.access_degree, params.cache_units
    if i == 0:
        return CacheLayout(tuple(frozenset() for _ in range(K)))
    if effective_cache_run(params) < K and f_subfiles(K, i, L) != K:
        raise UnsupportedMemoryPoint(
            f"K={K}, L={L}, i={i} needs {f_subfiles(K, i, L)} subfiles per "
            f"file; only K-subfile points map onto the cyclic scheme"
        )
    caches = ccdn_cache_contents(params)
    views = tuple(
        frozenset().union(*(caches[wrap(k + j, K) - 1] for j in range(L)))
        for k in range(1, K + 1)
    )
    return CacheLayout(views)


def ccdn_schedule(
    params: CcdnParams, demands: Sequence[int] | None = None
) -> TransmissionSchedule:
    """Delivery schedule for a supported multi-access point.

    Generates the dedicated-cache schedule at the effective cache size and,
    for i >= 2, relabels packets p -> wrap(p*i) to line up with the stride-i
    placement (each user's view misses exactly the relabeled packet).  A
    full view yields an empty schedule.
    """
    ccdn_user_view(params)  # raises on unsupported points
    K, i = params.n_users, params.cache_units
    run = effective_cache_run(params)
    base = SystemParams(
        n_files=params.n_files, n_users=K, cache_units=run
    )
    schedule = generate_schedule(base, demands)
    if i <= 1 or run == K:
        return schedule
    codewords = tuple(
        tuple(SubpacketId(u, wrap(p * i, K)) for u, p in cw)
        for cw in schedule.codewords
    )
    return TransmissionSchedule(codewords, base)


def ccdn_rate_at_supported_points(params: CcdnParams) -> Fraction:
    """Delivery rate at a supported memory point.

    Empty caches cost the whole library (rate K); a full view costs nothing;
    otherwise the rate is the dedicated-cache rate at the effective size.
    """
    if params.cache_units == 0:
        return Fraction(params.n_users)
    ccdn_user_view(params)  # raises on unsupported points
    base = SystemParams(
        n_files=params.n_files,
        n_users=params.n_users,
        cache_units=effective_cache_run(params),
    )
    return rate(base)


@dataclass(frozen=True)
class RateBoundCurve:
    """A piecewise-linear upper bound on rate as a function of cache memory.

    ``breakpoints`` are (memory, rate) knots, at least one, with strictly
    increasing memory (:class:`InstanceError` otherwise); the curve is
    linear between knots, constant past the last and undefined below the
    first.
    """

    breakpoints: tuple[tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        memories = [m for m, _ in self.breakpoints]
        if not memories:
            raise InstanceError("a rate curve needs at least one knot")
        if any(a >= b for a, b in zip(memories, memories[1:])):
            raise InstanceError(
                "knot memories "
                f"{', '.join(map(str, memories))} are not strictly increasing"
            )

    def evaluate(self, memory: Fraction | int | str) -> Fraction:
        try:
            m = Fraction(memory)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise InstanceError(
                f"cache memory {memory!r} is not a number"
            ) from None
        if m < 0:
            raise InstanceError(f"cache memory must be nonnegative, got {m}")
        points = self.breakpoints
        if m >= points[-1][0]:
            return points[-1][1]
        for (m0, r0), (m1, r1) in zip(points, points[1:]):
            if m0 <= m <= m1:
                return r0 + (r1 - r0) * (m - m0) / (m1 - m0)
        raise InstanceError(f"memory {m} outside the curve's domain")


def ccdn_rate_bound_curve(params: CcdnParams) -> RateBoundCurve:
    """Achievable-rate upper bound for large access degree (L >= K/2).

    Memory-sharing between the empty-cache point (0, K), the single-unit
    point (N/K, R1) with R1 the cyclic-scheme rate at cache run L, and the
    two-unit point (2N/K, 0) where users already see everything.
    """
    K, L, N = params.n_users, params.access_degree, params.n_files
    if 2 * L < K:
        raise RegimeError(
            f"the memory-sharing bound needs L >= K/2; got L={L}, K={K}"
        )
    r1 = rate(SystemParams(n_files=N, n_users=K, cache_units=L))
    m1 = Fraction(N, K)
    return RateBoundCurve(
        ((Fraction(0), Fraction(K)), (m1, r1), (2 * m1, Fraction(0)))
    )


def ccdn_upper_bound(memory: Fraction | int | str, params: CcdnParams) -> Fraction:
    """Rate upper bound at one memory value; see :func:`ccdn_rate_bound_curve`."""
    return ccdn_rate_bound_curve(params).evaluate(memory)


class OptimalityRow(NamedTuple):
    """One line of the access-degree comparison at memory M = N/K."""

    access_degree: int
    label: str
    optimal_rate: Fraction
    new_rate: Fraction
    matches: bool


def optimality_table(n_users: int) -> list[OptimalityRow]:
    """Compare the scheme's rate with the known optimum at M = N/K.

    Rows cover the large access degrees L = K-1, K-2, K-3 with their known
    optimal rates 1/K, 3/K, 6/K, plus L = K - K/s + 1 for every divisor
    s >= 2 of K, where the scheme meets the optimum (K-s)/(2*s*s) exactly.
    """
    K = n_users
    if K < 4:
        raise InstanceError(f"comparison table needs K >= 4, got {K}")

    def new_rate(L: int) -> Fraction:
        return rate(SystemParams(n_files=K, n_users=K, cache_units=L))

    rows = []
    named = [
        (K - 1, "L=K-1", Fraction(1, K)),
        (K - 2, "L=K-2", Fraction(3, K)),
        (K - 3, "L=K-3", Fraction(6, K)),
    ]
    for L, label, optimal in named:
        achieved = new_rate(L)
        rows.append(OptimalityRow(L, label, optimal, achieved, achieved == optimal))
    for s in range(2, K + 1):
        if K % s != 0:
            continue
        L = K - K // s + 1
        optimal = Fraction(K - s, 2 * s * s)
        achieved = new_rate(L)
        rows.append(
            OptimalityRow(L, f"s={s}", optimal, achieved, achieved == optimal)
        )
    return rows
