"""Problem instances, cyclic index arithmetic, placement, and demand lists.

An instance has ``n_files`` files at a central server and ``n_users`` users.
Every file is split into K equal sub-packets (K = number of users), and user k
caches the i consecutive sub-packets starting at its own index k, wrapping
around cyclically -- the same indices for every file.  The cache therefore
holds the fraction i/K of the library, i.e. M = i*N/K file units.  All user
and packet indices are 1-based and are reduced with :func:`wrap` whenever
arithmetic can leave the range [1, K].
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InstanceError

__all__ = [
    "SubpacketId",
    "SystemParams",
    "CacheLayout",
    "DemandVector",
    "wrap",
    "build_cache_layout",
    "build_demand_list",
    "identity_demand",
    "random_demand",
    "validate_demand",
]


def wrap(x: int, n_users: int) -> int:
    """Map any integer onto the cyclic 1-based index range [1, n_users]."""
    return (x - 1) % n_users + 1


class SubpacketId(NamedTuple):
    """One demanded sub-packet: the requesting user and the packet index.

    The pair is keyed on the user position, not on the demanded file, so
    repeated demands (two users asking for the same file) stay distinct.
    """

    user: int
    packet: int


# Demand vector: entry u-1 is the 1-based file index requested by user u.
DemandVector = tuple[int, ...]


def _as_int(name: str, value: object) -> int:
    """``value`` through ``operator.index``, as :func:`validate_demand`
    reads entries: 6.0 or "6" is no count."""
    try:
        return operator.index(value)
    except TypeError:
        raise InstanceError(
            f"{name} is {value!r}, which is not an integer"
        ) from None


def _check_int_fields(params: object) -> None:
    """Store every field of a frozen instance dataclass as an int."""
    for field in fields(params):
        value = _as_int(field.name, getattr(params, field.name))
        object.__setattr__(params, field.name, value)


@dataclass(frozen=True)
class SystemParams:
    """An (N, K) instance whose caches hold i of the K sub-packets per file."""

    n_files: int
    n_users: int
    cache_units: int

    def __post_init__(self) -> None:
        _check_int_fields(self)
        if self.n_users < 1:
            raise InstanceError(f"need at least one user, got {self.n_users}")
        if self.n_files < 1:
            raise InstanceError(f"need at least one file, got {self.n_files}")
        if not 0 <= self.cache_units <= self.n_users:
            raise InstanceError(
                f"cache size {self.cache_units} sub-packets is outside "
                f"[0, {self.n_users}]"
            )

    @property
    def cache_fraction(self) -> Fraction:
        """Cached share of the library, i/K."""
        return Fraction(self.cache_units, self.n_users)

    @property
    def memory(self) -> Fraction:
        """Cache size in file units, M = i*N/K."""
        return Fraction(self.cache_units * self.n_files, self.n_users)


@dataclass(frozen=True)
class CacheLayout:
    """Per-user cached sub-packet index sets (identical across files).

    ``cached[k-1]`` is the set of packet indices user k can read locally.
    The packet universe is [1, n_users]; a demanded packet is any index a
    user does not hold.
    """

    cached: tuple[frozenset[int], ...]

    @property
    def n_users(self) -> int:
        return len(self.cached)

    def packets(self, user: int) -> frozenset[int]:
        return self.cached[user - 1]

    def knows(self, user: int, packet: int) -> bool:
        return packet in self.cached[user - 1]

    def missing(self, user: int) -> frozenset[int]:
        """Packet indices user must receive over the broadcast link."""
        universe = range(1, len(self.cached) + 1)
        return frozenset(p for p in universe if p not in self.cached[user - 1])


def build_cache_layout(params: SystemParams) -> CacheLayout:
    """Cyclic placement: user k holds packets {k, k+1, ..., k+i-1} (wrapped)."""
    K, i = params.n_users, params.cache_units
    sets = tuple(
        frozenset([(k + j - 1) % K + 1 for j in range(i)])
        for k in range(1, K + 1)
    )
    return CacheLayout(sets)


def build_demand_list(
    params: SystemParams, demands: Sequence[int] | None = None
) -> list[SubpacketId]:
    """Ordered list of every sub-packet the broadcast must deliver.

    User u is missing the K-i packets starting right after its cached run,
    so its entries are (u, wrap(u+i)), (u, wrap(u+i+1)), ..., (u, wrap(u+K-1)),
    emitted user by user.  The demand vector, when given, is validated but
    does not change the list: entries are keyed on user position.
    """
    if demands is not None:
        validate_demand(params, demands)
    K, i = params.n_users, params.cache_units
    # What ``SubpacketId._make`` does, without its Python frame per term.
    new, sid = tuple.__new__, SubpacketId
    return [
        new(sid, (u, (u + i + s - 1) % K + 1))
        for u in range(1, K + 1)
        for s in range(K - i)
    ]


def validate_demand(params: SystemParams, demands: Sequence[int]) -> DemandVector:
    """Check a demand vector (one file index per user) and normalize it.

    Every entry must be an integer (``operator.index``): 1.7 or "2" names
    no file.
    """
    d = []
    for u, x in enumerate(demands, start=1):
        try:
            d.append(operator.index(x))
        except TypeError:
            raise InstanceError(
                f"user {u} demands {x!r}, which is not a file index"
            ) from None
    if len(d) != params.n_users:
        raise InstanceError(
            f"demand vector has {len(d)} entries for {params.n_users} users"
        )
    for u, f in enumerate(d, start=1):
        if not 1 <= f <= params.n_files:
            raise InstanceError(
                f"user {u} demands file {f}, outside [1, {params.n_files}]"
            )
    return tuple(d)


def identity_demand(params: SystemParams) -> DemandVector:
    """The all-distinct demand vector (1, 2, ..., K); needs N >= K."""
    if params.n_files < params.n_users:
        raise InstanceError(
            f"identity demand needs at least {params.n_users} files, "
            f"got {params.n_files}"
        )
    return tuple(range(1, params.n_users + 1))


def random_demand(params: SystemParams, seed: int) -> DemandVector:
    """A seeded uniform demand vector; the same seed gives the same vector."""
    rng = random.Random(seed)
    return tuple(rng.randint(1, params.n_files) for _ in range(params.n_users))
