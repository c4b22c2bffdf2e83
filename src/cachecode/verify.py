"""Schedule validation, bit-exact delivery simulation, and a pairing oracle.

Three independent ways to gain confidence in a schedule:

* a structural check that every user appearing in a codeword caches all
  companion sub-packets (so each transmission is useful immediately) and
  that the codewords partition exactly the demanded sub-packets, on
  per-user bitmasks of cached and sent packets;
* an end-to-end simulation that XORs real bytes, decodes at every user from
  cache plus received transmissions only, and compares files bit for bit
  (it holds each sub-packet as the big-endian int of its bytes, so an int
  XOR is the bytewise XOR);
* an exact minimizer over schedules restricted to two-term codewords: a
  depth-first search over partitions into pairs and singletons, built on
  the cache layout rather than on the generators it cross-checks.
"""

from __future__ import annotations

import logging
import random
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .delivery import TransmissionSchedule, generate_schedule
from .errors import InstanceError, RegimeError, SimulationMismatch
from .model import (
    CacheLayout,
    SubpacketId,
    SystemParams,
    _as_int,
    build_cache_layout,
    build_demand_list,
    validate_demand,
)

__all__ = [
    "FileStore",
    "Violation",
    "VerificationReport",
    "random_file_store",
    "verify_instantaneous_decodability",
    "simulate_end_to_end",
    "min_pair_transmissions",
]

log = logging.getLogger(__name__)


class Violation(NamedTuple):
    """One verifier finding.

    ``codeword_index`` is None for demands that never appeared at all.
    Reasons start with a category word: "undecodable", "duplicate",
    "not-demanded", or "missing".
    """

    codeword_index: int | None
    term: SubpacketId
    reason: str


@dataclass(frozen=True)
class VerificationReport:
    decodable: bool
    coverage_ok: bool
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return self.decodable and self.coverage_ok


def verify_instantaneous_decodability(
    schedule: TransmissionSchedule, layout: CacheLayout | None = None
) -> VerificationReport:
    """Check that a schedule is decodable on sight and covers every demand.

    For each codeword and each term (u, p) in it, every companion packet p'
    must sit in user u's cached set; otherwise user u cannot cancel it when
    the transmission arrives.  Coverage compares the multiset of all terms
    against the per-user complement of the layout: each demanded sub-packet
    must appear in exactly one codeword, and nothing else may appear.

    A term whose user or packet lies outside 1..K is reported once, as
    not demanded, and its decodability is not checked; nor is a companion
    checked against a packet outside 1..K.

    Both checks work on per-user bitmasks over packets 1..K: the packets
    each user caches, read once from the layout, and those it was sent.
    A term passes at sight when its codeword's other packets all lie in
    its user's mask and no packet repeats in the codeword; only a term
    that fails that test walks its companions to word each violation.

    The layout defaults to the instance's own cyclic placement; passing an
    explicit one checks a schedule against a different cache topology (the
    multi-access view, for example).
    """
    if layout is None:
        layout = build_cache_layout(schedule.params)
    K = layout.n_users
    known = [sum(1 << p for p in c if 1 <= p <= K) for c in layout.cached]
    seen = [0] * K
    undecodable: list[Violation] = []
    coverage: list[Violation] = []
    codewords = schedule.codewords
    for ci, cw in enumerate(codewords):
        packets = n = 0
        for _, p in cw:
            if 1 <= p <= K:
                packets |= 1 << p
                n += 1
        repeats = packets.bit_count() != n
        for term in cw:
            u, p = term
            if not 1 <= u <= K:
                coverage.append(
                    Violation(
                        ci, term, f"not-demanded: user {u} is outside 1..{K}"
                    )
                )
                continue
            if not 1 <= p <= K:
                coverage.append(
                    Violation(
                        ci, term, f"not-demanded: packet {p} is outside 1..{K}"
                    )
                )
                continue
            mine, bit = known[u - 1], 1 << p
            if repeats or packets & ~(mine | bit):
                for u2, p2 in cw:
                    if (u2, p2) == (u, p) or not 1 <= p2 <= K:
                        continue
                    if not mine >> p2 & 1:
                        undecodable.append(
                            Violation(
                                ci,
                                SubpacketId(u, p),
                                f"undecodable: user {u} does not cache packet "
                                f"{p2} of companion term ({u2},{p2})",
                            )
                        )
            if seen[u - 1] & bit:
                # The first transmission holding the term is where it was
                # sent: nothing before it can have refused the term.
                first = next(j for j, c in enumerate(codewords) if term in c)
                coverage.append(
                    Violation(
                        ci,
                        term,
                        f"duplicate: already sent in transmission {first}",
                    )
                )
            elif mine & bit:
                coverage.append(
                    Violation(
                        ci,
                        term,
                        f"not-demanded: user {u} already caches packet {p}",
                    )
                )
            else:
                seen[u - 1] |= bit
    full = (1 << K + 1) - 2
    for u in range(1, K + 1):
        left = full & ~known[u - 1] & ~seen[u - 1]
        while left:
            low = left & -left
            left ^= low
            coverage.append(
                Violation(
                    None,
                    SubpacketId(u, low.bit_length() - 1),
                    "missing: demanded sub-packet never sent",
                )
            )
    return VerificationReport(
        not undecodable, not coverage, tuple(undecodable + coverage)
    )


@dataclass(frozen=True)
class FileStore:
    """The server library as concrete bytes.

    All files have the same length, divisible by ``n_subpackets`` so that
    sub-packet p of file n is a well-defined byte slice.
    """

    files: tuple[bytes, ...]
    n_subpackets: int

    def __post_init__(self) -> None:
        n = _as_int("n_subpackets", self.n_subpackets)
        object.__setattr__(self, "n_subpackets", n)
        if not self.files:
            raise InstanceError("file store needs at least one file")
        if self.n_subpackets < 1:
            raise InstanceError(
                f"files need at least one sub-packet, got {self.n_subpackets}"
            )
        size = len(self.files[0])
        if any(len(f) != size for f in self.files):
            raise InstanceError("all files must have equal length")
        if size == 0 or size % self.n_subpackets != 0:
            raise InstanceError(
                f"file length {size} is not a positive multiple of "
                f"{self.n_subpackets} sub-packets"
            )

    @property
    def subpacket_size(self) -> int:
        return len(self.files[0]) // self.n_subpackets

    def subpacket(self, file_index: int, packet: int) -> bytes:
        """Byte slice of 1-based packet ``packet`` of 1-based file.

        Raises :class:`InstanceError` for a file outside 1..len(files) or a
        packet outside 1..n_subpackets.
        """
        if not 1 <= file_index <= len(self.files):
            raise InstanceError(
                f"file {file_index} is outside 1..{len(self.files)}"
            )
        if not 1 <= packet <= self.n_subpackets:
            raise InstanceError(
                f"packet {packet} is outside 1..{self.n_subpackets}"
            )
        size = self.subpacket_size
        return self.files[file_index - 1][(packet - 1) * size : packet * size]


def random_file_store(
    params: SystemParams, seed: int, subpacket_size: int = 1
) -> FileStore:
    """A deterministic random library: N files of K*subpacket_size bytes."""
    subpacket_size = _as_int("subpacket_size", subpacket_size)
    if subpacket_size < 1:
        raise InstanceError(
            f"sub-packets need at least one byte, got {subpacket_size}"
        )
    rng = random.Random(seed)
    size = params.n_users * subpacket_size
    files = tuple(rng.randbytes(size) for _ in range(params.n_files))
    return FileStore(files, params.n_users)


def simulate_end_to_end(
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

    Each sub-packet slice is taken as the big-endian int of its bytes,
    converted once, the first time a codeword needs it; a codeword's payload
    is the XOR of the demanded slices it combines.  Every user then decodes
    using only its cache (the layout's packets of every file) and the
    broadcast payloads: whenever a codeword has exactly one slice the user
    does not know, the known ones are cancelled and the leftover is learned.

    One pass suffices for a decodable schedule; needing more is logged as a
    warning because it signals a decodability violation.  Each user first
    makes one pass over its own codewords, found through a per-user index in
    schedule order.  If that completes its file, so would a first pass over
    every codeword, which scans a superset in the same order while knowledge
    only grows.  Otherwise the user starts over with passes over the whole
    schedule, until its file is complete or a pass learns nothing.

    Returns True iff every user's reassembled file equals its demanded file
    bit for bit: each learned slice is compared with the int of the stored
    slice, which at a fixed length determines the bytes.  With
    ``strict=True`` the first failure raises :class:`SimulationMismatch`
    naming the user and packet; ``seed`` is echoed in that message so runs
    can be reproduced.  A schedule term whose user or packet lies outside
    1..K raises :class:`InstanceError`.
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
    slices: dict[tuple[int, int], int] = {}

    def slice_int(key: tuple[int, int]) -> int:
        value = slices.get(key)
        if value is None:
            value = slices[key] = int.from_bytes(store.subpacket(*key), "big")
        return value

    for cw in schedule.codewords:
        for u, p in cw:
            if not 1 <= u <= K:
                raise InstanceError(
                    f"schedule term ({u},{p}) names user {u}, outside 1..{K}"
                )
    codewords = [
        [(demands[u - 1], p) for u, p in cw] for cw in schedule.codewords
    ]
    payloads = []
    for cw in codewords:
        acc = 0
        for key in cw:
            acc ^= slice_int(key)
        payloads.append(acc)
    by_user: dict[int, list[int]] = defaultdict(list)
    for ci, cw in enumerate(schedule.codewords):
        for u in {u for u, _ in cw}:
            by_user[u].append(ci)

    def fail(user: int, packet: int | None, why: str) -> bool:
        if strict:
            where = f"sub-packet {packet} of " if packet is not None else ""
            raise SimulationMismatch(
                f"user {user}: {where}file {demands[user - 1]} {why} "
                f"(seed={seed})"
            )
        return False

    def decode_pass(
        indices: Sequence[int],
        cached: frozenset[int],
        learned: dict[tuple[int, int], int],
    ) -> bool:
        """Learn every codeword's one unknown slice; True iff any was new."""
        progress = False
        for ci in indices:
            cw = codewords[ci]
            unknown = [
                key
                for key in cw
                if key[1] not in cached and key not in learned
            ]
            if len(unknown) != 1:
                continue
            residual = payloads[ci]
            for key in cw:
                if key != unknown[0]:
                    residual ^= (
                        slice_int(key) if key[1] in cached else learned[key]
                    )
            learned[unknown[0]] = residual
            progress = True
        return progress

    everything = range(len(codewords))
    for user in range(1, K + 1):
        cached = layout.packets(user)
        learned: dict[tuple[int, int], int] = {}
        want = demands[user - 1]
        needed = [(want, p) for p in range(1, K + 1) if p not in cached]
        decode_pass(by_user[user], cached, learned)
        passes = 1
        if any(key not in learned for key in needed):
            # Other users' codewords may carry what is missing: start over
            # with passes over the whole schedule.
            learned.clear()
            passes = 0
            while any(key not in learned for key in needed):
                passes += 1
                if not decode_pass(everything, cached, learned):
                    hole = next(key for key in needed if key not in learned)
                    return fail(user, hole[1], "was never recovered")
        if passes > 1:
            log.warning(
                "user %d needed %d decoding passes; the schedule is not "
                "decodable on sight",
                user,
                passes,
            )
        if any(learned[key] != slice_int(key) for key in needed):
            return fail(user, None, "reassembled with wrong bytes")
    return True


def min_pair_transmissions(
    params: SystemParams, demands: Sequence[int] | None = None
) -> int:
    """Exact minimum schedule length using codewords of at most two terms.

    Two demanded sub-packets may share a transmission iff each owner caches
    the other's packet; singletons are always allowed.  The minimum is found
    by a depth-first exact partition of the demands into pairs and
    singletons, built from the cache layout alone -- deliberately
    independent of the schedule generators it serves as an oracle for.

    Each cell's partners are an int bitmask.  The search takes the uncovered
    cell with the fewest uncovered partners and tries it with each of them,
    fewest remaining partners first, then alone.  A branch is cut once
    ``used + ceil(left / 2)`` cannot beat the best count so far, and the
    search stops when the count reaches ``ceil(n / 2)``, which no schedule
    of pairs can undercut.  Kept to K <= 8 and 1 <= i <= K/2.
    """
    K, i = params.n_users, params.cache_units
    if K > 8:
        raise InstanceError(f"exact pair search is limited to K <= 8, got {K}")
    if not (1 <= i and 2 * i <= K):
        raise RegimeError(
            f"pair schedules cover 1 <= i <= K/2; got i={i}, K={K}"
        )
    if demands is not None:
        validate_demand(params, demands)
    layout = build_cache_layout(params)
    cells = build_demand_list(params)
    n = len(cells)
    partners = [
        sum(
            1 << b
            for b, y in enumerate(cells)
            if b != a
            and layout.knows(x.user, y.packet)
            and layout.knows(y.user, x.packet)
        )
        for a, x in enumerate(cells)
    ]
    floor = (n + 1) // 2
    best = n

    def members(mask: int) -> list[int]:
        return [a for a in range(n) if mask >> a & 1]

    def descend(uncovered: int, used: int) -> None:
        nonlocal best
        if used + (uncovered.bit_count() + 1) // 2 >= best:
            return
        if not uncovered:
            best = used
            return
        cell = min(
            members(uncovered),
            key=lambda a: (partners[a] & uncovered).bit_count(),
        )
        rest = uncovered & ~(1 << cell)
        for b in sorted(
            members(partners[cell] & rest),
            key=lambda b: (partners[b] & rest).bit_count(),
        ):
            descend(rest & ~(1 << b), used + 1)
            if best == floor:
                return
        descend(rest, used + 1)

    descend((1 << n) - 1, 0)
    return best
