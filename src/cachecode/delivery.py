"""XOR delivery for cyclic placement: codeword generation and rate formulas.

After cyclic placement each user still needs the K-i sub-packets of its
demanded file that it does not cache.  Delivery serves all K(K-i) of them
with XOR codewords combining up to ``arity`` sub-packets each, where every
user appearing in a codeword caches all companion sub-packets and can cancel
them instantly.

Each instance has one generator, fixed by its arity.  Arity 2 (1 <= i <=
K/2) is the pairwise closed form :func:`closed_form_pairs`; arity 3 and up
runs the sweep search below and, when it gives up, the orbit fallback.

The sweep seeds one structured codeword and then repeatedly advances
every term's user and packet index by one (mod K), so no codeword it walks
outgrows the arity.  Advanced terms that were already served are patched:
first through a small replacement rule set, then -- when the rules
dead-end -- by re-seating the term on any still-owed sub-packet compatible
with the codeword under construction.  When a codeword opens on a served term while exactly K sub-packets remain, the
tail step sends user 1's first owed cell together with its shifts by
floor(j*K/arity), spread evenly over the ring.  A depth-first search over
the replacement placements, pruned by exact counting bounds, drives the
transmission count to ceil(K*(K-i)/arity), which beats splitting files
into binom(K, i) pieces at a rate cost that vanishes for large caches.
The search skips work whose outcome it already knows -- states it has
searched to exhaustion, placements that fail on the very next owed cells
or on the commit right after them, and decisions where all of them do --
but still counts it, so its decision budget and its schedules are those of
the plain search.

A few tightly budgeted instances admit no schedule under the sweeping
discipline (a kept term can wall off every compatible re-seat).  Those fall
back to equivalent constructions with the same transmission count
(:func:`_orbit_schedule`).  Each is a plan: blocks of owed diagonals, each
swept by the shift orbit of one base codeword, and the diagonals left over,
tiled directly.  One generator (:func:`_orbit_plans`) yields the plans as
they are tried, in order: every coset cover, whose blocks take all
diagonals; striped transversal groups plus the loose diagonals; the same
with mirror-closed groups; and the whole owed region, tiled.  A tiling
packs diagonals into exactly the right number of codewords, by shifted runs
when it can and otherwise by seeded min-conflicts local search.  Every
orbit shifts a base codeword found by one search (:func:`_orbit_base`),
given only the diagonals, the cells per diagonal m and their spacing d.  A
shifted base is again a base, so that search starts every base at user 0;
on the other diagonals a run may start at any user, or at users 0..d-1
when m*d = K, as in the coset blocks.  Every construction bounds how
densely a codeword can sample a diagonal by the spacing the ring holds for
each diagonal (:class:`_Ring`).

Internally the search and the fallbacks work on integer cells of the K x K
(user, packet) ring and on bitmasks of them (:class:`_Ring`), numbered
diagonal by diagonal with the owed diagonals first.  A diagonal is one
K-bit field, and masks and tables hold owed cells only, so the owed mask
alone gives the cells left on each diagonal and a seat's run ahead.  Each sweep
decision records the search state it was taken in, and backtracking
restores that state from the record alone.  Sub-packet ids are built only
for the emitted codewords.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Collection, Iterable, Iterator, Sequence

from .errors import InstanceError, RegimeError, ScheduleError
from .model import (
    CacheLayout,
    SubpacketId,
    SystemParams,
    build_demand_list,
    validate_demand,
    wrap,
)

__all__ = [
    "Codeword",
    "SchemeConstants",
    "TransmissionSchedule",
    "scheme_constants",
    "rate",
    "mn_rate",
    "mn_subpacketization",
    "initial_codeword_terms",
    "generate_schedule",
    "closed_form_pairs",
]

log = logging.getLogger(__name__)

# One broadcast transmission: the sub-packets XORed together.
Codeword = tuple[SubpacketId, ...]

# Replacement decisions the sweep search may spend before an instance is
# handed to the cyclic fallback construction.
_SWEEP_NODE_BUDGET = 20_000

# Restarts of the min-conflicts tiler, and the moves each restart may make.
_MINCONF_SEEDS = 50
_MINCONF_MOVES = 12_000

# Extra-cell seatings one spaced-run cover may try for each base.
_SPACED_RUN_SEATS = 200_000


@dataclass(frozen=True)
class SchemeConstants:
    """Derived delivery constants of an instance.

    stride           K - i + 1; the block offset between the seed codeword's
                     term groups (also one more than the packets each user
                     is missing).
    arity            largest number of sub-packets combined per transmission:
                     2 + floor(i/stride) + floor((i-1)/stride).
    n_transmissions  ceil(K*(K-i)/arity), the schedule length.
    """

    stride: int
    arity: int
    n_transmissions: int


def scheme_constants(params: SystemParams) -> SchemeConstants:
    """Compute (stride, arity, n_transmissions) for 1 <= i <= K-1."""
    K, i = params.n_users, params.cache_units
    if not 1 <= i <= K - 1:
        raise InstanceError(
            f"delivery constants need 1 <= i <= K-1; got i={i}, K={K} "
            "(nothing to send at i=K; i=0 is plain uncoded transmission)"
        )
    stride = K - i + 1
    arity = 2 + i // stride + (i - 1) // stride
    n_transmissions = -(-K * (K - i) // arity)
    return SchemeConstants(stride, arity, n_transmissions)


def rate(params: SystemParams) -> Fraction:
    """Worst-case delivery rate in file units: ceil(K(K-i)/arity) / K.

    The degenerate ends follow the usual conventions: an empty cache costs
    the whole library (rate K) and a full cache costs nothing (rate 0).
    """
    K, i = params.n_users, params.cache_units
    if i == 0:
        return Fraction(K)
    if i == K:
        return Fraction(0)
    return Fraction(scheme_constants(params).n_transmissions, K)


def mn_rate(params: SystemParams) -> Fraction:
    """Baseline rate (K-i)/(1+i) of the classic binomial-placement scheme."""
    K, i = params.n_users, params.cache_units
    return Fraction(K - i, 1 + i)


def mn_subpacketization(params: SystemParams) -> int:
    """Sub-packets per file the binomial-placement baseline needs: C(K, i)."""
    return math.comb(params.n_users, params.cache_units)


def initial_codeword_terms(params: SystemParams) -> list[SubpacketId]:
    """The seed codeword the generator advances from.

    Interleaves two term groups stepped by ``stride``: (1+b*stride,
    i+1+b*stride) for b = 0..floor(i/stride) and (2+b*stride, 1+b*stride)
    for b = 0..floor((i-1)/stride).  When the arity is odd and i < K-2 the
    trailing term's packet index is bumped by one; without the bump the
    advancing sequence collides with itself before the round completes.
    """
    consts = scheme_constants(params)
    K, i, g = params.n_users, params.cache_units, consts.stride
    n1, n2 = i // g, (i - 1) // g
    terms: list[SubpacketId] = []
    for b in range(n1 + 1):
        terms.append(SubpacketId(wrap(1 + b * g, K), wrap(i + 1 + b * g, K)))
        if b <= n2:
            terms.append(SubpacketId(wrap(2 + b * g, K), wrap(1 + b * g, K)))
    if consts.arity % 2 == 1 and i < K - 2:
        u, p = terms[-1]
        terms[-1] = SubpacketId(u, wrap(p + 1, K))
    return terms


@dataclass(frozen=True)
class TransmissionSchedule:
    """A complete delivery schedule for one instance.

    Everything else is derived from the codewords and the instance, so a
    copy with other codewords (``dataclasses.replace``) reports its own
    rate.
    """

    codewords: tuple[Codeword, ...]
    params: SystemParams

    @property
    def constants(self) -> SchemeConstants | None:
        """The instance's delivery constants; None outside 1 <= i <= K-1
        (the full-cache instance i = K has an empty schedule)."""
        K, i = self.params.n_users, self.params.cache_units
        return scheme_constants(self.params) if 1 <= i <= K - 1 else None

    @property
    def rate(self) -> Fraction:
        """Transmissions per file: len(codewords) / K."""
        return Fraction(len(self.codewords), self.params.n_users)

    @property
    def n_transmissions(self) -> int:
        return len(self.codewords)

    @property
    def subpacketization(self) -> int:
        """Sub-packets each file is split into (always K here)."""
        return self.params.n_users

    def total_terms(self) -> int:
        return sum(len(cw) for cw in self.codewords)


def _require_schedule_inputs(
    params: SystemParams, demands: Sequence[int] | None
) -> None:
    if params.n_files < params.n_users:
        raise InstanceError(
            f"schedule generation covers the worst case and needs "
            f"N >= K; got N={params.n_files}, K={params.n_users}"
        )
    if demands is not None:
        validate_demand(params, demands)


def _assert_schedule_shape(schedule: TransmissionSchedule) -> None:
    params, consts = schedule.params, schedule.constants
    K, i = params.n_users, params.cache_units
    problems = []
    if consts is not None and len(schedule.codewords) != consts.n_transmissions:
        problems.append(
            f"{len(schedule.codewords)} transmissions instead of "
            f"{consts.n_transmissions}"
        )
    n_terms = schedule.total_terms()
    if n_terms != K * (K - i):
        problems.append(f"{n_terms} terms instead of {K * (K - i)}")
    if consts is not None and any(
        not 1 <= len(cw) <= consts.arity for cw in schedule.codewords
    ):
        problems.append(f"codeword arity outside [1, {consts.arity}]")
    # The K(K-i) terms partition the demands when they give as many
    # distinct owed cells (u-1)*K + p-1, those with p - u = i..K-1 (mod K).
    served = {
        (u - 1) * K + p - 1
        for cw in schedule.codewords
        for u, p in cw
        if 1 <= u <= K and 1 <= p <= K and (p - u) % K >= i
    }
    if len(served) != K * (K - i) or n_terms != len(served):
        problems.append("served sub-packets do not partition the demands")
    if problems:
        detail = "; ".join(problems)
        log.warning("schedule shape violated for K=%d, i=%d: %s", K, i, detail)
        raise ScheduleError(f"K={K}, i={i}: {detail}")


# The replacement rules in the order tried, by the flag of the last one
# fired in the codeword: its partner first (1 pairs with 2, 3 with 4).
_RULE_ORDER = (
    (1, 2, 3, 4), (2, 1, 3, 4), (1, 2, 3, 4), (4, 1, 2, 3), (3, 1, 2, 4),
)


class _Ring:
    """The K x K (user, packet) ring of one instance as integer cells.

    User u caches packets u..u+i-1 (mod K), so whether two cells can share
    a codeword (each user caches the other's packet) depends only on their
    diagonals p - u and their user offset.  Cell ``c = ((d - i) mod K)*K +
    u`` is (u+1, u+d+1), on diagonal d: a diagonal is one K-bit field, and
    the owed diagonals i..K-1 come first, as the bits below (K-i)*K.
    ``compat[c]``, for owed cells (u, p) only, holds the owed cells that
    can share a codeword with c: those of the users p-i+1..p, who cache p,
    whose packet u caches (on diagonal d', users u-d'..u-d'+i-1).  A
    demanded cell is never in its own mask.  ``adv[c]`` is (u+1, p+1), in
    c's field, and ``rank[c]`` its place in (user, packet) order, which
    emitted codewords follow; both for owed cells only.

    Two cells of diagonal d in one codeword are at least ``spacing[d]`` =
    max(d - i + 1, K - d) users apart around the ring, so a codeword holds
    at most ``team[d]`` = K // spacing[d] of them.  The demands fill the
    ``owed_diagonals`` i..K-1.
    """

    __slots__ = (
        "n_users", "cache_units", "compat", "adv", "rank", "spacing", "team",
        "owed_diagonals",
    )

    def __init__(self, K: int, i: int) -> None:
        row = (1 << K) - 1
        owed = range(i, K)

        def users(start: int) -> int:
            """The field of the i users start..start+i-1 (mod K)."""
            run = ((1 << i) - 1) << start % K
            return (run | run >> K) & row

        # holders[p]: the users caching packet p, on every owed diagonal;
        # known[u]: the owed cells whose packet user u caches.
        every_field = sum(1 << f * K for f in range(K - i))
        holders = [users(p - i + 1) * every_field for p in range(K)]
        known = [
            sum(users(u - d) << f * K for f, d in enumerate(owed))
            for u in range(K)
        ]
        cells = range((K - i) * K)
        self.n_users = K
        self.cache_units = i
        self.compat = [
            holders[(u + d) % K] & known[u] for d in owed for u in range(K)
        ]
        self.adv = [c - c % K + (c + 1) % K for c in cells]
        self.rank = [c % K * K + (c + c // K + i) % K for c in cells]
        self.spacing = [max(d - i + 1, K - d) for d in range(K)]
        self.team = [K // gap for gap in self.spacing]
        self.owed_diagonals = owed

    def cell(self, term: SubpacketId) -> int:
        return self.on_diagonal(term.user - 1, term.packet - term.user)

    def on_diagonal(self, user: int, offset: int) -> int:
        """The cell of 0-based ``user`` on diagonal ``offset``."""
        K = self.n_users
        return (offset - self.cache_units) % K * K + user

    def shift(self, c: int, steps: int) -> int:
        """The cell ``steps`` sweep steps after c."""
        u = c % self.n_users
        return c - u + (u + steps) % self.n_users

    def codeword(self, cells: Iterable[int]) -> Codeword:
        K, i = self.n_users, self.cache_units
        new, sid = tuple.__new__, SubpacketId
        return tuple(
            new(sid, (c % K + 1, (c + c // K + i) % K + 1)) for c in cells
        )


# The mask holding every cell, whatever K: what an empty codeword allows.
_ANY_CELL = -1


def _bits(mask: int) -> list[int]:
    """Set bit positions of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _free_run(free: int, cell: int, n_users: int) -> int:
    """Transmissions a term seated at ``cell`` survives before colliding:
    the trailing ones of its diagonal's K-bit field of ``free`` (owed and
    not in the codeword under construction), rotated down to its user."""
    K = n_users
    row = (1 << K) - 1
    u = cell % K
    line = free >> cell - u & row
    line = (line >> u | line << K - u) & row
    return (line ^ line + 1).bit_length() - 1


def _rule_cells(cell: int, n_users: int) -> tuple[int, int, int, int]:
    """The four replacement moves for an already-served term, as rules
    1..4: bump the packet, bump the user, drop the user, drop the packet
    -- all cyclically."""
    K = n_users
    field, u = divmod(cell, K)
    up = (field + 1) % K * K
    down = (field - 1) % K * K
    return (up + u, down + (u + 1) % K, up + (u - 1) % K, down + u)


def _replacement_choices(
    dead: int,
    flag: int,
    ring: _Ring,
    owed: int,
    partial: Sequence[int],
    allowed: int,
    steps_left: int,
    walk: int,
    lost: bool,
) -> tuple[list[tuple[int, int | None, int]], int]:
    """Placement options for a term whose advance was already served.

    The four local rules of :func:`_rule_cells` come first, each only if
    the cell it lands on is owed and fits the codeword.  Once a rule has
    fired, later replacements in the same codeword try its partner rule
    first (1 and 2 pair up, as do 3 and 4).  When the rules dead-end
    the term may re-seat on any still-owed sub-packet compatible with the
    codeword built so far; rescues prefer diagonals holding the most owed
    cells per committed term, then seats whose unobstructed run matches the
    transmissions left, then (user, packet) order.  Abandoning the term is
    the final option.

    ``owed`` is the owed-cell mask, one K-bit field per diagonal (see
    :class:`_Ring`), and ``allowed`` the cells compatible with every term
    of ``partial``.  Only the seats in ``walk``, and abandoning unless
    ``lost``, are worth walking (see :func:`_solve_schedule`); every other
    option fails before the next decision.  Returns those worth walking,
    newest last, as (cost, seat or None, flag), the cost counting the
    option and the failing ones just before it; and the cost of the
    options after the last one walked.  Rescues are ranked only when one
    of them is walked.
    """
    K = ring.n_users
    options: list[tuple[int, int | None, int]] = []
    cost = 1
    seen = 0
    fits = owed & allowed
    moves = _rule_cells(dead, K)
    for k in _RULE_ORDER[flag]:
        cand = moves[k - 1]
        if fits >> cand & 1 and not seen >> cand & 1:
            seen |= 1 << cand
            if walk >> cand & 1:
                options.append((cost, cand, k))
                cost = 0
            cost += 1
    seats = fits & ~seen
    if not seats & walk:
        cost += seats.bit_count()
    else:
        row = (1 << K) - 1
        free = owed
        committed = [0] * K
        for t in partial:
            free &= ~(1 << t)
            committed[t // K] += 1
        rescue: list[tuple[float, int, int, int]] = []
        for cell in _bits(seats):
            f = cell // K
            need = (owed >> f * K & row).bit_count() / (1 + committed[f])
            fit = abs(_free_run(free, cell, K) - steps_left)
            rescue.append((-need, fit, ring.rank[cell], cell))
        rescue.sort()
        for _, _, _, cell in rescue:
            if walk >> cell & 1:
                options.append((cost, cell, 0))
                cost = 0
            cost += 1
    if not lost:
        options.append((cost, None, flag))
        cost = 0
    options.reverse()
    return options, cost


def _capacity(
    left: int, size: int, steps: int, arity: int, ring: _Ring
) -> tuple[bool, int]:
    """Whether a commit of ``size`` terms that leaves the owed mask ``left``
    can still finish in ``steps`` transmissions, and the cells one more
    term of it may take: any, only the one diagonal over by one, or none.

    A transmission ships at most ``arity`` cells, and at most ``team[d]``
    of diagonal d, one K-bit field of ``left`` (see :class:`_Ring`).
    Without the tail step (possible only while K cells are owed) the term
    count never grows, so fewer than K owed cells also cap it at ``size``.
    """
    K = ring.n_users
    row = (1 << K) - 1
    fits = True
    line = _ANY_CELL
    for field, d in enumerate(ring.owed_diagonals):
        room = ring.team[d] * steps
        # A field holds at most K cells.
        if room < K:
            excess = (left >> field * K & row).bit_count() - room
            if excess > 0:
                line = row << field * K if fits and excess == 1 else 0
                fits = False
    n = left.bit_count()
    if n > (arity if n >= K else min(arity, size)) * steps:
        fits = False
    # One more term leaves n - 1 cells after a commit of size + 1.
    if n - 1 > (arity if n > K else min(arity, size + 1)) * steps:
        line = 0
    return fits, line


def _checked_tail(ring: _Ring, owed: int, arity: int) -> list[int] | None:
    """The tail codeword, or None when it is not well formed.

    Seeds at user 1's owed cell with the lowest packet and adds its shifts
    by floor(j*K/arity), j = 1..arity-1, each of which must be owed and fit
    the cells before it.  None also when user 1 owes nothing.
    """
    K = ring.n_users
    # User 1's owed cells are bit 0 of the owed fields, in packet order.
    firsts = (c for c in range(0, owed.bit_length(), K) if owed >> c & 1)
    seed = next(firsts, None)
    if seed is None:
        return None
    built: list[int] = []
    allowed = owed
    for j in range(arity):
        cell = ring.shift(seed, j * K // arity)
        if not allowed >> cell & 1:
            return None
        built.append(cell)
        allowed &= ring.compat[cell]
    return built


def _orbit_base(
    offsets: Sequence[int], m: int, d: int, ring: _Ring
) -> list[int] | None:
    """First base codeword with m cells spaced d apart on each diagonal.

    On diagonal ``offsets[k]`` the base holds the run of users a, a+d,
    ..., a+(m-1)d (mod K): a = 0 on the first diagonal, and any start a
    on the others.  A diagonal is the set of cells (u, u + offset mod K),
    and the shift (u, p) -> (u+1, p+1) keeps every cell on its diagonal
    and keeps mutual caching intact.  So the shifts of one base sweep its
    diagonals (the callers pick m and d so that they cover each cell
    once), and a shifted base is again a base: a base exists only if one
    exists whose first run starts at user 0.  The runs start at users
    0..K-1, except that when m*d = K the run from a + d is the run from a,
    so the starts 0..d-1 give each run once.

    Depth-first over the starts in increasing order, checking every cell
    against all cells chosen before it, and abandoning a branch as soon as
    some later diagonal has no cell left that can join: that prunes only
    branches holding no base, so the first base found is the same.
    """
    K = ring.n_users
    compat = ring.compat
    starts = range(d if m * d == K else K)
    # The starts reach every user: a later diagonal may use its whole field.
    row = (1 << K) - 1
    fields = [row << ring.on_diagonal(0, off) for off in offsets[1:]]
    chosen: list[int] = []

    def extend(idx: int, allowed: int) -> bool:
        if idx == len(offsets):
            return True
        if not all(allowed & field for field in fields[idx:]):
            return False
        for a in starts if idx else (0,):
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


def _tally(planes: list[int], mask: int, flip: int) -> None:
    """Add one (``flip`` 0) or take one (``flip`` -1) at each bit of
    ``mask`` in the bit-sliced counter ``planes``, bit p in plane p."""
    for p, plane in enumerate(planes):
        planes[p] = plane ^ mask
        mask &= plane ^ flip
        if not mask:
            return


def _tile_minconf(
    cells: Collection[int],
    n_cliques: int,
    arity: int,
    ring: _Ring,
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

    Conflict counts are bit-sliced: plane p of ``planes[j]`` holds bit p
    of every cell's conflicts with the members of slot j, and ``own``
    those with the cell's own slot.  Bit j < n_cliques is slot j's empty
    seat, which conflicts with nothing: a swap with it is the plain move
    into slot j, offered while slot j has room.  A step scores every swap
    at once, by a carry-save sum over the planes, and keeps the least.
    The moves, their order and every random draw are those of a loop over
    the cells, so the tilings are too; a pass also counts when its last
    move clears the last conflict.
    """
    order = sorted(set(cells), key=ring.rank.__getitem__)
    n = len(order)
    if not (0 < n_cliques <= n <= arity * n_cliques):
        return None
    # adj[b]: the cells that cell b, order[b - n_cliques], conflicts with.
    adj = [0] * n_cliques + [
        sum(
            1 << b
            for b, other in enumerate(order)
            if b != a and not fits >> other & 1
        ) << n_cliques
        for a, fits in enumerate([ring.compat[cell] for cell in order])
    ]
    # A cell may leave a slot holding more bits than this, seat included.
    floor_size = max(1, n - arity * (n_cliques - 1)) + 1
    every = (1 << n_cliques + n) - 1
    real = every >> n_cliques << n_cliques
    depth = arity.bit_length()
    size_bits = [_bits(size) for size in range(arity + 1)]
    for seed in range(_MINCONF_SEEDS):
        rng = random.Random(seed)
        deal = list(range(n))
        rng.shuffle(deal)
        assign = list(range(n_cliques)) + [0] * n
        slots = [1 << j for j in range(n_cliques)]
        planes = [[0] * depth for _ in slots]
        for pos, b in enumerate(deal):
            j = pos % n_cliques
            b += n_cliques
            assign[b] = j
            slots[j] |= 1 << b
            _tally(planes[j], adj[b], 0)
        # The seats of the slots with room.
        room = sum(
            1 << j for j, slot in enumerate(slots) if slot.bit_count() <= arity
        )
        own = [0] * depth
        for slot, counts in zip(slots, planes):
            own = [o | c & slot for o, c in zip(own, counts)]
        for _ in range(_MINCONF_MOVES):
            conflicted = 0
            for plane in own:
                conflicted |= plane
            if not conflicted or n_cliques == 1:
                break
            # The k-th conflicted cell, by bisection on popcounts.
            k = rng.randrange(conflicted.bit_count())
            cell, hi = 0, conflicted.bit_length()
            while hi - cell > 1:
                mid = (cell + hi) // 2
                if (conflicted & ((1 << mid) - 1)).bit_count() <= k:
                    cell = mid
                else:
                    hi = mid
            cur = assign[cell]
            cell_adj = adj[cell]
            here = slots[cur]
            slots[cur] ^= 1 << cell
            _tally(planes[cur], cell_adj, -1)
            if rng.random() < 0.01:
                target = rng.randrange(n_cliques - 1)
                if target >= cur:
                    target += 1
                mates = _bits(slots[target] & real)
                partner = mates[rng.randrange(len(mates))]
            else:
                # Swapping with b changes the conflicts by gone[b] - stay
                # + planes[cur][b] - own[b] - adj(cell, b), where gone[b]
                # counts the cell's conflicts in b's slot and stay those in
                # its own.  3:2 compressors and a ripple sum gone,
                # planes[cur] and the complements of own and adj: that is
                # the change plus stay + 2**depth, the same for every b.
                by_size = [0] * (arity + 1)
                for slot in slots:
                    by_size[(cell_adj & slot).bit_count()] |= slot
                gone = [0] * depth
                for size, slot in enumerate(by_size):
                    for p in size_bits[size]:
                        gone[p] |= slot
                score = []
                carry = every ^ cell_adj
                high = 0
                for a, b, c in zip(gone, planes[cur], own):
                    c ^= every
                    ab = a ^ b
                    s = ab ^ c
                    sh = s ^ high
                    score.append(sh ^ carry)
                    carry = s & high | carry & sh
                    high = a & b | c & ab
                score += [high ^ carry, high & carry]
                partners = every ^ here
                if here.bit_count() > floor_size:
                    partners &= real | room
                else:
                    partners &= real
                for p in reversed(score):
                    partners = partners & ~p or partners
                moves = sorted((assign[b], b) for b in _bits(partners))
                target, partner = moves[rng.randrange(len(moves))]
            if partner >= n_cliques:
                slots[target] ^= 1 << partner
                slots[cur] |= 1 << partner
                _tally(planes[target], adj[partner], -1)
                _tally(planes[cur], adj[partner], 0)
                assign[partner] = cur
            else:
                room |= 1 << cur
                if slots[target].bit_count() == arity:
                    room ^= 1 << target
            slots[target] |= 1 << cell
            _tally(planes[target], cell_adj, 0)
            assign[cell] = target
            rest = every ^ slots[cur] ^ slots[target]
            own = [
                o & rest | a & slots[cur] | b & slots[target]
                for o, a, b in zip(own, planes[cur], planes[target])
            ]
        if not any(own):
            return [
                tuple(order[b] for b in _bits(slot >> n_cliques))
                for slot in slots
            ]
    return None


def _spaced_run_cover(
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
        for q in range(min(K // m, n_cliques), 0, -1):
            rem = K - m * q
            n_extra = n_cliques - q
            if rem * n_diag > 2 * arity:
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
                budget = _SPACED_RUN_SEATS

                def seat(idx: int) -> bool:
                    nonlocal budget
                    budget -= 1
                    if budget < 0:
                        return False
                    opened = len(cliques) - q
                    if idx == len(extras):
                        return opened == n_extra
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


def _tile_leftover(
    offsets: Sequence[int],
    n_cliques: int,
    arity: int,
    ring: _Ring,
) -> tuple[list[tuple[int, ...]], str] | None:
    """Tile a union of full diagonals into exactly ``n_cliques`` codewords.

    Tries the structured spaced-run cover first; most instances that reach
    this point have one.  The irregular rest falls to the min-conflicts
    local search, which returns None when all its restarts stall.  Returns
    the tiling and the name of the tiler that built it ("" for no
    diagonals), or None.
    """
    K = ring.n_users
    if not offsets:
        return ([], "") if n_cliques == 0 else None
    # The whole diagonals must fit n_cliques codewords of up to arity terms.
    whole = sum(((1 << K) - 1) << ring.on_diagonal(0, d) for d in offsets)
    if not _capacity(whole, arity, n_cliques, arity, ring)[0]:
        return None
    built = _spaced_run_cover(offsets, n_cliques, arity, ring)
    if built is not None:
        return built, "spaced run"
    cells = [ring.on_diagonal(u, off) for off in offsets for u in range(K)]
    built = _tile_minconf(cells, n_cliques, arity, ring)
    return None if built is None else (built, "min-conflicts")


def _orbit_plans(
    ring: _Ring, consts: SchemeConstants
) -> Iterator[tuple[str, list[tuple[int, list[int]]], Sequence[int]]]:
    """The orbit fallback's plans, as (name, blocks, leftover), in order.

    Coset plans come first, one per usable multiplicity profile: each
    diagonal gets a multiplicity m (cells per codeword, a divisor of K,
    with coset spacing K/m no tighter than the diagonal's minimum), and
    diagonals of equal multiplicity pack into blocks (m, diagonals) of at
    most floor(arity/m).  A profile is usable only when the block counts
    add up to exactly the required number of transmissions.  Then the
    transversal and mirrored plans, and last the whole owed region.
    """
    K = ring.n_users
    arity, total = consts.arity, consts.n_transmissions
    offsets = ring.owed_diagonals
    by_cap = sorted(offsets, key=lambda off: (ring.team[off], off))
    caps = [ring.team[off] for off in by_cap]
    divisors = [m for m in range(1, arity + 1) if K % m == 0]

    def profiles(idx: int, left: int, cws: int) -> Iterator[list[int]]:
        # Ascending multiplicity lists, n diagonals of divisors[idx] first.
        if idx == len(divisors):
            if left == 0 and cws == total:
                yield []
            return
        m = divisors[idx]
        width = arity // m
        for n in range(left + 1):
            add = -(-n // width) * (K // m)
            if cws + add > total:
                break
            for rest in profiles(idx + 1, left - n, cws + add):
                yield [m] * n + rest

    for mults in profiles(0, len(offsets), 0):
        # Loosest diagonals take the highest multiplicities; with nested
        # eligibility the sorted pairing is feasible whenever anything is.
        if any(m > c for m, c in zip(mults, caps)):
            continue
        blocks: list[tuple[int, list[int]]] = []
        for m in divisors:
            group = sorted(off for off, k in zip(by_cap, mults) if k == m)
            width = arity // m
            blocks.extend(
                (m, group[g : g + width]) for g in range(0, len(group), width)
            )
        yield "coset", blocks, []
    n_groups = len(offsets) // arity
    if n_groups:
        by_spacing = sorted(offsets, key=lambda off: (ring.spacing[off], off))
        n_loose = len(offsets) % arity
        grouped = sorted(by_spacing[n_loose:])
        stripes = [(1, grouped[g::n_groups]) for g in range(n_groups)]
        loose = sorted(by_spacing[:n_loose])
        yield "transversal", stripes, loose
        if arity % 2 == 0:
            half = arity // 2
            mirrored = [
                (1, sorted(
                    d
                    for k in range(g * half, (g + 1) * half)
                    for d in (offsets[k], offsets[-1 - k])
                ))
                for g in range(n_groups)
            ]
            if mirrored != stripes:
                yield "mirrored", mirrored, loose
    yield "whole-region", [], offsets


def _orbit_schedule(
    ring: _Ring, consts: SchemeConstants
) -> list[tuple[int, ...]] | None:
    """Cyclic construction for instances the sweep search cannot finish.

    The owed region is a union of K-i full diagonals.  Every construction
    is a plan: blocks (m, diagonals), each swept by the K/m shifts of a
    base with m cells K/m apart per diagonal (:func:`_orbit_base`, whose
    runs then start at users 0..K/m-1), and the diagonals left over,
    tiled by :func:`_tile_leftover` into the codewords the orbits leave
    to the closed-form total.  The first plan of :func:`_orbit_plans`
    whose orbits and tiling all exist wins, in this order:

    1. coset: every usable multiplicity profile, found as it is tried,
       with nothing left over; there is none when no profile matches the
       transmission count, as for prime K;
    2. transversal, when at least ``arity`` diagonals are owed: the rest
       striped in offset order into (K-i) // arity groups, each swept by
       a transversal orbit (one cell per diagonal), and the (K-i) % arity
       loosest-spaced diagonals left over;
    3. mirrored, for even arity: as many transversal blocks, block g
       holding the next arity/2 pairs of diagonals d, i+K-1-d from the
       outside in -- the pairs the mirror sigma(u, p) = (p, u+i-1)
       swaps -- and the same loose diagonals, tried when the blocks
       differ from the striped ones.  No loose diagonal falls inside a
       block: spacing[d] = |d - c| + (K-i+1)/2 grows with the distance
       from the mirror's centre c = (K+i-1)/2, so the loose diagonals are
       the innermost ones.  Observed, not proved: for odd K = 27..39 with
       i = (K+3)/2 the striped blocks admit no transversal and these do;
    4. whole-region: no blocks, every owed diagonal left over.

    Logs which plan finished and, when it tiled any diagonals, by which
    tiler.
    """
    for name, blocks, leftover in _orbit_plans(ring, consts):
        codewords: list[tuple[int, ...]] = []
        for m, block in blocks:
            # m cells K/m apart per diagonal: K/m shifts cover the block.
            period = ring.n_users // m
            base = _orbit_base(block, m, period, ring)
            if base is None:
                break
            codewords.extend(
                tuple(ring.shift(c, s) for c in base) for s in range(period)
            )
        else:
            tiling = _tile_leftover(
                leftover, consts.n_transmissions - len(codewords),
                consts.arity, ring,
            )
            if tiling is not None:
                tiled, tiler = tiling
                log.debug(
                    "orbit fallback for K=%d, i=%d: %s plan%s",
                    ring.n_users, ring.cache_units, name,
                    f", tiled by {tiler}" if tiler else "",
                )
                return codewords + tiled
    return None


def _solve_schedule(
    params: SystemParams,
    layout: CacheLayout | None,
    consts: SchemeConstants,
    seed: Sequence[SubpacketId],
    demand_cells: Sequence[SubpacketId],
    node_budget: int = _SWEEP_NODE_BUDGET,
    *,
    _ring: _Ring | None = None,
) -> list[Codeword] | None:
    """Depth-first construction of an exact-length schedule by sweeping.

    Follows the advancing sweep greedily -- owed terms are kept, served
    terms patched through :func:`_replacement_choices` -- and backtracks
    over replacement placements whenever the counting bounds show the
    remainder cannot finish within budget.  Every appended term is checked
    against the whole codeword under construction, so the result is
    instantaneously decodable by construction.

    Work whose outcome is already known is counted, not done, and only
    backtracking counts.  Each decision is a record of the options worth
    walking, each costing itself and the failing options just before it,
    and of the cost after them.  A state (owed cells, commit count, the
    queue left, partial codeword, flag) searched to exhaustion before, or
    a decision with no option to walk, is a record with no options that
    costs what it spent then, or all of its options unranked.  An option
    fails when its walk fails on the next owed cells of the queue, or on
    the counting bounds of the commit right after them; seating on one of
    those cells and abandoning share one check.  The decision count, the
    budget and the schedule found are those of the plain search.

    Returns None when the search space is exhausted or ``node_budget``
    replacement decisions were spent without completing a schedule.

    ``seed`` is one codeword, of at most ``consts.arity`` terms; a longer
    one raises ValueError.

    ``layout`` is unread: the ring is ``_ring`` or built from ``params``.
    The positional signature stays only for ``perfbench/derive_lists.py``
    (ROADMAP item 11).
    """
    K = params.n_users
    arity, budget = consts.arity, consts.n_transmissions
    if len(seed) > arity:
        raise ValueError(f"seed of {len(seed)} terms exceeds arity {arity}")
    ring = _Ring(K, params.cache_units) if _ring is None else _ring
    compat, adv = ring.compat, ring.adv
    owed = 0
    for term in demand_cells:
        owed |= 1 << ring.cell(term)
    codewords: list[list[int]] = []
    queue = tuple(ring.cell(term) for term in seed)
    # The codeword under construction and the cells compatible with all
    # of its terms.
    partial: list[int] = []
    allowed = _ANY_CELL
    flag = 0
    pos = 0
    # Open replacement decisions: (key, decisions spent before it, allowed,
    # the options left to walk newest last, the cost after them).  The key
    # is (owed, commit count, the queue from the served term on, partial,
    # flag), which fixes all of the search below the decision, so
    # backtracking restores the search state from the key and the record.
    decisions: list[tuple[tuple, int, int, list | tuple, int]] = []
    # Decisions spent below each decision searched to exhaustion, by key.
    # Backtracking inside a decision restores only records made inside it,
    # and a key never recurs on its own path (the queue left shrinks within
    # a codeword, the commit count grows across codewords), so a recurring
    # key would spend exactly as much again and find nothing.
    dead: dict[tuple, int] = {}
    # Decisions spent; only backtracking adds to it.
    nodes = 0
    # Set when the walk fails: the search resumes at the next option worth
    # walking, or stops once the budget is spent.
    stuck = False

    while True:
        while stuck and nodes <= node_budget:
            if not decisions:
                return None
            key, start, allowed, options, rest = decisions[-1]
            if not options:
                nodes += rest
                decisions.pop()
                dead[key] = nodes - start
                continue
            cost, term, flag = options.pop()
            nodes += cost
            owed, n_committed, queue, part, _ = key
            del codewords[n_committed:]
            partial = list(part)
            if term is not None:
                partial.append(term)
                allowed &= compat[term]
            pos = 1
            stuck = False
        if nodes > node_budget:
            # The plain search stops at the first decision past the budget.
            log.debug(
                "sweep for K=%d, i=%d gave up after %d decisions",
                K,
                params.cache_units,
                node_budget + 1,
            )
            return None
        if pos == len(queue):
            if not partial:
                stuck = True
                continue
            steps = budget - len(codewords) - 1
            left = owed ^ sum(1 << cell for cell in partial)
            if not _capacity(left, len(partial), steps, arity, ring)[0]:
                stuck = True
                continue
            owed = left
            codewords.append(partial)
            if not owed:
                log.debug(
                    "sweep for K=%d, i=%d done after %d decisions",
                    K,
                    params.cache_units,
                    nodes,
                )
                return [ring.codeword(cw) for cw in codewords]
            queue = tuple([adv[cell] for cell in partial])
            partial = []
            allowed = _ANY_CELL
            flag = 0
            pos = 0
            continue
        cand = queue[pos]
        if cand in partial:
            pos += 1
            continue
        if owed >> cand & 1:
            if allowed >> cand & 1:
                partial.append(cand)
                allowed &= compat[cand]
                pos += 1
                continue
            stuck = True
            continue
        if not partial and owed.bit_count() == K:
            tail = _checked_tail(ring, owed, arity)
            if tail is not None:
                # The tail fills the codeword: commit it.
                partial = tail
                pos = len(queue)
                continue
        key = (owed, len(codewords), queue[pos:], tuple(partial), flag)
        # Every decision becomes a record, which the search backtracks into.
        stuck = True
        spent = dead.get(key)
        if spent is not None:
            decisions.append((key, nodes, allowed, (), spent))
            continue
        # lead: the owed cells a seat outside it appends next, up to the
        # first cell not owed or the end of the queue (a queue holds one
        # codeword at most, so the codeword never fills before it ends);
        # doomed: the lead conflicts with itself or with the partial
        # codeword.
        lead = 0
        doomed = False
        fit = allowed
        commits = True
        for cell in queue[pos + 1 :]:
            if cell in partial:
                continue
            if not owed >> cell & 1:
                commits = False
                break
            lead |= 1 << cell
            doomed = doomed or not fit >> cell & 1
            fit &= compat[cell]
        # A seat on a lead cell and abandoning reach the same cells, so
        # lost: they fail before the next decision.  walk: the seats not
        # known to fail before the next decision: the lead unless lost, and
        # unless doomed, those fitting every lead cell.  When a commit comes
        # next, a seat changes its bounds only by its diagonal.
        lost = doomed
        walk = 0 if doomed else fit
        if commits and (walk or not lost):
            size = len(partial) + lead.bit_count()
            left = owed ^ lead ^ sum(1 << cell for cell in partial)
            finishes, line = _capacity(
                left, size, budget - len(codewords) - 1, arity, ring
            )
            walk &= line
            lost = lost or not size or not finishes
        if not lost:
            walk |= lead
        fits = owed & allowed
        if lost and not fits & walk:
            # Nothing to walk: the decision costs its rule seats and
            # rescues, which are the owed cells that fit, and abandoning.
            decisions.append((key, nodes, allowed, (), fits.bit_count() + 1))
            continue
        options, rest = _replacement_choices(
            cand, flag, ring, owed, partial, allowed, budget - len(codewords),
            walk, lost,
        )
        decisions.append((key, nodes, allowed, options, rest))


def generate_schedule(
    params: SystemParams, demands: Sequence[int] | None = None
) -> TransmissionSchedule:
    """Generate the complete XOR schedule for an instance.

    Arity 2 (1 <= i <= K/2) is :func:`closed_form_pairs`.  Above it, walks
    the seed codeword around the ring: each transmission keeps the advanced
    terms that are still owed, patches served ones (rule set first,
    compatible re-seating when the rules dead-end), and sends the tail
    codeword -- user 1's first owed cell and its shifts by floor(j*K/arity)
    -- when a transmission opens with a served term while exactly K
    sub-packets remain.  Backtracking over the patch placements makes the
    transmission count land on the closed form, the orbit fallback takes
    over when the sweep gives up, and the shape is re-checked before the
    schedule is returned.

    The demand vector only matters for moving actual bytes; the schedule
    itself is keyed on user positions and is identical for all demands.
    """
    _require_schedule_inputs(params, demands)
    K, i = params.n_users, params.cache_units
    if i == K:
        return TransmissionSchedule((), params)
    if i == 0:
        raise InstanceError(
            "i=0 leaves nothing cached; send the library uncoded instead"
        )
    if 2 * i <= K:
        return closed_form_pairs(params, demands)
    consts = scheme_constants(params)
    ring = _Ring(K, i)
    codewords = _solve_schedule(
        params,
        None,
        consts,
        initial_codeword_terms(params),
        build_demand_list(params),
        _ring=ring,
    )
    if codewords is None:
        orbit = _orbit_schedule(ring, consts)
        if orbit is not None:
            codewords = [ring.codeword(cw) for cw in orbit]
    if codewords is None:
        raise ScheduleError(
            f"K={K}, i={i}: no schedule of {consts.n_transmissions} "
            "transmissions found"
        )
    schedule = TransmissionSchedule(tuple(codewords), params)
    _assert_schedule_shape(schedule)
    return schedule


def closed_form_pairs(
    params: SystemParams, demands: Sequence[int] | None = None
) -> TransmissionSchedule:
    """Direct pairwise schedule for the arity-2 regime 1 <= i <= K/2.

    Pairs each owed diagonal d = p - u with its sigma-mirror i + K - 1 - d.
    Family k = 1..floor((K-i)/2) pairs diagonal i+k-1 with K-k through
    (1+a, i+a+k) + (1+k+a, 1+a), a = 0..K-1 (indices wrapped).  When K-i
    is odd, the middle diagonal (K+i-1)/2 is its own mirror: user a's cell
    pairs with user a+floor(K/2)'s for a = 1..floor(K/2), and for odd K
    user K's cell goes alone, last.  That makes ceil(K(K-i)/2) codewords.
    """
    _require_schedule_inputs(params, demands)
    K, i = params.n_users, params.cache_units
    if not 1 <= i <= K // 2:
        raise RegimeError(
            f"pairwise closed form covers 1 <= i <= K/2; got i={i}, K={K}"
        )
    new, sid = tuple.__new__, SubpacketId
    codewords: list[Codeword] = [
        (
            new(sid, (1 + a, (i + a + k - 1) % K + 1)),
            new(sid, ((k + a) % K + 1, 1 + a)),
        )
        for k in range(1, (K - i) // 2 + 1)
        for a in range(K)
    ]
    if (K - i) % 2 == 1:
        mid, half = (K + i - 1) // 2, K // 2
        codewords += [
            (
                new(sid, (a, (a + mid - 1) % K + 1)),
                new(sid, (a + half, (a + half + mid - 1) % K + 1)),
            )
            for a in range(1, half + 1)
        ]
        if K % 2 == 1:
            codewords.append((SubpacketId(K, mid),))
    schedule = TransmissionSchedule(tuple(codewords), params)
    _assert_schedule_shape(schedule)
    return schedule
