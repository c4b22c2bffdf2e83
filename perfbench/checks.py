"""Output checks written from the paper's definitions, not from the package.

Nothing here imports ``cachecode``: the arity, the schedule length, the
owed cells, the cache windows and the multi-access unions are computed
from their definitions, and decoding is replayed with Python big-int XOR.
A check returns a list of problems, each starting with a category word
("length", "arity", "duplicate", "partition", "undecodable", "bytes");
an empty list means the output passed.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

Cell = tuple[int, int]  # (user, packet), both 1-based


def arity(K: int, i: int) -> int:
    """t = 2 + floor(i/(K-i+1)) + floor((i-1)/(K-i+1))."""
    g = K - i + 1
    return 2 + i // g + (i - 1) // g


def schedule_length(K: int, i: int) -> int:
    """ceil(K*(K-i)/t)."""
    return -(-K * (K - i) // arity(K, i))


def owed_cells(K: int, i: int) -> set[Cell]:
    """Every (u, u+i+s mod K) for s in 0..K-i-1: what user u does not cache."""
    return {(u, (u - 1 + i + s) % K + 1) for u in range(1, K + 1) for s in range(K - i)}


def window_holds(K: int, i: int) -> Callable[[int, int], bool]:
    """User u caches the cyclic window u..u+i-1."""
    return lambda u, p: (p - u) % K < i


def ccdn_views(K: int, L: int, i: int) -> list[frozenset[int]]:
    """Union of the caches user k reads in a multi-access network.

    Cache j holds the stride-i run (j-1)*i+1 .. j*i and user k reads caches
    k..k+L-1, all cyclic.  Entry k-1 is user k's view.
    """
    caches = [{((j - 1) * i + s) % K + 1 for s in range(i)} for j in range(1, K + 1)]
    return [
        frozenset().union(*(caches[(k - 1 + j) % K] for j in range(L)))
        for k in range(1, K + 1)
    ]


def schedule_problems(
    codewords: Sequence[Iterable[Cell]],
    *,
    length: int,
    max_arity: int,
    owed: set[Cell],
    holds: Callable[[int, int], bool],
) -> list[str]:
    """Check length, arity, an exact partition of ``owed`` and decodability.

    Decodable on sight: for every term (u, p) of a codeword, user u holds
    the packet of every other term, so it cancels them as the codeword
    arrives.
    """
    problems = []
    if len(codewords) != length:
        problems.append(f"length: {len(codewords)} codewords, want {length}")
    seen: set[Cell] = set()
    for ci, cw in enumerate(codewords):
        terms = [tuple(term) for term in cw]
        if not 1 <= len(terms) <= max_arity:
            problems.append(f"arity: codeword {ci} has {len(terms)} terms")
        for u, p in terms:
            if (u, p) in seen:
                problems.append(f"duplicate: ({u},{p}) sent twice")
            seen.add((u, p))
            for u2, p2 in terms:
                if (u2, p2) != (u, p) and not holds(u, p2):
                    problems.append(
                        f"undecodable: codeword {ci}, user {u} lacks packet {p2}"
                    )
    if seen != owed:
        problems.append(
            f"partition: {len(owed - seen)} owed cells never sent, "
            f"{len(seen - owed)} cells sent but not owed"
        )
    return problems


def dedicated_problems(
    codewords: Sequence[Iterable[Cell]], K: int, i: int
) -> list[str]:
    """Full check of a schedule for the cyclic placement (K, i)."""
    return schedule_problems(
        codewords,
        length=schedule_length(K, i),
        max_arity=arity(K, i),
        owed=owed_cells(K, i),
        holds=window_holds(K, i),
    )


def pair_problems(
    codewords: Sequence[Iterable[Cell]], K: int, i: int
) -> list[str]:
    """A pairwise schedule: ceil(K*(K-i)/2) codewords of at most two terms."""
    return schedule_problems(
        codewords,
        length=-(-K * (K - i) // 2),
        max_arity=2,
        owed=owed_cells(K, i),
        holds=window_holds(K, i),
    )


def ccdn_problems(
    codewords: Sequence[Iterable[Cell]], K: int, L: int, i: int
) -> list[str]:
    """A multi-access schedule, decoded against the union of caches.

    At a supported point the view is a run of i*L sub-packets, so the
    schedule has the length and arity of the cyclic scheme at cache i*L.
    """
    views = ccdn_views(K, L, i)
    owed = {
        (u, p)
        for u in range(1, K + 1)
        for p in range(1, K + 1)
        if p not in views[u - 1]
    }
    run = i * L
    return schedule_problems(
        codewords,
        length=schedule_length(K, run),
        max_arity=arity(K, run),
        owed=owed,
        holds=lambda u, p: p in views[u - 1],
    )


def replay_decode(
    codewords: Sequence[Iterable[Cell]],
    files: Sequence[bytes],
    demands: Sequence[int],
    i: int,
) -> list[str]:
    """Deliver real bytes through a schedule with big-int XOR and decode.

    Each codeword's payload is the XOR of the demanded slices it combines.
    User u learns its term of a codeword by cancelling every companion
    slice from its own cache (one pass, no help from other codewords), and
    reads the rest of its file from its cyclic window.  Returns one problem
    per user whose reassembled file differs from the demanded one.
    """
    K = len(demands)
    size = len(files[0]) // K

    def piece(n: int, p: int) -> int:
        return int.from_bytes(files[n - 1][(p - 1) * size : p * size], "big")

    holds = window_holds(K, i)
    learned: dict[Cell, int] = {}
    for cw in codewords:
        terms = [tuple(term) for term in cw]
        payload = 0
        for u, p in terms:
            payload ^= piece(demands[u - 1], p)
        for u, p in terms:
            value = payload
            for u2, p2 in terms:
                if (u2, p2) != (u, p):
                    if not holds(u, p2):
                        break
                    value ^= piece(demands[u2 - 1], p2)
            else:
                learned[(u, p)] = value
    problems = []
    for u in range(1, K + 1):
        want = demands[u - 1]
        parts = []
        for p in range(1, K + 1):
            value = piece(want, p) if holds(u, p) else learned.get((u, p))
            if value is None:
                problems.append(f"undecodable: user {u} never learned packet {p}")
                break
            parts.append(value.to_bytes(size, "big"))
        else:
            if b"".join(parts) != files[want - 1]:
                problems.append(f"bytes: user {u} rebuilt the wrong file")
    return problems
