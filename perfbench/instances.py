"""Fixed instance lists of the benchmark.

An instance is a pair (K, i): K users, each caching i of the K sub-packets
of every file.  The lists are plain data.  FALLBACK_CLASS records which
instances the sweep search of ``generate_schedule`` could not finish
within its node budget when the lists were last derived, so a fallback
construction finished them; every other instance the benchmark generates
is in the sweep class.  ``python3 perfbench/derive_lists.py`` re-derives
the list and says whether it still holds.  Instances left out because
their generation runs without a bound are listed in README.md.
"""

from math import comb

# The whole K <= 24 grid: 276 instances.
GRID24 = [(K, i) for K in range(2, 25) for i in range(1, K)]

# Instances where the diagonal-orbit fallbacks (spaced-run cover,
# min-conflicts tiling) take most of the generation time.  K=28, i=20
# (about 22 s) and K=29, i=23 (about 32 s) also qualify but would make one
# round longer than a whole run.  Three instances, so that the median
# operation is the middle one's, not a mean of two instances' extremes.
BEYOND24 = [(22, 16), (31, 26), (32, 27)]

# Instances the sweep search gives up on (derived by derive_lists.py).
FALLBACK_CLASS = frozenset([
    (13, 10), (14, 11), (16, 12), (17, 9), (17, 12), (17, 13), (17, 14),
    (18, 14), (18, 15), (19, 10), (19, 13), (19, 14), (19, 15), (20, 14),
    (20, 15), (21, 11), (21, 16), (21, 17), (21, 18), (22, 15), (22, 16),
    (22, 18), (22, 19), (23, 12), (23, 17), (23, 18), (23, 19), (24, 18),
    (24, 20), (31, 26), (32, 27),
])


def instance_class(K: int, i: int) -> str:
    """'fallback' or 'sweep': which path finished (K, i) when last derived."""
    return "fallback" if (K, i) in FALLBACK_CLASS else "sweep"


def ccdn_points() -> list[tuple[int, int, int]]:
    """Supported multi-access points (K, L, i) with K <= 24, i >= 2 and i*L < K.

    A point is supported when its placement needs exactly K subfiles per
    file: binom(K - i*L + i - 1, i - 1) * K / i == K, that is, the binomial
    equals i.  Computed here from that count, not through the package.
    """
    points = []
    for K in range(2, 25):
        for L in range(1, K + 1):
            for i in range(2, -(-K // L) + 1):
                if i * L < K and comb(K - i * L + i - 1, i - 1) == i:
                    points.append((K, L, i))
    return points
