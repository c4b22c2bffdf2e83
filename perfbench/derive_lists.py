"""Re-derive the sweep/fallback instance classes of perfbench/instances.py.

    python3 perfbench/derive_lists.py

For every instance the benchmark generates (the K <= 24 grid and
BEYOND24), runs the sweep search of ``cachecode.delivery`` alone, with the
node budget ``generate_schedule`` gives it.  An instance whose sweep gives
up is in the fallback class.  For BEYOND24 it also times the whole
``generate_schedule`` and prints the share of it spent after the sweep
gave up, which should stay the majority.  Prints the derived list and
exits 1 when it differs from FALLBACK_CLASS.  Takes about half a minute;
it is the only part of the benchmark that calls package internals, and no
benchmark run calls it.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cachecode import (  # noqa: E402
    SystemParams,
    build_cache_layout,
    build_demand_list,
    generate_schedule,
)
from cachecode import delivery  # noqa: E402

from instances import BEYOND24, FALLBACK_CLASS, GRID24  # noqa: E402


def sweep_finishes(K: int, i: int) -> bool:
    params = SystemParams(n_files=K, n_users=K, cache_units=i)
    codewords = delivery._solve_schedule(
        params,
        build_cache_layout(params),
        delivery.scheme_constants(params),
        delivery.initial_codeword_terms(params),
        build_demand_list(params),
        node_budget=delivery._SWEEP_NODE_BUDGET,
    )
    return codewords is not None


def main() -> int:
    derived = set()
    for K, i in sorted(set(GRID24 + BEYOND24)):
        start = perf_counter()
        finished = sweep_finishes(K, i)
        sweep_s = perf_counter() - start
        if not finished:
            derived.add((K, i))
        if (K, i) in BEYOND24:
            start = perf_counter()
            generate_schedule(SystemParams(n_files=K, n_users=K, cache_units=i))
            total_s = perf_counter() - start
            print(
                f"K={K}, i={i}: generate {total_s:.2f} s, of which after the "
                f"sweep {max(total_s - sweep_s, 0.0) / total_s:.0%}"
            )
    print(f"fallback class ({len(derived)}): {sorted(derived)}")
    if derived != FALLBACK_CLASS:
        print(
            "differs from instances.FALLBACK_CLASS: "
            f"added {sorted(derived - FALLBACK_CLASS)}, "
            f"removed {sorted(FALLBACK_CLASS - derived)}"
        )
        return 1
    print("matches instances.FALLBACK_CLASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
