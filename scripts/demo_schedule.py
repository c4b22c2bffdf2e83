#!/usr/bin/env python3
"""Walk through one coded-caching instance end to end.

Prints the cyclic placement, the demanded sub-packets, the generated XOR
schedule with its rate, the verifier's report, and a bit-exact delivery
simulation on a seeded random library.  An invalid instance ends in one
``error:`` line on stderr and exit 2.  Example:

    python scripts/demo_schedule.py --K 6 --i 4
    python scripts/demo_schedule.py --K 13 --i 9 --seed 3
"""

from __future__ import annotations

import argparse
import sys
import time

from cachecode import (
    CacheCodeError,
    SystemParams,
    build_cache_layout,
    generate_schedule,
    identity_demand,
    mn_rate,
    mn_subpacketization,
    random_file_store,
    simulate_end_to_end,
    verify_instantaneous_decodability,
)


def fmt_set(values) -> str:
    return "{" + ", ".join(str(v) for v in sorted(values)) + "}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--K", type=int, default=6, help="number of users")
    parser.add_argument("--i", type=int, default=4, help="cached sub-packets per file")
    parser.add_argument("--N", type=int, default=None, help="number of files (default K)")
    parser.add_argument("--seed", type=int, default=0, help="library contents seed")
    args = parser.parse_args(argv)
    try:
        return walk(args)
    except CacheCodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def walk(args: argparse.Namespace) -> int:
    """Print every stage for the parsed instance; 0 iff all checks pass."""
    params = SystemParams(
        n_files=args.N if args.N is not None else args.K,
        n_users=args.K,
        cache_units=args.i,
    )
    layout = build_cache_layout(params)

    print(f"instance: N={params.n_files} files, K={params.n_users} users, "
          f"i={params.cache_units} cached sub-packets (M={params.memory} files)")
    print("\nplacement (every file is split into K sub-packets):")
    for user in range(1, params.n_users + 1):
        print(f"  user {user:>2} caches {fmt_set(layout.packets(user))}"
              f"  still needs {fmt_set(layout.missing(user))}")

    start = time.perf_counter()
    schedule = generate_schedule(params)
    elapsed = time.perf_counter() - start

    consts = schedule.constants
    if consts is None:
        print(f"\nschedule: every user caches every sub-packet, so no "
              f"transmission is needed (built in {elapsed * 1000:.1f} ms)")
    else:
        print(f"\nschedule: {schedule.n_transmissions} transmissions of up to "
              f"{consts.arity} terms (stride {consts.stride}), "
              f"built in {elapsed * 1000:.1f} ms")
    for index, codeword in enumerate(schedule.codewords):
        body = " + ".join(f"w[d{u},{p}]" for u, p in codeword)
        print(f"  t{index:>3}: {body}")

    print(f"\nrate: {schedule.rate} of a file per demand round "
          f"(baseline {mn_rate(params)} at subpacketization "
          f"{mn_subpacketization(params)} instead of {schedule.subpacketization})")

    report = verify_instantaneous_decodability(schedule)
    print(f"verifier: decodable={report.decodable} coverage={report.coverage_ok}")
    for violation in report.violations:
        print(f"  violation: {violation}")

    store = random_file_store(params, seed=args.seed)
    ok = simulate_end_to_end(
        params, identity_demand(params), store, seed=args.seed, schedule=schedule
    )
    print(f"simulation: every user rebuilt its file bit for bit: {ok}")
    return 0 if report.ok and ok else 1


if __name__ == "__main__":
    sys.exit(main())
