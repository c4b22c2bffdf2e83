#!/usr/bin/env python3
"""Print the SHA-256 digest of the schedules generated for a list of instances.

The digest pins every generated schedule codeword for codeword, so a change
to schedule generation that keeps it identical must keep the digest:

    python scripts/schedule_digest.py                   # the K <= 24 grid
    python scripts/schedule_digest.py --instances 22:16,31:26
    python scripts/schedule_digest.py --decisions       # decisions spent
    python scripts/schedule_digest.py --k40             # every K <= 40 that ends

The canonical text has one line per instance, in list order: ``"K i "``,
then the codewords joined by ``;``, each codeword being its terms written
``u:p`` and joined by ``,`` in emitted order.  Every instance is generated
with N = K files.  With ``--decisions`` the digest is instead over the
sweep search's ``"sweep for K=…, i=… done/gave up after N decisions"``
debug lines, each ending in a newline, in instance order; it pins how many
decisions the search spends, which a faster search must keep.  Only the
instances of arity 3 or more (2i > K) run the sweep and log such a line;
the arity-2 ones come from the pairwise closed form and add none.

``--k40`` prints
``58b3af06d9cd8ae179149ce22ef88ca296b8771ed7df421d8a3c4cafc1093d66`` and
``--k40 --decisions`` prints
``65f9158f71b376cd7bbf68b5241e91ed320456102fab793dedcbf8477e8f1c91``.  Each
takes about 30 s (2-vCPU Intel Xeon VM, Python 3.11.7), so the test suite
pins only the K <= 24 digests and checks the ``--k40`` instance list.  Run it
with the package importable: installed, or with ``PYTHONPATH=src`` from the
repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import logging
import sys
from typing import Iterable, Iterator

from cachecode import SystemParams, TransmissionSchedule, generate_schedule

GRID24 = [(K, i) for K in range(2, 25) for i in range(1, K)]

# The instances with K <= 40 that --k40 leaves out: none of them finished
# within 25 s when the list was fixed.  With the bit-sliced min-conflicts
# tiler every other one takes at most about 7 s, and 39,32, which finishes
# in 10-18 s, is in the list; 31,22, 33,26 and 36,30 raise
# ScheduleError after about 21 s, and the other five still run past 25 s
# (2-vCPU Intel Xeon VM, Python 3.11.7).
K40_UNBOUNDED = {
    (31, 22), (33, 26), (34, 24), (36, 30), (37, 26), (37, 29), (38, 30),
    (40, 28),
}
K40 = [
    (K, i)
    for K in range(2, 41)
    for i in range(1, K)
    if (K, i) not in K40_UNBOUNDED
]


def instance_schedule(K: int, i: int) -> TransmissionSchedule:
    return generate_schedule(SystemParams(n_files=K, n_users=K, cache_units=i))


def canonical_line(schedule: TransmissionSchedule) -> str:
    """The canonical text of one schedule, newline included."""
    params = schedule.params
    body = ";".join(
        ",".join(f"{u}:{p}" for u, p in cw) for cw in schedule.codewords
    )
    return f"{params.n_users} {params.cache_units} {body}\n"


def digest_of(schedules: Iterable[TransmissionSchedule]) -> str:
    digest = hashlib.sha256()
    for schedule in schedules:
        digest.update(canonical_line(schedule).encode())
    return digest.hexdigest()


class _LineCollector(logging.Handler):
    def __init__(self, lines: list[str]) -> None:
        super().__init__(logging.DEBUG)
        self.lines = lines

    def emit(self, record: logging.LogRecord) -> None:
        message = record.getMessage()
        if message.startswith("sweep for "):
            self.lines.append(message + "\n")


@contextlib.contextmanager
def sweep_lines() -> Iterator[list[str]]:
    """Collect the sweep search's debug lines, newline included, meanwhile."""
    lines: list[str] = []
    handler = _LineCollector(lines)
    logger = logging.getLogger("cachecode.delivery")
    level = logger.level
    logger.setLevel(logging.DEBUG)
    logger.addHandler(handler)
    try:
        yield lines
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def lines_digest(lines: Iterable[str]) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def parse_instances(text: str) -> list[tuple[int, int]]:
    instances = []
    for item in text.split(","):
        K, _, i = item.partition(":")
        try:
            instance = (int(K), int(i))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"instance {item!r} is not of the form K:i"
            ) from None
        if not 1 <= instance[1] <= instance[0]:
            raise argparse.ArgumentTypeError(
                f"instance {item!r} needs 1 <= i <= K"
            )
        instances.append(instance)
    return instances


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--grid24",
        action="store_true",
        help="all 276 instances 2 <= K <= 24, 1 <= i <= K-1 (the default)",
    )
    group.add_argument(
        "--k40",
        action="store_true",
        help="the 772 instances 2 <= K <= 40, 1 <= i <= K-1 that finish "
        "(minutes)",
    )
    group.add_argument(
        "--instances",
        type=parse_instances,
        metavar="K:i,...",
        help="comma-separated instance list, e.g. 22:16,31:26",
    )
    parser.add_argument(
        "--decisions",
        action="store_true",
        help="digest the sweep's decision-count log lines, not the "
        "schedules; only instances with 2i > K (arity 3 or more) log one",
    )
    args = parser.parse_args(argv)
    instances = args.instances or (K40 if args.k40 else GRID24)
    if args.decisions:
        with sweep_lines() as lines:
            for K, i in instances:
                instance_schedule(K, i)
        print(lines_digest(lines))
    else:
        print(digest_of(instance_schedule(K, i) for K, i in instances))
    return 0


if __name__ == "__main__":
    sys.exit(main())
