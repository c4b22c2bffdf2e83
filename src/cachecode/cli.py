"""Command-line interface.

Subcommands: schedule, verify, simulate, rate-curve, ccdn-bound,
optimality-table.  Output goes to stdout or --out as JSON or CSV
(RFC 4180, UTF-8, LF line endings) and is byte-identical across runs for
fixed flags and seeds.  The CSV columns of the table commands (rate-curve,
ccdn-bound, optimality-table) are the keys of their JSON rows, in the same
order, with booleans written yes/no.  Exact rationals appear both as "p/q"
strings and as 12-significant-digit decimals.  Exit codes: 0 success, 1
failed verification or simulation, 2 invalid instance or regime, or an
--out file that cannot be written, 3 schedule generation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from .delivery import generate_schedule, mn_rate, mn_subpacketization, rate
from .errors import (
    InstanceError,
    RegimeError,
    ScheduleError,
    UnsupportedMemoryPoint,
)
from .model import (
    SystemParams,
    identity_demand,
    random_demand,
    validate_demand,
)
from .multiaccess import (
    CcdnParams,
    ccdn_rate_bound_curve,
    optimality_table,
)
from .verify import (
    random_file_store,
    simulate_end_to_end,
    verify_instantaneous_decodability,
)

SCHEMA = "cachecode/1"


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _dec(x: Fraction | float) -> str:
    return f"{float(x):.12g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise InstanceError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit_table(args: argparse.Namespace, head: dict, rows: list[dict]) -> None:
    """Write ``rows`` as JSON after ``head``, or as CSV with the row keys as
    its header (``head`` is JSON only); booleans are ``yes``/``no`` in CSV."""
    if args.fmt == "json":
        payload = {"schema": SCHEMA, "command": args.command, **head, "rows": rows}
        _emit(_json_text(payload), args.out)
        return
    body = [
        [("yes" if v else "no") if isinstance(v, bool) else v for v in row.values()]
        for row in rows
    ]
    _emit(_csv_text(list(rows[0]), body), args.out)


def _resolve_demand(spec: str, params: SystemParams):
    if spec == "identity":
        return identity_demand(params), None
    if spec.startswith("random:"):
        try:
            seed = int(spec.split(":", 1)[1])
        except ValueError:
            raise InstanceError(f"bad demand spec {spec!r}; want random:<seed>")
        return random_demand(params, seed), seed
    try:
        entries = [int(x) for x in spec.split(",")]
    except ValueError:
        raise InstanceError(
            f"bad demand spec {spec!r}; want 'identity', 'random:<seed>', "
            "or a comma-separated file list"
        )
    return validate_demand(params, entries), None


def _report_json(report) -> dict:
    return {
        "decodable": report.decodable,
        "coverage_ok": report.coverage_ok,
        "violations": [
            {
                "codeword": v.codeword_index,
                "user": v.term.user,
                "packet": v.term.packet,
                "reason": v.reason,
            }
            for v in report.violations
        ],
    }


def _generate(args: argparse.Namespace):
    """The instance's params, demands and schedule, and the JSON header
    that ``schedule``, ``verify`` and ``simulate`` share."""
    params = SystemParams(
        n_files=args.n_files, n_users=args.n_users, cache_units=args.cache_units
    )
    demands, demand_seed = _resolve_demand(args.demand, params)
    schedule = generate_schedule(params, demands)
    consts = schedule.constants
    head = {
        "schema": SCHEMA,
        "command": args.command,
        "K": params.n_users,
        "N": params.n_files,
        "i": params.cache_units,
        "demand": list(demands),
        "demand_seed": demand_seed,
        "gamma": consts.stride if consts else None,
        "t": consts.arity if consts else None,
        "lambda": len(schedule.codewords),
        "rate": _frac(schedule.rate),
        "rate_float": float(schedule.rate),
    }
    return params, demands, schedule, head


def cmd_schedule(args: argparse.Namespace) -> int:
    _, _, schedule, head = _generate(args)
    payload = {
        **head,
        "subpacketization": schedule.subpacketization,
        "codewords": [
            [{"user": u, "packet": p} for u, p in cw] for cw in schedule.codewords
        ],
    }
    status = 0
    if args.verify:
        report = verify_instantaneous_decodability(schedule)
        payload["verification"] = _report_json(report)
        if not report.ok:
            status = 1
    if args.fmt == "json":
        _emit(_json_text(payload), args.out)
    else:
        rows = [
            [ci, si, u, p]
            for ci, cw in enumerate(schedule.codewords)
            for si, (u, p) in enumerate(cw)
        ]
        _emit(_csv_text(["transmission", "slot", "user", "packet"], rows), args.out)
    return status


def cmd_verify(args: argparse.Namespace) -> int:
    _, _, schedule, head = _generate(args)
    report = verify_instantaneous_decodability(schedule)
    _emit(_json_text({**head, **_report_json(report)}), args.out)
    return 0 if report.ok else 1


def cmd_simulate(args: argparse.Namespace) -> int:
    params, demands, schedule, head = _generate(args)
    store = random_file_store(params, args.seed, args.subpacket_bytes)
    ok = simulate_end_to_end(
        params, demands, store, seed=args.seed, schedule=schedule
    )
    payload = {
        **head,
        "store_seed": args.seed,
        "subpacket_bytes": args.subpacket_bytes,
        "ok": ok,
    }
    _emit(_json_text(payload), args.out)
    return 0 if ok else 1


def cmd_rate_curve(args: argparse.Namespace) -> int:
    K = args.n_users
    # Rejects K < 1 and N < 1 even where the loop below would not run.
    SystemParams(n_files=args.n_files, n_users=K, cache_units=0)
    rows = []
    for i in range(K + 1):
        params = SystemParams(n_files=args.n_files, n_users=K, cache_units=i)
        share, new, mn = Fraction(i, K), rate(params), mn_rate(params)
        rows.append(
            {
                "i": i,
                "m_over_n": _dec(share),
                "m_over_n_exact": _frac(share),
                "rate_new": _dec(new),
                "rate_new_exact": _frac(new),
                "rate_mn": _dec(mn),
                "rate_mn_exact": _frac(mn),
                "subpacketization_new": K,
                "subpacketization_mn": mn_subpacketization(params),
            }
        )
    _emit_table(args, {"K": K}, rows)
    return 0


def cmd_ccdn_bound(args: argparse.Namespace) -> int:
    if args.grid < 2:
        raise InstanceError(f"grid needs at least 2 points, got {args.grid}")
    params = CcdnParams(
        n_files=args.n_files,
        n_users=args.n_users,
        access_degree=args.access_degree,
        cache_units=1,
    )
    curve = ccdn_rate_bound_curve(params)
    top = curve.breakpoints[-1][0]
    memories = {Fraction(m) for m, _ in curve.breakpoints}
    memories.update(top * j / (args.grid - 1) for j in range(args.grid))
    rows = []
    for m in sorted(memories):
        r = curve.evaluate(m)
        rows.append(
            {
                "memory": _dec(m),
                "memory_exact": _frac(m),
                "rate_upper": _dec(r),
                "rate_upper_exact": _frac(r),
            }
        )
    head = {
        "K": args.n_users,
        "N": args.n_files,
        "L": args.access_degree,
        "breakpoints": [
            {"memory": _frac(m), "rate": _frac(r)} for m, r in curve.breakpoints
        ],
    }
    _emit_table(args, head, rows)
    return 0


def cmd_optimality_table(args: argparse.Namespace) -> int:
    if args.n_files != args.n_users:
        raise InstanceError(
            f"the optimality table is for N = K; got N={args.n_files}, "
            f"K={args.n_users}"
        )
    rows = optimality_table(args.n_users)
    if args.fmt == "table":
        lines = [f"K = {args.n_users}  (memory M = N/K)"]
        lines.append(f"{'L':>4}  {'label':<7} {'optimal':>10} {'achieved':>10}  match")
        for r in rows:
            lines.append(
                f"{r.access_degree:>4}  {r.label:<7} "
                f"{_frac(r.optimal_rate):>10} {_frac(r.new_rate):>10}  "
                f"{'yes' if r.matches else 'no'}"
            )
        _emit("\n".join(lines) + "\n", args.out)
        return 0
    table = [
        {
            "L": r.access_degree,
            "label": r.label,
            "rate_optimal": _dec(r.optimal_rate),
            "rate_optimal_exact": _frac(r.optimal_rate),
            "rate_new": _dec(r.new_rate),
            "rate_new_exact": _frac(r.new_rate),
            "match": r.matches,
        }
        for r in rows
    ]
    _emit_table(args, {"K": args.n_users}, table)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachecode",
        description="Coded caching schedules, verification, and rate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_: str, formats: list[str]):
        """A sub-command with the shared flags; the first format is the default."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        p.add_argument("--K", type=int, required=True, dest="n_users",
                       help="number of users (and caches)")
        p.add_argument("--N", type=int, dest="n_files", default=None,
                       help="number of files (default: K)")
        p.add_argument("--format", choices=formats, default=formats[0], dest="fmt")
        p.add_argument("--out", default=None, help="write output to this file")
        return p

    p = add("schedule", cmd_schedule, "generate the XOR delivery schedule",
            ["json", "csv"])
    p.add_argument("--i", type=int, required=True, dest="cache_units")
    p.add_argument("--demand", default="identity",
                   help="'identity', 'random:<seed>', or comma-separated files")
    p.add_argument("--verify", action="store_true",
                   help="also run the decodability and coverage checks")

    p = add("verify", cmd_verify,
            "generate a schedule and report verification results", ["json"])
    p.add_argument("--i", type=int, required=True, dest="cache_units")
    p.add_argument("--demand", default="identity")

    p = add("simulate", cmd_simulate,
            "run bit-exact delivery on a seeded random library", ["json"])
    p.add_argument("--i", type=int, required=True, dest="cache_units")
    p.add_argument("--demand", default="identity")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random file contents")
    p.add_argument("--subpacket-bytes", type=int, default=1,
                   dest="subpacket_bytes")

    add("rate-curve", cmd_rate_curve, "rates and subpacketization for i = 0..K",
        ["csv", "json"])

    p = add("ccdn-bound", cmd_ccdn_bound,
            "multi-access rate upper bound vs cache memory", ["csv", "json"])
    p.add_argument("--L", type=int, required=True, dest="access_degree",
                   help="caches each user reads (needs L >= K/2)")
    p.add_argument("--grid", type=int, default=100,
                   help="number of sample points (default 100)")

    add("optimality-table", cmd_optimality_table,
        "achieved vs optimal rates at M = N/K", ["table", "json", "csv"])
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.n_files is None:
        args.n_files = args.n_users
    try:
        return args.handler(args)
    except (InstanceError, RegimeError, UnsupportedMemoryPoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ScheduleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
