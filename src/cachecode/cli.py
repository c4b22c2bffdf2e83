"""Command-line interface.

Subcommands: schedule, verify, simulate, rate-curve, ccdn-bound,
optimality-table.  Output goes to stdout or --out as JSON or CSV
(RFC 4180, UTF-8, LF line endings) and is byte-identical across runs for
fixed flags and seeds.  Exact rationals appear both as "p/q" strings and as
12-significant-digit decimals.  Exit codes: 0 success, 1 failed
verification or simulation, 2 invalid instance or regime, 3 schedule
generation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .delivery import generate_schedule, mn_rate, mn_subpacketization, rate
from .errors import (
    InstanceError,
    NoSeedTerm,
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


@dataclass
class RunConfig:
    """Everything one invocation needs, resolved from flags."""

    command: str
    n_users: int
    n_files: int | None = None
    cache_units: int | None = None
    access_degree: int | None = None
    demand: str = "identity"
    seed: int = 0
    fmt: str = "json"
    out: str | None = None
    verify: bool = False
    grid: int = 100
    subpacket_bytes: int = 1


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _dec(x: Fraction | float) -> str:
    return f"{float(x):.12g}"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
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


def _resolve_demand(cfg: RunConfig, params: SystemParams):
    spec = cfg.demand
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


def _system_params(cfg: RunConfig) -> SystemParams:
    if cfg.cache_units is None:
        raise InstanceError("this command needs --i")
    n_files = cfg.n_files if cfg.n_files is not None else cfg.n_users
    return SystemParams(
        n_files=n_files, n_users=cfg.n_users, cache_units=cfg.cache_units
    )


def _codewords_json(schedule) -> list:
    return [
        [{"user": u, "packet": p} for u, p in cw] for cw in schedule.codewords
    ]


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


def _schedule_header(params, demands, demand_seed, schedule) -> dict:
    consts = schedule.constants
    return {
        "schema": SCHEMA,
        "command": "",  # filled by caller
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
        "subpacketization": schedule.subpacketization,
    }


def cmd_schedule(cfg: RunConfig) -> int:
    params = _system_params(cfg)
    demands, demand_seed = _resolve_demand(cfg, params)
    schedule = generate_schedule(params, demands)
    status = 0
    payload = _schedule_header(params, demands, demand_seed, schedule)
    payload["command"] = "schedule"
    payload["codewords"] = _codewords_json(schedule)
    if cfg.verify:
        report = verify_instantaneous_decodability(schedule)
        payload["verification"] = _report_json(report)
        if not report.ok:
            status = 1
    if cfg.fmt == "json":
        _emit(_json_text(payload), cfg.out)
    else:
        rows = [
            [ci, si, u, p]
            for ci, cw in enumerate(schedule.codewords)
            for si, (u, p) in enumerate(cw)
        ]
        _emit(_csv_text(["transmission", "slot", "user", "packet"], rows), cfg.out)
    return status


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.fmt != "json":
        raise InstanceError("verify reports are JSON only")
    params = _system_params(cfg)
    demands, demand_seed = _resolve_demand(cfg, params)
    schedule = generate_schedule(params, demands)
    report = verify_instantaneous_decodability(schedule)
    payload = _schedule_header(params, demands, demand_seed, schedule)
    payload["command"] = "verify"
    del payload["subpacketization"]
    payload.update(_report_json(report))
    _emit(_json_text(payload), cfg.out)
    return 0 if report.ok else 1


def cmd_simulate(cfg: RunConfig) -> int:
    if cfg.fmt != "json":
        raise InstanceError("simulation reports are JSON only")
    params = _system_params(cfg)
    demands, demand_seed = _resolve_demand(cfg, params)
    schedule = generate_schedule(params, demands)
    store = random_file_store(params, cfg.seed, cfg.subpacket_bytes)
    ok = simulate_end_to_end(
        params, demands, store, seed=cfg.seed, schedule=schedule
    )
    payload = _schedule_header(params, demands, demand_seed, schedule)
    payload["command"] = "simulate"
    del payload["subpacketization"]
    payload["store_seed"] = cfg.seed
    payload["subpacket_bytes"] = cfg.subpacket_bytes
    payload["ok"] = ok
    _emit(_json_text(payload), cfg.out)
    return 0 if ok else 1


def cmd_rate_curve(cfg: RunConfig) -> int:
    K = cfg.n_users
    n_files = cfg.n_files if cfg.n_files is not None else K
    # Rejects K < 1 and N < 1 even where the loop below would not run.
    SystemParams(n_files=n_files, n_users=K, cache_units=0)
    rows = []
    for i in range(K + 1):
        params = SystemParams(n_files=n_files, n_users=K, cache_units=i)
        share = Fraction(i, K)
        rows.append(
            {
                "i": i,
                "m_over_n": share,
                "rate_new": rate(params),
                "rate_mn": mn_rate(params),
                "subpacketization_new": K,
                "subpacketization_mn": mn_subpacketization(params),
            }
        )
    if cfg.fmt == "json":
        payload = {
            "schema": SCHEMA,
            "command": "rate-curve",
            "K": K,
            "rows": [
                {
                    "i": r["i"],
                    "m_over_n": _dec(r["m_over_n"]),
                    "m_over_n_exact": _frac(r["m_over_n"]),
                    "rate_new": _dec(r["rate_new"]),
                    "rate_new_exact": _frac(r["rate_new"]),
                    "rate_mn": _dec(r["rate_mn"]),
                    "rate_mn_exact": _frac(r["rate_mn"]),
                    "subpacketization_new": r["subpacketization_new"],
                    "subpacketization_mn": r["subpacketization_mn"],
                }
                for r in rows
            ],
        }
        _emit(_json_text(payload), cfg.out)
    else:
        header = [
            "i",
            "m_over_n",
            "m_over_n_exact",
            "rate_new",
            "rate_new_exact",
            "rate_mn",
            "rate_mn_exact",
            "subpacketization_new",
            "subpacketization_mn",
        ]
        body = [
            [
                r["i"],
                _dec(r["m_over_n"]),
                _frac(r["m_over_n"]),
                _dec(r["rate_new"]),
                _frac(r["rate_new"]),
                _dec(r["rate_mn"]),
                _frac(r["rate_mn"]),
                r["subpacketization_new"],
                r["subpacketization_mn"],
            ]
            for r in rows
        ]
        _emit(_csv_text(header, body), cfg.out)
    return 0


def cmd_ccdn_bound(cfg: RunConfig) -> int:
    if cfg.access_degree is None:
        raise InstanceError("ccdn-bound needs --L")
    if cfg.grid < 2:
        raise InstanceError(f"grid needs at least 2 points, got {cfg.grid}")
    K = cfg.n_users
    n_files = cfg.n_files if cfg.n_files is not None else K
    params = CcdnParams(
        n_files=n_files, n_users=K, access_degree=cfg.access_degree, cache_units=1
    )
    curve = ccdn_rate_bound_curve(params)
    top = curve.breakpoints[-1][0]
    memories = {Fraction(m) for m, _ in curve.breakpoints}
    memories.update(top * j / (cfg.grid - 1) for j in range(cfg.grid))
    rows = [(m, curve.evaluate(m)) for m in sorted(memories)]
    if cfg.fmt == "json":
        payload = {
            "schema": SCHEMA,
            "command": "ccdn-bound",
            "K": K,
            "N": n_files,
            "L": cfg.access_degree,
            "breakpoints": [
                {"memory": _frac(m), "rate": _frac(r)}
                for m, r in curve.breakpoints
            ],
            "rows": [
                {
                    "memory": _dec(m),
                    "memory_exact": _frac(m),
                    "rate_upper": _dec(r),
                    "rate_upper_exact": _frac(r),
                }
                for m, r in rows
            ],
        }
        _emit(_json_text(payload), cfg.out)
    else:
        header = ["memory", "memory_exact", "rate_upper", "rate_upper_exact"]
        body = [[_dec(m), _frac(m), _dec(r), _frac(r)] for m, r in rows]
        _emit(_csv_text(header, body), cfg.out)
    return 0


def cmd_optimality_table(cfg: RunConfig) -> int:
    rows = optimality_table(cfg.n_users)
    if cfg.fmt == "json":
        payload = {
            "schema": SCHEMA,
            "command": "optimality-table",
            "K": cfg.n_users,
            "rows": [
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
            ],
        }
        _emit(_json_text(payload), cfg.out)
    elif cfg.fmt == "csv":
        header = [
            "L",
            "label",
            "rate_optimal",
            "rate_optimal_exact",
            "rate_new",
            "rate_new_exact",
            "match",
        ]
        body = [
            [
                r.access_degree,
                r.label,
                _dec(r.optimal_rate),
                _frac(r.optimal_rate),
                _dec(r.new_rate),
                _frac(r.new_rate),
                "yes" if r.matches else "no",
            ]
            for r in rows
        ]
        _emit(_csv_text(header, body), cfg.out)
    else:
        lines = [f"K = {cfg.n_users}  (memory M = N/K)"]
        lines.append(f"{'L':>4}  {'label':<7} {'optimal':>10} {'achieved':>10}  match")
        for r in rows:
            lines.append(
                f"{r.access_degree:>4}  {r.label:<7} "
                f"{_frac(r.optimal_rate):>10} {_frac(r.new_rate):>10}  "
                f"{'yes' if r.matches else 'no'}"
            )
        _emit("\n".join(lines) + "\n", cfg.out)
    return 0


_HANDLERS = {
    "schedule": cmd_schedule,
    "verify": cmd_verify,
    "simulate": cmd_simulate,
    "rate-curve": cmd_rate_curve,
    "ccdn-bound": cmd_ccdn_bound,
    "optimality-table": cmd_optimality_table,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachecode",
        description="Coded caching schedules, verification, and rate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--K", type=int, required=True, dest="n_users",
                       help="number of users (and caches)")
        p.add_argument("--N", type=int, dest="n_files", default=None,
                       help="number of files (default: K)")
        p.add_argument("--format", choices=defaults.pop("formats"),
                       default=defaults.pop("default_format"), dest="fmt")
        p.add_argument("--out", default=None, help="write output to this file")
        return p

    p = add("schedule", "generate the XOR delivery schedule",
            formats=["json", "csv"], default_format="json")
    p.add_argument("--i", type=int, required=True, dest="cache_units")
    p.add_argument("--demand", default="identity",
                   help="'identity', 'random:<seed>', or comma-separated files")
    p.add_argument("--verify", action="store_true",
                   help="also run the decodability and coverage checks")

    p = add("verify", "generate a schedule and report verification results",
            formats=["json"], default_format="json")
    p.add_argument("--i", type=int, required=True, dest="cache_units")
    p.add_argument("--demand", default="identity")

    p = add("simulate", "run bit-exact delivery on a seeded random library",
            formats=["json"], default_format="json")
    p.add_argument("--i", type=int, required=True, dest="cache_units")
    p.add_argument("--demand", default="identity")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random file contents")
    p.add_argument("--subpacket-bytes", type=int, default=1,
                   dest="subpacket_bytes")

    add("rate-curve", "rates and subpacketization for i = 0..K",
        formats=["csv", "json"], default_format="csv")

    p = add("ccdn-bound", "multi-access rate upper bound vs cache memory",
            formats=["csv", "json"], default_format="csv")
    p.add_argument("--L", type=int, required=True, dest="access_degree",
                   help="caches each user reads (needs L >= K/2)")
    p.add_argument("--grid", type=int, default=100,
                   help="number of sample points (default 100)")

    add("optimality-table", "achieved vs optimal rates at M = N/K",
        formats=["table", "json", "csv"], default_format="table")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command, n_users=args.n_users)
    for field in (
        "n_files", "cache_units", "access_degree", "demand", "seed",
        "fmt", "out", "verify", "grid", "subpacket_bytes",
    ):
        if hasattr(args, field) and getattr(args, field) is not None:
            setattr(cfg, field, getattr(args, field))
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    try:
        return _HANDLERS[cfg.command](cfg)
    except (InstanceError, RegimeError, UnsupportedMemoryPoint) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoSeedTerm, ScheduleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
