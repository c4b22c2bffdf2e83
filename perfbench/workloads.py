"""The four workloads.  Constructing one is its set-up; ``run_round`` runs
its fixed list of operations once, timing each and checking each output
outside the timed region.

All workloads are closed loops: one operation at a time in one process.
The only subprocesses started here are the ``cli`` workload's
invocations, one after another.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

import cachecode.cli
from cachecode import (
    CcdnParams,
    SystemParams,
    build_cache_layout,
    build_demand_list,
    ccdn_schedule,
    ccdn_user_view,
    closed_form_pairs,
    generate_schedule,
    min_pair_transmissions,
    random_file_store,
    simulate_end_to_end,
    verify_instantaneous_decodability,
)

import checks
from instances import BEYOND24, GRID24, ccdn_points, instance_class

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


class Workload:
    """Counts operations and collects problems; subclasses define the ops.

    Every operation carries a label naming its inputs; repeats of one
    operation share it.  ``percentile_kinds`` names the operation kinds
    whose times feed op_p50_ms and op_p95_ms (None: every kind).
    ``work_in_children`` marks a workload whose operations run in child
    processes, so its peak memory is theirs.  A failed operation (one that
    raised) is recorded in ``failures``; a wrong output of one that did
    not fail, in ``problems``.
    """

    percentile_kinds: tuple[str, ...] | None = None
    work_in_children = False

    def __init__(self, seed: int, tr) -> None:
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def run_round(self, tr) -> list[tuple[str, str, float]]:
        """Run the list once; return (kind, label, seconds) per operation."""
        raise NotImplementedError

    def final_checks(self) -> None:
        """Checks made once per run, after the timed rounds."""

    def traced_extras(self, tr) -> None:
        """Measurements made only in the traced run, after its rounds."""

    def timed(self, tr, kind: str, label: str, op, ops: list):
        """Run one operation; append (kind, label, seconds) and return its result.

        An operation that raises counts as failed and returns None.
        """
        self.attempted += 1
        with tr.span(f"op.{kind}", label):
            start = perf_counter()
            try:
                return op()
            except Exception as exc:  # a failed operation, not a crash of the run
                self.failed += 1
                self.failures.append(f"{label}: raised {exc!r}")
                return None
            finally:
                ops.append((kind, label, perf_counter() - start))

    def expect(self, label: str, problems: list[str]) -> None:
        self.problems.extend(f"{label}: {p}" for p in problems)


def _params(K: int, i: int) -> SystemParams:
    return SystemParams(n_files=K, n_users=K, cache_units=i)


def _demand(rng: random.Random, K: int) -> tuple[int, ...]:
    return tuple(rng.randint(1, K) for _ in range(K))


def _cells(schedule) -> list[list[tuple[int, int]]]:
    return [[(u, p) for u, p in cw] for cw in schedule.codewords]


class Beyond24(Workload):
    """Generate and verify each instance of a fixed list."""

    percentile_kinds = ("instance",)
    instances: list[tuple[int, int]] = BEYOND24

    def __init__(self, seed: int, tr) -> None:
        super().__init__(seed, tr)
        rng = random.Random(seed)
        self.inputs = [
            (K, i, _params(K, i), _demand(rng, K)) for K, i in self.instances
        ]

    def run_round(self, tr) -> list[tuple[str, str, float]]:
        ops: list[tuple[str, str, float]] = []
        for K, i, params, demands in self.inputs:
            self.instance_op(tr, ops, K, i, params, demands)
        return ops

    def instance_op(self, tr, ops, K, i, params, demands) -> None:
        def op():
            layout = tr.call("model.build_cache_layout", build_cache_layout, params)
            owed = tr.call(
                "model.build_demand_list", build_demand_list, params, demands
            )
            schedule = tr.call(
                "delivery.generate_schedule", generate_schedule, params, demands,
                tag=instance_class(K, i),
            )
            report = tr.call(
                "verify.verify_instantaneous_decodability",
                verify_instantaneous_decodability, schedule, layout,
            )
            return owed, schedule, report

        label = f"K={K},i={i}"
        result = self.timed(tr, "instance", label, op, ops)
        if result is None:
            return
        owed, schedule, report = result
        tr.count("delivery.codewords", len(schedule.codewords))
        tr.count("delivery.terms", schedule.total_terms())
        if len(owed) != K * (K - i) or set(owed) != checks.owed_cells(K, i):
            self.problems.append(
                f"{label}: build_demand_list differs from the owed cells"
            )
        if not report.ok:
            self.problems.append(
                f"{label}: verifier reported {len(report.violations)} violations"
            )
        self.expect(label, checks.dedicated_problems(_cells(schedule), K, i))


class Grid24(Beyond24):
    """The K <= 24 grid, the pair closed form and the multi-access points."""

    instances = GRID24

    def __init__(self, seed: int, tr) -> None:
        super().__init__(seed, tr)
        rng = random.Random(seed + 1)
        self.ccdn_inputs = [
            (K, L, i, CcdnParams(n_files=K, n_users=K, access_degree=L, cache_units=i),
             _demand(rng, K))
            for K, L, i in ccdn_points()
        ]

    def run_round(self, tr) -> list[tuple[str, str, float]]:
        ops: list[tuple[str, str, float]] = []
        for K, i, params, demands in self.inputs:
            self.instance_op(tr, ops, K, i, params, demands)
            if 1 < i and 2 * i <= K:
                self.pairs_op(tr, ops, K, i, params, demands)
        for K, L, i, params, demands in self.ccdn_inputs:
            self.ccdn_op(tr, ops, K, L, i, params, demands)
        return ops

    def pairs_op(self, tr, ops, K, i, params, demands) -> None:
        def op():
            schedule = tr.call(
                "delivery.closed_form_pairs", closed_form_pairs, params, demands
            )
            oracle = None
            if K <= 8:
                oracle = tr.call(
                    "verify.min_pair_transmissions",
                    min_pair_transmissions, params, demands,
                )
            return schedule, oracle

        label = f"pairs K={K},i={i}"
        result = self.timed(tr, "pairs", label, op, ops)
        if result is None:
            return
        schedule, oracle = result
        self.expect(label, checks.pair_problems(_cells(schedule), K, i))
        if oracle is not None and oracle != -(-K * (K - i) // 2):
            self.problems.append(f"{label}: matching oracle gives {oracle}")

    def ccdn_op(self, tr, ops, K, L, i, params, demands) -> None:
        def op():
            schedule = tr.call(
                "multiaccess.ccdn_schedule", ccdn_schedule, params, demands
            )
            view = tr.call("multiaccess.ccdn_user_view", ccdn_user_view, params)
            return schedule, view

        label = f"ccdn K={K},L={L},i={i}"
        result = self.timed(tr, "ccdn", label, op, ops)
        if result is None:
            return
        schedule, view = result
        if list(view.cached) != checks.ccdn_views(K, L, i):
            self.problems.append(
                f"{label}: ccdn_user_view differs from the cache union"
            )
        self.expect(label, checks.ccdn_problems(_cells(schedule), K, L, i))


class Simulate(Workload):
    """Bit-exact delivery at K = 24 for three cache sizes and two sub-packet
    sizes; schedules and file stores are built during set-up."""

    K = 24
    CACHES = (2, 16, 22)
    SIZES = (1024, 16384)

    def __init__(self, seed: int, tr) -> None:
        super().__init__(seed, tr)
        rng = random.Random(seed)
        K = self.K
        self.store_seed = rng.randrange(2**31)
        self.cases = []
        for i in self.CACHES:
            params, demands = _params(K, i), _demand(rng, K)
            schedule = tr.call(
                "delivery.generate_schedule", generate_schedule, params, demands,
                tag=instance_class(K, i),
            )
            self.cases.append((i, params, demands, schedule))
        # The library does not depend on the cache size: one store per size.
        self.stores = {
            size: tr.call(
                "verify.random_file_store", random_file_store,
                _params(K, self.CACHES[0]), self.store_seed, size,
            )
            for size in self.SIZES
        }

    def run_round(self, tr) -> list[tuple[str, str, float]]:
        ops: list[tuple[str, str, float]] = []
        K = self.K
        for i, params, demands, schedule in self.cases:
            for size in self.SIZES:
                store = self.stores[size]

                def op():
                    return tr.call(
                        "verify.simulate_end_to_end", simulate_end_to_end,
                        params, demands, store, seed=self.store_seed, schedule=schedule,
                    )

                label = f"simulate K={K},i={i},size={size}"
                ok = self.timed(tr, "simulate", label, op, ops)
                if ok is None:
                    continue
                if ok is not True:
                    self.problems.append(f"{label}: returned {ok!r}")
                tr.count("verify.decoded_bytes", K * (K - i) * size)
                # Encoding XORs |cw| slices, and each of the |cw| owners
                # cancels |cw| - 1: |cw|^2 slices per codeword.
                tr.count(
                    "verify.xor_bytes_min",
                    sum(len(cw) * len(cw) * size for cw in schedule.codewords),
                )
        return ops

    def final_checks(self) -> None:
        K = self.K
        for i, _, _, schedule in self.cases:
            problems = checks.dedicated_problems(_cells(schedule), K, i)
            self.expect(f"schedule K={K},i={i}", problems)
        # Replay one (cache size, sub-packet size) pair per run, chosen by the seed.
        i, _, demands, schedule = self.cases[self.seed % len(self.cases)]
        size = self.SIZES[self.seed // len(self.cases) % len(self.SIZES)]
        files = self.stores[size].files
        problems = checks.replay_decode(_cells(schedule), files, demands, i)
        self.expect(f"replay K={K},i={i},size={size}", problems)


def src_env() -> dict[str, str]:
    """The environment with the checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    path = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        path += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = path
    return env


class Cli(Workload):
    """Fresh-interpreter runs of two CLI commands, each twice per round."""

    work_in_children = True

    def __init__(self, seed: int, tr) -> None:
        super().__init__(seed, tr)
        rng = random.Random(seed)
        demand = f"random:{rng.randrange(2**31)}"
        self.instances = {"schedule": (24, 17), "simulate": (24, 16)}
        self.commands = {
            "schedule": [
                "schedule", "--K", "24", "--i", "17", "--verify", "--demand", demand,
            ],
            "simulate": [
                "simulate", "--K", "24", "--i", "16", "--subpacket-bytes", "4096",
                "--demand", demand, "--seed", str(rng.randrange(2**31)),
            ],
        }
        self.outputs: dict[str, bytes] = {}
        self.env = src_env()

    def run_round(self, tr) -> list[tuple[str, str, float]]:
        ops: list[tuple[str, str, float]] = []
        for name, argv in self.commands.items():
            for _ in range(2):
                def op():
                    return tr.call(
                        "cli.subprocess", subprocess.run,
                        [sys.executable, "-m", "cachecode.cli", *argv],
                        cwd=ROOT, env=self.env, capture_output=True, timeout=120,
                    )

                proc = self.timed(tr, "cli", f"cli {name}", op, ops)
                if proc is not None:
                    self.check_invocation(name, proc)
        return ops

    def check_invocation(self, name: str, proc) -> None:
        label = f"cli {name}"
        if proc.returncode != 0 or proc.stderr:
            self.problems.append(
                f"{label}: exit {proc.returncode}, stderr {proc.stderr[-200:]!r}"
            )
            return
        first = self.outputs.setdefault(name, proc.stdout)
        if proc.stdout != first:
            self.problems.append(f"{label}: output differs between invocations")
        elif first is proc.stdout:  # the command's first output: check its content
            self.expect(label, self.payload_problems(name, proc.stdout))

    def payload_problems(self, name: str, stdout: bytes) -> list[str]:
        try:
            payload = json.loads(stdout)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        K, i = payload.get("K"), payload.get("i")
        if (K, i) != self.instances[name]:
            return [f"payload is for K={K}, i={i}"]
        problems = []
        t, length = payload.get("t"), payload.get("lambda")
        if (t, length) != (checks.arity(K, i), checks.schedule_length(K, i)):
            problems.append(f"t={t}, lambda={length}")
        if name == "schedule":
            cells = [
                [(term["user"], term["packet"]) for term in cw]
                for cw in payload["codewords"]
            ]
            problems += checks.dedicated_problems(cells, K, i)
            verification = payload.get("verification", {})
            if not (verification.get("decodable") and verification.get("coverage_ok")):
                problems.append("the CLI's own verification failed")
        elif payload.get("ok") is not True:
            problems.append(f"simulate reported ok={payload.get('ok')!r}")
        return problems

    def traced_extras(self, tr) -> None:
        """In-process ``cachecode.cli.main`` with --out, and the import time
        of a fresh interpreter."""
        for name, argv in self.commands.items():
            path = OUT / f"cli-{name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            code = tr.call("cli.main", cachecode.cli.main, [*argv, "--out", str(path)])
            data = path.read_bytes()
            tr.count("cli.output_bytes", len(data))
            if code != 0 or data != self.outputs.get(name):
                self.problems.append(
                    f"cli {name}: in-process main gave exit {code} or other bytes"
                )
        probe = (
            "import time; t = time.perf_counter(); import cachecode.cli; "
            "print(time.perf_counter() - t)"
        )
        samples = []
        for _ in range(3):
            proc = subprocess.run(
                [sys.executable, "-c", probe], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=120,
            )
            samples.append(float(proc.stdout))
        tr.count("cli.import_s", statistics.median(samples))


WORKLOADS = {"grid24": Grid24, "beyond24": Beyond24, "simulate": Simulate, "cli": Cli}


def negative_controls() -> list[str]:
    """Broken inputs the checks must reject; returns the ones they accepted.

    Uses K = 8, i = 5 (arity 4, six codewords of four terms).
    """
    K, i = 8, 5
    params = _params(K, i)
    demands = tuple(range(1, K + 1))
    schedule = generate_schedule(params, demands)
    cells = _cells(schedule)
    missed = []
    if checks.dedicated_problems(cells, K, i):
        missed.append("the unbroken schedule does not pass")
    if not checks.dedicated_problems(cells[:-1], K, i):
        missed.append("a dropped codeword passes")
    duplicated = [list(cw) for cw in cells]
    duplicated[1][0] = duplicated[0][0]
    problems = checks.dedicated_problems(duplicated, K, i)
    if not any(p.startswith("duplicate") for p in problems):
        missed.append("a duplicated term passes")
    # Swap one term between two codewords: length and partition still hold,
    # so only the decodability check can catch it.
    swapped = [list(cw) for cw in cells]
    swapped[0][0], swapped[1][0] = swapped[1][0], swapped[0][0]
    kinds = {p.split(":")[0] for p in checks.dedicated_problems(swapped, K, i)}
    if kinds != {"undecodable"}:
        missed.append(f"an undecodable pair gives {sorted(kinds) or 'no problem'}")
    undecodable = replace(schedule, codewords=tuple(tuple(cw) for cw in swapped))
    if verify_instantaneous_decodability(undecodable).decodable:
        missed.append("the package verifier passes an undecodable pair")
    short = replace(schedule, codewords=schedule.codewords[:-1])
    if verify_instantaneous_decodability(short).ok:
        missed.append("the package verifier passes a dropped codeword")
    store = random_file_store(params, 1, 16)
    if simulate_end_to_end(params, demands, store, schedule=short) is not False:
        missed.append("simulate_end_to_end accepts a schedule missing a codeword")
    if not checks.replay_decode(_cells(short), store.files, demands, i):
        missed.append("the big-int replay accepts a schedule missing a codeword")
    if checks.replay_decode(cells, store.files, demands, i):
        missed.append("the big-int replay rejects the unbroken schedule")
    return missed
