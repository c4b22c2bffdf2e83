"""End-to-end tests of the command-line interface: payload contents, output
formats, exit codes, and byte determinism."""

import csv
import dataclasses
import hashlib
import io
import json
import sys

import pytest

from cachecode import cli
from cachecode.cli import main
from cachecode.errors import ScheduleError

GOLDEN_6_4 = (
    {(1, 5), (2, 1), (4, 2), (5, 4)},
    {(2, 6), (3, 2), (5, 3), (6, 5)},
    {(3, 1), (4, 3), (6, 4), (1, 6)},
)


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


def codeword_sets(payload: dict) -> tuple[set, ...]:
    return tuple(
        {(term["user"], term["packet"]) for term in cw}
        for cw in payload["codewords"]
    )


class TestScheduleCommand:
    def test_reference_instance_payload(self, capsys):
        code, payload = run_json(
            capsys, "schedule", "--K", "6", "--N", "6", "--i", "4"
        )
        assert code == 0
        assert payload["schema"] == "cachecode/1"
        assert (payload["K"], payload["N"], payload["i"]) == (6, 6, 4)
        assert (payload["gamma"], payload["t"], payload["lambda"]) == (3, 4, 3)
        assert payload["rate"] == "1/2"
        assert payload["rate_float"] == 0.5
        assert payload["subpacketization"] == 6
        assert payload["demand"] == [1, 2, 3, 4, 5, 6]
        assert codeword_sets(payload) == GOLDEN_6_4

    def test_smallest_instance(self, capsys):
        code, payload = run_json(capsys, "schedule", "--K", "2", "--i", "1")
        assert code == 0
        assert codeword_sets(payload) == ({(1, 2), (2, 1)},)

    def test_mid_regime_count(self, capsys):
        code, payload = run_json(capsys, "schedule", "--K", "7", "--i", "5")
        assert code == 0
        assert payload["lambda"] == 4

    def test_inline_verification(self, capsys):
        code, payload = run_json(
            capsys, "schedule", "--K", "8", "--i", "5", "--verify"
        )
        assert code == 0
        assert payload["verification"]["decodable"]
        assert payload["verification"]["coverage_ok"]
        assert payload["verification"]["violations"] == []

    def test_failed_verification_exits_one(self, capsys, monkeypatch):
        # One term swapped between the first two codewords keeps every
        # demand served once, but no longer decodable on sight.
        real = cli.generate_schedule

        def swapped(*args, **kwargs):
            schedule = real(*args, **kwargs)
            first, second, *rest = schedule.codewords
            first, second = (
                (second[0],) + first[1:], (first[0],) + second[1:]
            )
            return dataclasses.replace(
                schedule, codewords=(first, second, *rest)
            )

        monkeypatch.setattr(cli, "generate_schedule", swapped)
        code, payload = run_json(
            capsys, "schedule", "--K", "6", "--i", "4", "--verify"
        )
        assert code == 1
        assert not payload["verification"]["decodable"]
        assert payload["verification"]["coverage_ok"]
        assert payload["verification"]["violations"]

    def test_explicit_and_seeded_demands(self, capsys):
        code, payload = run_json(
            capsys, "schedule", "--K", "6", "--i", "4", "--demand", "1,1,2,2,3,3"
        )
        assert code == 0
        assert payload["demand"] == [1, 1, 2, 2, 3, 3]
        code, payload = run_json(
            capsys, "schedule", "--K", "6", "--i", "4", "--demand", "random:7"
        )
        assert code == 0
        assert payload["demand_seed"] == 7
        assert len(payload["demand"]) == 6

    def test_csv_rows(self, capsys):
        code, out, err = run(
            capsys, "schedule", "--K", "6", "--i", "4", "--format", "csv"
        )
        assert code == 0 and err == ""
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["transmission", "slot", "user", "packet"]
        assert len(rows) == 13
        served = {(int(u), int(p)) for _, _, u, p in rows[1:]}
        assert served == set().union(*GOLDEN_6_4)


class TestVerifyAndSimulateCommands:
    def test_verify_reports_clean(self, capsys):
        code, payload = run_json(capsys, "verify", "--K", "9", "--i", "6")
        assert code == 0
        assert payload["command"] == "verify"
        assert payload["decodable"] and payload["coverage_ok"]
        assert payload["violations"] == []
        assert "subpacketization" not in payload

    def test_simulate_round_trips(self, capsys):
        code, payload = run_json(
            capsys, "simulate", "--K", "7", "--i", "4", "--seed", "5",
            "--subpacket-bytes", "3",
        )
        assert code == 0
        assert payload["ok"] is True
        assert payload["store_seed"] == 5
        assert payload["subpacket_bytes"] == 3


class TestRateCurveCommand:
    def test_csv_rows(self, capsys):
        code, out, err = run(capsys, "rate-curve", "--K", "6")
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 7
        mid = rows[4]
        assert mid["i"] == "4"
        assert (mid["rate_new"], mid["rate_new_exact"]) == ("0.5", "1/2")
        assert (mid["rate_mn"], mid["rate_mn_exact"]) == ("0.4", "2/5")
        assert mid["subpacketization_new"] == "6"
        assert mid["subpacketization_mn"] == "15"
        assert rows[0]["rate_new"] == "6"
        assert rows[6]["rate_new"] == "0"
        assert rows[0]["subpacketization_mn"] == "1"

    def test_json_rows(self, capsys):
        code, payload = run_json(
            capsys, "rate-curve", "--K", "6", "--format", "json"
        )
        assert code == 0
        assert payload["rows"][4]["rate_new_exact"] == "1/2"
        assert payload["rows"][4]["m_over_n_exact"] == "2/3"


class TestCcdnBoundCommand:
    def test_breakpoints_and_grid(self, capsys):
        code, payload = run_json(
            capsys, "ccdn-bound", "--K", "10", "--L", "6", "--format", "json"
        )
        assert code == 0
        assert payload["breakpoints"] == [
            {"memory": "0/1", "rate": "10/1"},
            {"memory": "1/1", "rate": "1/1"},
            {"memory": "2/1", "rate": "0/1"},
        ]
        rates = [payload["rows"][j]["rate_upper_exact"] for j in (0, -1)]
        assert rates == ["10/1", "0/1"]

    def test_csv_grid_is_non_increasing(self, capsys):
        code, out, err = run(
            capsys, "ccdn-bound", "--K", "10", "--L", "8", "--grid", "25"
        )
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        values = [float(r["rate_upper"]) for r in rows]
        assert values == sorted(values, reverse=True)
        assert values[0] == 10.0 and values[-1] == 0.0

    def test_small_access_degree_exits_with_usage_error(self, capsys):
        code, out, err = run(capsys, "ccdn-bound", "--K", "10", "--L", "4")
        assert code == 2
        assert "error:" in err

    def test_no_files_exits_with_usage_error(self, capsys):
        code, out, err = run(
            capsys, "ccdn-bound", "--K", "4", "--L", "2", "--N", "0"
        )
        assert code == 2
        assert out == ""
        assert err == "error: need at least one user and one file\n"

    def test_tiny_grid_is_rejected(self, capsys):
        code, out, err = run(
            capsys, "ccdn-bound", "--K", "10", "--L", "6", "--grid", "1"
        )
        assert code == 2
        assert "error:" in err


class TestOptimalityTableCommand:
    def test_text_table(self, capsys):
        code, out, err = run(capsys, "optimality-table", "--K", "12")
        assert code == 0 and err == ""
        assert "L=K-1" in out
        assert "yes" in out

    def test_json_rows(self, capsys):
        code, payload = run_json(
            capsys, "optimality-table", "--K", "12", "--format", "json"
        )
        assert code == 0
        by_label = {r["label"]: r for r in payload["rows"]}
        assert by_label["L=K-1"]["rate_new_exact"] == "1/12"
        assert by_label["s=2"]["rate_new_exact"] == "5/4"
        assert by_label["L=K-1"]["match"] is True

    def test_csv_match_column(self, capsys):
        code, out, err = run(
            capsys, "optimality-table", "--K", "5", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        by_label = {r["label"]: r for r in rows}
        assert by_label["L=K-2"]["match"] == "no"
        assert by_label["L=K-1"]["match"] == "yes"

    @pytest.mark.parametrize("N", ["2", "7"])
    def test_a_library_size_other_than_k_is_a_usage_error(self, capsys, N):
        code, out, err = run(capsys, "optimality-table", "--K", "6", "--N", N)
        assert code == 2 and out == ""
        assert err == f"error: the optimality table is for N = K; got N={N}, K=6\n"

    def test_n_equal_to_k_is_accepted(self, capsys):
        assert run(capsys, "optimality-table", "--K", "6", "--N", "6") == run(
            capsys, "optimality-table", "--K", "6"
        )


class TestExitCodesAndOutput:
    def test_invalid_cache_size_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "schedule", "--K", "6", "--i", "7")
        assert code == 2
        assert "error:" in err

    def test_too_few_files_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "schedule", "--K", "6", "--N", "3", "--i", "4"
        )
        assert code == 2

    def test_bad_demand_spec_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "schedule", "--K", "6", "--i", "4", "--demand", "random:x"
        )
        assert code == 2

    def test_a_file_list_with_no_number_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "schedule", "--K", "3", "--i", "1", "--demand", "1,x,3"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: bad demand spec '1,x,3'; want 'identity', "
            "'random:<seed>', or a comma-separated file list\n"
        )

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_non_positive_subpacket_size_is_a_usage_error(self, capsys, size):
        code, out, err = run(
            capsys, "simulate", "--K", "6", "--i", "4",
            "--subpacket-bytes", size,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("K", ["0", "-2"])
    def test_rate_curve_rejects_non_positive_user_counts(self, capsys, K):
        code, out, err = run(capsys, "rate-curve", "--K", K, "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_out_flag_writes_the_file_and_keeps_stdout_quiet(self, capsys, tmp_path):
        target = tmp_path / "schedule.json"
        code, out, err = run(
            capsys, "schedule", "--K", "6", "--i", "4", "--out", str(target)
        )
        assert code == 0 and out == "" and err == ""
        assert json.loads(target.read_text())["lambda"] == 3

    def test_out_into_a_missing_directory_is_a_usage_error(self, capsys, tmp_path):
        target = tmp_path / "no" / "such" / "x.json"
        code, out, err = run(
            capsys, "schedule", "--K", "6", "--i", "4", "--out", str(target)
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not target.parent.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("schedule", "--K", "11", "--i", "7"),
            ("schedule", "--K", "6", "--i", "4", "--format", "csv"),
            ("simulate", "--K", "6", "--i", "4", "--seed", "3"),
            ("rate-curve", "--K", "9"),
            ("ccdn-bound", "--K", "10", "--L", "9", "--format", "json"),
            ("optimality-table", "--K", "10", "--format", "csv"),
        ],
    )
    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path, argv):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main([*argv, "--out", str(first)]) == 0
        assert main([*argv, "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()
        assert first.read_bytes()


# Every subcommand and format, the --N/--demand/--verify/--seed/--grid
# variants, a min-conflicts fallback instance (13:10), the typed-error exits
# and argparse usage errors.  Their exit codes, output bytes and stderr are
# hashed together, so output that drifts in a refactor fails here, which two
# runs of the same code cannot show.
PIN_MATRIX = [
    ("schedule", "--K", "6", "--i", "4"),
    ("schedule", "--K", "6", "--N", "8", "--i", "4", "--format", "csv"),
    ("schedule", "--K", "7", "--i", "5", "--demand", "1,1,2,2,3,3,4"),
    ("schedule", "--K", "6", "--i", "4", "--demand", "random:7", "--verify"),
    ("schedule", "--K", "8", "--i", "3", "--format", "csv", "--verify"),
    ("schedule", "--K", "5", "--i", "5"),
    ("schedule", "--K", "13", "--i", "10"),
    ("verify", "--K", "9", "--i", "6"),
    ("verify", "--K", "7", "--N", "9", "--i", "3", "--demand", "random:3"),
    ("simulate", "--K", "7", "--i", "4", "--seed", "5", "--subpacket-bytes", "3"),
    ("simulate", "--K", "6", "--N", "9", "--i", "2", "--demand", "9,8,7,6,5,4"),
    ("rate-curve", "--K", "6"),
    ("rate-curve", "--K", "5", "--N", "3", "--format", "json"),
    ("ccdn-bound", "--K", "10", "--L", "6"),
    ("ccdn-bound", "--K", "9", "--N", "12", "--L", "7", "--grid", "7",
     "--format", "json"),
    ("optimality-table", "--K", "12"),
    ("optimality-table", "--K", "7", "--format", "json"),
    ("optimality-table", "--K", "5", "--format", "csv"),
    # typed errors: exit 2
    ("schedule", "--K", "6", "--i", "7"),
    ("schedule", "--K", "6", "--N", "3", "--i", "4"),
    ("schedule", "--K", "6", "--i", "4", "--demand", "1,2,3"),
    ("verify", "--K", "6", "--i", "4", "--demand", "random:x"),
    ("simulate", "--K", "6", "--i", "4", "--subpacket-bytes", "0"),
    ("rate-curve", "--K", "0"),
    ("ccdn-bound", "--K", "10", "--L", "4"),
    ("ccdn-bound", "--K", "10", "--L", "6", "--grid", "1"),
    # argparse usage errors: SystemExit(2)
    ("schedule", "--K", "6"),
    ("verify", "--K", "6", "--i", "4", "--format", "csv"),
    ("simulate", "--K", "6", "--i", "4", "--format", "csv"),
    ("ccdn-bound", "--K", "10"),
    ("rate-curve", "--K", "x"),
    ("rate-curve", "--K", "6", "--i", "2"),
    ("nonsense",),
]
# argparse lays out usage lines one way up to Python 3.12 and another from
# 3.13, which wraps the ccdn-bound usage and the subcommand list otherwise;
# every other byte is the same.  One exact digest per layout.
if sys.version_info >= (3, 13):
    PIN_DIGEST = (
        "d08b7c31621c093a1da9afbe5cfd67c38cf766fe55b8b343688e7f06aa3141a1"
    )
    HELP_DIGEST = (
        "3f8eecca2d37064f100551cad458b83be71b49867758057d77a30c576064f99e"
    )
else:
    PIN_DIGEST = (
        "dc566683621acf8fd0fe720e4f3d928ebf656e87eeb4f036ab78102c394fca26"
    )
    HELP_DIGEST = (
        "9f08caa356c62e5e58e0664afc13a5d69006f7f0275ce70d46e6ccc59517aaba"
    )


def pinned_run(capsys, argv, out=None) -> bytes:
    """One invocation as bytes: argv, exit code, stdout, stderr, --out file."""
    try:
        code = main([*argv, *(["--out", str(out)] if out else [])])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    written = b"<none>"
    if out and out.exists():
        written = out.read_bytes()
        out.unlink()
    record = [" ".join(argv), str(code), captured.out, captured.err]
    return "\x1f".join(record).encode() + b"\x1f" + written + b"\x1e"


class TestPinnedBytes:
    def test_command_matrix_bytes_are_pinned(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        target = tmp_path / "out.txt"
        digest = hashlib.sha256()
        for argv in PIN_MATRIX:
            digest.update(pinned_run(capsys, argv, target))
        for argv in [*PIN_MATRIX[:3], ()]:
            digest.update(pinned_run(capsys, argv))

        def no_schedule(params, demands=None):
            raise ScheduleError("no schedule found")

        monkeypatch.setattr("cachecode.cli.generate_schedule", no_schedule)
        digest.update(pinned_run(capsys, ("schedule", "--K", "6", "--i", "4"), target))
        digest.update(pinned_run(capsys, ("verify", "--K", "6", "--i", "4"), target))
        assert digest.hexdigest() == PIN_DIGEST

    def test_help_text_is_pinned(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        digest = hashlib.sha256()
        for command in ["", "schedule", "verify", "simulate", "rate-curve",
                        "ccdn-bound", "optimality-table"]:
            digest.update(pinned_run(capsys, [*command.split(), "--help"]))
        assert digest.hexdigest() == HELP_DIGEST
