"""End-to-end tests of the command-line interface: payload contents, output
formats, exit codes, and byte determinism."""

import csv
import io
import json

import pytest

from cachecode.cli import main

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
