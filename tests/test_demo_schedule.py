"""``scripts/demo_schedule.py`` runs to the end, also where no transmission
is needed (i = K), and turns invalid instances into one error line."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "demo_schedule.py"


def load_script():
    spec = importlib.util.spec_from_file_location("demo_schedule", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


demo_script = load_script()


@pytest.mark.parametrize("K, i", [(5, 5), (6, 4)])
def test_demo_walks_through_the_instance(capsys, K, i):
    assert demo_script.main(["--K", str(K), "--i", str(i)]) == 0
    out = capsys.readouterr().out
    assert "verifier: decodable=True coverage=True" in out
    assert "rebuilt its file bit for bit: True" in out


@pytest.mark.parametrize("K, i", [(6, 7), (5, 0)])
def test_invalid_instances_end_in_one_error_line(capsys, K, i):
    assert demo_script.main(["--K", str(K), "--i", str(i)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
