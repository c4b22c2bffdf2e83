"""The K <= 24 schedule grid, pinned codeword for codeword.

Generates all 276 instances 2 <= K <= 24, 1 <= i <= K-1 once.  Their
digest (see ``scripts/schedule_digest.py``) must equal the pinned value,
so any change to schedule generation that alters a single term fails here,
and every one of the schedules must pass the decodability verifier.  Nine
fallback instances, eight of them past K = 24, are pinned the same way.
"""

import importlib.util
from pathlib import Path

import pytest

from cachecode.verify import verify_instantaneous_decodability

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "schedule_digest.py"
GRID24_DIGEST = "dc45ef230d79d3c2d9e6ea3a035b557cf3377be3653749f267f0c3d6685fa32a"
FALLBACK_DIGESTS = [
    # K=22, i=16; K=31, i=26; K=32, i=27: the sweep gives up on each, the
    # spaced-run cover is searched in vain, and min-conflicts finishes them
    # (over the whole owed region for K=22, i=16).
    (
        "22:16,31:26,32:27",
        "7e657cfe50f5f79d7c5af6e9e785c5e522b2cf39bc6e73f34da9fd24bb5c8b2d",
    ),
    # Striped transversal orbits over two to four groups, with and without
    # a tiling of loose diagonals, and coset covers.
    (
        "25:13,31:20,38:23,39:24,40:34,25:19",
        "e1417d04cc8d55aa5175f6b28712431a3e65a1771251c2b0d4e6170df3127ba1",
    ),
]


def load_script():
    spec = importlib.util.spec_from_file_location("schedule_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest_script = load_script()


@pytest.fixture(scope="module")
def grid24():
    return [digest_script.instance_schedule(K, i) for K, i in digest_script.GRID24]


def test_grid24_digest_is_pinned(grid24):
    assert digest_script.digest_of(grid24) == GRID24_DIGEST


def test_grid24_is_decodable_on_sight(grid24):
    failed = [
        (s.params.n_users, s.params.cache_units)
        for s in grid24
        if not verify_instantaneous_decodability(s).ok
    ]
    assert failed == []


@pytest.mark.parametrize(
    "instances,digest", FALLBACK_DIGESTS, ids=[i for i, _ in FALLBACK_DIGESTS]
)
def test_fallback_instances_past_k24_are_pinned(instances, digest, capsys):
    assert digest_script.main(["--instances", instances]) == 0
    assert capsys.readouterr().out.strip() == digest


def test_canonical_line_format():
    schedule = digest_script.instance_schedule(4, 3)
    assert digest_script.canonical_line(schedule) == "4 3 1:4,2:1,3:2,4:3\n"


def test_digest_cli_takes_an_instance_list(capsys):
    assert digest_script.main(["--instances", "4:3,6:4"]) == 0
    printed = capsys.readouterr().out.strip()
    expected = digest_script.digest_of(
        [digest_script.instance_schedule(4, 3), digest_script.instance_schedule(6, 4)]
    )
    assert printed == expected
