"""The K <= 24 schedule grid, pinned codeword for codeword.

Generates all 276 instances 2 <= K <= 24, 1 <= i <= K-1 once.  Their
digest (see ``scripts/schedule_digest.py``) must equal the pinned value,
so any change to schedule generation that alters a single term fails here,
and every one of the schedules must pass the decodability verifier.  The
sweep search's debug lines, which say how many decisions each instance
spent, are captured during the same run and pinned by their own digest;
only the instances with 2i > K run the sweep and log one.  The arity-2
instances 1 <= i <= K/2 come from the pairwise closed form, and the sweep
run on them alone reproduces it codeword for codeword.  Past the grid, the
sweep's lines for the 50 instances 25 <= K <= 28 with 2i > K are pinned
too, from the sweep run alone.
Sixteen fallback instances, fifteen of them past K = 24, are pinned the
same way as the grid, and each of them is verified and delivered bit for
bit.
"""

import importlib.util
from pathlib import Path

import pytest

from cachecode import SystemParams, build_cache_layout, build_demand_list
from cachecode.delivery import (
    _solve_schedule,
    initial_codeword_terms,
    scheme_constants,
)
from cachecode.verify import (
    random_file_store,
    simulate_end_to_end,
    verify_instantaneous_decodability,
)

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "schedule_digest.py"
GRID24_DIGEST = "dc45ef230d79d3c2d9e6ea3a035b557cf3377be3653749f267f0c3d6685fa32a"
GRID24_DECISIONS_DIGEST = (
    "209789e0a4eb088b8d140cc5bed9112ef290ac23e40b86f7ae3e8cc3bcb7b9d7"
)
# The sweep alone on 25 <= K <= 28 with 2i > K: 29 instances finish and 21
# give up.  Otherwise only ``--k40 --decisions``, which takes about half a
# minute, pins decision counts past the grid.
SWEEP_25_28_DECISIONS_DIGEST = (
    "34f1e1c80b3e6f4798bf12aceacf72c248c05c7f20cd6a32bc919ab87936e65b"
)
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
    # Odd K = 27..39 with i = (K+3)/2: mirrored transversal blocks, with
    # loose diagonals tiled by spaced run or min-conflicts for all but
    # K=27 and K=35.
    (
        "27:15,29:16,31:17,33:18,35:19,37:20,39:21",
        "2e860abbb51e5d8e949c2bb72ff0bc354f82732783a69ec6fa7329e1e36ae427",
    ),
]


def load_script():
    spec = importlib.util.spec_from_file_location("schedule_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


digest_script = load_script()


@pytest.fixture(scope="module")
def grid24_run():
    """The grid's schedules and the sweep lines logged while making them."""
    with digest_script.sweep_lines() as lines:
        schedules = [
            digest_script.instance_schedule(K, i) for K, i in digest_script.GRID24
        ]
    return schedules, lines


@pytest.fixture(scope="module")
def grid24(grid24_run):
    return grid24_run[0]


def test_grid24_digest_is_pinned(grid24):
    assert digest_script.digest_of(grid24) == GRID24_DIGEST


def test_grid24_decisions_are_pinned(grid24_run):
    lines = grid24_run[1]
    assert len(lines) == 132
    assert digest_script.lines_digest(lines) == GRID24_DECISIONS_DIGEST


def test_grid24_is_decodable_on_sight(grid24):
    failed = [
        (s.params.n_users, s.params.cache_units)
        for s in grid24
        if not verify_instantaneous_decodability(s).ok
    ]
    assert failed == []


def test_sweep_reproduces_the_pair_closed_form(grid24):
    pairs = [s for s in grid24 if 2 * s.params.cache_units <= s.params.n_users]
    assert len(pairs) == 144
    differ = []
    for s in pairs:
        params = s.params
        swept = _solve_schedule(
            params,
            build_cache_layout(params),
            scheme_constants(params),
            initial_codeword_terms(params),
            build_demand_list(params),
        )
        if swept != list(s.codewords):
            differ.append((params.n_users, params.cache_units))
    assert differ == []


def test_sweep_decisions_past_the_grid_are_pinned():
    instances = [(K, i) for K in range(25, 29) for i in range(K // 2 + 1, K)]
    assert len(instances) == 50
    with digest_script.sweep_lines() as lines:
        for K, i in instances:
            params = SystemParams(n_files=K, n_users=K, cache_units=i)
            _solve_schedule(
                params,
                None,
                scheme_constants(params),
                initial_codeword_terms(params),
                build_demand_list(params),
            )
    assert sum("gave up" in line for line in lines) == 21
    assert digest_script.lines_digest(lines) == SWEEP_25_28_DECISIONS_DIGEST


@pytest.mark.parametrize(
    "instances,digest", FALLBACK_DIGESTS, ids=[i for i, _ in FALLBACK_DIGESTS]
)
def test_fallback_instances_past_k24_are_pinned(instances, digest):
    schedules = [
        digest_script.instance_schedule(K, i)
        for K, i in digest_script.parse_instances(instances)
    ]
    assert digest_script.digest_of(schedules) == digest
    for schedule in schedules:
        params = schedule.params
        assert verify_instantaneous_decodability(schedule).ok
        store = random_file_store(params, seed=0)
        assert simulate_end_to_end(
            params, range(1, params.n_users + 1), store,
            schedule=schedule, strict=True,
        )


def test_k40_leaves_out_only_the_unbounded_instances():
    K40 = digest_script.K40
    assert len(K40) == 772 == len(set(K40))
    assert digest_script.GRID24 == K40[: len(digest_script.GRID24)]
    assert len(digest_script.K40_UNBOUNDED) == 8
    assert set(K40) | digest_script.K40_UNBOUNDED == {
        (K, i) for K in range(2, 41) for i in range(1, K)
    }


def test_canonical_line_format():
    schedule = digest_script.instance_schedule(4, 3)
    assert digest_script.canonical_line(schedule) == "4 3 1:4,2:1,3:2,4:3\n"


def test_decisions_digest_covers_the_sweep_lines(capsys):
    # 6:2 has arity 2: the closed form makes it, and no sweep line is logged.
    argv = ["--decisions", "--instances", "4:3,6:2,13:10"]
    assert digest_script.main(argv) == 0
    assert capsys.readouterr().out.strip() == digest_script.lines_digest(
        [
            "sweep for K=4, i=3 done after 0 decisions\n",
            "sweep for K=13, i=10 gave up after 20001 decisions\n",
        ]
    )


def test_digest_cli_takes_an_instance_list(capsys):
    assert digest_script.main(["--instances", "4:3,6:4"]) == 0
    printed = capsys.readouterr().out.strip()
    expected = digest_script.digest_of(
        [digest_script.instance_schedule(4, 3), digest_script.instance_schedule(6, 4)]
    )
    assert printed == expected
