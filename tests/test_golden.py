"""Golden outputs: CLI files are pinned by sha256.

The digests were recorded before the planner tabulated its default-policy
rollouts, so they hold the search to the old per-node rollout arithmetic bit
for bit.  A change that alters any of them changes planner behaviour and
must say so.
"""

import hashlib

import pytest

from causalplan import cli

EVAL = {
    ("interventional", 3): (
        "f274a6fa347e5ff5bbf6ee0a961298c0817f47b2ecb48b26bc579a592350007e",
        "3959e06c1a5ec8bb8888a82250bb6dd9fff6f43f4facb0d9ec5d60636460732b",
    ),
    ("interventional", 11): (
        "fd4d684903469391ea9db57467b6a200b4b664d5354d4095b2ab9edda36e58cf",
        "e44b497a1f7bcc7d6df8c2969fa73715fa0f970276a3ac253bed0654d8dc6436",
    ),
    ("observational", 3): (
        "5e95212e0a1de553254eb1e7ce5aada70a2db90a469591dda533e0cd4bec265d",
        "1649817489db75ed179c7719c98d0e70500759f22407fd47485b8dfe681bfdf0",
    ),
    ("observational", 11): (
        "a25016c9c47381c57deb32974de2b7bf010e20218153d1f2e0acbb50638598f4",
        "cf0c2bd02b7cefb7223e256dd90f893249163571b3cdb1844125b793a1cd9a6f",
    ),
}

SIMULATE = {
    ("interventional", 3): "8ec903fe24619925301905cedb38814ffb0fb8fbc37137794f1c763e9c537e1f",
    ("interventional", 11): "ea2b12a87045795ab5d9fdefd68082da48ce76d3c8e80a9c0169ba5679a7f356",
    ("observational", 3): "0ce41cac0180c2bc73ac4c23490ad2c8d0b844c335276da47d24f7cb7dbc5c7e",
    ("observational", 11): "91bd1680d608c75a611a9faeac2ac01fad0f5ee536a332bad589eed1585dd9d7",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(tmp_path, command, mode, seed, *extra):
    argv = [command, "--mode", mode, "--plan-model", "truth",
            "--seed", str(seed), "--out", str(tmp_path), *extra]
    assert cli.main(argv) == 0
    return tmp_path


@pytest.mark.parametrize("mode, seed", sorted(EVAL))
def test_eval_outputs_are_pinned(tmp_path, mode, seed):
    out = _run(tmp_path, "eval", mode, seed, "--episodes", "3")
    assert (_digest(out / "episodes.csv"), _digest(out / "summary.txt")) == EVAL[mode, seed]


@pytest.mark.parametrize("mode, seed", sorted(SIMULATE))
def test_simulate_trace_is_pinned(tmp_path, mode, seed):
    out = _run(tmp_path, "simulate", mode, seed)
    assert _digest(out / "trace.csv") == SIMULATE[mode, seed]
