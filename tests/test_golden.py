"""Golden outputs: CLI files are pinned by sha256.

The ``eval`` digests were recorded before the planner tabulated its
default-policy rollouts and still hold: the chosen actions and rewards of
those episodes did not change when the planner began to compute both bounds
from one per-search table.  The ``simulate`` digests were re-pinned with that
table, since ``trace.csv`` prints each search's root bounds, and again when a
node's first bounds became ``np.add.reduceat`` sums, which moved the last
bits of some bounds and no action, state, observation or reward.  The ``learn``
digests were recorded before dataset generation inverted its CDFs column by
column and exact queries enumerated worlds as arrays, so they hold both to
the old loops.  The ``tables`` digests were recorded while queries still
returned a wrapper object around their probability arrays.  The ``learn``
and ``tables`` digests also hold across batched queries, which build a
model's region and free rows with one enumeration per query family, a row
per action, and across the KL score taken over all contexts' rows in one
call.  A change that alters any of them changes behaviour and must say so.
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
    ("interventional", 3): "dea1edd2566cd571d897d8b1594b8b6fe3a58051900724d8360d5dd8dae6f6be",
    ("interventional", 11): "b9f900d5e7a0d87026038b1d954f0ea51d9fa1f340af4602d7951102247054bc",
    ("observational", 3): "939d495ddcf0b5a8825c3de6c3a10b55dc544f56eb3f3e9ae11aa444b5fe1597",
    ("observational", 11): "8aaa8def9507efa51b4f0e6da09e690572b850b551cee700819fd01cd8c080ea",
}

LEARN = {
    3: (
        "0d56870a3be3a46b49e72640e05b4e6b415c137345eb9632a839a43a6bdd9fcc",
        "f72b96c55ac6934d13348f2c482ed7feecb020b812d9831135d4b20f7cc47d16",
        "6c3bd3b7ec06d265ed53b1a813a3ef06a595562153febc791a6a440f3aff30c3",
    ),
    11: (
        "17403928a05b655d1b25658731a0281833802ff92e1b97e3a7291bbfbacff409",
        "fbb836f8be0c094e16ecd2d669effab07db2fa89c0c7244078af7d7a8ecc6750",
        "fa78bb07221950c30592c93693f4606bce08ce9ced539b8568442ad98317648a",
    ),
}
LEARN_FILES = ("params.txt", "learn_report.txt", "dataset.csv")

# tables.csv of the truth alone, and with the learned model of the seed-3 LEARN pin
TABLES = {
    "truth": "0b39da1e6301e78c0195c21aa92e3dd9ed3a9a16626da3f3b4b67f3eb6fcd042",
    "learned": "c17aa23da3a9f83cb50058ce8610e0c6455bce370739608a72acf3baad9e5fbf",
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


@pytest.mark.parametrize("seed", sorted(LEARN))
def test_learn_outputs_are_pinned(tmp_path, seed):
    argv = ["learn", "--seed", str(seed), "--dataset-n", "2000",
            "--write-dataset", "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    assert tuple(_digest(tmp_path / name) for name in LEARN_FILES) == LEARN[seed]


@pytest.mark.parametrize("source", sorted(TABLES))
def test_tables_output_is_pinned(tmp_path, source):
    argv = ["tables", "--out", str(tmp_path)]
    if source == "learned":
        assert cli.main(["learn", "--seed", "3", "--dataset-n", "2000",
                         "--out", str(tmp_path)]) == 0
        argv += ["--params", str(tmp_path / "params.txt")]
    assert cli.main(argv) == 0
    assert _digest(tmp_path / "tables.csv") == TABLES[source]
