"""``tools/ab_search.py`` on the repository against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_against_itself_gives_identical_results():
    src = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_search.py"), src, src,
         "--scenarios", "20", "--depth", "3", "--reps", "1"],
        capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "K = 20, D = 3, 1 repetitions, seeds 0-9"
    for mode in ("interventional", "observational"):
        assert f"{mode}: 120 searches a side" in lines
    assert [line.strip() for line in lines if "results" in line] == ["results identical"] * 2
