"""The planted rule changes of ``tools/mutants.py`` still apply to the code."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "mutants.py"
SPEC = importlib.util.spec_from_file_location("mutants", PATH)
mutants = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_each_old_text_occurs_once(name):
    file, old, new = mutants.MUTANTS[name]
    text = (mutants.ROOT / file).read_text()
    assert text.count(old) == 1
    assert old != new


def test_plant_refuses_an_ambiguous_edit(tmp_path):
    (tmp_path / "f.py").write_text("x = 1\nx = 1\n")
    with pytest.raises(ValueError, match="2 times"):
        mutants.plant(tmp_path, "f.py", "x = 1", "x = 2")


def test_failed_tests_reads_the_summary_lines():
    output = "\n".join([
        "..F.E",
        "FAILED tests/test_a.py::test_x - assert 1 == 2",
        "ERROR tests/test_b.py::test_y",
        "1 failed, 3 passed, 1 error in 0.5s",
    ])
    assert mutants.failed_tests(output) == ["tests/test_a.py::test_x",
                                            "tests/test_b.py::test_y"]
