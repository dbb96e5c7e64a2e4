import numpy as np
import pytest

from causalplan import gridworld
from causalplan.scm import CategoricalTable, ScmSpec, VariableId


@pytest.fixture(scope="session")
def grid():
    return gridworld.default_map()


@pytest.fixture(scope="session")
def truth(grid):
    return gridworld.build_model(grid)


@pytest.fixture(scope="session")
def confounded_fragment():
    """The confounded-cell step fragment U -> A -> DS (with U -> DS) as a raw
    causal spec, built from the benchmark tables."""
    p_uc_rows = [
        gridworld.relative_transition(a, u, True)
        for a in range(4)
        for u in gridworld.ORIENTATION_ERRORS
    ]
    return ScmSpec(
        exogenous=[(VariableId("U", 3), CategoricalTable((), gridworld.CONFOUNDER_PRIOR))],
        endogenous=[
            (VariableId("A", 4), ("U",), CategoricalTable((3,), gridworld.REACTIVE_ROWS)),
            (VariableId("DS", 4), ("A", "U"), CategoricalTable((4, 3), p_uc_rows)),
        ],
    )


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
