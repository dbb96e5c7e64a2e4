"""Causally-informed online POMDP planning under unobserved confounding.

The submodules ``scm``, ``model``, ``despot``, ``learning``, ``gridworld``
and ``cli`` hold the API; the package root re-exports the names the README's
library example uses.
"""

from .despot import PlannerConfig, run_episode
from .gridworld import build_model, default_map
from .model import TransitionMode

__version__ = "0.1.0"
