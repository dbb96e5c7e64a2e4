"""Command-line driver: dataset generation and fitting, table inspection,
batch planner evaluation, and single-episode traces.

All commands are deterministic given their seeds; output files carry no
timestamps, so reruns with identical flags are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import despot, gridworld, learning
from .model import TransitionMode, UcPomdpModel
from .scm import CapacityError, ScmError, UsageError

HIST_EDGES = np.arange(-60, 105, 5)

_PLANNER = despot.PlannerConfig

# Every command-line flag, once: dest -> (option string, default, argparse
# keywords).  A config file may set any of them but ``config``.
FLAGS = {
    "config": ("--config", None, {"help": "JSON file of flag values; flags override"}),
    "map": ("--map", None, {"help": "path to an ASCII map (default: shipped map)"}),
    "gamma": ("--gamma", 0.95, {"type": float}),
    "out": ("--out", "out", {"help": "output directory"}),
    "mode": ("--mode", _PLANNER.mode.value,
             {"choices": [mode.value for mode in TransitionMode]}),
    "plan_model": ("--plan-model", "truth", {"choices": ["learned", "truth"]}),
    "params": ("--params", None, {"help": "learned-parameter file"}),
    "episodes": ("--episodes", 50, {"type": int}),
    "steps": ("--steps", 15, {"type": int}),
    "scenarios": ("--scenarios", _PLANNER.scenarios, {"type": int}),
    "depth": ("--depth", _PLANNER.depth, {"type": int}),
    "xi": ("--xi", _PLANNER.xi, {"type": float}),
    "lambda_": ("--lambda", _PLANNER.regularization, {"type": float}),
    "budget_ms": ("--budget-ms", _PLANNER.budget_ms, {"type": float}),
    "budget_trials": ("--budget-trials", _PLANNER.budget_trials, {"type": int}),
    "seed": ("--seed", 0, {"type": int}),
    "dataset_n": ("--dataset-n", 100000, {"type": int}),
    "smoothing": ("--smoothing", 1.0, {"type": float}),
    "write_dataset": ("--write-dataset", False, {"action": "store_true"}),
    "replay": ("--replay", None, {"help": "existing trace file to verify against"}),
}
DEFAULTS = {dest: default for dest, (_, default, _) in FLAGS.items() if dest != "config"}


class _Parser(argparse.ArgumentParser):
    """Raises each parse error as a ``UsageError``, which ``main`` reports
    as ``error[usage]``; subcommand parsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


@functools.cache   # a pure function of FLAGS and COMMANDS
def build_parser() -> argparse.ArgumentParser:
    # no prefix matching: README's spellings are the only ones accepted
    parser = _Parser(
        prog="causalplan",
        allow_abbrev=False,
        description="Confounding-aware online POMDP planning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, dests) in COMMANDS.items():
        # a flag not given sets no attribute, so the config file can fill it
        command = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS,
                                 allow_abbrev=False)
        for dest in dests:
            option, _, keywords = FLAGS[dest]
            command.add_argument(option, dest=dest, **keywords)
    return parser


def _config_value(key: str, value):
    """A config file's ``value`` for ``key``, held to the type and choices
    of its flag in ``FLAGS``; a switch takes a boolean."""
    _, default, keywords = FLAGS[key]
    if value is None and default is None:
        return value
    kind = bool if keywords.get("action") == "store_true" else keywords.get("type", str)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise UsageError(f"config value {key}={value!r} is not of type {kind.__name__}")
    choices = keywords.get("choices")
    if choices and value not in choices:
        raise UsageError(f"config value {key}={value!r} is not one of {choices}")
    try:
        return kind(value)
    except OverflowError:
        raise UsageError(f"config value {key}={value!r} is out of range") from None


def _merge_options(flags: dict) -> dict:
    """Every option of a command: the flags given on its command line over
    the values of its ``--config`` file over ``DEFAULTS``.  The file may
    hold any command's keys, so one file can serve several commands."""
    options = {}
    path = flags.pop("config", None)
    if path is not None:
        try:
            loaded = json.loads(_read_text(path))
        except (ValueError, RecursionError) as exc:  # not JSON, or nested too deeply
            raise UsageError(f"{path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError(f"{path}: config must be a JSON object")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key == "lambda":
                key = "lambda_"
            if key not in DEFAULTS:
                raise UsageError(f"unknown config key {key!r}")
            options[key] = _config_value(key, value)
    options.update(flags)
    if options.get("budget_ms") is not None:
        options.setdefault("budget_trials", None)  # an ms budget replaces the default trial cap
    options = {**DEFAULTS, **options}
    if not 0 < options["gamma"] < 1:
        raise UsageError("gamma must lie in (0, 1)")
    return options


def _read_text(path) -> str:
    """An input file's text; a file that is not UTF-8, or a path holding a
    NUL character, is a usage error."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except ValueError as exc:
        raise UsageError(f"{path!r}: {exc}") from None


def _out_dir(options) -> Path:
    """The output directory, created if missing; a path holding a NUL
    character is a usage error."""
    out = Path(options["out"])
    try:
        out.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:
        raise UsageError(f"--out {options['out']!r}: {exc}") from None
    return out


def _load_map(options) -> gridworld.GridMap:
    if options["map"] is not None:
        return gridworld.parse_map(_read_text(options["map"]))
    return gridworld.default_map()


@functools.lru_cache(maxsize=1)
def _truth_model(grid: gridworld.GridMap, gamma: float) -> UcPomdpModel:
    """The ground-truth model of every command, kept for the next call of
    the process on the same map and ``--gamma``, so the model and its
    derived tables are built once.  It builds through the module attribute,
    so a wrapped ``gridworld.build_model`` sees every build."""
    return gridworld.build_model(grid, gamma)


def _planner_config(options) -> despot.PlannerConfig:
    return despot.PlannerConfig(
        scenarios=options["scenarios"],
        depth=options["depth"],
        xi=options["xi"],
        regularization=options["lambda_"],
        budget_trials=options["budget_trials"],
        budget_ms=options["budget_ms"],
        mode=TransitionMode(options["mode"]),
        seed=options["seed"],
    )


def _learned_model(options, truth: UcPomdpModel) -> UcPomdpModel:
    """The model of the ``--params`` file's tables over ``truth``."""
    if options["params"] is None:
        raise UsageError("--plan-model learned requires --params")
    return learning.assemble_model(truth, learning.load_params(options["params"]))


def _planning_setup(options):
    """``eval``'s and ``simulate``'s truth model, plan model, planner config
    and output directory, made in the order in which their inputs are checked."""
    truth = _truth_model(_load_map(options), options["gamma"])
    plan = truth if options["plan_model"] == "truth" else _learned_model(options, truth)
    return truth, plan, _planner_config(options), _out_dir(options)


def _episode_seed(master: int, index: int) -> int:
    # documented hash: episode i draws its seed from SeedSequence((seed, 4, i))
    return int(np.random.SeedSequence((master, 4, index)).generate_state(1)[0])


def _label(value) -> str:
    if isinstance(value, tuple):
        return f"{value[0]}:{value[1]}"
    return str(value)


def _fmt(x: float) -> str:
    return repr(float(x))


def _cmd_learn(options) -> int:
    grid = _load_map(options)
    truth = _truth_model(grid, options["gamma"])
    out = _out_dir(options)

    dataset = learning.generate_dataset(truth, options["dataset_n"], options["seed"])
    if options["write_dataset"]:
        learning.save_dataset_csv(dataset, out / "dataset.csv")
    params = learning.fit(dataset, options["smoothing"])
    learning.save_params(params, out / "params.txt")

    learned = learning.assemble_model(truth, params)
    kl = learning.eval_kl_full_transition(learned, truth)
    err_int = learning.max_abs_table_error(
        learned, truth, TransitionMode.INTERVENTIONAL
    )
    err_obs = learning.max_abs_table_error(
        learned, truth, TransitionMode.OBSERVATIONAL
    )
    p_u = " ".join(_fmt(v) for v in params.p_u.values[0])
    report = "\n".join([
        f"# learn map={grid.width}x{grid.height} n={options['dataset_n']} "
        f"smoothing={options['smoothing']!r} seed={options['seed']}",
        f"kl_full_transition={_fmt(kl)}",
        f"max_abs_error_interventional={_fmt(err_int)}",
        f"max_abs_error_observational={_fmt(err_obs)}",
        f"p_u={p_u}",
    ]) + "\n"
    (out / "learn_report.txt").write_text(report)
    sys.stdout.write(report)
    return 0


def _cmd_tables(options) -> int:
    truth = _truth_model(_load_map(options), options["gamma"])
    sources = [("truth", truth)]
    if options["params"] is not None:
        sources.append(("learned", _learned_model(options, truth)))
    out = _out_dir(options)
    lines = ["source,mode,action," + ",".join(truth.ds_labels)]
    for source, model in sources:
        for mode in (TransitionMode.INTERVENTIONAL, TransitionMode.OBSERVATIONAL):
            for action, probs in zip(model.actions, model.region_rows(mode)):
                lines.append(f"{source},{mode.value},{action}," + ",".join(map(_fmt, probs)))
    body = "\n".join(lines) + "\n"
    (out / "tables.csv").write_text(body)
    sys.stdout.write(body)
    return 0


def _cmd_eval(options) -> int:
    if options["episodes"] < 1:
        raise UsageError("--episodes must be >= 1")
    truth, plan, config, out = _planning_setup(options)

    rows = ["episode,seed,reward,outcome,steps,actions"]
    rewards = []
    outcomes = {"goal": 0, "collision": 0, "timeout": 0}
    for i in range(options["episodes"]):
        seed = _episode_seed(options["seed"], i)
        trace = despot.run_episode(plan, truth, config, options["steps"], seed)
        rewards.append(trace.total_discounted_reward)
        outcomes[trace.outcome] += 1
        actions = "|".join(truth.actions[s.action] for s in trace.steps)
        rows.append(
            f"{i},{seed},{_fmt(trace.total_discounted_reward)},"
            f"{trace.outcome},{trace.n_steps},{actions}"
        )
    (out / "episodes.csv").write_text("\n".join(rows) + "\n")

    rewards = np.array(rewards)
    mean = float(rewards.mean())
    stderr = float(rewards.std(ddof=1) / math.sqrt(len(rewards))) if len(rewards) > 1 else 0.0
    hist, _ = np.histogram(rewards, bins=HIST_EDGES)
    summary = [
        f"episodes={len(rewards)}",
        f"mean={_fmt(mean)}",
        f"stderr={_fmt(stderr)}",
        f"goal={outcomes['goal']}",
        f"collision={outcomes['collision']}",
        f"timeout={outcomes['timeout']}",
    ]
    for lo, count in zip(HIST_EDGES[:-1], hist):
        summary.append(f"hist,{lo},{lo + 5},{count}")
    body = "\n".join(summary) + "\n"
    (out / "summary.txt").write_text(body)
    sys.stdout.write(body)
    return 0


def _trace_lines(model: UcPomdpModel, trace: despot.EpisodeTrace) -> list[str]:
    lines = ["step,belief_state,action,lower,upper,next_state,observation,reward"]
    for t, step in enumerate(trace.steps):
        lines.append(
            f"{t},{_label(model.states[step.belief_state])},"
            f"{model.actions[step.action]},{_fmt(step.lower)},{_fmt(step.upper)},"
            f"{_label(model.states[step.next_state])},"
            f"{_label(model.observation_labels[step.observation])},"
            f"{_fmt(step.reward)}"
        )
    lines.append(
        f"total,{_fmt(trace.total_discounted_reward)},outcome,{trace.outcome},"
        f"steps,{trace.n_steps},resets,{trace.belief_resets}"
    )
    return lines


def _cmd_simulate(options) -> int:
    truth, plan, config, out = _planning_setup(options)

    trace = despot.run_episode(plan, truth, config, options["steps"], options["seed"])
    lines = _trace_lines(plan, trace)
    body = "\n".join(lines) + "\n"
    (out / "trace.csv").write_text(body)
    sys.stdout.write(body)

    if options["replay"] is not None:
        stored = _read_text(options["replay"])
        if stored != body:
            sys.stderr.write("error[replay]: trace does not match the stored file\n")
            return 1
        sys.stdout.write("replay: trace matches\n")
    return 0


_SHARED = ("config", "map", "gamma", "out")
_PLANNING = ("mode", "plan_model", "params", "steps", "scenarios", "depth", "xi",
             "lambda_", "budget_ms", "budget_trials", "seed")
# command -> (help text, handler, the dests of the flags it reads)
COMMANDS = {
    "learn": ("fit tables from privileged records", _cmd_learn,
              (*_SHARED, "dataset_n", "smoothing", "seed", "write_dataset")),
    "tables": ("dump confounded-region tables", _cmd_tables,
               (*_SHARED, "params")),
    "eval": ("batch episode evaluation", _cmd_eval, (*_SHARED, *_PLANNING, "episodes")),
    "simulate": ("trace one episode", _cmd_simulate, (*_SHARED, *_PLANNING, "replay")),
}


def main(argv=None) -> int:
    try:
        flags = vars(build_parser().parse_args(argv))
        _, handler, _ = COMMANDS[flags.pop("command")]
        return handler(_merge_options(flags))
    except (UsageError, gridworld.MapParseError) as exc:
        sys.stderr.write(f"error[usage]: {exc}\n")
        return 2
    except (CapacityError, MemoryError) as exc:
        sys.stderr.write(f"error[capacity]: {str(exc) or 'out of memory'}\n")
        return 4
    except OSError as exc:
        sys.stderr.write(f"error[io]: {exc}\n")
        return 3
    except ScmError as exc:
        sys.stderr.write(f"error[model]: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
