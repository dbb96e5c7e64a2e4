"""Command-line driver: dataset generation and fitting, table inspection,
batch planner evaluation, and single-episode traces.

All commands are deterministic given their seeds; output files carry no
timestamps, so reruns with identical flags are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import despot, gridworld, learning
from .model import TransitionMode, UcPomdpModel
from .scm import CapacityError, ScmError, UsageError

HIST_EDGES = np.arange(-60, 105, 5)

DEFAULTS = {
    "map": None,
    "mode": "interventional",
    "plan_model": "truth",
    "params": None,
    "episodes": 50,
    "steps": 15,
    "scenarios": 500,
    "depth": 15,
    "gamma": 0.95,
    "xi": 0.95,
    "lambda_": 0.01,
    "budget_ms": None,
    "budget_trials": 10000,
    "seed": 0,
    "out": "out",
    "dataset_n": 100000,
    "smoothing": 1.0,
    "write_dataset": False,
    "replay": None,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalplan",
        description="Confounding-aware online POMDP planning experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON file of flag values; flags override")
        p.add_argument("--map", help="path to an ASCII map (default: shipped map)")
        p.add_argument("--mode", choices=["interventional", "observational"])
        p.add_argument("--plan-model", dest="plan_model",
                       choices=["learned", "truth"])
        p.add_argument("--params", help="learned-parameter file")
        p.add_argument("--episodes", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--scenarios", type=int)
        p.add_argument("--depth", type=int)
        p.add_argument("--gamma", type=float)
        p.add_argument("--xi", type=float)
        p.add_argument("--lambda", dest="lambda_", type=float)
        p.add_argument("--budget-ms", dest="budget_ms", type=float)
        p.add_argument("--budget-trials", dest="budget_trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory")
        p.add_argument("--dataset-n", dest="dataset_n", type=int)
        p.add_argument("--smoothing", type=float)

    learn = sub.add_parser("learn", help="fit tables from privileged records")
    add_common(learn)
    learn.add_argument("--write-dataset", dest="write_dataset",
                       action="store_true", default=None)

    tables = sub.add_parser("tables", help="dump confounded-region tables")
    add_common(tables)

    ev = sub.add_parser("eval", help="batch episode evaluation")
    add_common(ev)

    sim = sub.add_parser("simulate", help="trace one episode")
    add_common(sim)
    sim.add_argument("--replay", help="existing trace file to verify against")

    # config values are held to the flag of that name in any command, so a
    # config shared between commands is checked whole
    flags = {flag.dest: flag for p in sub.choices.values() for flag in p._actions}
    parser.set_defaults(config_flags=flags)
    return parser


def _config_value(key: str, value, flag: argparse.Action | None):
    """A config file's ``value`` for ``key``, held to the type and choices
    its command-line ``flag`` declares; a bare switch takes a boolean."""
    if flag is None or (value is None and DEFAULTS[key] is None):
        return value
    kind = bool if flag.nargs == 0 else flag.type or str
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise UsageError(f"config value {key}={value!r} is not of type {kind.__name__}")
    if flag.choices and value not in flag.choices:
        raise UsageError(f"config value {key}={value!r} is not one of {flag.choices}")
    try:
        return kind(value)
    except OverflowError:
        raise UsageError(f"config value {key}={value!r} is out of range") from None


def _merge_options(args: argparse.Namespace) -> dict:
    options = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            loaded = json.loads(_read_text(args.config))
        except (ValueError, RecursionError) as exc:  # not JSON, or nested too deeply
            raise UsageError(f"{args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise UsageError(f"{args.config}: config must be a JSON object")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key == "lambda":
                key = "lambda_"
            if key not in options:
                raise UsageError(f"unknown config key {key!r}")
            options[key] = _config_value(key, value, args.config_flags.get(key))
    for key in options:
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
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
    if options["map"]:
        return gridworld.parse_map(_read_text(options["map"]))
    return gridworld.default_map()


def _planner_config(options) -> despot.PlannerConfig:
    budget_trials = options["budget_trials"]
    if options["budget_ms"] is not None and options["budget_trials"] == DEFAULTS["budget_trials"]:
        budget_trials = None  # an explicit ms budget replaces the default trial cap
    return despot.PlannerConfig(
        scenarios=options["scenarios"],
        depth=options["depth"],
        xi=options["xi"],
        regularization=options["lambda_"],
        budget_trials=budget_trials,
        budget_ms=options["budget_ms"],
        mode=TransitionMode(options["mode"]),
        seed=options["seed"],
    )


def _plan_model(options, truth: UcPomdpModel) -> UcPomdpModel:
    if options["plan_model"] == "truth":
        return truth
    if not options["params"]:
        raise UsageError("--plan-model learned requires --params")
    params = learning.load_params(options["params"])
    return learning.assemble_model(truth, params)


def _episode_seed(master: int, index: int) -> int:
    # documented hash: episode i draws its seed from SeedSequence((seed, 4, i))
    return int(np.random.SeedSequence((master, 4, index)).generate_state(1)[0])


def _label(value) -> str:
    if isinstance(value, tuple):
        return f"{value[0]}:{value[1]}"
    return str(value)


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_learn(options) -> int:
    grid = _load_map(options)
    truth = gridworld.build_model(grid, options["gamma"])
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


def cmd_tables(options) -> int:
    grid = _load_map(options)
    truth = gridworld.build_model(grid, options["gamma"])
    sources = [("truth", truth)]
    if options["params"]:
        params = learning.load_params(options["params"])
        sources.append(("learned", learning.assemble_model(truth, params)))
    elif options["plan_model"] == "learned":
        raise UsageError("tables for the learned model require --params")
    out = _out_dir(options)
    lines = ["source,mode,action," + ",".join(truth.ds_labels)]
    for source, model in sources:
        for mode in (TransitionMode.INTERVENTIONAL, TransitionMode.OBSERVATIONAL):
            for a, action in enumerate(model.actions):
                probs = model.relative_transition_dist(True, a, mode).probs
                lines.append(
                    f"{source},{mode.value},{action},"
                    + ",".join(_fmt(v) for v in probs)
                )
    body = "\n".join(lines) + "\n"
    (out / "tables.csv").write_text(body)
    sys.stdout.write(body)
    return 0


def cmd_eval(options) -> int:
    if options["episodes"] < 1:
        raise UsageError("--episodes must be >= 1")
    grid = _load_map(options)
    truth = gridworld.build_model(grid, options["gamma"])
    plan = _plan_model(options, truth)
    config = _planner_config(options)
    out = _out_dir(options)

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


def cmd_simulate(options) -> int:
    grid = _load_map(options)
    truth = gridworld.build_model(grid, options["gamma"])
    plan = _plan_model(options, truth)
    config = _planner_config(options)
    out = _out_dir(options)

    trace = despot.run_episode(plan, truth, config, options["steps"], options["seed"])
    lines = _trace_lines(plan, trace)
    body = "\n".join(lines) + "\n"
    (out / "trace.csv").write_text(body)
    sys.stdout.write(body)

    if options["replay"]:
        stored = _read_text(options["replay"])
        if stored != body:
            sys.stderr.write("error[replay]: trace does not match the stored file\n")
            return 1
        sys.stdout.write("replay: trace matches\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        options = _merge_options(args)
        handler = {
            "learn": cmd_learn,
            "tables": cmd_tables,
            "eval": cmd_eval,
            "simulate": cmd_simulate,
        }[args.command]
        return handler(options)
    except (UsageError, gridworld.MapParseError) as exc:
        sys.stderr.write(f"error[usage]: {exc}\n")
        return 2
    except CapacityError as exc:
        sys.stderr.write(f"error[capacity]: {exc}\n")
        return 4
    except OSError as exc:
        sys.stderr.write(f"error[io]: {exc}\n")
        return 3
    except ScmError as exc:
        sys.stderr.write(f"error[model]: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
