"""CLI tests exercise the commands through ``main`` with temp output dirs."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from causalplan import cli, despot

from helpers import load_dataset_csv

FAST = [
    "--scenarios", "100", "--depth", "15", "--budget-trials", "200",
]

FREE_MAP = "G...\n.M..\n.#.#\nS..#\n"


def run(args):
    return cli.main(args)


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    return lines


@pytest.fixture(scope="module")
def small_params(tmp_path_factory):
    out = tmp_path_factory.mktemp("learn")
    code = run([
        "learn", "--dataset-n", "200000", "--seed", "1",
        "--out", str(out),
    ])
    assert code == 0
    return out / "params.txt"


class TestLearnCommand:
    def test_writes_params_and_report(self, small_params):
        out = small_params.parent
        assert small_params.exists()
        report = (out / "learn_report.txt").read_text()
        values = dict(
            line.split("=", 1) for line in report.splitlines()
            if "=" in line and not line.startswith("#")
        )
        assert float(values["kl_full_transition"]) <= 0.01
        assert float(values["max_abs_error_interventional"]) <= 0.02

    def test_tiny_run_reports_finite_kl(self, tmp_path):
        assert run(["learn", "--dataset-n", "100", "--out", str(tmp_path)]) == 0
        report = (tmp_path / "learn_report.txt").read_text()
        kl = float(
            next(l for l in report.splitlines() if l.startswith("kl_"))
            .split("=")[1]
        )
        assert np.isfinite(kl)

    def test_write_dataset_flag(self, tmp_path):
        assert run([
            "learn", "--dataset-n", "50", "--write-dataset", "--out", str(tmp_path)
        ]) == 0
        ds = load_dataset_csv(tmp_path / "dataset.csv")
        assert len(ds) == 50


class TestTablesCommand:
    def test_ground_truth_rows(self, tmp_path):
        assert run(["tables", "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "tables.csv")
        header = rows[0].split(",")
        assert header == ["source", "mode", "action", "north", "east", "south", "west"]
        up_int = next(
            r for r in rows if r.startswith("truth,interventional,UP")
        ).split(",")
        assert float(up_int[3]) == pytest.approx(0.73, abs=1e-12)
        up_obs = next(
            r for r in rows if r.startswith("truth,observational,UP")
        ).split(",")
        assert float(up_int[3]) - float(up_obs[3]) > 0.4

    def test_learned_rows_close_to_truth(self, tmp_path, small_params):
        assert run([
            "tables", "--params", str(small_params), "--out", str(tmp_path)
        ]) == 0
        rows = read_rows(tmp_path / "tables.csv")
        for action in ("RIGHT", "UP", "LEFT", "DOWN"):
            t = next(r for r in rows if r.startswith(f"truth,interventional,{action}"))
            l = next(r for r in rows if r.startswith(f"learned,interventional,{action}"))
            tv = np.array([float(x) for x in t.split(",")[3:]])
            lv = np.array([float(x) for x in l.split(",")[3:]])
            assert np.abs(tv - lv).max() <= 0.02

    def test_learned_requires_params(self, tmp_path):
        assert run([
            "tables", "--plan-model", "learned", "--out", str(tmp_path)
        ]) == 2


class TestEvalCommand:
    def test_outcomes_partition_and_summary_consistent(self, tmp_path):
        assert run([
            "eval", "--episodes", "6", "--steps", "10", "--seed", "3",
            "--out", str(tmp_path), *FAST,
        ]) == 0
        rows = read_rows(tmp_path / "episodes.csv")[1:]
        rewards = np.array([float(r.split(",")[2]) for r in rows])
        outcomes = [r.split(",")[3] for r in rows]
        summary = dict(
            line.split("=", 1)
            for line in (tmp_path / "summary.txt").read_text().splitlines()
            if "=" in line and not line.startswith("hist")
        )
        assert int(summary["goal"]) + int(summary["collision"]) + int(
            summary["timeout"]
        ) == len(rows)
        assert float(summary["mean"]) == pytest.approx(rewards.mean(), abs=1e-9)
        expected_se = rewards.std(ddof=1) / np.sqrt(len(rewards))
        assert float(summary["stderr"]) == pytest.approx(expected_se, abs=1e-9)
        hist_counts = [
            int(line.split(",")[3])
            for line in (tmp_path / "summary.txt").read_text().splitlines()
            if line.startswith("hist")
        ]
        assert sum(hist_counts) == len(rows)
        assert set(outcomes) <= {"goal", "collision", "timeout"}

    def test_rerun_is_byte_identical(self, tmp_path):
        args = [
            "eval", "--episodes", "4", "--steps", "8", "--seed", "9", *FAST,
        ]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        assert run(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("episodes.csv", "summary.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_episode_seed_replays_to_same_reward(self, tmp_path, truth):
        assert run([
            "eval", "--episodes", "3", "--steps", "10", "--seed", "5",
            "--out", str(tmp_path), *FAST,
        ]) == 0
        rows = read_rows(tmp_path / "episodes.csv")[1:]
        _, seed, reward_text = rows[1].split(",")[:3]
        config = despot.PlannerConfig(
            scenarios=100, depth=15, budget_trials=200,
            mode=cli.TransitionMode("interventional"), seed=5,
        )
        trace = despot.run_episode(truth, truth, config, 10, int(seed))
        assert trace.total_discounted_reward == float(reward_text)

    def test_modes_identical_without_confounding(self, tmp_path):
        map_path = tmp_path / "free.map"
        map_path.write_text(FREE_MAP)
        shared = [
            "eval", "--map", str(map_path), "--episodes", "4", "--steps", "8",
            "--seed", "2", *FAST,
        ]
        assert run(shared + ["--mode", "interventional", "--out", str(tmp_path / "i")]) == 0
        assert run(shared + ["--mode", "observational", "--out", str(tmp_path / "o")]) == 0
        assert (tmp_path / "i" / "episodes.csv").read_bytes() == (
            tmp_path / "o" / "episodes.csv"
        ).read_bytes()


class TestSimulateCommand:
    def test_trace_shape_and_totals(self, tmp_path):
        assert run([
            "simulate", "--seed", "14", "--steps", "10", "--out", str(tmp_path), *FAST,
        ]) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        header, *body = lines
        assert header.startswith("step,belief_state,action")
        total_line = body[-1]
        steps = body[:-1]
        assert total_line.startswith("total,")
        assert int(total_line.split(",")[5]) == len(steps)

    def test_left_path_trace_totals_to_closed_form(self, tmp_path):
        # with a zero trial budget the default policy walks the left path
        expected = repr(-1.0 - 0.95 + 0.95 ** 2 * 99.0)
        for seed in range(60):
            out = tmp_path / f"s{seed}"
            assert run([
                "simulate", "--seed", str(seed), "--steps", "15",
                "--scenarios", "20", "--budget-trials", "0", "--out", str(out),
            ]) == 0
            lines = (out / "trace.csv").read_text().splitlines()
            total = lines[-1].split(",")
            if total[3] == "goal" and total[5] == "3":
                assert total[1] == expected
                assert len(lines) == 3 + 2  # header + 3 steps + total line
                return
        raise AssertionError("no 3-step goal episode among the probed seeds")

    def test_replay_flag_verifies(self, tmp_path):
        args = [
            "simulate", "--seed", "6", "--steps", "8", *FAST,
        ]
        assert run(args + ["--out", str(tmp_path / "a")]) == 0
        trace = tmp_path / "a" / "trace.csv"
        assert run(args + ["--out", str(tmp_path / "b"), "--replay", str(trace)]) == 0
        # a different seed must not replay to the same trace
        assert run([
            "simulate", "--seed", "7", "--steps", "8", *FAST,
            "--out", str(tmp_path / "c"), "--replay", str(trace),
        ]) == 1


class TestConfigHandling:
    def test_config_file_sets_flags_and_cli_overrides(self, tmp_path):
        config = {
            "episodes": 3, "steps": 6, "scenarios": 80, "budget-trials": 150,
            "seed": 4, "lambda": 0.01, "depth": 12,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_a = tmp_path / "a"
        assert run(["eval", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        rows = read_rows(out_a / "episodes.csv")[1:]
        assert len(rows) == 3
        out_b = tmp_path / "b"
        assert run([
            "eval", "--config", str(cfg_path), "--episodes", "2", "--out", str(out_b)
        ]) == 0
        assert len(read_rows(out_b / "episodes.csv")[1:]) == 2

    def test_config_number_reads_like_the_flag(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"smoothing": 2, "dataset-n": 100}))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["learn", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert run(["learn", "--smoothing", "2", "--dataset-n", "100",
                    "--out", str(out_b)]) == 0
        for name in ("params.txt", "learn_report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_shared_config_holds_another_commands_flag(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"write_dataset": True, "replay": None}))
        assert run(["eval", "--config", str(cfg_path), "--episodes", "1",
                    "--out", str(tmp_path), *FAST]) == 0

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"bogus": 1}))
        assert run(["eval", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2

    def test_bad_map_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.map"
        bad.write_text("G?\nS.\n")
        assert run(["eval", "--map", str(bad), "--out", str(tmp_path)]) == 2

    def test_missing_params_file_is_io_error(self, tmp_path):
        assert run([
            "simulate", "--plan-model", "learned",
            "--params", str(tmp_path / "missing.txt"),
            "--out", str(tmp_path), *FAST,
        ]) == 3


class TestUsageErrors:
    """Bad input exits 2 with an ``error[usage]`` line, not a traceback; a
    parameter file whose table is not a distribution exits 1 with
    ``error[model]``."""

    def expect_usage_error(self, capsys, args, *fragments):
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error[usage]:")
        for fragment in fragments:
            assert fragment in err

    def test_negative_budget_ms(self, tmp_path, capsys):
        self.expect_usage_error(
            capsys, ["simulate", "--budget-ms", "-5", "--out", str(tmp_path)], "budget_ms")

    @pytest.mark.parametrize("episodes", ["0", "-3"])
    def test_episode_count_below_one(self, tmp_path, capsys, episodes):
        self.expect_usage_error(
            capsys, ["eval", "--episodes", episodes, "--out", str(tmp_path)], "--episodes")
        assert not (tmp_path / "summary.txt").exists()

    @pytest.mark.parametrize("command, config, fragment", [
        ("eval", {"episodes": "3"}, "episodes='3'"),
        ("eval", {"scenarios": 2.5}, "scenarios=2.5"),
        ("eval", {"gamma": True}, "gamma=True"),
        ("eval", {"mode": "bogus"}, "mode='bogus'"),
        ("learn", {"write-dataset": 1}, "write_dataset=1"),
        ("eval", {"write_dataset": 1}, "write_dataset=1"),
        ("eval", {"replay": 5}, "replay=5"),
    ])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, command, config, fragment):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        self.expect_usage_error(
            capsys, [command, "--config", str(cfg_path), "--out", str(tmp_path)], fragment)

    @pytest.mark.parametrize("text", ["[1]", "{not json"])
    def test_config_not_a_json_object(self, tmp_path, capsys, text):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(text)
        self.expect_usage_error(
            capsys, ["eval", "--config", str(cfg_path), "--out", str(tmp_path)], str(cfg_path))

    def test_config_nested_too_deeply(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text("[" * 100_000 + "]" * 100_000)
        self.expect_usage_error(
            capsys, ["eval", "--config", str(cfg_path), "--out", str(tmp_path)],
            str(cfg_path), "recursion")

    def test_config_number_too_large(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"gamma": 1' + "0" * 400 + "}")
        self.expect_usage_error(
            capsys, ["eval", "--config", str(cfg_path), "--out", str(tmp_path)],
            "gamma=1000", "out of range")

    @pytest.mark.parametrize("key", ["map", "replay", "out"])
    def test_path_with_a_nul_character(self, tmp_path, capsys, key):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"out": str(tmp_path), key: "x\u0000y"}))
        self.expect_usage_error(capsys, [
            "simulate", "--config", str(cfg_path), "--steps", "1", *FAST,
        ], "'x\\x00y'", "null byte")
        assert not (tmp_path / "trace.csv").exists() or key == "replay"

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--map"), ("eval", "--config"), ("simulate", "--replay"),
    ])
    def test_input_file_not_utf8(self, tmp_path, capsys, command, flag):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"\xff\xfe\x00G")
        self.expect_usage_error(capsys, [
            command, flag, str(bad), "--episodes", "1", "--steps", "1",
            "--out", str(tmp_path), *FAST,
        ], str(bad))

    @pytest.mark.parametrize("args, fragment", [
        (["learn", "--seed", "-1"], "seed"),
        (["learn", "--smoothing", "nan", "--dataset-n", "10"], "smoothing"),
        (["learn", "--smoothing", "inf", "--dataset-n", "10"], "smoothing"),
        (["learn", "--smoothing", "1e308", "--dataset-n", "10"], "smoothing"),
        (["eval", "--lambda", "nan"], "regularization"),
        (["eval", "--budget-ms", "nan"], "budget_ms"),
    ])
    def test_number_out_of_range(self, tmp_path, capsys, args, fragment):
        self.expect_usage_error(capsys, [*args, "--out", str(tmp_path)], fragment)
        assert not (tmp_path / "params.txt").exists()
        assert not (tmp_path / "summary.txt").exists()

    @pytest.mark.parametrize("command", ["eval", "learn"])
    @pytest.mark.parametrize("gamma", ["1.5", "0"])
    def test_gamma_outside_unit_interval(self, tmp_path, capsys, command, gamma):
        self.expect_usage_error(
            capsys, [command, "--gamma", gamma, "--out", str(tmp_path)], "gamma")

    def _params(self, tmp_path, small_params, edit):
        lines = small_params.read_text().splitlines()
        path = tmp_path / "bad_params.txt"
        path.write_text("\n".join(edit(lines)) + "\n")
        return path, ["tables", "--params", str(path), "--out", str(tmp_path)]

    def test_params_non_numeric_value(self, tmp_path, capsys, small_params):
        # line 4 is the [p_u] probability row
        path, args = self._params(
            tmp_path, small_params, lambda lines: lines[:3] + ["0.1 zero 0.1"] + lines[4:])
        self.expect_usage_error(capsys, args, str(path), "line 4")

    def test_params_without_p_u_section(self, tmp_path, capsys, small_params):
        path, args = self._params(tmp_path, small_params, lambda lines: [lines[0]] + lines[4:])
        self.expect_usage_error(capsys, args, str(path), "line", "[p_u]")

    @pytest.mark.parametrize("section", ["[p_uc a=3 u=2]", "[p_uc a=0 u=0]", "[p_0 a=1]"])
    def test_params_missing_section(self, tmp_path, capsys, small_params, section):
        def drop(lines):
            at = lines.index(section)
            return lines[:at] + lines[at + 3:]  # header, count comment, values
        path, args = self._params(tmp_path, small_params, drop)
        self.expect_usage_error(capsys, args, str(path), section)

    def test_params_section_beyond_confounder_arity(self, tmp_path, capsys, small_params):
        path, args = self._params(tmp_path, small_params, lambda lines: lines + [
            "[p_uc a=0 u=3]", "0.25 0.25 0.25 0.25"])
        self.expect_usage_error(capsys, args, str(path), "[p_uc a=0 u=3]")

    def test_params_huge_action_index(self, tmp_path, capsys):
        # naming every section up to a=4000000000 would take hundreds of GB
        path = tmp_path / "huge.txt"
        path.write_text("[p_u]\n1.0\n[p_0 a=4000000000]\n1.0\n")
        self.expect_usage_error(capsys, ["tables", "--params", str(path),
                                         "--out", str(tmp_path)],
                                str(path), "[p_uc a=0 u=0]")

    @pytest.mark.parametrize("row", ["nan 0.5 0.25 0.25", "0.5 0.5 0.25 0.25"])
    @pytest.mark.parametrize("command", [
        ["tables"], ["simulate", "--plan-model", "learned", "--steps", "1", *FAST],
    ])
    def test_params_row_not_a_distribution(self, tmp_path, capsys, small_params,
                                           command, row):
        def replace_row(lines):
            at = lines.index("[p_0 a=0]") + 2  # header, count comment, values
            return lines[:at] + [row] + lines[at + 1:]
        path, _ = self._params(tmp_path, small_params, replace_row)
        assert run([*command, "--params", str(path), "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith("error[model]:")

    def test_out_of_memory_is_a_capacity_error(self, tmp_path, capsys, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 14.9 GiB")
        monkeypatch.setattr(despot, "sample_scenarios", no_memory)
        assert run(["eval", "--episodes", "1", "--steps", "1",
                    "--out", str(tmp_path), *FAST]) == 4
        assert capsys.readouterr().err == "error[capacity]: Unable to allocate 14.9 GiB\n"


MAP_BYTES = st.one_of(
    st.binary(max_size=40),
    st.text(alphabet="GSCM#. \t\r\n", max_size=40).map(str.encode),
    # rectangular grids, mostly free cells, which reach the model builder
    st.integers(1, 5).flatmap(lambda width: st.lists(
        st.lists(st.sampled_from("....#CMSG"), min_size=width, max_size=width),
        min_size=1, max_size=5,
    )).map(lambda rows: "\n".join(map("".join, rows)).encode()),
)


ERROR_TAGS = {1: "error[model]:", 2: "error[usage]:", 3: "error[io]:"}


def run_fuzzed(args) -> tuple[int, str]:
    """Exit code and stderr of one command; the command must not raise."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(args)
    return code, err.getvalue()


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text() | st.text().map(lambda t: t + "\x00"),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
CONFIG_KEYS = st.sampled_from(
    [*cli.DEFAULTS, "lambda", "dataset-n", "write-dataset", "budget-ms"]) | st.text()
CONFIG_TEXT = st.one_of(
    JSON_VALUES.map(json.dumps),
    st.dictionaries(CONFIG_KEYS, JSON_VALUES, max_size=3).map(json.dumps),
    st.integers(1, 50_000).map(lambda depth: "[" * depth + "]" * depth),
    st.text(max_size=20),
)


@given(CONFIG_TEXT)
@example('{"map": "x\\u0000y"}')
@example("[" * 5_000 + "]" * 5_000)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_fuzzed_config_exits_through_a_typed_error(text):
    # a path-valued key may name a file that does not exist: error[io], exit 3
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        code, err = run_fuzzed(["tables", "--config", str(path), "--out", tmp])
    assert code == 0 or err.startswith(ERROR_TAGS[code])


PARAMS_LINES = st.sampled_from([
    "[p_u]", "[p_uc a=0 u=0]", "[p_uc a=1 u=2]", "[p_0 a=0]", "[p_0 a=3]", "[p_x]",
    "# n_records=5 smoothing=1.0", "# count=3,1", "# smoothing=x", "0.25 0.25 0.25 0.25",
    "0.1 0.8 0.1", "1 0 0 0", "nan 1 0 0", "-1 2", "",
])
PARAMS_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(PARAMS_LINES | st.text(max_size=8), max_size=12).map("\n".join),
)


@given(PARAMS_TEXT)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_fuzzed_params_exit_through_a_typed_error(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.txt"
        path.write_text(text, encoding="utf-8", errors="surrogatepass")
        code, err = run_fuzzed(["tables", "--params", str(path), "--out", tmp])
    assert code in (0, 1, 2)
    assert code == 0 or err.startswith(ERROR_TAGS[code])


@given(MAP_BYTES)
@settings(derandomize=True, max_examples=150, deadline=None)
def test_fuzzed_map_exits_0_or_usage_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.map"
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run(["tables", "--map", str(path), "--out", tmp])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error[usage]:")
