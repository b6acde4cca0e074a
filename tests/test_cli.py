import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sinkeq
from sinkeq.cli import main
from sinkeq.game import NormalFormGame, game_to_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_game(tmp_path, game, name="game.json"):
    path = tmp_path / name
    path.write_text(json.dumps(game_to_dict(game)))
    return str(path)


def single_state_game():
    return NormalFormGame((1,), np.array([3.0]), np.array([[1.0]]))


class TestAnalyze:
    def test_counterexample_pipeline(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "counterexample", "--lambda", "1", "--mu", "2")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["certificate_valid"] is True
        assert payload["analysis"]["price_of_sinking"] == 0.0
        assert payload["analysis"]["sinks"][0]["support"] == [4, 5, 7, 8]

        path = tmp_path / "generated.json"
        path.write_text(json.dumps(payload["game"]))
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 0
        reloaded = json.loads(out)
        assert reloaded["price_of_sinking"] == 0.0
        assert reloaded["price_of_anarchy"] is None
        assert reloaded["sinks"] == payload["analysis"]["sinks"]

    def test_single_state_game(self, capsys, tmp_path):
        path = write_game(tmp_path, single_state_game())
        code, out, _ = run_cli(capsys, "analyze", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["price_of_anarchy"] == 1.0
        assert payload["price_of_sinking"] == 1.0

    def test_csv_emits_one_row_per_sink(self, capsys, tmp_path):
        w = np.array([1.0, 0.0, 0.0, 2.0])
        path = write_game(tmp_path, NormalFormGame((2, 2), w, np.vstack([w, w])))
        code, out, _ = run_cli(capsys, "analyze", "--input", path, "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "sink,support,expected_welfare,welfare_ratio"
        assert len(lines) == 3

    def test_reports_are_byte_identical(self, capsys, tmp_path):
        path = write_game(tmp_path, single_state_game())
        _, first, _ = run_cli(capsys, "analyze", "--input", path)
        _, second, _ = run_cli(capsys, "analyze", "--input", path)
        assert first == second


class TestExitCodes:
    def test_schema_error_is_exit_one(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"action_counts": [2], "welfare": [1.0, 0.5]}')
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1
        assert "utilities" in err

    @pytest.mark.parametrize(
        "welfare,utilities,message",
        [
            ("[true, 0.5]", "[0.1, 0.7]", "welfare[0]: expected a number, got True"),
            ("[0.1, 0.5]", '[0.1, "0.7"]', "utilities[0][1]: expected a number, got '0.7'"),
        ],
    )
    def test_non_numeric_entry_is_exit_one(self, capsys, tmp_path, welfare, utilities, message):
        path = tmp_path / "typed.json"
        path.write_text(
            f'{{"action_counts": [2], "welfare": {welfare}, "utilities": [{utilities}]}}'
        )
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1 and out == ""
        assert message in err

    def test_integer_beyond_float_range_is_exit_one(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(f'{{"action_counts": [1], "welfare": [1{"0" * 400}], "utilities": [[0]]}}')
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["radio-mc", "--n", "62", "--alpha", "0.8", "--trials", "1"],
            ["covering-mc", "--n", "16", "--regions", "8", "--trials", "1"],
            # Beyond 2^64: refused before the 1 << n that would overflow.
            ["radio-mc", "--n", "100000000000000000000", "--alpha", "0.5", "--trials", "1"],
        ],
    )
    def test_oversized_generated_game_is_exit_one(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 1048576 joint actions" in err

    @pytest.mark.parametrize("flags", [["smoothness"], ["smoothness", "--common-interest"], ["bounds"]])
    def test_overflowing_deviation_gains_are_exit_three(self, capsys, tmp_path, flags):
        # At (1, 1) both players lose 1.7e308 by moving to the optimum (0, 0),
        # so the deviation total is -inf.
        w = np.array([1.7e308, 1.7e308, 1.7e308, 0.0])
        path = write_game(tmp_path, NormalFormGame((2, 2), w, np.vstack([w, w])))
        code, out, err = run_cli(capsys, *flags, "--input", path)
        assert code == 3 and out == ""
        assert err == "error: deviation gains overflow the float range\n"

    def test_overflowing_certificate_is_exit_three(self, capsys, tmp_path):
        # Player 0 gains 1e308 at (1, 0), whose welfare is 0.5: mu >= 2e308.
        w = np.array([1.0, 0.5, 0.5, 0.5])
        u = np.array([[0.0, 1e308, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        path = write_game(tmp_path, NormalFormGame((2, 2), w, u))
        code, out, err = run_cli(capsys, "smoothness", "--input", path)
        assert code == 3 and out == ""
        assert err == "error: smoothness certificate overflows the float range at ratio 0.0\n"

    def test_json_parse_error_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  broken\n}")
        code, _, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("analyze", ["--mode", "best"]),
            ("analyze", ["--mode", "better"]),
            ("bounds", []),
            ("smoothness", []),
            ("smoothness", ["--common-interest"]),
        ],
        ids=["analyze-best", "analyze-better", "bounds", "smoothness", "smoothness-common"],
    )
    def test_degenerate_welfare_is_exit_two(self, capsys, tmp_path, command, flags):
        g = NormalFormGame((2,), np.zeros(2), np.array([[0.0, 1.0]]))
        path = write_game(tmp_path, g)
        code, out, err = run_cli(capsys, command, "--input", path, *flags)
        assert code == 2 and out == ""
        assert err == "error: optimal welfare is zero\n"

    @pytest.mark.parametrize(
        "label,kind", [({"a": [1]}, "dict"), (["a"], "list"), (3.5, "float"), (7, "int")]
    )
    def test_non_string_label_is_exit_one(self, capsys, tmp_path, label, kind):
        path = tmp_path / "labelled.json"
        path.write_text(
            json.dumps(
                {
                    "action_counts": [2],
                    "welfare": [1.0, 0.5],
                    "utilities": [[0.1, 0.7]],
                    "labels": [["up", label]],
                }
            )
        )
        code, out, err = run_cli(capsys, "analyze", "--input", str(path))
        assert code == 1 and out == ""
        assert err == f"error: {path}: labels[0][1]: expected a string, got {kind}\n"

    def test_usage_error_is_exit_one(self, capsys):
        code, out, err = run_cli(capsys, "analyze")
        assert code == 1 and out == ""
        assert err == "error: sinkeq analyze: the following arguments are required: --input\n"

    def test_rejected_flag_value_is_one_line(self, capsys):
        code, out, err = run_cli(
            capsys, "covering-mc", "--n", "1.5", "--regions", "3", "--trials", "1"
        )
        assert code == 1 and out == ""
        assert err == "error: sinkeq covering-mc: argument --n: invalid int value: '1.5'\n"

    def test_help_is_exit_zero(self, capsys):
        code, out, err = run_cli(capsys, "covering-mc", "--help")
        assert code == 0 and err == ""
        assert out.startswith("usage: sinkeq covering-mc")

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--scale=inf"], "bias and scale must be finite"),
            (["--bias=nan"], "bias and scale must be finite"),
            # Finite estimates whose sums over a union overflow.
            (["--bias=1e308", "--scale=0"], "utility entries must be finite"),
            (["--bias=1e308", "--scale=1e308"], "estimates must be finite"),
        ],
    )
    def test_non_finite_covering_draws_are_one_line(self, capsys, flags, message):
        argv = ["covering-mc", "--n", "2", "--regions", "3", "--trials", "2", *flags]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"error: trial 0 (master_seed=0): {message}\n"

    def test_huge_region_count_is_refused_before_drawing(self, capsys):
        argv = ["covering-mc", "--n", "2", "--regions", "1000000000000", "--trials", "1"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "more than 1048576 option bits" in err

    def test_missing_file_is_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--input", "/does/not/exist.json")
        assert code == 1
        assert err


class TestSmoothnessCommand:
    def test_reports_valid_certificate(self, capsys, tmp_path):
        w = np.array([1.0, 0.4, 0.4, 2.0])
        path = write_game(tmp_path, NormalFormGame((2, 2), w, np.vstack([w, w])))
        code, out, _ = run_cli(capsys, "smoothness", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["valid"] is True
        assert payload["ratio"] == pytest.approx(payload["lambda"] / payload["mu"])

    def test_common_interest_flag(self, capsys, tmp_path):
        w = np.array([1.0, 0.4, 0.4, 2.0])
        u = np.vstack([0.9 * w, 1.1 * w])
        path = write_game(tmp_path, NormalFormGame((2, 2), w, u))
        code, out, _ = run_cli(
            capsys, "smoothness", "--input", path, "--common-interest"
        )
        assert code == 0
        assert json.loads(out)["request"]["common_interest"] is True


class TestBoundsCommand:
    def test_bound_report_fields(self, capsys, tmp_path):
        w = np.array([1.0, 0.4, 0.4, 2.0])
        u = np.vstack([0.95 * w, 1.05 * w])
        path = write_game(tmp_path, NormalFormGame((2, 2), w, u))
        code, out, _ = run_cli(capsys, "bounds", "--input", path)
        assert code == 0
        payload = json.loads(out)
        assert payload["singleton_best_response"] is True
        assert payload["beta_arithmetic"] == pytest.approx(0.05)
        assert payload["price_of_sinking"] >= payload["bound_arithmetic"] - 1e-9
        assert payload["satisfied_arithmetic"] is True


    @pytest.mark.parametrize(
        "welfare,utility,arithmetic",
        # The ratio beta 1 - 1e-20 rounds to 1; -1 / 1e-320 overflows.
        [([1.0, 1.0], [1.0, 1e-20], 1.0), ([1.0, 1e-320], [1.0, -1.0], None)],
    )
    def test_extreme_ratios_leave_betas_undefined(
        self, capsys, tmp_path, welfare, utility, arithmetic
    ):
        path = write_game(tmp_path, NormalFormGame((2,), welfare, [utility]))
        code, out, err = run_cli(capsys, "bounds", "--input", path)
        assert code == 0 and err == ""

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        payload = json.loads(out, parse_constant=refuse)
        assert payload["beta_arithmetic"] == arithmetic
        if arithmetic is None:
            assert payload["witness_arithmetic"] == [0, 1]
            assert payload["satisfied_arithmetic"] is None
        assert payload["beta_geometric"] is None
        assert payload["bound_geometric"] is None
        assert payload["satisfied_geometric"] is None
        assert payload["witness_geometric"] == [0, 1]


class TestMonteCarloCommands:
    def test_radio_mc_is_deterministic(self, capsys):
        args = ["radio-mc", "--n", "3", "--alpha", "0.8", "--trials", "40", "--seed", "7"]
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        payload = json.loads(first)
        assert payload["summary"]["violations"] == 0
        assert payload["summary"]["trials"] == 40

    def test_radio_mc_takes_an_alpha_whose_complement_rounds_to_one(self, capsys):
        code, out, err = run_cli(
            capsys, "radio-mc", "--n", "3", "--alpha", "1e-300", "--trials", "2"
        )
        assert code == 0 and err == ""
        assert json.loads(out)["summary"]["bound"] == 1 / 3

    def test_covering_mc_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "covering-mc",
            "--n", "2", "--regions", "2", "--bias", "0.01", "--scale", "0.01",
            "--trials", "5", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,pos,bound,violation"
        assert len(lines) == 6


class TestExportKernel:
    def test_edge_list_shape(self, capsys, tmp_path):
        g = NormalFormGame((2,), np.array([0.0, 1.0]), np.array([[0.0, 1.0]]))
        path = write_game(tmp_path, g)
        code, out, _ = run_cli(capsys, "export-kernel", "--input", path)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "src,dst,prob"
        assert lines[1:] == ["0,1,1.0", "1,1,1.0"]

    def test_better_mode_rows_are_stochastic(self, capsys, tmp_path):
        g = NormalFormGame((2,), np.array([0.0, 1.0]), np.array([[0.0, 1.0]]))
        path = write_game(tmp_path, g)
        code, out, _ = run_cli(
            capsys, "export-kernel", "--input", path, "--mode", "better"
        )
        assert code == 0
        rows = {}
        for line in out.strip().splitlines()[1:]:
            src, _, prob = line.split(",")
            rows[src] = rows.get(src, 0.0) + float(prob)
        assert all(abs(total - 1.0) <= 1e-12 for total in rows.values())


class TestImports:
    def test_analysis_loads_no_scipy_or_networkx(self, tmp_path):
        # The kernel, SCC and sink code is numpy-only by design; importing
        # scipy.sparse alone would add tens of MB of RSS to every CLI run.
        from sinkeq.generators import counterexample_game

        path = write_game(tmp_path, counterexample_game(1.0, 2.0))
        code = (
            "import sys\n"
            "from sinkeq.cli import main\n"
            f"assert main(['analyze', '--input', {path!r}]) == 0\n"
            f"assert main(['bounds', '--input', {path!r}]) == 0\n"
            "print(sorted({'scipy', 'networkx'} & {m.split('.')[0] for m in sys.modules}))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sinkeq.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[]"


    def test_import_and_monte_carlo_load_no_scipy_or_networkx(self):
        # The benchmark's peak RSS counts what ``import sinkeq`` loads; a
        # Monte Carlo run must load no more.
        code = (
            "import sys\n"
            "import sinkeq\n"
            "loaded = lambda: sorted({'scipy', 'networkx'} & {m.split('.')[0] for m in sys.modules})\n"
            "print(loaded())\n"
            "from sinkeq.cli import main\n"
            "assert main(['covering-mc', '--n', '3', '--regions', '4', '--trials', '3']) == 0\n"
            "assert main(['radio-mc', '--n', '4', '--alpha', '0.8', '--trials', '3']) == 0\n"
            "print(loaded())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sinkeq.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        assert lines[0] == lines[-1] == "[]"

class TestDeterminism:
    def test_best_mode_report_ignores_blas_threads(self, tmp_path):
        # The first and fourth no-Nash (6, 6, 6, 10) games of seed 1 have
        # best-mode sinks of 966 and 957 states; a dense LAPACK solve of
        # them printed different last digits with one and two threads.
        from sinkeq.game import enumerate_nash
        from sinkeq.generators import philox_rng, sample_random_game

        rng = philox_rng(1, 0)
        games = []
        while len(games) < 4:
            game = sample_random_game(rng, (6, 6, 6, 10))
            if not enumerate_nash(game):
                games.append(game)
        paths = [write_game(tmp_path, g, f"g{i}.json") for i, g in enumerate(games)]
        code = (
            "from sinkeq.cli import main\n"
            f"for path in {[paths[0], paths[3]]!r}:\n"
            "    assert main(['analyze', '--mode', 'best', '--input', path]) == 0\n"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=str(Path(sinkeq.__file__).parents[1]),
            )
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
