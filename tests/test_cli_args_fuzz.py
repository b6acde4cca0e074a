"""Numeric flags of every command: no exception may escape ``main``, and a
nonzero exit prints exactly one ``error:`` line and no report.

Values are ones argparse accepts for the flag's type, written
``--flag=value`` so that negative numbers parse; games stay small.
"""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinkeq.cli import main
from sinkeq.game import NormalFormGame, game_to_dict

floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e-300, 1e308, math.inf, math.nan]),
)
seeds = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], (argv, lines)
    else:
        assert code in (1, 2, 3), (argv, code)
        assert out.getvalue() == "", argv
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return code


def flag(name, value):
    return f"--{name}={value!r}"


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["best", "better"]), tie_tol=floats)
@example(mode="best", tie_tol=math.nan)
@example(mode="better", tie_tol=math.nan)
def test_tie_tol(tmp_path_factory, mode, tie_tol):
    w = np.array([1.0, 0.5, 0.25, 2.0])
    game = NormalFormGame((2, 2), w, np.vstack([w, w[::-1]]))
    path = tmp_path_factory.mktemp("game") / "game.json"
    path.write_text(json.dumps(game_to_dict(game)))
    for command in ("analyze", "export-kernel"):
        code = run([command, "--input", str(path), "--mode", mode, flag("tie-tol", tie_tol)])
        assert (code == 0) == (tie_tol >= 0), (command, tie_tol, code)


@settings(max_examples=60, deadline=None)
@given(lam=floats, mu=floats)
def test_counterexample(lam, mu):
    run(["counterexample", flag("lambda", lam), flag("mu", mu)])


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(-1, 4),
    regions=st.integers(-1, 6),
    bias=floats,
    scale=floats,
    trials=st.integers(-1, 3),
    seed=seeds,
)
@example(n=2, regions=3, bias=0.0, scale=0.0, trials=2, seed=-1)
def test_covering_mc(n, regions, bias, scale, trials, seed):
    code = run(
        ["covering-mc", flag("n", n), flag("regions", regions), flag("bias", bias),
         flag("scale", scale), flag("trials", trials), flag("seed", seed)]
    )
    if seed < 0:
        assert code == 1


def test_negative_zero_scale_is_zero(capsys):
    argv = ["covering-mc", "--n=2", "--regions=3", "--bias=0.1", "--trials=3", "--format=csv"]
    assert main(argv + ["--scale=-0"]) == 0
    negative = capsys.readouterr()
    assert main(argv + ["--scale=0"]) == 0
    assert negative == capsys.readouterr()


@settings(max_examples=80, deadline=None)
@given(n=st.integers(-1, 6), alpha=floats, trials=st.integers(-1, 3), seed=seeds)
@example(n=3, alpha=0.0, trials=1, seed=0)
@example(n=3, alpha=-1.0, trials=1, seed=0)
@example(n=3, alpha=math.nan, trials=1, seed=0)
@example(n=3, alpha=math.inf, trials=1, seed=0)
@example(n=3, alpha=0.5, trials=1, seed=-1)
def test_radio_mc(n, alpha, trials, seed):
    code = run(
        ["radio-mc", flag("n", n), flag("alpha", alpha), flag("trials", trials),
         flag("seed", seed)]
    )
    if seed < 0 or not 0.0 < alpha <= 1.0:
        assert code == 1
