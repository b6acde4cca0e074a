"""Numeric flags of every command: no exception or warning may escape
``main``, a nonzero exit prints exactly one ``error:`` line and no report, and
a JSON report is strict JSON (no NaN or Infinity).

Number values are written ``--flag=value`` so that negative numbers parse;
``test_text_is_rejected_on_one_line`` gives each flag text its type cannot
convert.  Games stay small.
"""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sinkeq.cli import main
from sinkeq.game import NormalFormGame, game_to_dict

floats = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1e-300, 1e308, math.inf, math.nan]),
)
seeds = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))


def strict_constant(constant):
    raise ValueError(f"report holds {constant}")


def run(argv):
    """Exit code and stderr lines of ``main(argv)``, checked as above."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == [], (argv, lines)
        if argv[0] != "export-kernel" and "--format=csv" not in argv:
            json.loads(out.getvalue(), parse_constant=strict_constant)
    else:
        assert code in (1, 2, 3), (argv, code)
        assert out.getvalue() == "", argv
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
    return code, lines


def flag(name, value):
    return f"--{name}={value!r}"


@pytest.fixture(scope="module")
def game_path(tmp_path_factory):
    w = np.array([1.0, 0.5, 0.25, 2.0])
    game = NormalFormGame((2, 2), w, np.vstack([w, w[::-1]]))
    path = tmp_path_factory.mktemp("game") / "game.json"
    path.write_text(json.dumps(game_to_dict(game)))
    return str(path)


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from(["best", "better"]), tie_tol=floats)
@example(mode="best", tie_tol=math.nan)
@example(mode="better", tie_tol=math.nan)
@example(mode="best", tie_tol=math.inf)
def test_tie_tol(game_path, mode, tie_tol):
    for command in ("analyze", "export-kernel"):
        code, _ = run([command, "--input", game_path, "--mode", mode, flag("tie-tol", tie_tol)])
        assert (code == 0) == (0 <= tie_tol < math.inf), (command, tie_tol, code)


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
    code, _ = run(
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
@given(
    n=st.one_of(st.integers(-1, 6), st.integers(2**64, 2**80)),
    alpha=floats,
    trials=st.integers(-1, 3),
    seed=seeds,
)
@example(n=10**20, alpha=0.5, trials=1, seed=0)
@example(n=3, alpha=0.0, trials=1, seed=0)
@example(n=3, alpha=-1.0, trials=1, seed=0)
@example(n=3, alpha=math.nan, trials=1, seed=0)
@example(n=3, alpha=math.inf, trials=1, seed=0)
@example(n=3, alpha=0.5, trials=1, seed=-1)
def test_radio_mc(n, alpha, trials, seed):
    code, _ = run(
        ["radio-mc", flag("n", n), flag("alpha", alpha), flag("trials", trials),
         flag("seed", seed)]
    )
    if seed < 0 or not 0.0 < alpha <= 1.0 or n > 6:
        assert code == 1


def test_entries_near_the_float_limit(tmp_path):
    """Reports on seeded games with entries up to 1.7e308 hold no NaN or
    Infinity.  Where the deviation gains or a tried certificate overflow, the
    command refuses the game on one line with exit code 3; both cases occur."""
    errors = set()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        w = rng.random(16)
        if seed >= 2:
            w[rng.random(16) < 0.2] = 0.0
        u = rng.random((2, 16)) if seed % 2 == 0 else rng.uniform(-1.0, 1.0, size=(2, 16))
        for w_max, u_max in [(1.7e308, 1.7e308), (1.0, 1.7e308), (1.7e308, 1.0), (1e300, 1e308)]:
            game = NormalFormGame((4, 4), w / w.max() * w_max, u / np.abs(u).max() * u_max)
            path = tmp_path / f"game-{seed}-{w_max}-{u_max}.json"
            path.write_text(json.dumps(game_to_dict(game)))
            for argv in (["smoothness"], ["smoothness", "--common-interest"], ["bounds"], ["analyze"]):
                code, lines = run([*argv, "--input", str(path)])
                errors.update((code, line.split(" at ")[0]) for line in lines)
    assert (3, "error: deviation gains overflow the float range") in errors
    assert (3, "error: smoothness certificate overflows the float range") in errors


# Each numeric flag, and the other arguments its command needs.
NUMERIC_FLAGS = [
    ("analyze", "tie-tol", float),
    ("export-kernel", "tie-tol", float),
    ("counterexample", "lambda", float),
    ("counterexample", "mu", float),
    *(("covering-mc", name, kind) for name, kind in [
        ("n", int), ("regions", int), ("bias", float), ("scale", float),
        ("trials", int), ("seed", int),
    ]),
    *(("radio-mc", name, kind) for name, kind in [
        ("n", int), ("alpha", float), ("trials", int), ("seed", int),
    ]),
]
REQUIRED = {
    "counterexample": ["--lambda=1", "--mu=2"],
    "covering-mc": ["--n=2", "--regions=3", "--trials=1"],
    "radio-mc": ["--n=3", "--alpha=0.5", "--trials=1"],
}


def converts(kind, text):
    try:
        kind(text)
    except ValueError:
        return False
    return True


@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(NUMERIC_FLAGS), text=st.text())
@example(target=("covering-mc", "n", int), text="1.5")
@example(target=("analyze", "tie-tol", float), text="0.1\nerror: two lines")
def test_text_is_rejected_on_one_line(game_path, target, text):
    command, name, kind = target
    # Text that converts is a number, which the tests above draw: a digit
    # string such as 999999999 for --trials would run for hours.
    assume(not converts(kind, text))
    required = REQUIRED.get(command, ["--input", game_path])
    code, lines = run([command, *required, f"--{name}={text}"])
    assert code == 1
    assert lines[0].startswith(f"error: sinkeq {command}: argument --{name}: "), lines
