"""Golden output of every command over a seeded corpus.

``golden_output.json`` holds, for each invocation, the exit code, the sha256
of stdout and the full stderr.  Reports embed ``--input``, so the corpus is
written to a scratch directory and named relative to it.  Rewrite the table
only when a report is meant to change, with

    PYTHONPATH=src python tests/test_golden_output.py > tests/golden_output.json
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from sinkeq.cli import main
from sinkeq.game import NormalFormGame, enumerate_nash, game_to_dict
from sinkeq.generators import (
    counterexample_game,
    make_covering_game,
    make_radio_game,
    philox_rng,
    sample_covering_instance,
    sample_radio_instance,
    sample_random_game,
)

TABLE = Path(__file__).with_name("golden_output.json")


def corpus() -> dict[str, NormalFormGame]:
    rng = philox_rng(2024, 0)
    while True:
        no_nash = sample_random_game(rng, (3, 4, 3))
        if not enumerate_nash(no_nash):
            break
    tie_rng = philox_rng(2024, 1)
    shape = (3, 3, 2)
    total = int(np.prod(shape))
    return {
        "random": sample_random_game(philox_rng(2024, 2), (3, 2, 4)),
        "no-nash": no_nash,
        "integer-tie": NormalFormGame(
            shape,
            tie_rng.integers(1, 4, size=total).astype(float),
            tie_rng.integers(0, 3, size=(len(shape), total)).astype(float),
        ),
        "radio": make_radio_game(sample_radio_instance(6, 0.8, 2024)),
        "covering": make_covering_game(sample_covering_instance(3, 5, 0.1, 0.3, 2024)),
        "gap": counterexample_game(1.0, 2.0),
        "zero-welfare": NormalFormGame(
            (2, 2), np.zeros(4), philox_rng(2024, 3).uniform(-1, 1, size=(2, 4))
        ),
    }


def invocations(names) -> list[list[str]]:
    out = []
    for name in names:
        path = f"{name}.json"
        for mode in ("best", "better"):
            for tie_tol in ("0", "0.5"):
                for fmt in ("json", "csv"):
                    out.append(
                        ["analyze", "--input", path, "--mode", mode,
                         "--tie-tol", tie_tol, "--format", fmt]
                    )
                out.append(
                    ["export-kernel", "--input", path, "--mode", mode, "--tie-tol", tie_tol]
                )
        out.append(["bounds", "--input", path])
        out.append(["smoothness", "--input", path])
        out.append(["smoothness", "--input", path, "--common-interest"])
    for lam, mu in (("1", "2"), ("0", "1"), ("0.25", "3"), ("2", "1"), ("1", "inf")):
        out.append(["counterexample", "--lambda", lam, "--mu", mu])
    for fmt in ("json", "csv"):
        out.append(["covering-mc", "--n", "3", "--regions", "4", "--trials", "6",
                    "--seed", "5", "--format", fmt])
        out.append(["covering-mc", "--n", "2", "--regions", "6", "--bias", "0.2",
                    "--scale", "0.4", "--trials", "4", "--format", fmt])
        out.append(["radio-mc", "--n", "4", "--alpha", "0.7", "--trials", "5",
                    "--seed", "3", "--format", fmt])
        out.append(["radio-mc", "--n", "5", "--alpha", "1", "--trials", "2",
                    "--format", fmt])
    out.append(["analyze", "--input", "random.json", "--tie-tol", "-1"])
    out.append(["export-kernel", "--input", "random.json", "--tie-tol", "-1"])
    # Monte Carlo runs that span several trial batches, and trials larger
    # than one batch.
    out.append(["covering-mc", "--n", "4", "--regions", "8", "--bias", "0.01",
                "--scale", "0.01", "--trials", "50", "--seed", "5", "--format", "csv"])
    out.append(["radio-mc", "--n", "9", "--alpha", "0.8", "--trials", "12",
                "--seed", "3", "--format", "csv"])
    out.append(["radio-mc", "--n", "12", "--alpha", "0.8", "--trials", "2",
                "--format", "csv"])
    # Runs of several batches whose sinks' welfare varies, so that they are
    # priced by a stationary solve, and of several multi-game radio batches.
    out.append(["covering-mc", "--n", "4", "--regions", "8", "--bias", "0",
                "--scale", "1", "--trials", "50", "--seed", "5", "--format", "csv"])
    out.append(["radio-mc", "--n", "8", "--alpha", "0.8", "--trials", "50",
                "--seed", "5", "--format", "csv"])
    # Covering trials of one and two regions, where many agents draw an
    # all-empty block of options and draw again.  The noise makes each
    # trial's price depend on both the options and the estimates; without
    # it every trial prices at 1.0.
    for regions in ("1", "2"):
        out.append(["covering-mc", "--n", "3", "--regions", regions,
                    "--bias", "-0.5", "--scale", "1",
                    "--trials", "20", "--seed", "2", "--format", "csv"])
    # Monte Carlo runs whose first trial fails: instances refused for their
    # scale and for their overflowing estimates, and an instance refused for
    # its size.  The error names the trial and its master seed.
    out.append(["covering-mc", "--n", "2", "--regions", "3", "--trials", "2",
                "--scale", "inf"])
    out.append(["covering-mc", "--n", "2", "--regions", "3", "--trials", "2",
                "--bias", "1e308", "--scale", "1e308"])
    out.append(["radio-mc", "--n", "21", "--alpha", "0.5", "--trials", "1"])
    return out


def record(directory: Path) -> list[dict]:
    """Write the corpus into ``directory``, run every invocation from there,
    and return one record per invocation."""
    games = corpus()
    for name, game in games.items():
        (directory / f"{name}.json").write_text(json.dumps(game_to_dict(game)))
    rows = []
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for argv in invocations(games):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            rows.append(
                {
                    "argv": argv,
                    "exit": code,
                    "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                    "stderr": err.getvalue(),
                }
            )
    finally:
        os.chdir(cwd)
    return rows


def test_every_invocation_matches_the_table(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    expected = json.loads(TABLE.read_text())
    actual = record(Path("."))
    assert [row["argv"] for row in actual] == [row["argv"] for row in expected]
    changed = [
        " ".join(want["argv"]) for got, want in zip(actual, expected) if got != want
    ]
    assert not changed, f"{len(changed)} invocations changed: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        rows = record(Path(tmp))
    sys.stdout.write(json.dumps(rows, indent=1) + "\n")
