"""The benchmark's three workloads: seeded inputs, op commands and checks.

Each workload keeps a pool of ``pool`` inputs made from the workload seed
with sinkeq's own generators.  Op ``k`` runs the CLI commands for pool entry
``k % pool``, so consecutive ops never read the same input and a cache kept
across calls cannot fake a gain.  ``reference`` builds the independent
oracle for every pool entry at set-up, outside any timing.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import oracle
import sinkeq.sinks
from sinkeq.game import enumerate_nash, game_to_dict
from sinkeq.generators import (
    make_covering_game,
    make_radio_game,
    philox_rng,
    sample_covering_instance,
    sample_radio_instance,
    sample_random_game,
)


def _read_game(path: Path, modes: tuple[str, ...]) -> tuple[dict, dict]:
    """Oracle facts for one game file, read without sinkeq's loader.

    Returns the game's welfare, pure Nash states and singleton flag (the
    utility tables are not kept) and its response graph in each mode.
    """
    obj = json.loads(path.read_text())
    counts = tuple(obj["action_counts"])
    utilities = np.asarray(obj["utilities"], dtype=float)
    game = {
        "action_counts": counts,
        "welfare": np.asarray(obj["welfare"], dtype=float),
        "nash": oracle.nash_states(counts, utilities),
        "singleton": oracle.singleton_best_responses(counts, utilities),
        "bytes": path.stat().st_size,
    }
    return game, {m: oracle.response_graph(counts, utilities, m) for m in modes}


def _properties(game: dict, graph: oracle.Graph, **extra) -> dict:
    return {
        **extra,
        "players": len(game["action_counts"]),
        "actions": sum(game["action_counts"]),
        "states": math.prod(game["action_counts"]),
        "edges": graph.edges,
        "sccs": graph.sccs,
        "sinks": len(graph.sinks),
        "largest_sink": graph.largest_sink,
        "smallest_sink": min(len(s) for s in graph.sinks),
        "bytes": game.get("bytes", 0),
    }


def _check_analysis(game: dict, graph: oracle.Graph, report: dict) -> list[str]:
    """Problems found in one ``analyze`` JSON report."""
    welfare = game["welfare"]
    wopt = float(welfare.max())
    problems = []
    if report["optimum"]["flat"] != int(np.argmax(welfare)) or report["optimum"]["welfare"] != wopt:
        problems.append("optimum differs")
    nash = game["nash"]
    if [ne["flat"] for ne in report["nash_equilibria"]] != nash:
        problems.append("pure Nash equilibria differ")
    poa = min(welfare[nash]) / wopt if nash else None
    if (poa is None) != (report["price_of_anarchy"] is None) or (
        poa is not None and abs(poa - report["price_of_anarchy"]) > oracle.POS_TOL
    ):
        problems.append("price of anarchy differs")
    sink_problems, expected = oracle.check_sinks(
        graph, welfare, report["sinks"], tol_scale=max(1.0, wopt)
    )
    problems += sink_problems
    if expected:
        worst = int(np.argmin(expected))
        if abs(expected[worst] / wopt - report["price_of_sinking"]) > oracle.POS_TOL:
            problems.append(
                f"price of sinking {report['price_of_sinking']!r} != {expected[worst] / wopt!r}"
            )
        if report["worst_sink_support"] != list(graph.sinks[worst]):
            problems.append("worst sink differs")
    return problems


class RadioAnalyze:
    """``analyze`` then ``bounds`` on two-channel interference games."""

    name = "radio-analyze"
    calibration = "interpreter"  # the hostspeed loop that tracks its ops
    players = 12
    alpha = 0.8
    # Op times differ by about 15% between games (sink count, report size),
    # so the median needs many games to stay put from seed to seed.
    pool = 15

    def generate(self, seed: int, workdir: Path) -> list[Path]:
        """Write the pool's game files; return the inputs made."""
        self.paths = []
        for i in range(self.pool):
            game = make_radio_game(sample_radio_instance(self.players, self.alpha, seed * self.pool + i))
            self.paths.append(workdir / f"radio-{i}.json")
            self.paths[-1].write_text(json.dumps(game_to_dict(game)))
        return self.paths

    def reference(self) -> None:
        self.games, graphs = zip(*(_read_game(p, ("best",)) for p in self.paths))
        self.graphs = [g["best"] for g in graphs]

    def properties(self) -> list[dict]:
        return [_properties(g, gr, mode="best") for g, gr in zip(self.games, self.graphs)]

    def notes(self) -> list[str]:
        return []

    def commands(self, key: int) -> list[list[str]]:
        path = str(self.paths[key])
        return [["analyze", "--input", path], ["bounds", "--input", path]]

    def check(self, key: int, outputs: list[str]) -> list[str]:
        game, graph = self.games[key], self.graphs[key]
        analysis, bounds = (json.loads(out) for out in outputs)
        problems = _check_analysis(game, graph, analysis)
        if abs(bounds["price_of_sinking"] - analysis["price_of_sinking"]) > oracle.POS_TOL:
            problems.append("bounds and analyze disagree on the price of sinking")
        if bounds["worst_sink_support"] != analysis["worst_sink_support"]:
            problems.append("bounds and analyze disagree on the worst sink")
        if bounds["singleton_best_response"] != game["singleton"]:
            problems.append("singleton best-response flag differs")
        if bounds["num_players"] != self.players:
            problems.append("player count differs")
        return problems


class RandomSink:
    """``analyze`` in better then best mode on random games with no pure
    Nash equilibrium, so every sink is a genuine cycle class."""

    name = "random-sink"
    calibration = "blas"  # the dense stationary solve dominates
    # Power iteration takes more steps on some games than others, so op
    # times differ by about 10% between games; ten keep the median put.
    pool = 10
    shape = (6, 6, 6, 10)
    modes = ("better", "best")

    def generate(self, seed: int, workdir: Path) -> list[Path]:
        rng = philox_rng(seed, 0)
        self.paths = []
        while len(self.paths) < self.pool:
            game = sample_random_game(rng, self.shape)
            if enumerate_nash(game):
                continue
            self.paths.append(workdir / f"random-{len(self.paths)}.json")
            self.paths[-1].write_text(json.dumps(game_to_dict(game)))
        return self.paths

    def reference(self) -> None:
        self.games, self.graphs = zip(*(_read_game(p, self.modes) for p in self.paths))

    def properties(self) -> list[dict]:
        return [
            _properties(g, graphs[m], mode=m)
            for g, graphs in zip(self.games, self.graphs)
            for m in self.modes
        ]

    def notes(self) -> list[str]:
        # Better mode is meant to take the power-iteration path, which the
        # program uses for sinks above DIRECT_SOLVE_LIMIT states.
        smallest = min(len(s) for graphs in self.graphs for s in graphs["better"].sinks)
        limit = getattr(sinkeq.sinks, "DIRECT_SOLVE_LIMIT", None)
        return [f"better-mode sinks: smallest {smallest} states (DIRECT_SOLVE_LIMIT {limit})"]

    def commands(self, key: int) -> list[list[str]]:
        path = str(self.paths[key])
        return [["analyze", "--mode", m, "--input", path] for m in self.modes]

    def check(self, key: int, outputs: list[str]) -> list[str]:
        problems = []
        for mode, out in zip(self.modes, outputs):
            found = _check_analysis(self.games[key], self.graphs[key][mode], json.loads(out))
            problems += [f"{mode}: {p}" for p in found]
        return problems


def _trial_seed(master_seed: int, trial: int) -> int:
    # The per-trial seed derivation documented by sinkeq.run_monte_carlo.
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(trial,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class CoveringMC:
    """One ``covering-mc`` run of many small covering games per op."""

    name = "covering-mc"
    calibration = "interpreter"
    pool = 5
    agents, regions, bias, scale, trials = 4, 8, 0.01, 0.01, 50

    def generate(self, seed: int, workdir: Path) -> list[str]:
        self.seeds = [seed * self.pool + i for i in range(self.pool)]
        self.above_one = set()
        return [str(s) for s in self.seeds]

    def reference(self) -> None:
        # Trial games come from sinkeq's generators (they are the inputs);
        # their sinks, stationary vectors and prices come from the oracle.
        self.expected = []
        self.props = []
        for master in self.seeds:
            prices = []
            totals = dict.fromkeys(("actions", "states", "edges", "sccs", "sinks"), 0)
            largest, smallest = 0, math.inf
            for trial in range(self.trials):
                instance = sample_covering_instance(
                    self.agents, self.regions, self.bias, self.scale, _trial_seed(master, trial)
                )
                game = make_covering_game(instance)
                graph = oracle.response_graph(game.action_counts, game.utilities, "best")
                welfare = np.asarray(game.welfare)
                worst = min(
                    math.fsum(oracle.stationary(graph.matrix, s) * welfare[list(s)])
                    for s in graph.sinks
                )
                prices.append(worst / welfare.max())
                props = _properties({"action_counts": game.action_counts}, graph)
                for field in totals:
                    totals[field] += props[field]
                largest = max(largest, props["largest_sink"])
                smallest = min(smallest, props["smallest_sink"])
            self.expected.append(prices)
            self.props.append({
                "master_seed": master, "games": self.trials, "players": self.agents,
                **totals, "largest_sink": largest, "smallest_sink": smallest, "bytes": 0,
            })

    def properties(self) -> list[dict]:
        return self.props

    def notes(self) -> list[str]:
        return [
            f"covering trials reported with pos > 1 by rounding: {len(self.above_one)} "
            f"of {len(self.seeds) * self.trials}"
        ]

    def commands(self, key: int) -> list[list[str]]:
        return [[
            "covering-mc",
            "--n", str(self.agents),
            "--regions", str(self.regions),
            "--bias", str(self.bias),
            "--scale", str(self.scale),
            "--trials", str(self.trials),
            "--seed", str(self.seeds[key]),
            "--format", "csv",
        ]]

    def check(self, key: int, outputs: list[str]) -> list[str]:
        lines = outputs[0].splitlines()
        problems = []
        if lines[:1] != ["trial,pos,bound,violation"] or len(lines) != self.trials + 1:
            return ["unexpected CSV shape"]
        for expected_trial, (line, ref) in enumerate(zip(lines[1:], self.expected[key])):
            trial, pos, bound, violation = line.split(",")
            pos, bound = float(pos), float(bound)
            if int(trial) != expected_trial:
                problems.append(f"trial {trial} out of order")
            # A ratio of rounded sums may land an ulp outside [0, 1]; allow
            # the same tolerance as every other price check, and count it.
            if not -oracle.POS_TOL <= pos <= 1.0 + oracle.POS_TOL:
                problems.append(f"trial {trial}: pos {pos!r} outside [0, 1]")
            if pos > 1.0:
                self.above_one.add((key, int(trial)))
            if abs(pos - ref) > oracle.POS_TOL:
                problems.append(f"trial {trial}: pos {pos!r} != {ref!r}")
            if int(violation) != int(pos < bound - 1e-9):
                problems.append(f"trial {trial}: violation flag inconsistent")
        return problems


WORKLOADS = {w.name: w for w in (RadioAnalyze, RandomSink, CoveringMC)}


# The oracle lives in a child process, so that scipy, networkx and the
# reference matrices stay out of the measured process's peak_rss_mb.
# ``serve`` runs in that child: ``run.py`` starts it with ``subprocess`` and
# sends it pickled ``(function name, args)`` requests on stdin.
_reference = None


def load_reference(workload) -> None:
    """Build ``workload``'s oracle in this process and keep it."""
    global _reference
    workload.reference()
    _reference = workload


def check_report(key: int, outputs: list[str]) -> list[str]:
    """Problems the oracle finds in one op's reports."""
    try:
        return _reference.check(key, outputs)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


def reference_facts() -> tuple[list[dict], list[str]]:
    """The input properties and the notes gathered by the checks so far."""
    return _reference.properties(), _reference.notes()


def serve() -> None:
    """Answer pickled requests on stdin with pickled results on stdout
    until stdin closes.  Anything else written to stdout goes to stderr."""
    import os
    import pickle
    import sys

    import hostspeed

    requests = os.fdopen(os.dup(0), "rb")
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    functions = {
        f.__name__: f for f in (load_reference, check_report, reference_facts, hostspeed.blas)
    }
    while True:
        try:
            name, args = pickle.load(requests)
        except EOFError:
            return
        pickle.dump(functions[name](*args), replies)
        replies.flush()
