"""Command-line front-end: load or generate games, analyze, emit reports.

All reports embed the request that produced them and are byte-identical for
identical requests.  Exit codes: 0 success, 1 schema or argument validation,
2 degenerate welfare or missing equilibria, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain

import numpy as np

from .dynamics import BEST, BETTER, build_kernel
from .errors import (
    CertificateNotFoundError,
    DegenerateWelfareError,
    NoEquilibriumError,
    NumericalFailureError,
    ValidationError,
    WitnessNotFoundError,
)
from .game import (
    JointAction,
    NormalFormGame,
    enumerate_nash,
    game_to_dict,
    load_game,
    positive_optimum,
)
from .generators import (
    CoveringMonteCarloSpec,
    RadioMonteCarloSpec,
    counterexample_game,
    run_monte_carlo,
)
from .sinks import sink_equilibria
from .smoothness import best_certificate, bound_report, check_smoothness


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    That call skips CPython's C encoder, so the long lists of a report are
    joined here in one pass each instead: a list of plain ints or finite
    floats by ``repr``, any other list of scalars by ``json.dumps`` per item,
    and a list of equal-length rows of plain ints (sink coordinates) by one
    ``%``-format.  ``indent`` is the newline and indentation of ``obj``'s line.
    """
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        # Like json, sort the items and write a key that is not a string as
        # the string of its JSON value.
        items = (
            f"{json.dumps(k if isinstance(k, str) else json.dumps(k))}: {_json_text(v, inner)}"
            for k, v in sorted(obj.items())
        )
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(obj)
    if not obj:
        return "[]"
    inner = indent + "  "
    kinds = set(map(type, obj))
    if kinds <= {list, tuple} and len(set(map(len, obj))) == 1:
        flat = tuple(chain.from_iterable(obj))
        if set(map(type, flat)) == {int}:
            cell = inner + "  "
            row = "[" + cell + ("," + cell).join(["%d"] * len(obj[0])) + inner + "]"
            return "[" + inner + ("," + inner).join([row] * len(obj)) % flat + indent + "]"
    if any(issubclass(kind, (list, tuple, dict)) for kind in kinds):
        items = [_json_text(x, inner) for x in obj]
    elif kinds == {int} or kinds == {float} and all(map(math.isfinite, obj)):
        items = map(repr, obj)
    else:
        items = map(json.dumps, obj)
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _print_json(payload: dict) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def _joint_dict(ja: JointAction) -> dict:
    return {"flat": ja.flat, "coords": ja.coords}


def _analysis_dict(game: NormalFormGame, mode: str, tie_tol: float) -> dict:
    optimum, wopt = positive_optimum(game)
    equilibria = [
        {**_joint_dict(ne), "welfare": float(game.welfare[ne.flat])}
        for ne in enumerate_nash(game)
    ]
    poa = min(ne["welfare"] for ne in equilibria) / wopt if equilibria else None
    sink_list = sink_equilibria(game, mode=mode, tie_tol=tie_tol)
    worst = min(sink_list, key=lambda eq: eq.expected_welfare)
    return {
        "optimum": {**_joint_dict(optimum), "welfare": wopt},
        "nash_equilibria": equilibria,
        "price_of_anarchy": poa,
        "sinks": [
            {
                "support": eq.support,
                "coords": game.coords(eq.support),
                "probabilities": eq.probabilities.tolist(),
                "expected_welfare": eq.expected_welfare,
            }
            for eq in sink_list
        ],
        "price_of_sinking": worst.expected_welfare / wopt,
        "worst_sink_support": worst.support,
    }


def _request_dict(args: argparse.Namespace) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def cmd_analyze(args: argparse.Namespace) -> int:
    game = load_game(args.input)
    analysis = _analysis_dict(game, args.mode, args.tie_tol)
    if args.format == "csv":
        lines = ["sink,support,expected_welfare,welfare_ratio"]
        wopt = analysis["optimum"]["welfare"]
        for idx, sink in enumerate(analysis["sinks"]):
            support = ";".join(str(s) for s in sink["support"])
            ratio = sink["expected_welfare"] / wopt
            lines.append(f"{idx},{support},{sink['expected_welfare']!r},{ratio!r}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _print_json({"request": _request_dict(args), **analysis})
    return 0


def cmd_smoothness(args: argparse.Namespace) -> int:
    game = load_game(args.input)
    lam, mu, cert = best_certificate(game, args.common_interest)
    _print_json(
        {
            "request": _request_dict(args),
            "lambda": lam,
            "mu": mu,
            "ratio": lam / mu if mu > 0 else 0.0,
            "valid": cert.valid,
            "min_slack": cert.min_slack,
            "optimum": _joint_dict(cert.optimum),
        }
    )
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    game = load_game(args.input)
    report = bound_report(game)
    _print_json(
        {
            "request": _request_dict(args),
            "price_of_sinking": report.price_of_sinking,
            "lambda_c": report.lambda_c,
            "mu_c": report.mu_c,
            "num_players": game.num_players,
            "singleton_best_response": report.singleton_br,
            "beta_arithmetic": report.misalignment.beta_arithmetic,
            "bound_arithmetic": report.bound_arithmetic,
            "satisfied_arithmetic": report.satisfied_arithmetic,
            "witness_arithmetic": report.misalignment.witness_arithmetic,
            "beta_geometric": report.misalignment.beta_geometric,
            "bound_geometric": report.bound_geometric,
            "satisfied_geometric": report.satisfied_geometric,
            "witness_geometric": report.misalignment.witness_geometric,
            "worst_sink_support": report.worst_sink.support,
        }
    )
    return 0


def cmd_counterexample(args: argparse.Namespace) -> int:
    game = counterexample_game(args.lam, args.mu)
    cert = check_smoothness(game, args.lam, args.mu)
    _print_json(
        {
            "request": _request_dict(args),
            "game": game_to_dict(game),
            "certificate_valid": cert.valid,
            "analysis": _analysis_dict(game, BEST, 0.0),
        }
    )
    return 0


def _emit_monte_carlo(args: argparse.Namespace, spec) -> int:
    summary = run_monte_carlo(spec, args.trials, args.seed)
    if args.format == "csv":
        lines = ["trial,pos,bound,violation"]
        for r in summary.results:
            lines.append(f"{r.trial},{r.pos!r},{summary.bound!r},{int(r.violation)}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        _print_json(
            {
                "request": _request_dict(args),
                "summary": {
                    "trials": summary.trials,
                    "mean_pos": summary.mean_pos,
                    "std_err": summary.std_err,
                    "min_pos": summary.min_pos,
                    "bound": summary.bound,
                    "violations": summary.violations,
                },
            }
        )
    return 0


def cmd_covering_mc(args: argparse.Namespace) -> int:
    spec = CoveringMonteCarloSpec(
        num_agents=args.n,
        num_regions=args.regions,
        bias=args.bias,
        scale=args.scale,
    )
    return _emit_monte_carlo(args, spec)


def cmd_radio_mc(args: argparse.Namespace) -> int:
    spec = RadioMonteCarloSpec(num_agents=args.n, alpha=args.alpha)
    return _emit_monte_carlo(args, spec)


def cmd_export_kernel(args: argparse.Namespace) -> int:
    game = load_game(args.input)
    kernel = build_kernel(game, mode=args.mode, tie_tol=args.tie_tol)
    lines = ["src,dst,prob"]
    for src, dst, prob in kernel.edges():
        lines.append(f"{src},{dst},{prob!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage problems as ``ValidationError``, so ``main`` reports them
    on one line instead of argparse's usage block and exit code 2.  Subparsers
    are made with the same class."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


_INPUT = _arg("--input", required=True)
_MODE = (
    _arg("--mode", choices=[BEST, BETTER], default=BEST),
    _arg("--tie-tol", dest="tie_tol", type=float, default=0.0),
)
_FORMAT = _arg("--format", choices=["json", "csv"], default="json")
_N = _arg("--n", type=int, required=True)
_MONTE_CARLO = (
    _arg("--trials", type=int, required=True),
    _arg("--seed", type=int, default=0),
    _FORMAT,
)

# Each subcommand's help, handler and arguments, in help order.
_COMMANDS = {
    "analyze": ("equilibria, sinks, and welfare ratios", cmd_analyze, (_INPUT, *_MODE, _FORMAT)),
    "smoothness": (
        "best (lambda, mu) certificate",
        cmd_smoothness,
        (_INPUT, _arg("--common-interest", action="store_true")),
    ),
    "bounds": ("misalignment floors next to the exact price of sinking", cmd_bounds, (_INPUT,)),
    "counterexample": (
        "smoothness gap game plus its analysis",
        cmd_counterexample,
        (
            _arg("--lambda", dest="lam", type=float, required=True),
            _arg("--mu", type=float, required=True),
        ),
    ),
    "covering-mc": (
        "Monte Carlo over covering instances",
        cmd_covering_mc,
        (
            _N,
            _arg("--regions", type=int, required=True),
            _arg("--bias", type=float, default=0.0),
            _arg("--scale", type=float, default=0.0),
            *_MONTE_CARLO,
        ),
    ),
    "radio-mc": (
        "Monte Carlo over interference instances",
        cmd_radio_mc,
        (_N, _arg("--alpha", type=float, required=True), *_MONTE_CARLO),
    ),
    "export-kernel": ("edge-list CSV of a response kernel", cmd_export_kernel, (_INPUT, *_MODE)),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; only ``command``'s subparser when it names a
    subcommand, which takes about a third of the time of building all seven."""
    parser = _Parser(
        prog="sinkeq",
        description="Sink-equilibrium analysis for finite normal-form games",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, arguments) in _COMMANDS.items():
        if command in _COMMANDS and name != command:
            continue
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
        # A numpy warning would print ahead of the one error line; tables
        # made non-finite are refused where they are built.
        with np.errstate(all="ignore"):
            return args.func(args)
    except SystemExit:  # only --help exits; usage errors raise ValidationError
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoEquilibriumError, DegenerateWelfareError, CertificateNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailureError, WitnessNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
