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
from .smoothness import best_smoothness, bound_report, check_smoothness


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
    lam, mu = best_smoothness(game, common_interest=args.common_interest)
    cert = check_smoothness(game, lam, mu, common_interest=args.common_interest)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sinkeq",
        description="Sink-equilibrium analysis for finite normal-form games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_mode=True, with_format=True):
        if with_mode:
            p.add_argument("--mode", choices=[BEST, BETTER], default=BEST)
            p.add_argument("--tie-tol", dest="tie_tol", type=float, default=0.0)
        if with_format:
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("analyze", help="equilibria, sinks, and welfare ratios")
    p.add_argument("--input", required=True)
    add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("smoothness", help="best (lambda, mu) certificate")
    p.add_argument("--input", required=True)
    p.add_argument("--common-interest", action="store_true")
    p.set_defaults(func=cmd_smoothness)

    p = sub.add_parser("bounds", help="misalignment floors next to the exact price of sinking")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("counterexample", help="smoothness gap game plus its analysis")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.set_defaults(func=cmd_counterexample)

    p = sub.add_parser("covering-mc", help="Monte Carlo over covering instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--regions", type=int, required=True)
    p.add_argument("--bias", type=float, default=0.0)
    p.add_argument("--scale", type=float, default=0.0)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, with_mode=False)
    p.set_defaults(func=cmd_covering_mc)

    p = sub.add_parser("radio-mc", help="Monte Carlo over interference instances")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, with_mode=False)
    p.set_defaults(func=cmd_radio_mc)

    p = sub.add_parser("export-kernel", help="edge-list CSV of a response kernel")
    p.add_argument("--input", required=True)
    add_common(p, with_format=False)
    p.set_defaults(func=cmd_export_kernel)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
