"""Smoothness certificates, misalignment measurement, and sinking bounds.

A game is (lam, mu)-smooth when, at every state, the summed gain each player
would forfeit by unilaterally switching to its optimal-profile coordinate is
at most ``mu * W(a) - lam * W(opt)``.  The common-interest variant replaces
every utility by the welfare itself.  ``best_smoothness`` maximizes the ratio
``lam / mu`` over all valid certificates; the ratio lower-bounds the price of
anarchy, and combined with a misalignment measurement it yields lower bounds
on the price of sinking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

import numpy as np

from .dynamics import BEST, BETTER, build_kernel, is_singleton_br
from .errors import (
    CertificateNotFoundError,
    InvalidParametersError,
    NumericalFailureError,
    WitnessNotFoundError,
)
from .game import JointAction, NormalFormGame, optimal_profile, positive_optimum
from .sinks import SinkEquilibrium, price_of_sinking, sink_components

SLACK_TOL = 1e-9
RATIO_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SmoothnessCertificate:
    """Per-state slack of the smoothness inequality for one (lam, mu) pair,
    valid when no slack is below ``-SLACK_TOL * scale``: ``scale`` is the
    largest term of any slack, and a pair whose terms overflow is invalid."""

    slack: np.ndarray
    optimum: JointAction
    scale: float

    @property
    def min_slack(self) -> float:
        return float(self.slack.min())

    @property
    def valid(self) -> bool:
        return math.isfinite(self.scale) and self.min_slack >= -SLACK_TOL * self.scale


@dataclass(frozen=True)
class MisalignmentReport:
    """How far utilities stray from the welfare, in additive and ratio terms.

    A ``None`` beta means the corresponding notion is undefined for the game
    or its value is out of range; the witness then points at the offending
    (player, state) pair.  A defined ``beta_arithmetic`` is finite and a
    defined ``beta_geometric`` lies in ``[0, 1)``.
    """

    beta_arithmetic: float | None
    witness_arithmetic: tuple[int, int] | None
    beta_geometric: float | None
    witness_geometric: tuple[int, int] | None


@dataclass(frozen=True, eq=False)
class BoundReport:
    """Exact price of sinking next to each misalignment-based floor."""

    price_of_sinking: float
    lambda_c: float
    mu_c: float
    singleton_br: bool
    bound_arithmetic: float | None
    satisfied_arithmetic: bool | None
    bound_geometric: float | None
    satisfied_geometric: bool | None
    misalignment: MisalignmentReport
    worst_sink: SinkEquilibrium


@dataclass(frozen=True, eq=False)
class SinkWitness:
    """Best support action of one better-response sink, which meets its
    welfare floor."""

    support: tuple[int, ...]
    action: JointAction
    welfare: float
    aligned_action: JointAction


def _deviation_gains(
    game: NormalFormGame, optimum: JointAction, common_interest: bool
) -> Iterator[np.ndarray]:
    """Per player, U_i(a) - U_i(opt_i, rest of a) at every state a."""
    for player, target in enumerate(optimum.coords):
        table = game.welfare if common_interest else game.utilities[player]
        v = game.action_axis(table, player)
        yield (v - v[:, target:target + 1]).ravel()


def _deviation_totals(
    game: NormalFormGame, optimum: JointAction, common_interest: bool
) -> np.ndarray:
    """Per-state sum over players of U_i(a) - U_i(opt_i, rest of a)."""
    total = np.zeros(game.num_profiles)
    for gain in _deviation_gains(game, optimum, common_interest):
        total += gain
    return total


def check_smoothness(
    game: NormalFormGame, lam: float, mu: float, common_interest: bool = False
) -> SmoothnessCertificate:
    """Evaluate the smoothness inequality at every state for fixed (lam, mu)."""
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise InvalidParametersError("lam and mu must be finite")
    if not 0.0 <= lam <= mu:
        raise InvalidParametersError(f"need mu >= lam >= 0, got lam={lam}, mu={mu}")
    optimum, wopt = optimal_profile(game)
    deviation = _deviation_totals(game, optimum, common_interest)
    slack = mu * game.welfare - lam * wopt - deviation
    slack.setflags(write=False)
    # lam * W(opt) is at most mu * W(opt), the largest mu * W(a).
    scale = max(mu * wopt, float(np.abs(deviation).max()))
    return SmoothnessCertificate(slack=slack, optimum=optimum, scale=scale)


def best_smoothness(
    game: NormalFormGame, common_interest: bool = False
) -> tuple[float, float]:
    """Certificate maximizing lam/mu, solved exactly.

    With ``t = 1/mu`` the best ratio is the maximum over ``t > 0`` of the
    lower envelope ``min_a (W(a) - t D(a)) / W(opt)``, at most 1 since the
    optimum's line is flat.  A walk (Dinkelbach's iteration) keeps one line
    that does not fall and one that falls, jumps to their crossing, swaps in
    the lowest line there, and stops when none is strictly below it.  Ties
    go to the least ``mu``, or, when no line falls and every ``mu`` down to
    0 is best, to ``min(1, largest)``.  When a least-welfare state has ``D >
    0`` the supremum ``min W / W(opt)`` is approached only as ``mu`` grows,
    and the least-``mu`` pair at ``1 - RATIO_TOL`` times it is returned.
    Scaling the game by a power of 2 returns the same pair bit for bit.

    Raises
    ------
    DegenerateWelfareError
        If the optimal welfare is zero.
    CertificateNotFoundError
        If a zero-welfare state with positive total deviation gain blocks
        every certificate with ``lam >= 0``.
    NumericalFailureError
        If the deviation totals, ``mu`` or a slack of the returned pair
        overflow the float range, as entries near 1e308 can make them.
    """
    optimum, wopt = positive_optimum(game)
    deviation = _deviation_totals(game, optimum, common_interest)
    if not np.all(np.isfinite(deviation)):
        raise NumericalFailureError("deviation gains overflow the float range")
    welfare, least = game.welfare, game.welfare.min()
    falling = deviation > 0.0
    if np.any(welfare[falling] == 0.0):
        raise CertificateNotFoundError("no finite smoothness certificate: a zero-welfare "
                                       "state has positive total deviation gain")
    with np.errstate(over="ignore"):
        floor = np.max(deviation[falling] / welfare[falling], initial=0.0)
    if floor == math.inf:  # ratio 0 needs mu >= D(a) / W(a), a larger one more
        rho, t = 0.0, 1.0 / floor
    elif np.any(welfare[falling] == least):
        rho = least / wopt * (1.0 - RATIO_TOL)
        t = np.min((welfare[falling] - rho * wopt) / deviation[falling])
    elif not falling.any():  # the envelope rises to its lowest flat line
        level = welfare[deviation == 0.0].min()
        rho = level / wopt
        rising = deviation < 0.0
        t = max(1.0, np.max((welfare[rising] - level) / deviation[rising], initial=0.0))
    else:
        # No pair comes back in exact arithmetic; rounding near concurrent
        # lines could bring one back, and the walk stops there.
        r, f = int(np.argmin(welfare)), int(np.argmax(deviation))
        seen = set()
        while True:
            seen.add((r, f))
            t = (welfare[f] - welfare[r]) / (deviation[f] - deviation[r])
            values = welfare - t * deviation
            low = int(np.argmin(values))
            swapped = (r, low) if falling[low] else (low, f)
            if not values[low] < min(values[r], values[f]) or swapped in seen:
                break
            r, f = swapped
        # The crossing's height on the line that does not fall, whose two
        # terms do not cancel.
        rho = values[r] / wopt
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        mu = float(1.0 / t)
        lam = float(rho) * mu
        if not (mu > 0.0 and np.all(np.isfinite(mu * welfare - lam * wopt - deviation))):
            raise NumericalFailureError(
                f"smoothness certificate overflows the float range at ratio {float(rho)!r}"
            )
    return lam, mu


def additive_sinking_bound(lam_c: float, mu_c: float, num_players: int, beta: float) -> float:
    """Price-of-sinking floor for games within additive distance beta of
    common interest, given common-interest smoothness parameters."""
    if beta < 0:
        raise InvalidParametersError("beta must be nonnegative")
    return max((lam_c - 4.0 * beta * num_players) / mu_c, 0.0)


def multiplicative_sinking_bound(
    lam_c: float, mu_c: float, num_players: int, beta: float
) -> float:
    """Price-of-sinking floor for games whose utility/welfare ratios lie in
    [1-beta, 1/(1-beta)]."""
    if not 0.0 <= beta < 1.0:
        raise InvalidParametersError("beta must lie in [0, 1)")
    kept = (1.0 - beta) ** 2
    return lam_c / (kept * mu_c + (1.0 - kept) * num_players)


def measure_misalignment(game: NormalFormGame) -> MisalignmentReport:
    """Measure both misalignment notions in one pass over each player's table.

    Over the positive-welfare states, the arithmetic beta is ``max |U/W - 1|``
    and the ratio beta ``max(1 - min U/W, 1 - 1/max U/W)``.  Each witness is
    the first extreme (player, state) pair in (player, state) order; the
    minimum ratio wins a tie between the two ratio terms.  Both notions are
    undefined (``None``) from the first player with a nonzero utility at a
    zero-welfare state, the ratio notion also from the first player with a
    ratio ``U/W <= 0``; the witness is that player's first such state, a
    zero-welfare one first.  A beta that overflow or rounding takes out of
    range (not finite, or for the ratio not below 1) is undefined as well,
    witnessed by its extreme pair.
    """
    welfare = game.welfare
    zero = welfare == 0.0
    positive = np.flatnonzero(~zero)
    rows = []
    for player, utility in enumerate(game.utilities):
        with np.errstate(over="ignore"):
            ratios = utility[positive] / welfare[positive]
        deviation = np.abs(ratios - 1.0)
        firsts = (np.flatnonzero(zero & (utility != 0.0)), positive[ratios <= 0.0])
        row = [(player, int(states[0])) if states.size else None for states in firsts]
        # Without positive-welfare states, the extremes of an aligned state.
        extremes = [(0.0, None), (1.0, None), (1.0, None)]
        if positive.size:
            ks = deviation.argmax(), ratios.argmin(), ratios.argmax()
            extremes = [(float(v[k]), (player, int(positive[k])))
                        for v, k in zip((deviation, ratios, ratios), ks)]
        rows.append(row + extremes)

    bad_zero, nonpos, deviations, low, high = zip(*rows)
    arith_bad = next(filter(None, bad_zero), None)
    ratio_bad = next(filter(None, map(lambda z, r: z or r, bad_zero, nonpos)), None)
    # max and min return the first of equal extremes, so earlier pairs win ties.
    value = itemgetter(0)
    arith, low, high = max(deviations, key=value), min(low, key=value), max(high, key=value)
    if ratio_bad is None:
        ratio = max((1.0 - low[0], low[1]), (1.0 - 1.0 / high[0], high[1]), key=value)
    if arith_bad or not math.isfinite(arith[0]):
        arith = (None, arith_bad or arith[1])
    if ratio_bad or not ratio[0] < 1.0:
        ratio = (None, ratio_bad or ratio[1])
    return MisalignmentReport(*arith, *ratio)


def bound_report(game: NormalFormGame, tie_tol: float = 0.0) -> BoundReport:
    """Exact price of sinking compared against both misalignment floors.

    The floors use the common-interest certificate from ``best_smoothness``.
    They apply only under singleton best responses, checked within the same
    ``tie_tol`` as the analyzed chain; when that hypothesis or a beta
    measurement fails, the corresponding satisfied flag is ``None``.
    """
    lam_c, mu_c = best_smoothness(game, common_interest=True)
    misalignment = measure_misalignment(game)
    singleton, _ = is_singleton_br(game, tie_tol)
    pos, worst = price_of_sinking(game, mode=BEST, tie_tol=tie_tol)
    n = game.num_players

    bound_arith = None
    if misalignment.beta_arithmetic is not None:
        bound_arith = additive_sinking_bound(lam_c, mu_c, n, misalignment.beta_arithmetic)
    bound_geo = None
    if misalignment.beta_geometric is not None:
        bound_geo = multiplicative_sinking_bound(lam_c, mu_c, n, misalignment.beta_geometric)

    satisfied_arith = None
    if singleton and bound_arith is not None:
        satisfied_arith = pos >= bound_arith - SLACK_TOL
    satisfied_geo = None
    if singleton and bound_geo is not None:
        satisfied_geo = pos >= bound_geo - SLACK_TOL

    return BoundReport(
        price_of_sinking=pos,
        lambda_c=lam_c,
        mu_c=mu_c,
        singleton_br=singleton,
        bound_arithmetic=bound_arith,
        satisfied_arithmetic=satisfied_arith,
        bound_geometric=bound_geo,
        satisfied_geometric=satisfied_geo,
        misalignment=misalignment,
        worst_sink=worst,
    )


def better_response_witness(
    game: NormalFormGame, lam: float, mu: float
) -> list[SinkWitness]:
    """Locate, in every better-response sink, an action meeting the smoothness
    welfare floor ``(lam/mu) * W(opt)``.

    Also reports a support action whose unilateral switches to the optimal
    profile are all non-improving.  Raises
    WitnessNotFoundError if some sink misses the welfare floor, which would
    contradict the certificate.
    """
    certificate = check_smoothness(game, lam, mu)
    if not certificate.valid:
        raise InvalidParametersError(
            f"({lam}, {mu}) is not a valid smoothness certificate "
            f"(min slack {certificate.min_slack:.3e})"
        )
    optimum = certificate.optimum
    ratio = lam / mu if mu > 0 else 0.0
    wopt = float(game.welfare[optimum.flat])
    threshold = ratio * wopt

    kernel = build_kernel(game, mode=BETTER)
    # States where no player gains by switching to its optimal coordinate.
    aligned_states = np.ones(game.num_profiles, dtype=bool)
    for gain in _deviation_gains(game, optimum, False):
        aligned_states &= gain >= 0.0
    witnesses = []
    for support in sink_components(kernel):
        values = game.welfare[list(support)]
        best_pos = int(np.argmax(values))
        best_state = support[best_pos]
        best_welfare = float(values[best_pos])
        if best_welfare < threshold - SLACK_TOL * wopt:
            raise WitnessNotFoundError(
                f"sink starting at state {support[0]} has max welfare "
                f"{best_welfare:.6g} below threshold {threshold:.6g}"
            )

        # Never empty: a player who gains by switching to its optimal
        # coordinate may make that switch, so the sink holds the switched
        # state too, and repeated switches end at an aligned state.
        hits = np.flatnonzero(aligned_states[list(support)])
        aligned = game.index_to_joint(support[hits[0]])
        witnesses.append(
            SinkWitness(
                support=support,
                action=game.index_to_joint(best_state),
                welfare=best_welfare,
                aligned_action=aligned,
            )
        )
    return witnesses
