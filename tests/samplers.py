"""Random games and trial seeds for the tests.

``trial_seed`` is the seed ``run_monte_carlo`` derives for a trial, by
numpy's own ``SeedSequence``; the samplers draw random games for property
checks.
"""

import math

import numpy as np

from sinkeq.dynamics import is_singleton_br
from sinkeq.errors import InvalidParametersError
from sinkeq.game import NormalFormGame, enumerate_nash
from sinkeq.generators import _checked_profiles, sample_random_game


def trial_seed(master_seed: int, trial: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(trial),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def sample_action_counts(
    rng: np.random.Generator,
    max_players: int = 3,
    max_actions: int = 4,
    max_profiles: int | None = None,
) -> tuple[int, ...]:
    while True:
        n = int(rng.integers(1, max_players + 1))
        counts = tuple(int(rng.integers(2, max_actions + 1)) for _ in range(n))
        total = 1
        for c in counts:
            total *= c
        if max_profiles is None or total <= max_profiles:
            return counts


def sample_game_with_pure_nash(
    rng: np.random.Generator,
    max_players: int = 3,
    max_actions: int = 4,
) -> NormalFormGame:
    """Rejection-sample until the game has at least one pure equilibrium."""
    while True:
        counts = sample_action_counts(rng, max_players, max_actions)
        game = sample_random_game(rng, counts)
        if enumerate_nash(game):
            return game


def sample_near_common_game(
    rng: np.random.Generator,
    action_counts: tuple[int, ...],
    deviation: float,
    noise: str = "additive",
    max_attempts: int = 500,
) -> NormalFormGame:
    """Common-interest base W ~ U(0.1, 1) with bounded per-entry noise.

    ``additive`` draws utilities in ``W * (1 ± deviation)``; ``multiplicative``
    draws ratio factors log-uniformly in ``[1 - deviation, 1/(1 - deviation)]``.
    Resamples until best responses are singletons everywhere.
    """
    if noise not in ("additive", "multiplicative"):
        raise InvalidParametersError("noise must be 'additive' or 'multiplicative'")
    n = len(action_counts)
    total = _checked_profiles(math.prod(action_counts))
    for _ in range(max_attempts):
        welfare = rng.uniform(0.1, 1.0, size=total)
        if noise == "additive":
            wiggle = rng.uniform(-deviation, deviation, size=(n, total))
            utilities = welfare[None, :] * (1.0 + wiggle)
        else:
            span = -math.log(1.0 - deviation) if deviation > 0 else 0.0
            factors = np.exp(rng.uniform(-span, span, size=(n, total)))
            utilities = welfare[None, :] * factors
        game = NormalFormGame(
            action_counts=action_counts, welfare=welfare, utilities=utilities
        )
        singleton, _ = is_singleton_br(game)
        if singleton:
            return game
    raise InvalidParametersError(
        f"could not reach singleton best responses in {max_attempts} attempts"
    )
