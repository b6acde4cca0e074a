"""Finite normal-form games with an explicit welfare objective.

A game holds one dense welfare table and one dense utility table per player,
all indexed by a flat mixed-radix joint-action encoding in which player 0 is
the least-significant digit.  Tables are validated and frozen at construction,
so every instance can be shared freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import (
    DegenerateWelfareError,
    InvalidActionError,
    NoEquilibriumError,
    SchemaError,
    ValidationError,
)


@dataclass(frozen=True)
class JointAction:
    """One action index per player plus the flat mixed-radix index."""

    coords: tuple[int, ...]
    flat: int


@dataclass(frozen=True, eq=False)
class NormalFormGame:
    """A finite game together with the welfare function scoring its outcomes.

    Attributes
    ----------
    action_counts:
        Number of actions available to each player, in player order.
    welfare:
        Flat array of nonnegative finite welfare values, one per joint action.
    utilities:
        Array of shape ``(num_players, num_profiles)``; utility values are
        finite but may be negative.
    action_labels:
        Optional human-readable action names, one tuple per player.
    """

    action_counts: tuple[int, ...]
    welfare: np.ndarray
    utilities: np.ndarray
    action_labels: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        counts = tuple(int(c) for c in self.action_counts)
        if len(counts) < 1:
            raise ValidationError("a game needs at least one player")
        if any(c < 1 for c in counts):
            raise ValidationError(f"action counts must be positive, got {counts}")
        object.__setattr__(self, "action_counts", counts)

        total = 1
        for c in counts:
            total *= c

        welfare = np.ascontiguousarray(np.asarray(self.welfare, dtype=float).ravel())
        if welfare.shape != (total,):
            raise ValidationError(
                f"welfare: expected {total} entries, got {welfare.size}"
            )
        utilities = np.ascontiguousarray(np.asarray(self.utilities, dtype=float))
        if utilities.ndim == 1 and len(counts) == 1:
            utilities = utilities.reshape(1, -1)
        if utilities.shape != (len(counts), total):
            raise ValidationError(
                f"utilities: expected shape ({len(counts)}, {total}), "
                f"got {utilities.shape}"
            )
        check_entries(welfare, utilities)

        welfare.setflags(write=False)
        utilities.setflags(write=False)
        object.__setattr__(self, "welfare", welfare)
        object.__setattr__(self, "utilities", utilities)

        if self.action_labels is not None:
            labels = tuple(tuple(str(x) for x in row) for row in self.action_labels)
            if len(labels) != len(counts):
                raise ValidationError("action_labels: need one tuple per player")
            for i, row in enumerate(labels):
                if len(row) != counts[i]:
                    raise ValidationError(
                        f"action_labels[{i}]: expected {counts[i]} labels, "
                        f"got {len(row)}"
                    )
            object.__setattr__(self, "action_labels", labels)

    def __repr__(self):
        return f"NormalFormGame(players={self.num_players}, action_counts={self.action_counts})"

    @property
    def num_players(self) -> int:
        return len(self.action_counts)

    @property
    def num_profiles(self) -> int:
        return self.welfare.size

    @property
    def strides(self) -> tuple[int, ...]:
        out = []
        s = 1
        for c in self.action_counts:
            out.append(s)
            s *= c
        return tuple(out)

    def joint_to_index(self, coords: Sequence[int]) -> int:
        """Encode per-player action indices into the flat index."""
        if len(coords) != self.num_players:
            raise InvalidActionError(
                f"expected {self.num_players} coordinates, got {len(coords)}"
            )
        flat = 0
        for player, (a, c, s) in enumerate(
            zip(coords, self.action_counts, self.strides)
        ):
            a = int(a)
            if not 0 <= a < c:
                raise InvalidActionError(
                    f"player {player}: action {a} outside range [0, {c})"
                )
            flat += a * s
        return flat

    def index_to_joint(self, flat: int) -> JointAction:
        """Decode a flat index back into per-player coordinates."""
        flat = int(flat)
        if not 0 <= flat < self.num_profiles:
            raise InvalidActionError(
                f"flat index {flat} outside range [0, {self.num_profiles})"
            )
        coords = []
        rest = flat
        for c in self.action_counts:
            coords.append(rest % c)
            rest //= c
        return JointAction(coords=tuple(coords), flat=flat)

    def coords(self, states) -> list[list[int]]:
        """Per-player action indices of each flat index in ``states``, as
        lists: ``index_to_joint(s).coords`` for every ``s`` in one pass."""
        states = np.asarray(states, dtype=np.int64)
        return (states[:, None] // self.strides % self.action_counts).tolist()

    def joint(self, action: JointAction | Sequence[int] | int) -> JointAction:
        """Coerce a flat index, coordinate sequence, or JointAction."""
        if isinstance(action, JointAction):
            return action
        if isinstance(action, (int, np.integer)):
            return self.index_to_joint(int(action))
        return self.index_to_joint(self.joint_to_index(action))

    def action_axis(self, table: np.ndarray, player: int) -> np.ndarray:
        """View of a flat per-state ``table`` as ``(high, actions, low)``, no
        copy: axis 1 runs over ``player``'s action, the other players' fixed.
        State ``h * c * s + k * s + l`` sits at ``[h, k, l]``, where ``c`` and
        ``s`` are the player's action count and stride."""
        return table.reshape(-1, self.action_counts[player], self.strides[player])


def check_entries(welfare: np.ndarray, utilities: np.ndarray) -> None:
    """Refuse non-finite or negative welfare, then non-finite utility entries."""
    if not np.all(np.isfinite(welfare)):
        raise ValidationError("welfare entries must be finite")
    if np.any(welfare < 0.0):
        raise ValidationError("welfare entries must be nonnegative")
    if not np.all(np.isfinite(utilities)):
        raise ValidationError("utility entries must be finite")


def stacked_tables(games: Sequence[NormalFormGame]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Action counts of games with one player count, one row per game, and
    their tables laid end to end; a single game's tables are not copied."""
    counts = np.array([game.action_counts for game in games])
    if len(games) == 1:
        return counts, games[0].welfare, games[0].utilities
    return counts, np.hstack([g.welfare for g in games]), np.hstack([g.utilities for g in games])


def optimal_profile(game: NormalFormGame) -> tuple[JointAction, float]:
    """Welfare-maximizing joint action; ties break to the smallest flat index."""
    flat = int(np.argmax(game.welfare))
    return game.index_to_joint(flat), float(game.welfare[flat])


def positive_optimum(game: NormalFormGame) -> tuple[JointAction, float]:
    """``optimal_profile`` for welfare ratios, which divide by its welfare.

    Raises DegenerateWelfareError when the optimal welfare is zero.
    """
    optimum, wopt = optimal_profile(game)
    if wopt <= 0.0:
        raise DegenerateWelfareError("optimal welfare is zero")
    return optimum, wopt


def _nash_mask(game: NormalFormGame) -> np.ndarray:
    """Whether each state gives every player the best payoff of its actions."""
    mask = np.ones(game.num_profiles, dtype=bool)
    for player, u in enumerate(game.utilities):
        v = game.action_axis(u, player)
        mask &= (v >= v.max(axis=1, keepdims=True)).ravel()
    return mask


def is_nash(game: NormalFormGame, action: JointAction | Sequence[int] | int) -> bool:
    """True iff no player gains from any unilateral deviation (exact comparison).

    Checks every state, O(num_profiles) a call; ``enumerate_nash`` is the
    one pass for many states.
    """
    return bool(_nash_mask(game)[game.joint(action).flat])


def enumerate_nash(game: NormalFormGame) -> list[JointAction]:
    """All pure Nash equilibria in flat-index order (possibly empty)."""
    return [game.index_to_joint(int(f)) for f in np.flatnonzero(_nash_mask(game))]


def price_of_anarchy(game: NormalFormGame) -> float:
    """Worst pure-equilibrium welfare divided by the optimal welfare."""
    equilibria = enumerate_nash(game)
    if not equilibria:
        raise NoEquilibriumError("game has no pure Nash equilibrium")
    _, wopt = positive_optimum(game)
    return min(float(game.welfare[ne.flat]) for ne in equilibria) / wopt


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def game_to_dict(game: NormalFormGame) -> dict:
    """Plain-JSON description of a game (flat arrays in mixed-radix order)."""
    out = {
        "action_counts": list(game.action_counts),
        "welfare": game.welfare.tolist(),
        "utilities": game.utilities.tolist(),
    }
    if game.action_labels is not None:
        out["labels"] = [list(row) for row in game.action_labels]
    return out


def game_from_dict(obj: object, source: str = "<game>") -> NormalFormGame:
    """Validate a parsed JSON object and build the game it describes.

    Raises SchemaError with a field-level diagnostic on any violation.
    """
    def fail(field: str, message: str):
        raise SchemaError(f"{source}: {field}: {message}")

    def check_numbers(field: str, row: list):
        # One C-level pass over the types; bool and str are not numbers here.
        if not set(map(type, row)) <= {int, float}:
            k = next(k for k, x in enumerate(row) if type(x) not in (int, float))
            fail(f"{field}[{k}]", f"expected a number, got {row[k]!r}")

    if not isinstance(obj, dict):
        fail("$", f"expected an object, got {type(obj).__name__}")
    unknown = set(obj) - {"action_counts", "welfare", "utilities", "labels"}
    if unknown:
        fail("$", f"unknown fields {sorted(unknown)}")

    counts = obj.get("action_counts")
    if not isinstance(counts, list) or not counts:
        fail("action_counts", "expected a nonempty list of integers")
    for i, c in enumerate(counts):
        if not isinstance(c, int) or isinstance(c, bool) or c < 1:
            fail(f"action_counts[{i}]", f"expected a positive integer, got {c!r}")
    total = 1
    for c in counts:
        total *= c

    welfare = obj.get("welfare")
    if not isinstance(welfare, list):
        fail("welfare", "expected a list of numbers")
    if len(welfare) != total:
        fail("welfare", f"expected {total} entries, got {len(welfare)}")
    check_numbers("welfare", welfare)

    utilities = obj.get("utilities")
    if not isinstance(utilities, list) or len(utilities) != len(counts):
        fail("utilities", f"expected {len(counts)} per-player tables")
    for i, row in enumerate(utilities):
        if not isinstance(row, list) or len(row) != total:
            fail(f"utilities[{i}]", f"expected {total} entries")
        check_numbers(f"utilities[{i}]", row)

    labels = obj.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != len(counts):
            fail("labels", f"expected {len(counts)} per-player label lists")
        for i, row in enumerate(labels):
            if not isinstance(row, list) or len(row) != counts[i]:
                fail(f"labels[{i}]", f"expected {counts[i]} labels")
            for k, label in enumerate(row):
                if not isinstance(label, str):
                    fail(f"labels[{i}][{k}]", f"expected a string, got {type(label).__name__}")

    try:
        return NormalFormGame(
            action_counts=tuple(counts),
            welfare=np.asarray(welfare, dtype=float),
            utilities=np.asarray(utilities, dtype=float),
            action_labels=tuple(tuple(row) for row in labels) if labels else None,
        )
    except (ValidationError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{source}: {exc}") from exc


def load_game(source: str | IO[str]) -> NormalFormGame:
    """Load a game from a JSON file path or open text stream."""
    name = source if isinstance(source, str) else getattr(source, "name", "<stream>")
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = source.read()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{name}: byte {exc.start}: not UTF-8 text") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{name}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise SchemaError(f"{name}: JSON nested too deeply") from exc
    return game_from_dict(obj, source=name)
