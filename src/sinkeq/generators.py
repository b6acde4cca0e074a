"""Benchmark game families, random-game samplers, and Monte Carlo harness.

Three concrete families are provided:

* a two-player 3x3 "gap" game that is (lam, mu)-smooth yet funnels best
  responses into a single zero-welfare sink,
* region-covering games where each agent maximizes a privately estimated
  version of an additive coverage value,
* two-channel interference games where each agent minimizes globally
  estimated pairwise interference.

All randomness flows through counter-based Philox generators keyed by
``SeedSequence(entropy, spawn_key)``, so trial streams are reproducible
across platforms and independent of execution order; instances carry all
their draws, so the game builders draw nothing.  ``philox_rng`` and the
public samplers key their generators through numpy's ``SeedSequence``.
Monte Carlo runs derive the seeds and Philox keys of many streams in one
vectorized pass (``streams.spawn_states``) that reproduces ``SeedSequence``
bit for bit, and re-key one Philox per stream instead of building a
generator each; the streams are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .errors import GameAnalysisError, InvalidParametersError, ValidationError
from .game import NormalFormGame, check_entries
from .sinks import batch_prices
from .streams import philox_generator, rekeyed, spawn_states
from .smoothness import additive_sinking_bound, multiplicative_sinking_bound

BOUND_TOL = 1e-9
# Largest joint-action space a generator builds: 16 times the 65,536 states
# of a 16-agent interference game.
MAX_PROFILES = 1 << 20


def philox_rng(seed: int, *spawn_key: int) -> np.random.Generator:
    """Counter-based generator for the given seed and spawn path."""
    if seed < 0:
        raise InvalidParametersError("seed must be nonnegative")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(spawn_key))
    return np.random.Generator(np.random.Philox(ss))


def _stream_keys(seed: int, *streams: int) -> np.ndarray:
    """The Philox key of ``philox_rng(seed, s)`` for each stream s, one row each."""
    if seed < 0:
        raise InvalidParametersError("seed must be nonnegative")
    return spawn_states(int(seed), np.array(streams, dtype=np.uint64), 4).view("<u8")


def _checked_profiles(total: int) -> int:
    """``total``, unless the game would exceed ``MAX_PROFILES`` joint actions."""
    if total > MAX_PROFILES:
        raise InvalidParametersError(f"game would have more than {MAX_PROFILES} joint actions")
    return total


# ---------------------------------------------------------------------------
# Smoothness gap game
# ---------------------------------------------------------------------------

def counterexample_game(lam: float, mu: float) -> NormalFormGame:
    """Two-player 3x3 game that is (lam, mu)-smooth with a worthless sink.

    The welfare puts value 1 at (e1, f1), value (lam + eps)/mu on the two
    adjacent profiles with eps = (mu - lam)/2, and zero elsewhere.  Utilities
    pull both players away from the optimum into a four-state cycle over the
    zero-welfare block, so the unique sink has expected welfare exactly 0.
    Requires finite mu > lam >= 0.
    """
    if not (math.isfinite(lam) and math.isfinite(mu)):
        raise InvalidParametersError("lam and mu must be finite")
    if not mu > lam >= 0.0:
        raise InvalidParametersError(f"need mu > lam >= 0, got lam={lam}, mu={mu}")
    eps = (mu - lam) / 2.0
    cross = (lam + eps) / mu
    # The cycle needs a strictly positive rotation payoff even at lam = 0,
    # and the off-diagonal penalty must be at least lam to keep every
    # smoothness slack nonnegative.
    spin = lam if lam > 0.0 else eps
    drop = max(eps, lam)

    welfare = [
        [1.0, cross, 0.0],
        [cross, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ]
    u_row = [
        [0.0, 0.0, 0.0],
        [eps, spin, -2.0 * spin],
        [-drop, -2.0 * spin, spin],
    ]
    u_col = [
        [0.0, eps, -drop],
        [0.0, -2.0 * spin, spin],
        [0.0, spin, -2.0 * spin],
    ]
    # Tables are indexed [row e_i][column f_j]; flat index is i + 3j.
    return NormalFormGame(
        action_counts=(3, 3),
        welfare=np.asarray(welfare).ravel(order="F"),
        utilities=np.vstack(
            [np.asarray(u_row).ravel(order="F"), np.asarray(u_col).ravel(order="F")]
        ),
        action_labels=(("e1", "e2", "e3"), ("f1", "f2", "f3")),
    )


# ---------------------------------------------------------------------------
# Covering games
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringInstance:
    """A region-covering problem with noisy per-agent value estimates.

    ``options[i]`` lists the region subsets agent i may monitor.
    ``estimates[i, r]`` is agent i's estimate of region r; ``==`` ignores
    it, and a given array is kept and made read-only.  If not given, it is
    drawn from spawn child 1 of ``seed``, from ``Normal(values[r] + bias,
    (scale * values[r])^2)``, and deliberately not clamped to be nonnegative.
    """

    values: tuple[float, ...]
    options: tuple[tuple[tuple[int, ...], ...], ...]
    bias: float
    scale: float
    seed: int
    estimates: np.ndarray | None = field(default=None, compare=False)

    def __post_init__(self):
        if not self.values:
            raise ValidationError("need at least one region")
        if not all(map(math.isfinite, self.values)):
            raise ValidationError("region values must be finite")
        if any(v < 0 for v in self.values):
            raise ValidationError("region values must be nonnegative")
        _check_noise(self.bias, self.scale)
        if not self.options:
            raise ValidationError("need at least one agent")
        m = len(self.values)
        norm = []
        for i, opts in enumerate(self.options):
            if not opts:
                raise ValidationError(f"agent {i} has no coverage options")
            rows = []
            for subset in opts:
                subset = tuple(sorted(set(int(r) for r in subset)))
                if subset and not 0 <= subset[0] <= subset[-1] < m:
                    raise ValidationError(
                        f"agent {i}: option {subset} has regions outside [0, {m})"
                    )
                rows.append(subset)
            norm.append(tuple(rows))
        object.__setattr__(self, "options", tuple(norm))
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        # A scale of -0.0 is kept as 0.0, so the estimates' zeros have the
        # signs that scale 0 gives them.
        object.__setattr__(self, "scale", self.scale + 0.0)
        estimates = self.estimates
        if estimates is None:
            key, rng = _stream_keys(self.seed, 1), philox_generator()
            estimates = _estimate_draws(len(norm), self.values, self.bias, self.scale, key, rng)[0]
        estimates = np.asarray(estimates, dtype=float)
        if estimates.shape != (len(norm), m):
            raise ValidationError(
                f"estimates must have shape ({len(norm)}, {m}), got {estimates.shape}"
            )
        if not np.isfinite(estimates).all():
            raise ValidationError("estimates must be finite")
        estimates.setflags(write=False)
        object.__setattr__(self, "estimates", estimates)

    @property
    def num_agents(self) -> int:
        return len(self.options)

    @property
    def num_regions(self) -> int:
        return len(self.values)


def _check_noise(bias: float, scale: float) -> None:
    """Refuse a bias or scale that is not finite, and a negative scale."""
    if not (math.isfinite(bias) and math.isfinite(scale)):
        raise ValidationError("bias and scale must be finite")
    if scale < 0:
        raise ValidationError("scale must be nonnegative")


# Most table entries ``_covering_tables`` gathers into one block for its
# union sums, which bounds the memory a block takes (8 MB).
_SUM_BLOCK = 1 << 20


def _words(rows: np.ndarray, width: int) -> np.ndarray:
    """Each byte row as a big-endian number in ``width`` 64-bit words,
    most significant first."""
    padded = np.zeros((len(rows), 8 * width), dtype=np.uint8)
    padded[:, 8 * width - rows.shape[1] :] = rows
    return padded.view(">u8").astype(np.uint64)


def make_covering_game(instance: CoveringInstance) -> NormalFormGame:
    """Welfare sums true values over the union of chosen subsets; each agent's
    utility sums its own estimates over the same union."""
    counts = np.array([[len(opts) for opts in instance.options]])
    options = list(chain.from_iterable(instance.options))
    lengths = np.fromiter(map(len, options), dtype=np.int64, count=len(options))
    masks = np.zeros((len(options), instance.num_regions), dtype=bool)
    masks[
        np.repeat(np.arange(len(options)), lengths),
        np.fromiter(chain.from_iterable(options), dtype=np.int64, count=int(lengths.sum())),
    ] = True
    tables = np.vstack([instance.values, instance.estimates])[None]
    columns, rows = _covering_tables(tables, np.packbits(masks, axis=1), counts)
    full = np.take(columns, rows, axis=1)
    return NormalFormGame(tuple(counts[0].tolist()), full[0], full[1:])


def _covering_tables(
    tables: np.ndarray, bits: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Welfare and utility tables of covering games over ``m`` regions laid
    end to end, in the batch form ``batch_prices`` reads: the ``(1 +
    agents, distinct)`` columns, one per distinct (game, union), welfare
    then each agent's utility, checked as ``NormalFormGame`` checks them,
    and ``rows``, the column of each profile.  Game g has ``counts[g, i]``
    options for agent i, and ``tables[g]``, of shape ``(1 + agents, m)``,
    of its values, then each agent's estimates; ``bits`` packs every
    option's regions.

    Profiles share few distinct unions, so each distinct union of a game is
    summed once.  Unions of k regions are summed together: their entries of
    every table are gathered into one C-contiguous ``(unions, tables, k)``
    block and summed along its last axis, which adds in the order of
    ``x[mask].sum()``.  An axis reduction over a table of masks, or over a
    block whose last axis is strided, adds in another order and moves the
    last bits.
    """
    (games, n), m = counts.shape, tables.shape[2]
    totals = []
    for row in counts.tolist():
        total = _checked_profiles(math.prod(row))
        if total * ((m + 7) // 8) > MAX_PROFILES:
            raise InvalidParametersError(
                f"game would need more than {MAX_PROFILES} bytes of region bits"
            )
        totals.append(total)
    firsts = (np.cumsum(counts) - counts.ravel()).reshape(counts.shape)
    # Each profile's key: its game, in as few bytes as number the games
    # (none for one game), then the region bits of its union, read as one
    # big-endian number in ``width`` 64-bit words, so that keys sort in the
    # order of their bytes.  Agent i's option at a profile is digit i of
    # the game's flat index, agent 0 varying fastest.
    profiles = sum(totals)
    game = np.repeat(np.arange(games), totals)
    rest = np.arange(profiles) - np.repeat(np.cumsum(totals) - totals, totals)
    prefix = ((games - 1).bit_length() + 7) // 8
    width = (prefix + bits.shape[1] + 7) // 8
    ids = np.zeros((games, prefix + bits.shape[1]), dtype=np.uint8)
    ids[:, :prefix] = np.arange(games, dtype=">u8")[:, None].view(np.uint8)[:, 8 - prefix :]
    keys = np.repeat(_words(ids, width), totals, axis=0)
    unions = _words(bits, width)
    # Each agent's option count and first option row, at every profile, in
    # the least bytes that hold them.
    radix = np.repeat(counts.T.astype(np.min_scalar_type(counts.max())), totals, axis=1)
    offset = np.repeat(firsts.T.astype(np.min_scalar_type(firsts.max())), totals, axis=1)
    for i in range(n):
        rest, digit = np.divmod(rest, radix[i])
        keys |= unions[offset[i] + digit]
    # Sort the keys on their words, most significant first, and number the
    # distinct ones in that order.
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    new = np.ones(profiles, dtype=bool)
    np.any(keys[1:] != keys[:-1], axis=1, out=new[1:])
    distinct = keys[new]
    inverse = np.empty(profiles, dtype=np.int64)
    inverse[order] = np.cumsum(new) - 1
    covered = np.unpackbits(
        distinct.astype(">u8").view(np.uint8).reshape(len(distinct), -1)[:, -bits.shape[1] :],
        axis=1,
        count=m,
    ).astype(bool)
    owner = np.empty(len(distinct), dtype=np.int64)
    owner[inverse] = game
    # Distinct unions by size, so the unions of each size, and their
    # regions, come one after another.
    sizes = covered.sum(axis=1)
    by_size = np.argsort(sizes, kind="stable")
    regions = np.nonzero(covered[by_size])[1]
    owner = owner[by_size]
    layers = np.arange(1 + n)[:, None]
    sums = np.empty((len(distinct), 1 + n))
    row = at = 0
    # A sum past the float range is refused by ``check_entries`` below.
    with np.errstate(over="ignore"):
        for k, count in enumerate(np.bincount(sizes).tolist()):
            chunk = max(1, _SUM_BLOCK // ((1 + n) * max(k, 1)))
            for lo in range(row, row + count, chunk):
                hi = min(lo + chunk, row + count)
                cols = regions[at : at + (hi - lo) * k].reshape(hi - lo, 1, k)
                sums[lo:hi] = tables[owner[lo:hi, None, None], layers, cols].sum(axis=-1)
                at += (hi - lo) * k
            row += count
    # The columns stay in the size order, each table one C-contiguous row,
    # which gathers read faster than strided ones.
    columns = np.ascontiguousarray(sums.T)
    check_entries(columns[0], columns[1:])
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[by_size] = np.arange(len(distinct))
    return columns, rank[inverse]


def sample_covering_instance(
    num_agents: int,
    num_regions: int,
    bias: float,
    scale: float,
    seed: int,
    options_per_agent: int = 4,
) -> CoveringInstance:
    """Random instance with unit region values: each agent gets up to
    ``options_per_agent`` distinct random subsets, resampled until at least
    one is nonempty.

    The subsets come from spawn child 0 of ``seed`` as blocks of
    ``options_per_agent x num_regions`` fair bits, one block per draw.
    Agent i takes the i-th block that is not all zero, so an empty block
    is redrawn for the same agent.  One call draws a block for every agent
    still without one, and calls repeat until each has one; a bit takes
    one 32-bit output of the stream whatever the call, so the agents get
    the blocks that drawing one block at a time gives them.  The estimates
    come from spawn child 1.  This is the draw of ``run_monte_carlo``.
    """
    keys, rng, values = _stream_keys(seed, 0, 1), philox_generator(), (1.0,) * num_regions
    counts, bits = _option_draws(num_agents, num_regions, keys[:1], rng, options_per_agent)
    estimates = _estimate_draws(num_agents, values, bias, scale, keys[1:], rng)
    masks = np.unpackbits(bits, axis=1, count=num_regions)
    subsets = [tuple(np.flatnonzero(mask).tolist()) for mask in masks]
    ends = np.cumsum(counts[0]).tolist()
    options = tuple(tuple(subsets[a:b]) for a, b in zip([0] + ends[:-1], ends))
    return CoveringInstance(values, options, float(bias), float(scale), int(seed), estimates[0])


def _option_draws(
    num_agents: int, num_regions: int, keys: np.ndarray, rng: np.random.Generator, options: int = 4
) -> tuple[np.ndarray, np.ndarray]:
    """The options of one covering instance per Philox key of ``keys``, as
    ``sample_covering_instance`` draws them from ``rng`` re-keyed to it: each
    agent's option count, ``(instances, agents)``, and the region bits of
    every option, packed eight regions a byte, one row per option in order."""
    if num_agents < 1 or num_regions < 1 or options < 1:
        raise InvalidParametersError("agents, regions, and options must be positive")
    if num_agents * options * num_regions > MAX_PROFILES:
        raise InvalidParametersError(f"instance would draw more than {MAX_PROFILES} option bits")
    shape = (num_agents, options, num_regions)
    bits = np.empty((len(keys), *shape[:2], (num_regions + 7) // 8), dtype=np.uint8)
    for drawn, key in zip(bits, keys):
        blocks = rekeyed(rng, key).integers(0, 2, size=shape)
        nonempty = blocks.any(axis=(1, 2))
        while not nonempty.all():
            # Drop the all-zero blocks and draw one more for each.
            more = rng.integers(0, 2, size=(np.count_nonzero(~nonempty), *shape[1:]))
            blocks = np.concatenate([blocks[nonempty], more])
            nonempty = blocks.any(axis=(1, 2))
        drawn[...] = np.packbits(blocks, axis=2)
    # A repeated option keeps its first occurrence, in draw order.
    repeated = np.zeros(bits.shape[:3], dtype=bool)
    for k in range(1, options):
        repeated[:, :, k] = (bits[:, :, :k] == bits[:, :, k : k + 1]).all(axis=3).any(axis=2)
    return options - repeated.sum(axis=2), bits[~repeated]


def _estimate_draws(
    num_agents: int, values: Sequence[float], bias: float, scale: float, keys: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Each agent's estimates of ``values`` for one covering instance per
    Philox key of ``keys``, ``(values + bias) + (scale * values) * z`` with z
    from ``rng`` re-keyed to the key, bit for bit what ``rng.normal`` draws;
    refused unless the noise and the estimates are finite."""
    _check_noise(bias, scale)
    values = np.asarray(values)
    z = np.empty((len(keys), num_agents, values.size))
    for out, key in zip(z, keys):
        rekeyed(rng, key).standard_normal(out=out)
    estimates = np.add(values + bias, np.multiply(z, scale * values, out=z), out=z)
    if not np.isfinite(estimates).all():
        raise ValidationError("estimates must be finite")
    return estimates


def expected_covering_misalignment(bias: float, scale: float, num_regions: int) -> float:
    """Expected additive misalignment of a noisy covering game.

    The per-region relative estimate error is folded-normal with mean ``bias``
    and deviation ``scale``; the bound sums the folded-normal mean over all
    regions.  Requires ``scale > 0``.
    """
    if scale <= 0:
        raise InvalidParametersError("scale must be positive")
    z = bias / scale
    folded_mean = scale * math.sqrt(2.0 / math.pi) * math.exp(-0.5 * z * z) + bias * (
        1.0 - 2.0 * _normal_cdf(-z)
    )
    return num_regions * folded_mean


def _normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def covering_sinking_bound(num_agents: int, misalignment: float) -> float:
    """Expected price-of-sinking floor for covering games: the coverage
    welfare is (1, 2)-smooth under common interest."""
    if num_agents < 1:
        raise InvalidParametersError("need at least one agent")
    return additive_sinking_bound(1.0, 2.0, num_agents, misalignment)


# ---------------------------------------------------------------------------
# Radio interference games
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class RadioInstance:
    """Two-channel interference game with per-agent weight estimates.

    ``weights`` is the true pairwise interference matrix (zero diagonal);
    ``estimates[i]`` is agent i's full matrix, entrywise inside
    ``[alpha * w, w / alpha]``.
    """

    weights: np.ndarray
    alpha: float
    estimates: np.ndarray

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
            raise ValidationError("weights must be a square matrix")
        n = weights.shape[0]
        if not np.isfinite(weights).all():
            raise ValidationError("weights must be finite")
        if np.any(weights < 0):
            raise ValidationError("weights must be nonnegative")
        if np.any(np.diag(weights) != 0):
            raise ValidationError("weights must have a zero diagonal")
        if not 0.0 < self.alpha <= 1.0:
            raise ValidationError("alpha must lie in (0, 1]")
        estimates = np.asarray(self.estimates, dtype=float)
        if estimates.shape != (n, n, n):
            raise ValidationError(
                f"estimates must have shape ({n}, {n}, {n}), got {estimates.shape}"
            )
        if not np.isfinite(estimates).all():
            raise ValidationError("estimates must be finite")
        slop = 1e-12 * (1.0 + weights)
        lo = self.alpha * weights - slop
        hi = weights / self.alpha + slop
        for i in range(n):
            if np.any(estimates[i] < lo) or np.any(estimates[i] > hi):
                raise ValidationError(
                    f"agent {i} estimates leave [alpha*w, w/alpha]"
                )
        weights.setflags(write=False)
        estimates.setflags(write=False)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "estimates", estimates)

    @property
    def num_agents(self) -> int:
        return self.weights.shape[0]


def sample_radio_instance(
    num_agents: int,
    alpha: float,
    seed: int,
    weights: np.ndarray | None = None,
) -> RadioInstance:
    """Random symmetric weights in (0, 1) plus log-uniform estimate factors.

    Sampling factors log-uniformly on [alpha, 1/alpha] keeps ratios symmetric
    around 1; with alpha = 1 every estimate equals the true weight exactly.
    """
    return _radio_instance(num_agents, alpha, weights, rng=philox_rng(seed, 0))


def _radio_instance(
    num_agents: int,
    alpha: float,
    weights: np.ndarray | None = None,
    *,
    rng: np.random.Generator,
) -> RadioInstance:
    """``sample_radio_instance``, drawn from ``rng``: a generator keyed as
    ``philox_rng(seed, 0)`` is."""
    if num_agents < 2:
        raise InvalidParametersError("need at least two agents")
    if not 0.0 < alpha <= 1.0:
        raise InvalidParametersError("alpha must lie in (0, 1]")
    # The estimates alone take num_agents**3 floats: refuse before drawing
    # them, and before a huge count makes the shift itself overflow.
    _checked_profiles(1 << min(num_agents, MAX_PROFILES.bit_length()))
    n = num_agents
    if weights is None:
        weights = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        weights[iu] = rng.uniform(0.0, 1.0, size=len(iu[0]))
        weights = weights + weights.T
    else:
        weights = np.asarray(weights, dtype=float)
    span = abs(math.log(alpha))
    factors = np.exp(rng.uniform(-span, span, size=(n, n, n)))
    estimates = weights[None, :, :] * factors
    return RadioInstance(weights=weights, alpha=float(alpha), estimates=estimates)


# States per block of ``make_radio_game``'s tables: a block's ``split``
# table takes n^2 bytes a state, 3.3 MB at 20 agents.
_RADIO_BLOCK = 1 << 13


def make_radio_game(instance: RadioInstance) -> NormalFormGame:
    """Each agent picks one of two channels; welfare totals the interference
    weight avoided by every ordered pair on different channels."""
    n = instance.num_agents
    tables = np.empty((1 + n, _checked_profiles(1 << n)))
    _radio_tables(instance, tables)
    labels = tuple(("ch1", "ch2") for _ in range(n))
    return NormalFormGame(
        action_counts=(2,) * n,
        welfare=tables[0],
        utilities=tables[1:],
        action_labels=labels,
    )


def _radio_tables(instance: RadioInstance, out: np.ndarray) -> None:
    """Write the welfare table of ``make_radio_game``, then each agent's
    utility table, into the rows of ``out``, ``_RADIO_BLOCK`` states at a
    time, so the pair table of a block, not of the whole game, bounds the
    memory; each state's sums do not depend on the block."""
    n, total = instance.num_agents, out.shape[1]
    for lo in range(0, total, _RADIO_BLOCK):
        hi = min(total, lo + _RADIO_BLOCK)
        channels = (np.arange(lo, hi)[:, None] >> np.arange(n)[None, :]) & 1
        split = channels[:, :, None] != channels[:, None, :]
        out[0, lo:hi] = np.einsum("alj,lj->a", split, instance.weights)
        for i in range(n):
            out[1 + i, lo:hi] = np.einsum("alj,lj->a", split, instance.estimates[i])


def radio_sinking_bound(num_agents: int, alpha: float) -> float:
    """Per-instance price-of-sinking floor for two-channel interference games
    with estimate ratio margin alpha: the welfare is (1, 3)-smooth under
    common interest and the game is (1 - alpha)-ratio-misaligned."""
    if num_agents < 1:
        raise InvalidParametersError("need at least one agent")
    if not 0.0 < alpha <= 1.0:
        raise InvalidParametersError("alpha must lie in (0, 1]")
    # 1 - alpha rounds to 1.0 for alpha <= 2**-54, though it lies below 1.
    beta = min(1.0 - alpha, math.nextafter(1.0, 0.0))
    return multiplicative_sinking_bound(1.0, 3.0, num_agents, beta)


# ---------------------------------------------------------------------------
# Random games for property checks
# ---------------------------------------------------------------------------

def sample_random_game(
    rng: np.random.Generator,
    action_counts: tuple[int, ...],
    welfare_range: tuple[float, float] = (0.05, 1.0),
    utility_range: tuple[float, float] = (-1.0, 1.0),
) -> NormalFormGame:
    total = _checked_profiles(math.prod(action_counts))
    welfare = rng.uniform(*welfare_range, size=total)
    utilities = rng.uniform(*utility_range, size=(len(action_counts), total))
    return NormalFormGame(
        action_counts=action_counts, welfare=welfare, utilities=utilities
    )


# ---------------------------------------------------------------------------
# Monte Carlo harness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringMonteCarloSpec:
    """Trial recipe for random covering instances with unit region values."""

    num_agents: int
    num_regions: int
    bias: float
    scale: float

    streams = 2  # spawn children of a trial seed: options, estimates

    def bound(self) -> float:
        if self.scale > 0:
            beta = expected_covering_misalignment(self.bias, self.scale, self.num_regions)
        else:
            # Zero-variance limit of the folded-normal mean.
            beta = self.num_regions * abs(self.bias)
        return covering_sinking_bound(self.num_agents, beta)

    def batches(
        self, trials: range, master_seed: int, rng: np.random.Generator
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``trials`` in batches as ``batch_prices`` reads them, drawn, built
        and checked as arrays: the option bits of up to ``_KEY_CHUNK`` trials
        at a time, then each batch's estimates and its columns, one per
        distinct (game, union)."""
        n, m, noise = self.num_agents, self.num_regions, (self.bias, self.scale)
        for keys in _trial_keys(trials, master_seed, self.streams):
            counts, bits = _option_draws(n, m, keys[:, 0], rng)
            rows = [0] + np.cumsum(counts.sum(axis=1)).tolist()
            for lo, hi in _batches([math.prod(row) for row in counts.tolist()]):
                tables = np.ones((hi - lo, 1 + n, m))
                tables[:, 1:] = _estimate_draws(n, np.ones(m), *noise, keys[lo:hi, 1], rng)
                options, actions = bits[rows[lo] : rows[hi]], counts[lo:hi]
                yield (actions, *_covering_tables(tables, options, actions))


@dataclass(frozen=True)
class RadioMonteCarloSpec:
    """Trial recipe for random two-channel interference instances."""

    num_agents: int
    alpha: float

    streams = 1  # spawn children of a trial seed: weights and estimates

    def bound(self) -> float:
        return radio_sinking_bound(self.num_agents, self.alpha)

    def batches(
        self, trials: range, master_seed: int, rng: np.random.Generator
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """``trials`` in batches as ``batch_prices`` reads them, of instances
        drawn one by one, whose tables are written side by side, one column
        per state; a batch ends when the next 2^n states would not fit."""
        n, instances = self.num_agents, []
        for keys in _trial_keys(trials, master_seed, self.streams):
            for key in keys:
                instances.append(_radio_instance(n, self.alpha, rng=rekeyed(rng, key[0])))
                if (len(instances) + 1) << n > _BATCH_STATES:
                    yield _radio_batch(instances)
                    instances = []
        if instances:
            yield _radio_batch(instances)


def _radio_batch(instances: list[RadioInstance]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The batch of ``make_radio_game`` of each of ``instances``, checked."""
    n = instances[0].num_agents
    tables = np.empty((1 + n, len(instances) << n))
    for at, instance in enumerate(instances):
        _radio_tables(instance, tables[:, at << n : (at + 1) << n])
    check_entries(tables[0], tables[1:])
    return np.full((len(instances), n), 2), tables, np.arange(tables.shape[1])


@dataclass(frozen=True)
class TrialResult:
    trial: int
    pos: float
    violation: bool


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate view of one experiment; violations count trials whose exact
    price of sinking fell more than 1e-9 below the bound, which depends only
    on the spec."""

    trials: int
    mean_pos: float
    std_err: float
    min_pos: float
    bound: float
    violations: int
    results: tuple[TrialResult, ...]


# Most states a batch of Monte Carlo trials may hold; a larger trial is a
# batch of its own.  One table build, one fiber build, one sink search and
# one stationary solve serve a whole batch, which saves the per-call costs
# of small trials; the peak memory grows with the budget.  A covering batch
# keeps one table column per distinct (game, union), not per state, which
# pays for 2^12 states: time, peak and the 2^13 trial are in BENCH_26.json.
_BATCH_STATES = 1 << 12


# Trials whose seeds and stream keys one ``spawn_states`` pass derives.
_KEY_CHUNK = 1 << 10


def _trial_keys(trials: range, master_seed: int, streams: int) -> Iterator[np.ndarray]:
    """The Philox keys of each trial's ``streams`` streams, ``(trials,
    streams, 2)``, derived from the trial seeds with one ``spawn_states``
    pass each per ``_KEY_CHUNK`` trials."""
    for lo in range(trials.start, trials.stop, _KEY_CHUNK):
        chunk = np.arange(lo, min(lo + _KEY_CHUNK, trials.stop), dtype=np.uint64)
        seeds = spawn_states(master_seed, chunk, 2).view("<u8")[:, 0]
        keys = spawn_states(
            np.repeat(seeds, streams), np.tile(np.arange(streams, dtype=np.uint64), len(seeds)), 4
        )
        yield keys.view("<u8").reshape(len(seeds), streams, 2)


def _batches(profiles: Sequence[int]) -> Iterator[tuple[int, int]]:
    """Bounds ``(lo, hi)`` of consecutive trials of ``profiles`` states in batches of
    at most ``_BATCH_STATES`` states; a larger trial is a batch of its own."""
    lo = states = 0
    for hi, count in enumerate(profiles):
        if hi > lo and states + count > _BATCH_STATES:
            yield lo, hi
            lo, states = hi, 0
        states += count
    if profiles:
        yield lo, len(profiles)


def run_monte_carlo(
    spec: CoveringMonteCarloSpec | RadioMonteCarloSpec,
    trials: int,
    master_seed: int,
) -> MonteCarloSummary:
    """Run seeded independent trials and aggregate their sinking prices.

    Deterministic for a fixed ``master_seed``: trial t draws from the Philox
    stream keyed by ``SeedSequence(master_seed, spawn_key=(t,))`` regardless
    of execution order.  Batches of consecutive trials are analyzed
    together, with the results of analyzing each alone.  A covering batch
    flows as arrays from the drawn option bits and estimates, through one
    table build, one sink search on the best-response fibers and one solve
    of the sinks whose welfare varies, to the prices: no instance, game,
    kernel or equilibrium object per trial, and each of their checks runs
    once per batch.  The public samplers and builders wrap the same draws
    and table build.  The first
    failing trial aborts the run, and the error names it and the master
    seed: ``trial t (master_seed=s): ...``.  After an error, in a draw, a
    table build or an analysis, the trials not yet priced run again as
    batches of one, so the error names the first failing trial, as when
    every trial runs on its own.
    """
    if trials < 1:
        raise InvalidParametersError("need at least one trial")
    if master_seed < 0:
        raise InvalidParametersError("master_seed must be nonnegative")
    if not isinstance(spec, (CoveringMonteCarloSpec, RadioMonteCarloSpec)):
        raise InvalidParametersError(f"unknown Monte Carlo spec {type(spec).__name__}")
    bound = spec.bound()
    prices: list[float] = []
    rng = philox_generator()
    try:
        for batch in spec.batches(range(trials), master_seed, rng):
            prices += batch_prices(*batch)
    except GameAnalysisError:
        for trial in range(len(prices), trials):
            try:
                for batch in spec.batches(range(trial, trial + 1), master_seed, rng):
                    prices += batch_prices(*batch)
            except GameAnalysisError as exc:
                raise type(exc)(f"trial {trial} (master_seed={master_seed}): {exc}") from exc
    results = [
        TrialResult(trial=trial, pos=pos, violation=pos < bound - BOUND_TOL)
        for trial, pos in enumerate(prices)
    ]
    pos = np.array(prices)
    std_err = float(np.std(pos, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloSummary(
        trials=trials,
        mean_pos=float(np.mean(pos)),
        std_err=std_err,
        min_pos=float(np.min(pos)),
        bound=bound,
        violations=sum(r.violation for r in results),
        results=tuple(results),
    )
