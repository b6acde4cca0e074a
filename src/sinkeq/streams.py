"""Philox streams keyed in batch-wide passes.

``spawn_states`` gives ``SeedSequence(e, spawn_key=(k,)).generate_state``
for many entropies and spawn keys in one vectorized pass, bit for bit, and
``rekeyed`` points one Philox generator at a new key: four such words, the
key a ``Philox`` of that ``SeedSequence`` takes.  A caller that draws from
many streams then builds no ``SeedSequence`` and no generator per stream.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np


# ``SeedSequence``'s pool size and hash constants.  NEP 19 freezes its
# output, so ``spawn_states`` can copy its ``mix_entropy`` and
# ``generate_state``.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The first ``count`` values of a ``SeedSequence`` hash constant,
    which is multiplied by ``mult`` after each use, as a column."""
    values = accumulate(range(count - 1), lambda c, _: c * mult & 0xFFFFFFFF, initial=init)
    return np.fromiter(values, dtype=np.uint32, count=count)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """``hashmix`` of each row of ``values`` with the constant of its row;
    ``consts`` holds one more row, the constant that follows."""
    values = values ^ consts[:-1]
    values *= consts[1:]
    values ^= values >> 16
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x
    result -= _MIX_R * y
    result ^= result >> 16
    return result


def _int_words(value: int) -> list[int]:
    """A nonnegative int as 32-bit words, least significant first; one word
    for 0, as ``SeedSequence`` coerces it."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    return [value >> s & 0xFFFFFFFF for s in range(0, max(value.bit_length(), 1), 32)]


def _generate_states(entropy: np.ndarray, words: int) -> np.ndarray:
    """``generate_state(words)`` of the ``SeedSequence`` whose assembled
    entropy is each column of the uint32 array ``entropy``, one row out
    per column.  Columns hold at least 4 words, as they do with a spawn key.

    Every column runs the same sequence of hash constants, so each mixing
    step is one pass over all columns, and the steps that read one source
    word run together."""
    length = len(entropy)
    count = _POOL_SIZE**2 + _POOL_SIZE * (length - _POOL_SIZE) + 1
    consts = _hash_constants(_INIT_A, _MULT_A, count)
    pool = _hashmix(entropy[:_POOL_SIZE], consts[: _POOL_SIZE + 1])
    at = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[at : at + _POOL_SIZE]))
        at += _POOL_SIZE - 1
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, consts[at : at + _POOL_SIZE + 1]))
        at += _POOL_SIZE
    consts = _hash_constants(_INIT_B, _MULT_B, words + 1)
    return _hashmix(pool[np.arange(words) % _POOL_SIZE], consts).T


def spawn_states(
    entropy: int | np.ndarray, spawn_key: int | np.ndarray, words: int
) -> np.ndarray:
    """``SeedSequence(e, spawn_key=(k,)).generate_state(words)`` for every
    entropy ``e`` and spawn key ``k`` of ``entropy`` and ``spawn_key``,
    broadcast together, as rows of uint32 words.

    ``entropy`` is one nonnegative int or a uint64 array, ``spawn_key`` one
    or more uint64s.  With a spawn key, ``SeedSequence`` pads the entropy's
    words with zeros to its pool size of 4, so the two words of each
    uint64, zero or not, give what its own words give.  A spawn key of
    2^32 or more takes a second word, so its rows run on their own."""
    if isinstance(entropy, np.ndarray):
        given = entropy.astype("<u8").view("<u4").reshape(-1, 2).T
    else:
        given = np.array(_int_words(int(entropy)), dtype=np.uint32)[:, None]
    spawn_key = np.asarray(spawn_key, dtype="<u8").reshape(-1)
    rows = max(given.shape[1], spawn_key.size)
    # The entropy's words, zero padded, then the spawn key's two words.
    length = max(len(given), _POOL_SIZE)
    assembled = np.zeros((length + 2, rows), dtype=np.uint32)
    assembled[: len(given)] = given
    assembled[length:] = spawn_key.view("<u4").reshape(-1, 2).T
    wide = assembled[-1] != 0
    out = np.empty((rows, words), dtype=np.uint32)
    for sel, end in ((~wide, -1), (wide, None)):
        if sel.any():
            out[sel] = _generate_states(assembled[:end, sel], words)
    return out


def philox_generator() -> np.random.Generator:
    """A Philox generator to re-key with ``rekeyed``."""
    return np.random.Generator(np.random.Philox(0))


# The counter and buffer words of a new Philox; setting a state copies them.
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)
_ZERO_WORDS.setflags(write=False)


def rekeyed(rng: np.random.Generator, key: np.ndarray) -> np.random.Generator:
    """``rng`` with its Philox set to ``key``, counter 0 and an empty
    buffer, so that it draws what a new ``Philox`` of that key draws.
    Setting the state costs a tenth of building a generator."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": key},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng
