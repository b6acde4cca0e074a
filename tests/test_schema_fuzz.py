"""Malformed game files through every command that reads one: each must
exit 1 with a single ``error:`` line on stderr, never a traceback."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sinkeq.cli import main

COMMANDS = ("analyze", "bounds", "smoothness", "export-kernel")


def assert_rejected(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "game.json"
        path.write_bytes(data)
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--input", str(path)])
            lines = err.getvalue().splitlines()
            assert code == 1, (command, code, lines)
            assert len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
            assert str(path) in lines[0], (command, lines)


def parses(data: bytes) -> bool:
    try:
        json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError, RecursionError):
        return False
    return True


@st.composite
def valid_games(draw):
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    total = 1
    for c in counts:
        total *= c
    numbers = st.floats(0, 10, allow_nan=False)
    game = {
        "action_counts": counts,
        "welfare": draw(st.lists(numbers, min_size=total, max_size=total)),
        "utilities": [
            draw(st.lists(numbers, min_size=total, max_size=total)) for _ in counts
        ],
    }
    if draw(st.booleans()):
        game["labels"] = [[f"a{k}" for k in range(c)] for c in counts]
    return game


def encode(game: dict) -> bytes:
    return json.dumps(game).encode()


# JSON values that no field accepts in place of a list of numbers or of
# positive integers.
non_numbers = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=5),
    st.dictionaries(st.text(max_size=3), st.integers()),
)
wrong_values = st.one_of(
    non_numbers, st.integers(), st.floats(), st.lists(non_numbers, min_size=1, max_size=3)
)
# JSON values that no action label accepts.
non_strings = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.lists(st.text(max_size=3), max_size=2),
    st.dictionaries(st.text(max_size=3), st.lists(st.integers(), max_size=2), max_size=2),
)


@st.composite
def wrong_types(draw):
    game = draw(valid_games())
    field = draw(st.sampled_from(
        ["action_counts", "welfare", "utilities", "labels", "element", "extra", "missing"]
    ))
    if field == "element":
        row = draw(st.sampled_from([game["welfare"]] + game["utilities"]))
        entry = draw(st.integers(0, len(row) - 1))
        row[entry] = draw(st.one_of(non_numbers, st.lists(st.integers())))
    elif field == "extra":
        game[draw(st.text(max_size=5).filter(lambda k: k not in game))] = draw(wrong_values)
    elif field == "missing":
        del game[draw(st.sampled_from(["action_counts", "welfare", "utilities"]))]
    elif field == "labels" and draw(st.booleans()):
        game["labels"] = [[f"a{k}" for k in range(c)] for c in game["action_counts"]]
        row = draw(st.sampled_from(game["labels"]))
        row[draw(st.integers(0, len(row) - 1))] = draw(non_strings)
    elif field == "labels":
        game["labels"] = draw(
            st.one_of(st.booleans(), st.integers(), st.text(max_size=5), st.just([]))
        )
    else:
        game[field] = draw(wrong_values)
    return encode(game)


@st.composite
def truncated(draw):
    data = encode(draw(valid_games()))
    return data[: draw(st.integers(0, len(data) - 1))]


@st.composite
def mutated(draw):
    data = bytearray(encode(draw(valid_games())))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        action = draw(st.sampled_from(["replace", "insert", "delete"]))
        if action == "delete":
            del data[pos]
        else:
            byte = draw(st.integers(0, 255))
            if action == "replace":
                data[pos] = byte
            else:
                data.insert(pos, byte)
        if not data:
            break
    data = bytes(data)
    assume(not parses(data))
    return data


@st.composite
def deeply_nested(draw):
    depth = draw(st.integers(1, 200_000))
    nest = "[" * depth + "]" * depth
    where = draw(st.sampled_from(["top", "welfare", "utilities", "labels"]))
    if where == "top":
        return nest.encode()
    game = {"action_counts": [1], "welfare": [1.0], "utilities": [[1.0]], where: ["NEST"]}
    return json.dumps(game).replace('"NEST"', nest).encode()


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=64))
def test_random_bytes_are_rejected(data):
    assert_rejected(data)


@settings(max_examples=60, deadline=None)
@given(st.one_of(truncated(), mutated()))
def test_damaged_games_are_rejected(data):
    assert_rejected(data)


@settings(max_examples=80, deadline=None)
@given(wrong_types())
def test_wrong_types_are_rejected(data):
    assert_rejected(data)


@settings(max_examples=30, deadline=None)
@given(deeply_nested())
def test_deep_nesting_is_rejected(data):
    assert_rejected(data)


def test_non_utf8_file_is_rejected():
    assert_rejected(b"\xff\xfe")


def test_json_nested_100000_deep_is_rejected():
    assert_rejected(b"[" * 100_000 + b"]" * 100_000)
