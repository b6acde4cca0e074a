"""The CLI's report writer against ``json.dumps(obj, indent=2, sort_keys=True)``.

Every JSON report goes through ``cli._json_text``, so any difference here is a
changed byte of output.  Values cover what ``json`` treats specially (NaN,
infinities, -0.0, bools, None, ints beyond 2^63, escaped, non-ASCII and
surrogate strings, tuples, float subclasses, non-string keys, empty and
nested containers, ragged and mixed-type rows) and report-shaped dicts with
long float lists and integer coordinate matrices.
"""

import json
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sinkeq.cli import _json_text

special_floats = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, 0.1])
floats = st.one_of(st.floats(), special_floats, special_floats.map(np.float64))
ints = st.one_of(st.integers(-3, 3), st.integers(-(2**80), 2**80))
texts = st.one_of(
    st.text(), st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é", "\U0001f600", "\ud800"])
)
scalars = st.one_of(st.none(), st.booleans(), ints, floats, texts)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=6),
        st.lists(children, max_size=6).map(tuple),
        st.dictionaries(texts, children, max_size=5),
        st.dictionaries(st.one_of(ints, st.booleans()), children, max_size=3),
        st.dictionaries(st.floats(), children, max_size=3),
        st.dictionaries(st.none(), children, max_size=1),
    )


def rows(cells, width=st.integers(0, 4)):
    """Lists of equal-length rows (lists or tuples) of ``cells``."""
    return width.flatmap(
        lambda k: st.lists(
            st.one_of(st.lists(cells, min_size=k, max_size=k),
                      st.lists(cells, min_size=k, max_size=k).map(tuple)),
            max_size=8,
        )
    )


row_lists = st.one_of(
    rows(ints),
    rows(st.one_of(ints, st.booleans())),
    rows(st.one_of(ints, floats)),
    st.lists(st.lists(ints, max_size=4), max_size=6),  # ragged
)
values = st.recursive(st.one_of(scalars, row_lists), containers, max_leaves=30)

reports = st.fixed_dictionaries(
    {
        "request": st.dictionaries(st.text(max_size=8), scalars, max_size=5),
        "price_of_sinking": st.one_of(st.none(), floats),
        "sinks": st.lists(
            st.fixed_dictionaries(
                {
                    "support": st.lists(st.integers(0, 2**20), max_size=400),
                    "coords": rows(st.integers(0, 9), st.integers(1, 4)),
                    "probabilities": st.lists(st.floats(0.0, 1.0), max_size=400),
                    "expected_welfare": floats,
                }
            ),
            max_size=3,
        ),
        "worst_sink_support": st.lists(st.integers(0, 2**20), max_size=50),
    }
)


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


@settings(max_examples=600, deadline=None)
@given(obj=values)
@example(obj=[[1, 2], [3, True]])
@example(obj=[[1.0, 2.0], [3.0, math.nan]])
@example(obj={"a": [], "b": {}, "c": [[]], "d": [()]})
@example(obj=[2**64, -(2**63) - 1, -0.0, math.inf])
def test_any_json_value(obj):
    assert _json_text(obj) == reference(obj)


@settings(max_examples=100, deadline=None)
@given(report=reports)
def test_report_shaped_dicts(report):
    assert _json_text(report) == reference(report)
