"""README's "Library tour" names only what its modules define, so a
renamed or deleted name fails here instead of leaving the README stale."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_tour_rows():
    """``(module, names)`` of each row of the "Library tour" table: the
    module in the first cell, every backticked name in the second."""
    section = README.read_text(encoding="utf-8").split("\n## Library tour\n", 1)[1]
    rows = []
    for line in section.split("\n## ", 1)[0].splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 2 and re.fullmatch(r"`sinkeq\.\w+`", cells[0]):
            rows.append((cells[0].strip("`"), re.findall(r"`([^`]*)`", cells[1])))
    return rows


ROWS = library_tour_rows()


def test_the_table_is_found():
    assert len(ROWS) >= 7
    assert all(names for _, names in ROWS)


@pytest.mark.parametrize("module, names", ROWS, ids=[module for module, _ in ROWS])
def test_every_name_resolves(module, names):
    found = importlib.import_module(module)
    assert [name for name in names if not name.isidentifier()] == []
    assert [name for name in names if not hasattr(found, name)] == []
