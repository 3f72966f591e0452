"""The package's top-level names, as the README lists them."""

import re
from pathlib import Path

import pnormtest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_lists_exactly_the_top_level_names():
    text = README.read_text()
    start = text.index("\n- ", text.index("The top-level namespace exports these names"))
    section = text[start : text.index("\n\n", start)]
    listed = re.findall(r"`(\w+)`", section)
    assert len(listed) == len(set(listed))
    assert set(listed) == set(pnormtest.__all__)
