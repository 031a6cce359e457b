"""The README's "Operation caps" paragraph states each cap as "<name> n ≤ k";
every k must equal the constant the code enforces."""

import re
from pathlib import Path

import pytest

from ndqc import boolfn, commsim, polys

README = Path(__file__).resolve().parents[1] / "README.md"

# the name before "n ≤ k" in the paragraph -> the constant that enforces it
CAPS = {
    "the subcube table": boolfn.CERT_MAX_CAP,
    "decision-tree depth": boolfn.DEPTH_CAP,
    "ndeg": polys.NDEG_CAP,
    "full-table polynomial work": polys.POLY_TABLE_CAP,
    "pair functions": commsim.PAIR_CAP,
    "rectangle covers": commsim.COVER_CAP,
    "rotation protocol": commsim.PAIR_CAP,
}


def caps_paragraph():
    text = README.read_text(encoding="utf-8")
    para = text[text.index("Operation caps"):].split("\n\n")[0]
    return " ".join(para.split())


@pytest.mark.parametrize("name", sorted(CAPS))
def test_readme_cap_matches_constant(name):
    found = re.findall(re.escape(name) + r" n ≤ (\d+)", caps_paragraph())
    assert found == [str(CAPS[name])]


def test_every_stated_cap_is_checked():
    assert len(re.findall(r"n ≤ \d+", caps_paragraph())) == len(CAPS)
