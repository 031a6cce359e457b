"""Format fuzzing: every text parser turns malformed input into ValueError.

Each parser gets random text and mutations of valid serializations.  Text
mutations splice short tokens into the text; JSON mutations replace one
node of a JSON record by a value of another type.  `CapExceeded` is a
`ValueError`, so a cap hit on a mutated size counts as a rejection.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndqc import commsim, polys, querysim, report
from ndqc.boolfn import TruthTable, format_table, make_named, parse_table

TOKENS = ("", "0", "1", "-1", "2", "99", "1/0", "0/0", "nan", "inf", "-inf",
          "1e999", "Infinity", "NaN", "null", "5", "[]", "{}", "[5]", "\"",
          ",", ";", "=", "+", "*x{", "}", "x", "\n")
VALUES = (None, 5, -1, 0, 1.5, float("inf"), "1/0", "nan", "x", "", [], [5],
          {}, True)


def _lines(parse):
    return lambda text: parse(text.split("\n"))


def _corpus():
    or2 = make_named("OR", 2)
    eq1 = commsim.make_pair_function("EQ", 1)
    ident = commsim.NondetMatrix(1, [[1, 0], [0, 1]], eq1)
    algo = querysim.compile_from_ndet_poly(polys.weight_offset_poly(2), or2)
    rational = polys.MultilinearPoly.make(
        2, polys.MONOMIAL, {0: Fraction(-3, 7), 3: Fraction(2)})
    return {
        "parse_table": (parse_table, [
            format_table(TruthTable(n, bits))
            for n, bits in ((1, 2), (2, 6), (3, 0x96), (4, 0xfffe))]),
        "parse_poly": (lambda text: polys.parse_poly(text, 2), [
            polys.format_poly(p) for p in (
                rational, polys.weight_offset_poly(2, 1),
                polys.to_fourier(polys.weight_offset_poly(2)))]),
        "matrix_from_csv_lines": (_lines(commsim.matrix_from_csv_lines), [
            "\n".join(commsim.matrix_to_csv_lines(m))
            for m in (ident, commsim.ne_matrix(1))]),
        "circuit_from_lines": (_lines(querysim.circuit_from_lines), [
            "\n".join(querysim.circuit_to_lines(algo))]),
        # what `export` runs on a measure report
        "load_measure_report": (lambda text: report.measure_report_csv_lines(
            report.load_measure_report(text)), [
            report.dump_report(report.build_measure_report(
                or2, 1, {"mode": "exact"}))]),
    }


CORPUS = _corpus()


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def _mutated(draw, texts):
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 3))):
        lines = text.split("\n")
        k = draw(st.integers(0, len(lines) - 1))
        try:
            record = json.loads(lines[k])
        except ValueError:
            record = None
        if record is not None and draw(st.booleans()):
            path = draw(st.sampled_from(list(_paths(record))))
            value = draw(st.sampled_from(VALUES))
            if path:
                parent = record
                for key in path[:-1]:
                    parent = parent[key]
                parent[path[-1]] = value
            else:
                record = value
            lines[k] = json.dumps(record)
            text = "\n".join(lines)
        else:
            i = draw(st.integers(0, len(text)))
            j = draw(st.integers(i, min(len(text), i + 6)))
            text = text[:i] + draw(st.sampled_from(TOKENS)) + text[j:]
    return text


@pytest.mark.parametrize("name", sorted(CORPUS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_parsers_raise_only_value_error(name, data):
    parse, texts = CORPUS[name]
    text = data.draw(st.one_of(st.text(max_size=40), _mutated(texts)))
    try:
        parse(text)
    except ValueError:
        pass
