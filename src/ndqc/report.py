"""Measure reports: strict JSON schema, canonical serialization, CSV views.

Canonical serialization is sorted-key compact JSON plus one newline, so
identical flags and seed produce byte-identical files.
"""

from __future__ import annotations

import json
from functools import cached_property

from . import boolfn, polys
from .boolfn import CapExceeded, TruthTable

MEASURE_KEYS = ("deg", "ndeg", "C0", "C1", "bs0", "bs1", "D", "N", "NQ")
REPORT_KEYS = frozenset(
    {"function", "n", "measures", "witness", "checks", "seed", "config"})
CHECK_KEYS = frozenset({"name", "pass", "details"})


def dump_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def report(data, fmt: str = "json") -> str:
    """A measure, theorem-suite or separation report as canonical JSON or
    as its shape's CSV view.  The view is built in both formats, so a
    report of no known shape, or with malformed rows, is a ValueError
    either way."""
    if not isinstance(data, dict):
        raise ValueError("a report is a JSON object")
    view = (measure_report_csv_lines if set(data) == REPORT_KEYS
            else suite_report_csv_lines if "results" in data
            else checks_report_csv_lines if "checks" in data else None)
    if view is None:
        raise ValueError("unrecognized report shape")
    lines = view(data)
    return "\n".join(lines) + "\n" if fmt == "csv" else dump_report(data)


class Measures(dict):
    """The MEASURE_KEYS of one function, each filled on its first read by
    the one engine in _ENGINES that decides it.  A cap hit reads
    {"skipped": reason}, and ndeg of f = 0 {"error": "IdenticallyZero"}."""

    def __init__(self, f: TruthTable, seed: int):
        self.f, self.seed = f, seed
        self.witness = None      # set when ndeg is read

    def __missing__(self, key):
        try:
            value = _ENGINES[key](self)
        except CapExceeded as e:
            value = {"skipped": str(e)}
        except polys.IdenticallyZero:
            value = {"error": "IdenticallyZero"}
        self[key] = value
        return value

    @cached_property
    def cubes(self) -> boolfn.SubcubeTable:
        return boolfn.SubcubeTable(self.f)

    def _ndeg(self) -> int:
        nd, cert = polys.ndeg(self.f, seed=self.seed)
        self.witness = cert.witness
        return nd


# ndeg also sets the witness; the table measures share one SubcubeTable
_ENGINES = {
    "deg": lambda m: polys.exact_poly(m.f).degree,
    "ndeg": Measures._ndeg,
    "C0": lambda m: m.cubes.c_max(0), "C1": lambda m: m.cubes.c_max(1),
    "bs0": lambda m: m.cubes.bs_max(0), "bs1": lambda m: m.cubes.bs_max(1),
    "D": lambda m: m.cubes.depth(),
    "N": lambda m: m["C1"], "NQ": lambda m: m["ndeg"],
}


def build_measure_report(f: TruthTable, seed: int, config: dict) -> dict:
    m = Measures(f, seed)
    measures, witness = {k: m[k] for k in MEASURE_KEYS}, m.witness
    checks = []
    if witness is not None:
        checks += [("witness_verifies", polys.verify_ndet(witness, f),
                    "exact nonzero-pattern check over all inputs"),
                   ("witness_degree_matches",
                    witness.degree == measures["ndeg"],
                    f"deg(witness)={witness.degree}")]
    checks.append(("nq_equals_ndeg", measures["NQ"] == measures["ndeg"],
                   "NQ(f)=ndeg(f) identity"))
    return {
        "function": boolfn.format_table(f),
        "n": f.n,
        "measures": measures,
        "witness": polys.format_poly(witness) if witness is not None else None,
        "checks": [{"name": name, "pass": ok, "details": details}
                   for name, ok, details in checks],
        "seed": seed,
        "config": config,
    }


def load_measure_report(text: str) -> dict:
    """Strict loader: rejects unknown keys and re-verifies the witness."""
    report = json.loads(text)
    if not isinstance(report, dict):
        raise ValueError("a report is a JSON object")
    if set(report) != REPORT_KEYS:
        unknown = set(report) - REPORT_KEYS
        missing = REPORT_KEYS - set(report)
        raise ValueError(f"bad report keys: unknown={sorted(unknown)}, "
                         f"missing={sorted(missing)}")
    if not isinstance(report["measures"], dict) \
            or set(report["measures"]) != set(MEASURE_KEYS):
        raise ValueError("bad measure keys")
    for k, v in report["measures"].items():
        # a count (deg is -1 for f = 0), or one {"skipped" | "error": reason}
        if not (type(v) is int and v >= (-1 if k == "deg" else 0)
                or isinstance(v, dict)
                and len(v) == 1 and set(v) <= {"skipped", "error"}
                and all(isinstance(r, str) for r in v.values())):
            raise ValueError(f"bad measure value for {k}")
    if not isinstance(report["checks"], list) \
            or any(not isinstance(chk, dict) or set(chk) != CHECK_KEYS
                   or not isinstance(chk["name"], str)
                   or not isinstance(chk["details"], str)
                   or type(chk["pass"]) is not bool
                   for chk in report["checks"]):
        raise ValueError("bad check fields")
    f = boolfn.parse_table(report["function"])
    if f.n != report["n"]:
        raise ValueError("n does not match the function table")
    if report["witness"] is not None:
        if not isinstance(report["witness"], str):
            raise ValueError("the witness is a polynomial string or null")
        w = polys.parse_poly(report["witness"], f.n)
        if not polys.verify_ndet(w, f):
            raise ValueError("stored witness fails re-verification")
    return report


def report_all_pass(report: dict) -> bool:
    return all(c["pass"] for c in report.get("checks", []))


def measure_report_csv_lines(report: dict) -> list:
    lines = ["key,value"]
    lines.append(f"function,{report['function']}")
    lines.append(f"n,{report['n']}")
    for k in MEASURE_KEYS:
        v = report["measures"][k]
        if isinstance(v, dict):
            tag, detail = next(iter(v.items()))
            v = f"{tag}:{detail}"
        lines.append(f"{k},{v}")
    lines.append(f"seed,{report['seed']}")
    for chk in report["checks"]:
        lines.append(f"check:{chk['name']},{'pass' if chk['pass'] else 'FAIL'}")
    return lines


def _rows(report, key, fields):
    rows = report[key]
    if not isinstance(rows, list) or not all(
            isinstance(r, dict) and fields <= r.keys() for r in rows):
        raise ValueError(f"{key}: not a list of {sorted(fields)} objects")
    return rows


def suite_report_csv_lines(report: dict) -> list:
    """One row per (function, inequality) for theorem-suite reports."""
    lines = ["function,inequality,pass"]
    for row in _rows(report, "results", {"function", "inequality", "pass"}):
        lines.append(f"{row['function']},{row['inequality']},"
                     f"{'pass' if row['pass'] else 'FAIL'}")
    return lines


def checks_report_csv_lines(report: dict) -> list:
    lines = ["check,pass,details"]
    for chk in _rows(report, "checks", CHECK_KEYS):
        detail = str(chk["details"]).replace(",", ";")
        lines.append(f"{chk['name']},{'pass' if chk['pass'] else 'FAIL'},"
                     f"{detail}")
    return lines
