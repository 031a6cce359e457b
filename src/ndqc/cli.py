"""Command-line workbench: analyze, theorems, separation, export.

Reports are canonical JSON (sorted keys, compact separators), so identical
flags and seed give byte-identical output.  Exit code is 0 iff every
requested check passed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction

from . import boolfn, commsim, polys, querysim, report
from .polys import DEFAULT_SEED

THEOREM_EXHAUSTIVE_CAP = 3
THEOREM_SAMPLE_CAP = 5


def _emit(text: str, out_path, command: str, code: int) -> int:
    """Write text to out_path (stdout if None); returns code, or 2 when the
    file cannot be written."""
    try:
        if out_path:
            with open(out_path, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as e:
        _status(f"{command}: {e}")
        return 2
    return code


def _status(msg: str):
    print(msg, file=sys.stderr)


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    if bool(args.family) == bool(args.table):
        _status("analyze: give exactly one of --family/--table")
        return 2
    try:
        if args.family:
            if args.n is None:
                _status("analyze: --family needs --n")
                return 2
            f = boolfn.make_named(args.family, args.n)
            source = f"family:{args.family}:{args.n}"
        else:
            f = boolfn.parse_table(args.table)
            source = f"table:{args.table}"
    except (ValueError, KeyError) as e:
        _status(f"analyze: {e}")
        return 2
    config = {"mode": args.mode, "source": source}
    rep = report.build_measure_report(f, args.seed, config)
    return _emit(report.report(rep, args.format), args.out, "analyze",
                 0 if report.report_all_pass(rep) else 1)


# ---------------------------------------------------------------------------
# theorems


def _z_bounds(m):
    """Vacuous unless f is symmetric; z counts its zero weights."""
    try:
        z = boolfn.symmetric_profile(m.f).z
    except boolfn.NotSymmetric:
        return True
    return z <= 2 * m["ndeg"] and m["ndeg"] <= z


# each inequality as a predicate over one function's report.Measures
INEQUALITIES = {
    "ndeg<=C1": lambda m: m["ndeg"] <= m["C1"],
    "C0<=bs0*ndeg": lambda m: (m.f.bits == (1 << m.f.size) - 1
                               or m["C0"] <= m["bs0"] * m["ndeg"]),
    "D<=C0*ndeg": lambda m: (m.f.is_constant()
                             or m["D"] <= m["C0"] * m["ndeg"]),
    "D<=bs0*ndeg^2": lambda m: (m.f.is_constant()
                                or m["D"] <= m["bs0"] * m["ndeg"] ** 2),
    "ndeg>=log2(1/Pr[f=1])":
        lambda m: (1 << m["ndeg"]) * m.f.bits.bit_count() >= m.f.size,
    "z/2<=ndeg<=z": _z_bounds,
}


def _theorem_rows(f, seed):
    """(inequality, pass) rows for one function; vacuous rows, and every
    row of f = 0, pass.

    Failing rows carry the full measured values as witness data.
    """
    name = boolfn.format_table(f)
    m = report.Measures(f, seed)
    out = []
    for iq, holds in INEQUALITIES.items():
        row = {"function": name, "inequality": iq,
               "pass": f.bits == 0 or holds(m)}
        if not row["pass"]:
            row["details"] = dict(
                {k: m[k] for k in ("ndeg", "C0", "C1", "bs0", "D")},
                ones=f.bits.bit_count(), witness=polys.format_poly(m.witness))
        out.append(row)
    return out


def cmd_theorems(args) -> int:
    exhaustive = args.exhaustive
    if args.n < 1 or (not exhaustive and args.samples < 1):
        _status("theorems: --n and --samples must be at least 1")
        return 2
    if exhaustive and args.n > THEOREM_EXHAUSTIVE_CAP:
        _status(f"theorems: exhaustive capped at n<={THEOREM_EXHAUSTIVE_CAP}")
        return 2
    if not exhaustive and args.n > THEOREM_SAMPLE_CAP:
        _status(f"theorems: sampling capped at n<={THEOREM_SAMPLE_CAP}")
        return 2
    if exhaustive:
        tables = [boolfn.TruthTable(args.n, bits)
                  for bits in range(1 << (1 << args.n))]
    else:
        rng = random.Random(args.seed)
        tables = [boolfn.random_table(args.n, rng)
                  for _ in range(args.samples)]
    results = [row for f in tables for row in _theorem_rows(f, args.seed)]
    per_ineq = []
    for iq in INEQUALITIES:
        rows = [r for r in results if r["inequality"] == iq]
        passes = sum(1 for r in rows if r["pass"])
        bad = [{"function": r["function"], "details": r.get("details")}
               for r in rows if not r["pass"]]
        per_ineq.append({"name": iq, "passes": passes, "total": len(rows),
                         "counterexamples": bad})
        _status(f"theorems: {iq}: {passes}/{len(rows)}"
                + (f"  COUNTEREXAMPLES {bad}" if bad else ""))
    all_pass = all(r["pass"] for r in results)
    rep = {
        "suite": "theorems",
        "n": args.n,
        "mode_flag": "exhaustive" if exhaustive else "samples",
        "samples": None if exhaustive else args.samples,
        "seed": args.seed,
        "inequalities": per_ineq,
        "results": results,
        "all_pass": all_pass,
    }
    return _emit(report.report(rep, args.format), args.out, "theorems",
                 0 if all_pass else 1)


# ---------------------------------------------------------------------------
# separation experiments


def _check(checks, name, ok, details=""):
    checks.append({"name": name, "pass": bool(ok), "details": str(details)})
    return ok


def _separation_query(args):
    n = args.n
    if not 1 <= n <= polys.NDEG_CAP:
        raise boolfn.CapExceeded(f"n={n} outside 1..{polys.NDEG_CAP}")
    checks = []
    values = {}
    f = boolfn.make_named("NOT_ONE", n)
    p = polys.weight_offset_poly(n, 1)
    _check(checks, "eq1_poly_is_witness", polys.verify_ndet(p, f),
           "weight-minus-one polynomial is nondeterministic for f")
    m = report.Measures(f, args.seed)
    nd = values["ndeg"] = m["ndeg"]
    _check(checks, "ndeg_is_1", nd == 1, f"ndeg={nd}")
    algo = querysim.compile_from_ndet_poly(p, f)
    # NQ(f) is at most the query cost of the algorithm verified below
    values["query_cost"] = values["NQ"] = algo.query_cost
    _check(checks, "compiled_cost_1", algo.query_cost == 1, "")
    # c^2 = 1 / (n^2/4 - 3n/4 + 1), so the expected acceptance
    # c^2 p(x)^2 / 2^n is 4 v^2 / e for p(x) = v / pden
    pvals, pden = p._int_values()
    e = (n * n - 3 * n + 4) * f.size * pden * pden
    if args.mode == "float":
        ok = all(abs(acc - 4 * pvals[x] ** 2 / e) < 1e-9
                 and (acc > 1e-12) == (f.value(x) == 1)
                 for x, acc in enumerate(querysim.float_acceptances(algo)))
    else:
        sym = querysim.symbolic_simulate(algo)
        accs, aden = sym.acceptance_polynomial()._int_values()
        # the accepting amplitude alone misses wrong entries in rows of a
        # dense gate that never reach it; the whole state's norm does not
        ok = all(sym.norm2(x) == 1 for x in (0, 1, f.size - 1))
        ok = ok and all(a * e == 4 * v * v * aden
                        for a, v in zip(accs, pvals)) and all(
            (a > 0) == (f.value(x) == 1) for x, a in enumerate(accs))
    _check(checks, "compiled_acceptance_c2p2", ok,
           "acceptance = c^2 p(x)^2 / 2^n on every input, positive iff f=1")
    nq = values["N"] = m["N"]
    _check(checks, "N_equals_n", nq == n, f"N={nq}")
    if n <= 5:
        ndc = values["ndeg_complement"] = report.Measures(
            f.complement(), args.seed)["ndeg"]
        _check(checks, "ndeg_complement_ge_n_minus_1", ndc >= n - 1,
               f"ndeg(complement)={ndc}")
        if n == 2:
            w = polys.MultilinearPoly.make(2, polys.MONOMIAL, {1: 1, 2: -1})
            _check(checks, "complement_witness_x1_minus_x2",
                   ndc == 1 and polys.verify_ndet(w, f.complement()),
                   "x1 - x2 re-verified")
    else:
        values["ndeg_complement"] = "skipped:n>5"
    return checks, values


def _separation_comm(args):
    n = args.n
    checks = []
    values = {}
    f = commsim.make_pair_function("INTERSECT_NOT_ONE", n)
    M = commsim.matrix_from_poly(polys.weight_offset_poly(n, 1), f)
    r = M.rank()
    values["rank"] = r
    _check(checks, "rank_le_n_plus_1", r <= n + 1, f"rank={r}")
    spec = commsim.svd_protocol(M)
    values["protocol_cost"] = spec.cost
    _check(checks, "cost_le_log_n_plus_1",
           spec.cost <= (n).bit_length() + 1,
           f"cost={spec.cost}, ceil(log2(n+1))+1={(n).bit_length() + 1}")
    # acc = c_x^2 d_y^2 M_xy^2 with c, d > 0 iff acc / M^2 is a positive
    # rank-one matrix on M's support; f(x, 0) = f(0, y) = 1, so row 0 and
    # column 0 of M are nonzero and u_x v_y is read off them (u[0] = 0
    # fails the positivity test, so v never divides by it).  The corners
    # tie the sweep to the simulated protocol, whose rounds are unitary.
    acc = commsim.svd_acceptance_sweep(M)
    u = [acc[x][0] / M.entries[x][0] ** 2 for x in range(f.size)]
    v = [acc[0][y] / M.entries[0][y] ** 2 / (u[0] or 1) for y in range(f.size)]
    rank_one = all(c > 0 for c in u + v) and all(
        a.numerator * ux.denominator * vy.denominator
        == a.denominator * ux.numerator * vy.numerator * m * m
        for row, ux, m_row in zip(acc, u, M.entries)
        for a, vy, m in zip(row, v, m_row))
    simulated = all(commsim.run_protocol(spec, x, y) == acc[x][y]
                    for x in (0, f.size - 1) for y in (0, f.size - 1))
    _check(checks, "protocol_accepts_iff_f1", rank_one and simulated,
           "acceptance = c_x^2 d_y^2 M_xy^2 exactly over all pairs")
    fbar = f.complement()
    S = commsim.intersect_complement_fooling_set(n)
    fool, bound = commsim.fooling_set_check(fbar, S)
    values["fooling_bound"] = bound
    _check(checks, "fooling_set_2_pow_n_minus_1",
           fool and bound == 1 << (n - 1), f"bound={bound}")
    values["nrank_interval"] = [commsim.nrank_lower_bound(f), r]
    return checks, values


def _separation_ne(args):
    n = args.n
    checks = []
    values = {"cost": 2}
    spec = commsim.ne_protocol_spec(n)
    _check(checks, "cost_is_2", spec.cost == 2, "two one-qubit messages")
    # classical side of the gap, reported without asserting a constant:
    # exact 1-cover sizes of nonequality at tiny n
    values["cov1_ne"] = {
        str(k): commsim.cover_number(commsim.make_pair_function("NE", k), 1)
        for k in range(1, 4)}
    values["ncc_ne"] = {k: commsim.ncc_from_cover(v)
                        for k, v in values["cov1_ne"].items()}
    # z_k = (3+4i)^k gives z_x conj(z_y) = 25^y z_(x-y), so acceptance
    # depends only on x - y: acc[d] decides every pair at distance d
    size = 1 << n
    acc = [commsim.ne_protocol(n, d, 0) for d in range(size)]
    _check(checks, "zero_iff_equal_exhaustive",
           all((a == 0) == (d == 0) for d, a in enumerate(acc)),
           f"all {size * size} pairs, through the {size} differences x - y")
    # s_d = 5^d sin(d theta) for cos theta = 3/5, by the Chebyshev
    # recurrence s_(d+1) = 6 s_d - 25 s_(d-1), apart from the protocol's z_k
    s, s_next = 0, 4
    sin2 = []
    for d in range(size):
        sin2.append(Fraction(s * s, 25 ** d))
        s, s_next = s_next, 6 * s_next - 25 * s
    spot = sorted({(x, y) for x in range(min(size, 8))
                   for y in range(min(size, 8))}
                  | {(0, size - 1), (size - 1, 0), (size - 1, size - 1),
                     (size // 2, size // 3)})
    spot_acc = [commsim.ne_protocol(n, x, y) for x, y in spot]
    _check(checks, "matches_sin2_formula",
           acc == sin2 and all(a == acc[abs(x - y)]
                               for (x, y), a in zip(spot, spot_acc)),
           f"sin^2((x - y) theta), cos theta = 3/5, exactly on all {size} "
           f"differences and {len(spot)} pairs")
    ok = all(commsim.run_protocol(spec, x, y) == a
             for (x, y), a in zip(spot, spot_acc))
    _check(checks, "protocol_spec_agrees", ok,
           f"{len(spot)} pairs through the exact simulator")
    return checks, values


def cmd_separation(args) -> int:
    runner = {"query": _separation_query, "comm": _separation_comm,
              "ne": _separation_ne}[args.which]
    try:
        checks, values = runner(args)
    except (ValueError, boolfn.CapExceeded) as e:
        _status(f"separation {args.which}: {e}")
        return 2
    all_pass = all(c["pass"] for c in checks)
    for c in checks:
        _status(f"separation {args.which}: {c['name']}: "
                f"{'pass' if c['pass'] else 'FAIL'}")
    rep = {
        "experiment": args.which,
        "n": args.n,
        "seed": args.seed,
        "mode": args.mode,
        "values": values,
        "checks": checks,
        "all_pass": all_pass,
    }
    return _emit(report.report(rep, args.format), args.out,
                 f"separation {args.which}", 0 if all_pass else 1)


# ---------------------------------------------------------------------------
# export


def cmd_export(args) -> int:
    try:
        with open(args.report) as fh:
            text = fh.read()
        data = json.loads(text)
        if isinstance(data, dict) and set(data) == report.REPORT_KEYS:
            report.load_measure_report(text)
        text = report.report(data, args.format)
    except (OSError, ValueError) as e:
        _status(f"export: {e}")
        return 2
    return _emit(text, args.out, "export", 0)


# ---------------------------------------------------------------------------


def _add_global_flags(p, root: bool):
    # the same flags parse before or after the subcommand; SUPPRESS keeps
    # the root defaults unless the subcommand position overrides them
    dflt = (lambda v: v) if root else (lambda v: argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=dflt(DEFAULT_SEED),
                   help=f"random stream seed (default {DEFAULT_SEED})")
    p.add_argument("--mode", choices=("exact", "float"),
                   default=dflt("exact"))
    p.add_argument("--out", default=dflt(None), help="write the report here")
    p.add_argument("--format", choices=("json", "csv"),
                   default=dflt("json"))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ndqc",
        description="Exact workbench for nondeterministic quantum query and "
                    "communication complexity of Boolean functions")
    _add_global_flags(ap, root=True)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="all measures of one function")
    _add_global_flags(p, root=False)
    p.add_argument("--family", choices=boolfn.FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--table", help="n=<k>;hex=<...> truth table")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("theorems", help="inequality suite over functions")
    _add_global_flags(p, root=False)
    p.add_argument("--n", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--exhaustive", action="store_true")
    g.add_argument("--samples", type=int)
    p.set_defaults(fn=cmd_theorems)

    p = sub.add_parser("separation", help="quantum-classical gap experiments")
    _add_global_flags(p, root=False)
    p.add_argument("which", choices=("query", "comm", "ne"))
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_separation)

    p = sub.add_parser("export", help="re-emit a report as json or csv")
    _add_global_flags(p, root=False)
    p.add_argument("report", help="path to a report JSON file")
    p.set_defaults(fn=cmd_export)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _status(f"ndqc: seed={args.seed} mode={args.mode}")
    command = f"{args.command} {getattr(args, 'which', '')}".rstrip()
    if args.mode == "float" and command != "separation query":
        _status(f"{command}: --mode float runs only for separation query")
        return 2
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
