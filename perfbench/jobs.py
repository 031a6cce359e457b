"""Job lists of the three workloads, job execution, and the answer checks.

A job is one library call or one CLI command; a round trip
(ndeg -> compile -> extract) counts as one job.  The inputs of every job are
made here from the workload seed: truth tables are built as
`TruthTable(n, bits)` from the benchmark's own random stream, and the
program receives only those tables and the seed value.

The checks run after the timed job loop.  They re-evaluate witnesses with
the exact evaluator below, which shares no code with ndqc, and reduce each
output to an *answer* (degrees, measures, check flags, separation values)
that is compared across passes and with recorded reference answers.
Check names are not part of an answer, so a declared change of report
format does not read as a wrong answer; every check must still pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction
from math import lcm

WORKLOADS = ("ndeg", "suite", "separations")

# share of 1-inputs of the random ndeg tables, in eighths
DENSITIES = (1, 4, 7)
# tables per (n, density) in the ndeg workload; the counts put the median
# job inside the n = 8 half-ones group, the largest group of like jobs
NDEG_TABLES = {7: (1, 1, 1), 8: (1, 5, 1), 9: (1, 4, 1)}
SUITE_MEASURE_TABLES = 4       # random n = 9 tables, four measures each
SUITE_DEPTH_TABLES = 20        # random n = 5 tables for decision_tree_depth
SUITE_SYM_N = 8
# one random table each at n = 5 and 6 keeps the median job of
# `separations` on the float query run, not on a sub-second round trip
ROUND_TRIP_RANDOM = (5, 6)


# ---------------------------------------------------------------------------
# inputs


def _exact_ones_bits(rng, n, eighths):
    size = 1 << n
    return sum(1 << x for x in rng.sample(range(size), size * eighths // 8))


def _nonzero_bits(rng, n):
    bits = 0
    while not bits:
        bits = rng.getrandbits(1 << n)
    return bits


def family_bits(family, n):
    """Truth table of a named family, built without ndqc."""
    pred = {"OR": lambda x: x != 0,
            "AND": lambda x: x == (1 << n) - 1,
            "PARITY": lambda x: x.bit_count() % 2 == 1,
            "NOT_ONE": lambda x: x.bit_count() != 1}[family]
    return sum(1 << x for x in range(1 << n) if pred(x))


def make_jobs(workload, seed, TruthTable, SymmetricProfile):
    """[(job_id, kind, payload)] for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    if workload == "ndeg":
        for n, counts in NDEG_TABLES.items():
            for eighths, count in zip(DENSITIES, counts):
                for i in range(count):
                    bits = _exact_ones_bits(rng, n, eighths)
                    jobs.append((f"ndeg:n{n}:ones{eighths}/8:{i}", "ndeg",
                                 TruthTable(n, bits)))
    elif workload == "suite":
        for i in range(SUITE_DEPTH_TABLES):
            jobs.append((f"depth:n5:{i}", "measure",
                         ("decision_tree_depth",
                          TruthTable(5, rng.getrandbits(32)))))
        jobs.append(("cli:theorems-n3-exhaustive", "cli",
                     ["theorems", "--n", "3", "--exhaustive"]))
        jobs.append(("cli:theorems-n5-samples200", "cli",
                     ["theorems", "--n", "5", "--samples", "200"]))
        for i in range(SUITE_MEASURE_TABLES):
            f = TruthTable(9, rng.getrandbits(512))
            for fn in ("c_zero", "c_one", "bs_zero", "bs_one"):
                jobs.append((f"measure:n9:{i}:{fn}", "measure", (fn, f)))
        for family, n in (("OR", 10), ("AND", 10), ("NOT_ONE", 10),
                          ("PARITY", 8)):
            jobs.append((f"cli:analyze-{family}-n{n}", "cli",
                         ["analyze", "--family", family, "--n", str(n)]))
        n = SUITE_SYM_N
        profiles = list(range(1, 1 << (n + 1)))
        rng.shuffle(profiles)
        for v in profiles:
            values = tuple((v >> w) & 1 for w in range(n + 1))
            jobs.append((f"sym:n{n}:{v}", "sym", SymmetricProfile(n, values)))
    elif workload == "separations":
        for argv in (["separation", "query", "--n", "10"],
                     ["separation", "query", "--n", "8", "--mode", "float"],
                     ["separation", "comm", "--n", "7"],
                     ["separation", "ne", "--n", "8"]):
            jobs.append(("cli:" + "-".join(a.lstrip("-") for a in argv),
                         "cli", argv))
        jobs.append(("roundtrip:NOT_ONE:n9", "roundtrip",
                     TruthTable(9, family_bits("NOT_ONE", 9))))
        for i, n in enumerate(ROUND_TRIP_RANDOM):
            jobs.append((f"roundtrip:random:n{n}:{i}", "roundtrip",
                         TruthTable(n, _nonzero_bits(rng, n))))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs


# ---------------------------------------------------------------------------
# execution (timed)


def run_job(kind, payload, seed, nd):
    """Run one job against the ndqc namespace `nd`; returns its raw output.

    Library calls go through module attributes, so a traced pass reaches
    the installed wrappers.
    """
    if kind == "ndeg":
        return nd.polys.ndeg(payload, seed)
    if kind == "measure":
        fn, f = payload
        return getattr(nd.boolfn, fn)(f)
    if kind == "sym":
        return nd.polys.symmetric_ndeg(payload)
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = nd.cli.main(payload + ["--seed", str(seed)])
        return rc, out.getvalue()
    if kind == "roundtrip":
        d, cert = nd.polys.ndeg(payload, seed)
        algo = nd.querysim.compile_from_ndet_poly(cert.witness, payload)
        p, retries = nd.querysim.extract_ndet_poly_stats(algo, payload, seed)
        return d, cert.witness, algo.query_cost, p
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# exact evaluation shared with nothing in ndqc


def poly_values(n, basis, coeffs):
    """Values of a multilinear polynomial at all 2^n points, scaled to
    integers by the common denominator (nonzero pattern and signs kept)."""
    den = lcm(*(Fraction(c).denominator for c in coeffs.values())) \
        if coeffs else 1
    arr = [0] * (1 << n)
    for m, c in coeffs.items():
        arr[m] = int(Fraction(c) * den)
    for i in range(n):
        h = 1 << i
        for x in range(1 << n):
            if x & h:
                a, b = arr[x ^ h], arr[x]
                if basis == "MONOMIAL":     # p(x) = sum over S subset of x
                    arr[x] = a + b
                else:                       # p(x) = sum c_S (-1)^|S & x|
                    arr[x ^ h], arr[x] = a + b, a - b
    return arr


def poly_degree(coeffs):
    return max((m.bit_count() for m, c in coeffs.items() if c), default=-1)


def parse_poly_text(text, n):
    """(basis, {mask: Fraction}) from 'basis=B; terms=c*x{1,2} + ...'."""
    head, body = text.split("; ", 1)
    basis = head.removeprefix("basis=")
    body = body.removeprefix("terms=")
    coeffs = {}
    if body != "0":
        for term in body.split(" + "):
            coef, mono = term.rsplit("*x{", 1)
            mask = 0
            for tok in filter(None, mono.rstrip("}").split(",")):
                mask |= 1 << (int(tok) - 1)
                if not 1 <= int(tok) <= n:
                    raise ValueError(f"variable {tok} out of range")
            coeffs[mask] = coeffs.get(mask, 0) + Fraction(coef)
    return basis, coeffs


def witness_failures(n, bits, basis, coeffs, degree, label):
    """Failures of 'nonzero exactly on f^-1(1), with this degree'."""
    vals = poly_values(n, basis, coeffs)
    bad = [x for x in range(1 << n) if bool(vals[x]) != bool((bits >> x) & 1)]
    out = []
    if bad:
        out.append(f"{label}: nonzero pattern wrong at {len(bad)} inputs")
    if degree is not None and poly_degree(coeffs) != degree:
        out.append(f"{label}: degree {poly_degree(coeffs)} != {degree}")
    return out


# ---------------------------------------------------------------------------
# answers and checks (after the timed loop)


def _canon(obj):
    return json.loads(json.dumps(obj, sort_keys=True))


def check_job(kind, payload, output):
    """(answer, failures, report_sha) for one finished job."""
    if kind == "ndeg":
        d, cert = output
        f = payload
        w = cert.witness
        fails = [] if 0 <= d <= f.n else [f"ndeg {d} out of range"]
        fails += witness_failures(f.n, f.bits, w.basis, w.coeffs, d, "witness")
        return d, fails, None
    if kind == "measure":
        fn, f = payload
        ok = isinstance(output, int) and 0 <= output <= f.n
        return output, [] if ok else [f"{fn} = {output!r} out of range"], None
    if kind == "sym":
        z = payload.values.count(0)
        ok = 2 * output >= z and output <= z
        fails = [] if ok else [f"ndeg {output} outside [z/2, z], z={z}"]
        return output, fails, None
    if kind == "roundtrip":
        d, w, cost, p = output
        f = payload
        fails = witness_failures(f.n, f.bits, w.basis, w.coeffs, d, "witness")
        fails += witness_failures(f.n, f.bits, p.basis, p.coeffs, None,
                                  "extracted")
        if cost != d:
            fails.append(f"query cost {cost} != ndeg {d}")
        if poly_degree(p.coeffs) > cost:
            fails.append("extracted degree above the query cost")
        return [d, cost], fails, None
    if kind == "cli":
        return _check_cli(payload, *output)
    raise ValueError(f"unknown job kind {kind!r}")


def _check_cli(argv, rc, text):
    sha = hashlib.sha256(text.encode()).hexdigest()
    fails = [] if rc == 0 else [f"exit code {rc}"]
    rep = json.loads(text)
    cmd = argv[0]
    if cmd == "theorems":
        ineq = [[q["name"], q["passes"], q["total"]]
                for q in rep["inequalities"]]
        fails += [f"{q[0]}: {q[1]}/{q[2]}" for q in ineq if q[1] != q[2]]
        if not rep["all_pass"] or len(ineq) != 6:
            fails.append("suite did not pass")
        return _canon({"rc": rc, "all_pass": rep["all_pass"],
                       "inequalities": ineq}), fails, sha
    checks = [[c["name"], c["pass"]] for c in rep["checks"]]
    fails += [f"check {c[0]} false" for c in checks if not c[1]]
    if cmd == "analyze":
        family, n = argv[argv.index("--family") + 1], int(argv[-1])
        nd = rep["measures"]["ndeg"]
        basis, coeffs = parse_poly_text(rep["witness"], n)
        fails += witness_failures(n, family_bits(family, n), basis, coeffs,
                                  nd, "witness")
        return _canon({"rc": rc, "measures": rep["measures"],
                       "checks_pass": all(c[1] for c in checks)}), fails, sha
    if not rep["all_pass"]:
        fails.append("all_pass false")
    return _canon({"rc": rc, "values": rep["values"],
                   "all_pass": rep["all_pass"]}), fails, sha


def cross_job_failures(answers):
    """bs_b(f) <= C_b(f) for every table with all four measures."""
    out = {}
    for jid, ans in answers.items():
        head, _, fn = jid.rpartition(":")
        if jid.startswith("measure:") and fn in ("bs_zero", "bs_one"):
            c = answers.get(f"{head}:c_{fn[3:]}")
            if isinstance(ans, int) and isinstance(c, int) and ans > c:
                out[jid] = [f"{fn} {ans} > {c}"]
    return out
