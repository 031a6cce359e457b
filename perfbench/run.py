"""ndqc benchmark: three closed-loop workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload ndeg|suite|separations --seed N
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One client runs a workload's job list back to back in a fresh
interpreter (a *pass*).  Job times are put on one reference machine speed
by the sampler in `speed.py`.  With `--trace 0` the run makes set-up probes
and a fixed number of untraced passes, set by `--seconds` and the
workload's nominal pass time, never by how fast the passes run; it reports
end-to-end metrics built from each job's median time over the passes.
With `--trace 1` it makes one untraced and two traced passes; the traced
ones give per-module self time and work counts, and the counts must repeat
exactly between them.

Every pass checks its answers after the timed loop.  Answers must also
agree between passes, CLI report bytes must be identical between passes,
and for the seeds with a file in `perfbench/reference/` answers must equal
the recorded ones.  The last line of standard output is the JSON result;
the full record, with environment and per-job data, is written to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from jobs import WORKLOADS
from tracer import MODULES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")

SETUP_PROBES = 3
# nominal pass time at the reference speed; a run makes
# max(2, round(--seconds / PASS_S)) untraced passes
PASS_S = {"ndeg": 10, "suite": 10, "separations": 17}
# benchmark-side share of a traced pass above which time has escaped the
# wrappers (measured at 0.001-0.009)
BENCH_SHARE_MAX = 0.02
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"

END_TO_END = (("wall_s", "s"), ("job_p50_ms", "ms"), ("job_max_ms", "ms"),
              ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
              ("ok_frac", "ratio"))

# per-layer metrics: (name, unit); `.calls` and `.self_s` come from spans
PER_LAYER = (
    ("linalg.self_s", "s"),
    ("linalg.nullspace.calls", "count"), ("linalg.nullspace.self_s", "s"),
    ("linalg.nullspace.cells", "count"), ("linalg.nullspace.max_bits", "bits"),
    ("linalg.int_rank.calls", "count"), ("linalg.int_rank.self_s", "s"),
    ("linalg.int_rank.cells", "count"),
    ("linalg.rows_to_int.self_s", "s"),
    ("polys.self_s", "s"),
    ("polys.ndeg.calls", "count"), ("polys.ndeg.self_s", "s"),
    ("polys.ndeg_decide.calls", "count"), ("polys.ndeg_decide.self_s", "s"),
    ("polys.symmetric_ndeg.calls", "count"),
    ("polys.symmetric_ndeg.self_s", "s"),
    ("polys.verify_ndet.calls", "count"), ("polys.verify_ndet.self_s", "s"),
    ("polys.witness_yield", "ratio"),
    ("boolfn.self_s", "s"),
    ("boolfn.c_zero.self_s", "s"), ("boolfn.c_one.self_s", "s"),
    ("boolfn.bs_zero.self_s", "s"), ("boolfn.bs_one.self_s", "s"),
    ("boolfn.decision_tree_depth.self_s", "s"),
    ("boolfn.certificate_complexity.calls", "count"),
    ("boolfn.block_sensitivity.calls", "count"),
    ("boolfn.certificate_complexity.self_s", "s"),
    ("boolfn.block_sensitivity.self_s", "s"),
    ("boolfn.minimal_sensitive_blocks.self_s", "s"),
    ("boolfn.restrict.self_s", "s"),
    ("boolfn.cap_hits", "count"),
    ("querysim.self_s", "s"),
    ("querysim.simulate.exact.calls", "count"),
    ("querysim.simulate.exact.self_s", "s"),
    ("querysim.simulate.float.calls", "count"),
    ("querysim.simulate.float.self_s", "s"),
    ("querysim.compile_from_ndet_poly.self_s", "s"),
    ("querysim.symbolic_simulate.self_s", "s"),
    ("querysim.extract_ndet_poly_stats.self_s", "s"),
    ("querysim.extract_yield", "ratio"),
    ("statevec.self_s", "s"),
    ("statevec.apply_scaled_matrix.calls", "count"),
    ("statevec.apply_scaled_matrix.self_s", "s"),
    ("statevec.apply_matrix_float.calls", "count"),
    ("statevec.apply_matrix_float.self_s", "s"),
    ("statevec.subset_index_maps.self_s", "s"),
    ("commsim.self_s", "s"),
    ("commsim.cover_number.calls", "count"),
    ("commsim.cover_number.self_s", "s"),
    ("commsim.run_protocol.calls", "count"),
    ("commsim.run_protocol.self_s", "s"),
    ("commsim.svd_acceptance_sweep.self_s", "s"),
    ("commsim.matrix_from_poly.self_s", "s"),
    ("commsim.fooling_set_check.self_s", "s"),
    ("commsim.NondetMatrix.rank.self_s", "s"),
    ("report.self_s", "s"),
    ("report.build_measure_report.self_s", "s"),
    ("report.dump_report.self_s", "s"),
    ("cli.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


# ---------------------------------------------------------------------------
# child processes


def child_env():
    env = dict(os.environ)
    env.pop("PYTHONOPTIMIZE", None)  # checks in `assert`s are timed work
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(workload, seed, tag, setup_only=False, trace=False):
    os.makedirs(OUT, exist_ok=True)
    out = os.path.join(OUT, f"{workload}-seed{seed}-{tag}.json")
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.exists(out):
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{workload} {tag} exited {proc.returncode}: {tail}")
    with open(out) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# metrics


def per_job_median(passes, key):
    """Per job, the median of `key` over the passes."""
    vals = {}
    for res in passes:
        for job in res["jobs"]:
            vals.setdefault(job["id"], []).append(job[key])
    return {jid: statistics.median(v) for jid, v in vals.items()}


def e2e_metrics(passes):
    ms = per_job_median(passes, "ms")
    cpu = per_job_median(passes, "cpu_ms")
    return {"wall_s": sum(ms.values()) / 1e3,
            "job_p50_ms": statistics.median(ms.values()),
            "job_max_ms": max(ms.values()),
            "cpu_s": sum(cpu.values()) / 1e3,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes)}


def layer_metrics(tr):
    calls, selft, counts = tr["calls"], tr["self_s"], tr["counts"]
    vals = {}
    for mod in MODULES:
        vals[f"{mod}.self_s"] = sum(v for k, v in selft.items()
                                    if k.split(".", 1)[0] == mod)
    for name, _ in PER_LAYER:
        if name in vals:
            continue
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            vals[name] = calls.get(base, 0)
        elif kind == "self_s":
            vals[name] = selft.get(base, 0.0)
        else:
            vals[name] = counts.get(name, 0)
    vals["polys.witness_yield"] = _ratio(counts.get("polys.certificates", 0),
                                         counts.get("polys.resamples", 0))
    vals["querysim.extract_yield"] = _ratio(
        counts.get("querysim.extractions", 0),
        counts.get("querysim.retries", 0))
    vals["bench.self_s"] = tr["bench_self_s"]
    return vals


def _ratio(good, wasted):
    """good / (good + wasted); 0 when nothing was attempted."""
    return good / (good + wasted) if good + wasted else 0.0


# ---------------------------------------------------------------------------
# correctness across passes


def load_reference(workload, seed):
    path = os.path.join(REFERENCE, f"{workload}-seed{seed}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)["answers"]


def judge(passes, reference):
    """Mark job failures found by comparing passes and the reference.

    Returns (attempted, failed, notes)."""
    first = {j["id"]: j for j in passes[0]["jobs"]}
    notes = []
    if reference is not None and set(reference) != set(first):
        notes.append("job list differs from the reference job list")
    attempted = failed = 0
    for k, res in enumerate(passes):
        for job in res["jobs"]:
            fails = list(job["failures"])
            base = first.get(job["id"])
            if base is None:
                fails.append("job missing from the first pass")
            elif k and job["answer"] != base["answer"]:
                fails.append("answer differs between passes")
            elif k and job["sha"] != base["sha"]:
                fails.append("report bytes differ between passes")
            if reference is not None and job["answer"] != reference.get(
                    job["id"]):
                fails.append("answer differs from the reference")
            attempted += 1
            if fails:
                failed += 1
                notes.append(f"pass {k} {job['id']}: {'; '.join(fails)}")
    return attempted, failed, notes


# ---------------------------------------------------------------------------


def environment():
    import numpy
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "blas_threads": int(BLAS_THREADS),
            "machine": platform.machine()}


def run(workload, seed, seconds, trace):
    start = time.monotonic()
    reference = load_reference(workload, seed)
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "environment": environment()}
    metrics = {}
    harness_ok = True
    if not trace:
        setups = [run_child(workload, seed, f"setup{i}", setup_only=True)
                  ["setup_s"] for i in range(SETUP_PROBES)]
        count = max(2, round(seconds / PASS_S[workload]))
        passes = [run_child(workload, seed, f"pass{i}") for i in range(count)]
        setups += [p["setup_s"] for p in passes]
        metrics = e2e_metrics(passes)
        metrics["setup_s"] = statistics.median(setups)
        result["setup_s_samples"] = setups
        result["per_pass"] = [dict(e2e_metrics([p]), raw_wall_s=p["wall_s"],
                                   sampler_s=p["sampler_s"])
                              for p in passes]
        attempted, failed, notes = judge(passes, reference)
        metrics["ok_frac"] = (attempted - failed) / attempted
    else:
        passes = [run_child(workload, seed, "untraced0")]
        passes += [run_child(workload, seed, f"traced{i}", trace=True)
                   for i in range(2)]
        attempted, failed, notes = judge(passes, reference)
        traced = passes[1:]
        t0, t1 = traced[0]["trace"], traced[1]["trace"]
        if (t0["calls"], t0["counts"]) != (t1["calls"], t1["counts"]):
            harness_ok = False
            notes.append("trace counts differ between the two traced passes")
        layers = [layer_metrics(p["trace"]) for p in traced]
        for k, p in enumerate(traced):
            share = p["trace"]["bench_self_s"] / p["wall_s"]
            if share > BENCH_SHARE_MAX:
                harness_ok = False
                notes.append(f"traced pass {k}: {share:.3f} of the wall time "
                             "is outside the wrapped functions")
        for name in layers[0]:
            metrics[name] = min(lm[name] for lm in layers) \
                if name.endswith("_s") else layers[0][name]
        traced_e2e, untraced_e2e = e2e_metrics(traced), e2e_metrics(passes[:1])
        metrics["trace.overhead_frac"] = \
            traced_e2e["wall_s"] / untraced_e2e["wall_s"] - 1
        # shares of the faster traced pass's measured wall time
        k = min(range(2), key=lambda i: traced[i]["wall_s"])
        result["module_share"] = {
            m: layers[k][f"{m}.self_s"] / traced[k]["wall_s"]
            for m in MODULES + ("bench",)}
        result["module_share"]["speed"] = \
            traced[k]["trace"]["speed_self_s"] / traced[k]["wall_s"]
        result["heavy_jobs"] = traced[k]["trace"]["jobs_top"]
        result["untraced"] = untraced_e2e
        result["traced"] = traced_e2e
    result.update({"attempted": attempted, "failed": failed,
                   "reference_checked": reference is not None,
                   "notes": notes, "metrics": metrics,
                   "elapsed_s": time.monotonic() - start})
    return result, harness_ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "ndqc", "__init__.py")):
        print(f"run.py: no ndqc sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result, harness_ok = run(args.workload, args.seed, args.seconds,
                                 bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    units = dict(END_TO_END + PER_LAYER)
    env = result["environment"]
    print(f"# {tag}: python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}, blas threads {env['blas_threads']}, "
          f"git {env['git_sha']}")
    for note in result["notes"][:20]:
        print(f"# FAIL {note}")
    for name, value in result["metrics"].items():
        print(f"{name} {value:.6g} {units[name]}")
    for mod, share in result.get("module_share", {}).items():
        print(f"# share of traced wall: {mod} {share:.3f}")
    for jid, top in result.get("heavy_jobs", {}).items():
        print(f"# {jid}: " + ", ".join(f"{n} {s:.2f}s ({f:.0%})"
                                       for n, s, f in top))
    shown = [n for n, _ in (PER_LAYER if args.trace else END_TO_END)]
    print(json.dumps({
        "correct": harness_ok and result["failed"] == 0,
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {n: {"value": result["metrics"][n], "unit": units[n]}
                    for n in shown}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
