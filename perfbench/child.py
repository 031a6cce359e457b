"""One pass (or one set-up probe) in a fresh interpreter.

    python3 perfbench/child.py --workload W --seed S --t0 T --out PATH
        [--setup-only] [--trace]

`--t0` is the parent's CLOCK_MONOTONIC reading taken just before it started
this interpreter, so set-up time covers interpreter start, `import ndqc`
and input generation.  The pass runs the job list back to back under the
speed sampler (`speed.py`), then checks the answers outside the timed
region and writes one JSON result.  Job and set-up times are given both as
measured (`raw_ms`) and at the sampler's reference speed (`ms`).  With
`--trace` the spans go next to PATH, as `.spans.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import speed
    sampler = speed.Sampler()
    sampler.start()
    child_t0 = speed.clock()
    import ndqc
    import ndqc.cli  # run_job reaches the CLI as ndqc.cli
    from ndqc import boolfn
    src = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(ndqc.__file__).startswith(src + os.sep):
        raise SystemExit(f"ndqc imported from {ndqc.__file__}, not {src}")
    import jobs as J

    job_list = J.make_jobs(args.workload, args.seed, boolfn.TruthTable,
                           boolfn.SymmetricProfile)
    tracer = None
    if args.trace:
        import tracer as T
        tracer = T.Tracer()
        tracer.install()
    setup_end = speed.clock()
    setup_raw = time.monotonic() - args.t0 - sampler.spent(child_t0,
                                                            setup_end)
    if args.setup_only:
        time.sleep(speed.WINDOW_S)  # samples after set-up, for its factor
        sampler.stop()
        _write(args.out, _setup(sampler, setup_raw, child_t0, setup_end))
        return 0

    outputs = []
    spans = []                  # (start, end, cpu seconds) per job
    sampler.tracer = tracer
    t_start = speed.clock()
    for jid, kind, payload in job_list:
        t = speed.clock()
        c = time.process_time()
        span = tracer.open("bench.job") if tracer else None
        try:
            out = J.run_job(kind, payload, args.seed, ndqc)
            err = None
        except (Exception, SystemExit):
            out, err = None, traceback.format_exc(limit=3)
        if tracer:
            tracer.close(span)
        spans.append((t, speed.clock(), time.process_time() - c))
        outputs.append((out, err))
    wall_s = speed.clock() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        sampler.tracer = None
        tracer.uninstall()
    time.sleep(speed.WINDOW_S)  # samples after the last job, for its factor
    sampler.stop()

    records = []
    answers = {}
    for (jid, kind, payload), (out, err), (t0, t1, cpu) in zip(
            job_list, outputs, spans):
        spent = sampler.spent(t0, t1)
        factor = sampler.factor(t0, t1)
        rec = {"id": jid, "raw_ms": (t1 - t0 - spent) * 1e3,
               "ms": (t1 - t0 - spent) * factor * 1e3,
               "cpu_ms": (cpu - spent) * factor * 1e3, "factor": factor,
               "answer": None, "failures": [], "sha": None}
        if err is not None:
            rec["failures"].append(f"raised: {err.strip().splitlines()[-1]}")
        else:
            try:
                rec["answer"], rec["failures"], rec["sha"] = \
                    J.check_job(kind, payload, out)
            except Exception:
                rec["failures"].append(
                    "check raised: " + traceback.format_exc(limit=2))
            answers[jid] = rec["answer"]
        records.append(rec)
    cross = J.cross_job_failures(answers)
    for rec in records:
        rec["failures"] += cross.get(rec["id"], [])

    result = _setup(sampler, setup_raw, child_t0, setup_end)
    sampler_s = sampler.spent(t_start, t_start + wall_s)
    result.update({"wall_s": wall_s, "sampler_s": sampler_s,
                   "peak_rss_mb": peak_rss_mb, "jobs": records})
    if tracer:
        result["trace"] = _trace_summary(tracer, job_list, wall_s,
                                         [r["raw_ms"] for r in records])
        T.write_spans(tracer.spans,
                      args.out.removesuffix(".json") + ".spans.jsonl")
    _write(args.out, result)
    return 0


def _setup(sampler, raw_s, t0, t1):
    return {"setup_raw_s": raw_s, "setup_s": raw_s * sampler.factor(t0, t1)}


def _trace_summary(tracer, job_list, wall_s, job_ms):
    import tracer as T
    spans = tracer.spans
    calls, selft = T.self_times(spans)
    calls.pop("speed.sample", None)
    speed_s = selft.pop("speed.sample", 0.0)
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    gaps = wall_s - sum(spans[i][2] - spans[i][1] for i in roots)
    # benchmark-side time: job loop, span bookkeeping for jobs, counting;
    # the speed sampler's time is kept apart
    bench_s = gaps + sum(v for k, v in selft.items()
                         if T.module_of(k) in ("bench", "trace"))
    breakdown = T.job_breakdown(spans)
    job_roots = [i for i in roots if spans[i][0] == "bench.job"]
    jobs_top = {job_list[k][0]: breakdown[i] for k, i in enumerate(job_roots)
                if job_ms[k] >= 500}
    return {"calls": calls, "self_s": selft, "counts": dict(tracer.counts),
            "bench_self_s": bench_s,
            "speed_self_s": speed_s,
            "spans": len(spans), "jobs_top": jobs_top}


def _write(path, obj):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(obj, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
