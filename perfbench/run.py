"""microdiff benchmark: seeded closed-loop workloads checked against oracles.

Run from the repository root:

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1          # every workload, one table

One process runs one workload as a single closed-loop client: the next job
starts when the previous one returns.  The fixed job list is run in passes
until ``--seconds`` of wall time have passed (at least three passes); every
answer of every pass is checked against :mod:`oracle`.  With ``--trace 0`` the
end-to-end metrics are reported; with ``--trace 1`` one untraced and one
traced pass give the per-layer metrics.  The last line of standard output is
one JSON object.

Jobs and set-up are timed in CPU time of the benchmark's thread and process,
rescaled to reference-machine seconds by a calibration kernel run in the same
process (see ``speed_scale`` and "Time base" in README.md).
"""

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import microdiff  # noqa: E402

if Path(microdiff.__file__).resolve().parent != ROOT / "src" / "microdiff":
    sys.exit(f"microdiff was imported from {microdiff.__file__}, not from {ROOT / 'src'}")

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5
MIN_PASSES = 3
# CPU seconds of one oracle.calibration_kernel() on the reference machine
# (2-vCPU x86-64 virtual machine, Python 3.11); see "Time base" in README.md
CALIBRATION_REF_S = 0.006
CALIBRATE_EVERY_S = 0.2
TRACE_DIR = ROOT / ".perfbench-out"


def calibrate() -> float:
    t0 = time.thread_time()
    oracle.calibration_kernel()
    return time.thread_time() - t0


def speed_scale(samples: list[float]) -> float:
    """Factor taking CPU seconds measured now to reference-machine seconds."""
    return CALIBRATION_REF_S / statistics.median(samples)


def run_pass(wl) -> tuple[list, list, float]:
    """One pass over the job list: outcomes, per-job latencies in reference
    seconds (calibrated every CALIBRATE_EVERY_S of job time) and the pass's
    CPU seconds in jobs."""
    wl.reset()
    gc.collect()
    outcomes, lat = [], []
    clock = time.thread_time
    samples = [calibrate()]
    busy, next_cal = 0.0, CALIBRATE_EVERY_S
    for job in wl.jobs:
        a = clock()
        try:
            out = job.call()
        except Exception as exc:  # the oracle decides whether it was expected
            out = exc
        dt = clock() - a
        lat.append(dt)
        outcomes.append(out)
        busy += dt
        if busy >= next_cal:
            samples.append(calibrate())
            next_cal += CALIBRATE_EVERY_S
    samples.append(calibrate())
    scale = speed_scale(samples)
    return outcomes, [t * scale for t in lat], busy


def classify(wl, outcomes, tally: Counter, failures: Counter, seen: dict):
    """Check every outcome; one equal to the job's last checked outcome keeps
    that outcome's status (``seen`` maps job index to both)."""
    for i, (job, out) in enumerate(zip(wl.jobs, outcomes)):
        key = (type(out), out.args) if isinstance(out, BaseException) else (type(out), out)
        last = seen.get(i)
        if last is not None and last[0] == key:
            status = last[1]
        else:
            try:
                status = job.check(out)
            except Exception:  # an unreadable answer is a wrong answer
                status = workloads.FAILED
            seen[i] = (key, status)
        tally[status] += 1
        if status == workloads.FAILED:
            failures[job.id] += 1


def quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def setup_time(setup_cpu: float) -> float:
    """Set-up CPU time of this process in reference seconds."""
    return setup_cpu * speed_scale([calibrate() for _ in range(15)])


def measure_setup(args) -> float:
    """Median set-up time, process start to first job, over fresh processes
    (this one counts as one)."""
    samples = [args.setup_here]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run([sys.executable, str(Path(__file__)), "--setup-only",
                              "--workload", args.workload, "--seed", str(args.seed)],
                             capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def result_line(tally: Counter, failures: Counter, metrics: dict) -> str:
    attempted = sum(tally.values())
    correct = all(job_id in workloads.KNOWN_DEFECTS for job_id in failures)
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": tally[workloads.FAILED], "metrics": metrics})


def report_outcomes(tally: Counter, failures: Counter):
    attempted = sum(tally.values())
    print(f"jobs attempted {attempted}: answered {tally[workloads.ANSWERED]}, "
          f"refused {tally[workloads.REFUSED]}, failed {tally[workloads.FAILED]}")
    for job_id, n in sorted(failures.items()):
        known = " (known false proof)" if job_id in workloads.KNOWN_DEFECTS else ""
        print(f"  FAILED {job_id} x{n}{known}")


def untraced(args, wl):
    tally, failures, seen = Counter(), Counter(), {}
    per_pass = []
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or len(per_pass) < MIN_PASSES:
        outcomes, lat, _ = run_pass(wl)
        per_pass.append(lat)
        classify(wl, outcomes, tally, failures, seen)
    setup_s = measure_setup(args)
    # a job's latency is its median over the passes, which keeps a burst of
    # load from elsewhere on the machine out of the figures
    job_lat = [statistics.median(ts) for ts in zip(*per_pass)]
    attempted = sum(tally.values())
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup_s, "s"),
        "jobs_per_s": (len(job_lat) / sum(job_lat), "1/s"),
        "latency_p50_ms": (statistics.median(job_lat) * 1e3, "ms"),
        "latency_p90_ms": (quantile(job_lat, 0.9) * 1e3, "ms"),
        "answered_frac": (tally[workloads.ANSWERED] / attempted, "ratio"),
        "failed_frac": (tally[workloads.FAILED] / attempted, "ratio"),
        "max_rss_mb": (rss_mb, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(per_pass)} passes of "
          f"{len(job_lat)} jobs; latency percentiles over {len(job_lat)} per-job medians; "
          f"set-up median of {SETUP_SAMPLES} processes")
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:14.6g} {unit}")
    report_outcomes(tally, failures)
    # failed_frac is printed above and carried by "failed"/"attempted": it is
    # 0 on a correct run, so it has no relative bound to be held to
    del metrics["failed_frac"]
    print(result_line(tally, failures, {k: {"value": v, "unit": u}
                                        for k, (v, u) in metrics.items()}))


def fraction_baseline(wl) -> float:
    """Median busy seconds of the plain-Fraction chains (products only)."""
    if not wl.chains:
        return 0.0
    times = []
    for _ in range(3):
        t0 = time.thread_time()
        for p, units in wl.chains:
            oracle.chain_prefixes(units, p)
        times.append(time.thread_time() - t0)
    return statistics.median(times)


def traced(args, wl):
    tally, failures, seen = Counter(), Counter(), {}
    outcomes, _, busy_plain = run_pass(wl)
    classify(wl, outcomes, tally, failures, seen)
    tracer = tracing.Tracer(workloads.REFUSALS)
    wl.reset()
    gc.collect()
    tracer.install()
    try:
        outcomes = []
        t0 = time.thread_time()
        for i, job in enumerate(wl.jobs):
            tracer.job = i
            try:
                outcomes.append(job.call())
            except Exception as exc:
                outcomes.append(exc)
        busy_traced = time.thread_time() - t0
    finally:
        tracer.uninstall()
    classify(wl, outcomes, tally, failures, seen)
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = busy_traced / busy_plain
    metrics["ref.fraction_products.busy_s"] = fraction_baseline(wl)
    tracer.write(TRACE_DIR / f"spans-{args.workload}.bin")

    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    share = Counter()
    for layer in tracing.LAYERS:
        group = "diffop.query" if layer == "diffop.query" else layer.split(".")[0]
        share[group] += metrics[f"{layer}.self_s"] / total if total else 0.0
    print(f"workload {args.workload} seed {args.seed}: traced pass of {len(wl.jobs)} jobs, "
          f"{metrics['trace.spans']} spans, {total:.3f} s traced self time")
    print("self-time split: " + ", ".join(f"{g} {s:.1%}" for g, s in share.most_common() if s))
    report_outcomes(tally, failures)
    units = {"calls": "count", "self_s": "s", "busy_s": "s", "overhead_ratio": "ratio",
             "dropped_ratio": "ratio"}
    out = {name: {"value": metrics[name], "unit": units.get(name.rsplit(".", 1)[1], "count")}
           for name in tracing.metric_names()}
    print(result_line(tally, failures, out))


def run_all(args):
    """Each workload in a fresh process; a summary table at the end."""
    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            sys.exit(f"workload {name} exited with {proc.returncode}")
        rows.append((name, json.loads(lines[-1])))
    print("\nsummary (seed %d)" % args.seed)
    for name, res in rows:
        cells = [f"{k}={m['value']:.5g} {m['unit']}" for k, m in res["metrics"].items()
                 if not k.endswith(".self_s") and not k.endswith(".calls")]
        failed_frac = res["failed"] / res["attempted"]
        print(f"  {name:9s} correct={res['correct']} failed {res['failed']}/{res['attempted']} "
              f"failed_frac={failed_frac:.3g} ratio  " + "  ".join(cells))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print the set-up seconds and exit")
    args = ap.parse_args()
    if args.all:
        return run_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    # the job list is the harness's own data: build it without collections
    # and freeze it, so collections in the timed passes scan only what the
    # library allocates
    gc.disable()
    wl = workloads.BUILDERS[args.workload](args.seed)
    gc.enable()
    gc.freeze()
    args.setup_here = setup_time(time.process_time())
    if args.setup_only:
        print(f"{args.setup_here!r}")
    elif args.trace:
        traced(args, wl)
    else:
        untraced(args, wl)


if __name__ == "__main__":
    main()
