"""urm benchmark driver.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; urm is imported from its `src`, so nothing
needs installing.  The driver starts one worker process for the workload
(worker.py) and waits for it.  The worker starts children of its own one at
a time: the interpreter starts timed for setup_s and, on cli-mix, the `urm`
calls.  So the load is one closed-loop client, never more than one job in
flight.

cli-mix (over 100 `urm` subprocess calls) is spawn-bound: on a shared host
whose process start-up time shifts between regimes for minutes at a time,
its run-to-run spread exceeds the bounds, so BENCHMARK.json leaves it out.
It still runs on request and in the smoke test.

With --trace 0 it reports the end-to-end metrics:

    setup_s      time for a fresh interpreter to start and import urm.cli,
                 timed 30 times spread across the run; every CLI call pays it.
                 Each is followed by a bare start (`python3 -c pass`), which
                 is reported above the result line and in the report file:
                 it tells a shift of the host's start-up level from a change
                 in urm's import.
    wall_s       time of one pass over the workload's jobs, the mean of the
                 run's passes
    job_p50_ms   median job latency over the workload's jobs
    job_p90_ms   90th-percentile job latency; every workload has over 100 jobs
    steps_per_s  machine steps reported by the jobs' checked outputs (run,
                 trace, abstract and CLI steps) per second of wall_s.  It
                 counts machine steps on count-loop and rule-step only.  On
                 cert-check no machine runs: there it counts the entries of
                 accepted certificates' trails, a number fixed by the job
                 set, so it is a rescaled 1/wall_s and moves only with wall_s
    peak_rss_mb  the worker's peak RSS, from getrusage(RUSAGE_CHILDREN)

A run repeats every pass at least 3 times, each in a fresh seeded job
order.  A job's latency is its median over the passes, wall_s is the mean
pass time (the run's total job time over its passes), and setup_s is the
median of its starts.

Times are reported in seconds of a reference host.  On a shared VM the
speed at which Python runs changes by up to 2x, in spells that last from
well under a second to minutes, so a run's medians follow the share of its
time the host spent slow.  The worker therefore also times a fixed
pure-Python calibration job (the benchmark's own reference interpreter,
which shares no code with urm) about a hundred times across the run, and
scales every end-to-end time by CAL_REF_S (worker.py) over the same
statistic of those times: wall_s and steps_per_s by their mean, the
latency percentiles by their median.  Jobs and calibration see the same
mix of spells, so the mix largely cancels, while any change in urm still
moves the scaled times.  setup_s is scaled the same way, by the median
bare interpreter start (`python3 -c pass`, timed after each setup start)
over BARE_REF_S: process start-up slows in other proportions than Python
code does.  peak_rss_mb is not a time and is not scaled.  The unscaled
values, the three scales, every calibration time and start, every pass
time and each job's median are in the report file, and the scales are
printed above the result line.

With --trace 1 it reports the per-layer metrics of worker.layer_metrics.
Names and units are those declared in BENCHMARK.json.  A
time is 0 where the workload never enters that layer, and an exponent is 0
where the workload has no scaling series for it.

Every job's output is checked against a closed form; the error ratio
(failed / attempted) is printed with the environment record above the last
line, which is the JSON result.  Span dumps and the full report go to
.bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

from gen import WORKLOADS

TIME_LIMIT_S = 170

def environment(root: pathlib.Path, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "urm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = root / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "urm_commit": commit,
        "urm_src_sha256": digest.hexdigest(),
    }


def run_worker(cmd: list[str], env: dict, root: pathlib.Path, timeout: float) -> tuple[int, str, str]:
    """Run the worker in its own process group, so a timeout ends its children too."""
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err


def run_child(cmd: list[str], cwd, env: dict | None = None, timeout: float = 60) -> tuple[int, str, str]:
    """Run a child to completion; returns (exit code, stdout, stderr).

    The wait blocks in waitpid, so a timed call ends when the child does.
    Waiting with a timeout instead polls with growing sleeps, which rounds
    a 100 ms call up by tens of milliseconds.  A timer kills a hung child.
    """
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        out, err = proc.communicate()
    finally:
        killer.cancel()
        killer.join()
    return proc.returncode, out, err


def main() -> int:
    ap = argparse.ArgumentParser(description="urm benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true", help="toy sizes, for the smoke test")
    args = ap.parse_args()

    began = time.perf_counter()
    root = pathlib.Path.cwd()
    src = root / "src"
    if not (src / "urm" / "cli.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print(f"bench: no urm sources at {src}; run from the root of a urm checkout", file=sys.stderr)
        return 2
    out_dir = root / ".bench_out"
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    # A fixed hash seed keeps set and dict order, and so the checker's work,
    # the same from run to run; the inputs vary with --seed alone.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))

    cmd = [sys.executable, str(pathlib.Path(__file__).resolve().parent / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work), "--out", str(out_dir)]
    if args.toy:
        cmd.append("--toy")
    try:
        code, out, err = run_worker(cmd, env, root, TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"bench: worker exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if code != 0:
        sys.stderr.write(err)
        print(f"bench: worker exited with {code}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        values = {name: (value, result["traced_passes"]) for name, value in result["layer"].items()}
    else:
        values = dict(result["e2e"], peak_rss_mb=(peak_rss_mb, 1))
    declared = json.loads((root / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        print(f"bench: measured {sorted(values)} but BENCHMARK.json declares {sorted(units)}", file=sys.stderr)
        return 1
    attempted, failed = result["attempted"], result["failed"]
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": environment(root, args.seed),
        "jobs_per_pass": result["jobs_per_pass"],
        "passes": result["passes"],
        "pass_walls": result["pass_walls"],
        "job_median_s": result["job_median_s"],
        "cross_checked_toy_jobs": result["cross_checked"],
        "setup_starts": result["setup_starts"],
        "bare_starts": result["bare_starts"],
        "calibration_s": result["calibration_s"],
        "scales": result["scales"],
        "raw_metrics": result["raw"],
        "error_ratio": failed / attempted,
        "failures": result["failures"],
        "metrics": {name: {"value": values[name][0], "unit": unit, "samples": values[name][1]} for name, unit in units.items()},
        "elapsed_s": time.perf_counter() - began,
    }
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + json.dumps(report["environment"]))
    print(f"# jobs/pass={report['jobs_per_pass']} passes={report['passes']} error_ratio={report['error_ratio']:.4f}")
    for failure in report["failures"]:
        print(f"# FAILED {failure}")
    for name, entry in report["metrics"].items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']} (n={entry['samples']})")
    if not args.trace:
        raw = ", ".join(f"{k}={v:.6g}" for k, v in report["raw_metrics"].items())
        scales = ", ".join(f"{k}={v:.4g}" for k, v in report["scales"].items())
        print(f"# scales: {scales}; unscaled: {raw}")
    if report["bare_starts"]:
        host = statistics.median(report["bare_starts"])
        setup = report["raw_metrics"]["setup_s"]
        print(f"# bare interpreter start = {host:.6g} s (host level); unscaled setup_s minus it = {setup - host:.6g} s")
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
