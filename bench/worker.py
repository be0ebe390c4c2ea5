"""Run one workload in a fresh process and print its measurements as JSON.

Started by run.py with PYTHONPATH pointing at the checkout's `src`.  Order:
import urm (timed, since this interpreter is fresh), generate the jobs,
confirm the closed forms against the reference interpreter at toy size, warm
up on inputs of a different seed, then time whole passes over the job set
until the time budget is spent.  With --trace 1, untraced and traced passes
alternate; the traced ones give the per-layer metrics and the difference
between the two gives the tracing overhead.

Before every pass the `_closure` memo of `constraints` is cleared, so the
only cache hits counted are those among the pass's own jobs, as in one user
session; warm-up inputs come from another seed for the same reason.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import urm.cli  # noqa: E402  (first import of urm in this process, timed)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402

from urm import certificates, cli, constraints, evaluator, machine, textio  # noqa: E402

import gen  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from run import run_child  # noqa: E402

SHIM = str(pathlib.Path(__file__).resolve().parent / "cli_shim.py")
# What the installed `urm` console script runs.
CLI_MAIN = "import sys; from urm.cli import main; sys.exit(main())"
CLOSURE = getattr(constraints, "_closure", None)
# Untraced passes per run, at least; a job's latency is its median over them
# and wall_s the mean pass.
MIN_PASSES = 3
# Interpreter starts timed for setup_s, spread over the run.
SETUP_STARTS = 30
# The calibration job (see `calibrate`) and its time on the reference host,
# Python 3.11.7 on a 2-vCPU x86-64 VM when that VM ran at full speed.
# End-to-end times are reported in seconds of that host: each is scaled by
# CAL_REF_S over the same statistic of the run's calibration times, so that
# the shared host's changes of speed, which last from under a second to
# minutes, cancel out.
CAL_PROGRAM = reference.parse(gen.minus_k(3, {1: 1, 2: 2, 3: 3}))
CAL_INIT = {1: 1500}
CAL_REF_S = 0.002
# setup_s is scaled the same way by the median bare interpreter start
# (`python3 -c pass`), whose speed follows the host's process start-up.
BARE_REF_S = 0.040


def _config(init):
    if isinstance(init, dict):
        return machine.Config(init)
    return machine.include(textio.parse_config(init))


def _outcome(out, program):
    if isinstance(out, evaluator.Halted):
        final = out.final
        if not isinstance(final, machine.FiniteConfig):
            # what `urm run` prints: the registers 1..rho(p)
            final = machine.restrict(final, program)
        return ("halted", out.steps, final.values)
    return ("fuel", out.steps, out.last.pc, dict(out.last.config.items()))


def do_run(a, _):
    program = textio.parse_program(a["program"])
    return _outcome(evaluator.run(program, _config(a["init"]), a["fuel"]), program)


def do_run_finite(a, _):
    program = textio.parse_program(a["program"])
    return _outcome(evaluator.run_finite(program, textio.parse_config(a["init"]), a["fuel"]), program)


def do_trace(a, _):
    count, last = 0, None
    for last in evaluator.trace(textio.parse_program(a["program"]), _config(a["init"])):
        count += 1
    return ("trace", count, last.pc, dict(last.config.items()))


def do_abstract(a, _):
    verdict = evaluator.decide_abstract(textio.parse_program(a["program"]), _config(a["init"]))
    if isinstance(verdict, evaluator.Converges):
        return ("converges", verdict.steps)
    return ("diverges", verdict.cycle_entry_pc, verdict.cycle_length)


def do_show_steps(a, where):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["run", str(where / "p.urm"), "--init", a["init"], "--fuel", str(a["fuel"]), "--show-steps"])
    return (code, buf.getvalue())


def do_cert(a, _):
    cert = textio.parse_cert(a["cert"])
    program = textio.parse_program(a["program"])
    if isinstance(cert, certificates.TerminationCert):
        report = certificates.check_termination(program, cert)
    else:
        report = certificates.check_divergence(program, cert)
    reason = report.reason
    if reason is None:
        return (report.accepted, tuple(report.trail), None, None, None)
    atom = None if reason.atom is None else (reason.atom.x, reason.atom.y, reason.atom.rel, reason.atom.k)
    return (report.accepted, tuple(report.trail), reason.code, reason.pc, atom)


def do_cli(a, where, traced=False):
    head = [sys.executable, SHIM, "trace.json"] if traced else [sys.executable, "-c", CLI_MAIN]
    return run_child(head + a["argv"], where)


OPS = {"run": do_run, "run_finite": do_run_finite, "trace": do_trace, "abstract": do_abstract,
       "show_steps": do_show_steps, "cert": do_cert}


def matches(job: gen.Job, obs) -> bool:
    if job.op != "cli":
        return obs == job.expect
    code, out, err = obs
    want_code, want_out = job.expect
    if code != want_code or "Traceback" in err:
        return False
    if want_out is None:
        return out == "" and job.args["stderr"] in err
    return out == want_out and err == ""


def prepare(jobs: list[gen.Job], root: pathlib.Path) -> list[pathlib.Path]:
    """Write each job's input files into its own directory."""
    dirs = []
    for i, job in enumerate(jobs):
        where = root / f"job{i}"
        where.mkdir(parents=True)
        files = job.args.get("files", {})
        if job.op == "show_steps":
            files = {"p.urm": job.args["program"]}
        for name, text in files.items():
            (where / name).write_text(text, encoding="utf-8")
        dirs.append(where)
    return dirs


def pass_order(jobs, rng: random.Random) -> list[int]:
    """A fresh job order for one pass.

    A slow spell of the host then falls on different jobs in each pass, so
    that a job's median is not set by where it sits in the pass.
    Certificates for one program stay together and in their order, as a
    user's iterations on one certificate, so that the `_closure` hits fall
    on the same jobs in every pass.
    """
    blocks: dict = {}
    for i, job in enumerate(jobs):
        blocks.setdefault(("cert", job.args["program"]) if job.op == "cert" else i, []).append(i)
    groups = list(blocks.values())
    rng.shuffle(groups)
    return [i for group in groups for i in group]


def run_pass(jobs, dirs, tr: tracer.Tracer | None = None, order=None):
    """Time every job once, in `order` (default: as generated).

    Returns (seconds per job in job order, failures, steps of correct jobs).
    """
    if hasattr(CLOSURE, "cache_clear"):
        CLOSURE.cache_clear()
    gc.collect()
    clock = time.perf_counter
    times, failures, steps = [0.0] * len(jobs), [], 0
    for i in range(len(jobs)) if order is None else order:
        job = jobs[i]
        if tr is not None:
            tr.job[0] = i
        start = clock()
        try:
            if job.op == "cli":
                obs = do_cli(job.args, dirs[i], traced=tr is not None)
            else:
                obs = OPS[job.op](job.args, dirs[i])
            error = None
        except Exception as exc:  # a failing job is counted, not fatal
            obs, error = None, f"{type(exc).__name__}: {exc}"
        times[i] = clock() - start
        if error is None and matches(job, obs):
            steps += job.steps
        else:
            failures.append(f"job {i} {job.op} {job.series}: {error or 'wrong output'}")
    return times, failures, steps


def _closure_info():
    info = getattr(CLOSURE, "cache_info", None)
    return (info().hits, info().misses) if info else None


def traced_pass(jobs, dirs, tr: tracer.Tracer):
    """One traced pass; returns (summary, spans, job seconds, failures, closure counts, import times)."""
    tr.reset()
    tr.install()
    try:
        times, failures, _ = run_pass(jobs, dirs, tr)
        closure = _closure_info()
    finally:
        tr.uninstall()
    summary = tracer.summarise(tr.spans, tr.stats)
    spans = list(tr.spans)
    imports = []
    for i, job in enumerate(jobs):
        if job.op != "cli":
            continue
        child = json.loads((dirs[i] / "trace.json").read_text())
        imports.append(child["import_s"])
        spans += [(sid, parent, i, name, start, end) for sid, parent, _, name, start, end in child["spans"]]
        for name, entry in child["summary"].items():
            mine = summary.setdefault(name, dict.fromkeys(entry, 0))
            for key, value in entry.items():
                mine[key] += value
        if child["closure"] is not None:
            closure = tuple(a + b for a, b in zip(closure or (0, 0), child["closure"]))
    return summary, spans, times, failures, closure, imports


def _series(jobs, spans, name, series, key):
    busy = tracer.per_job_busy(spans, name)
    groups: dict[str, list] = {}
    for i, job in enumerate(jobs):
        if job.series in series and i in busy:
            groups.setdefault(job.series, []).append((job.size[key], busy[i]))
    return tracer.pooled_slope(groups)


def layer_metrics(jobs, summary, spans, closure, imports) -> dict[str, float]:
    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    parses = ("textio.parse_program", "textio.parse_cert", "textio.parse_config")
    updates = ("machine.zr", "machine.sc", "machine.mv")
    checks = ("certificates.check_divergence", "certificates.check_termination")
    hits, misses = closure if closure is not None else (0, get("constraints._closure", "calls"))
    m = {f"{n}.busy_s": get(n, "busy") for n in parses}
    m["textio.lines_per_s"] = ratio(sum(get(n, "lines") for n in parses), sum(get(n, "busy") for n in parses))
    m["machine.is_standard_form.calls"] = get("machine.is_standard_form", "calls")
    m["machine.rho.calls"] = get("machine.rho", "calls")
    m["machine.update.calls"] = sum(get(n, "calls") for n in updates)
    m["machine.update.busy_s"] = sum(get(n, "busy") for n in updates)
    m["machine.restrict.busy_s"] = get("machine.restrict", "busy")
    m["machine.include.busy_s"] = get("machine.include", "busy")
    m["evaluator.run.calls"] = get("evaluator.run", "calls")
    m["evaluator.run.busy_s"] = get("evaluator.run", "busy")
    m["evaluator.run.steps_per_s"] = ratio(get("evaluator.run", "steps"), get("evaluator.run", "busy"))
    m["evaluator.run.rho_exponent"] = _series(jobs, spans, "evaluator.run", ("rho",), "rho")
    m["evaluator.step.calls"] = get("evaluator.step", "calls")
    m["evaluator.step.self_s"] = get("evaluator.step", "self")
    m["evaluator.trace.self_s"] = get("evaluator.trace", "self")
    m["evaluator.trace.size_exponent"] = _series(jobs, spans, "evaluator.trace", ("straight_s1", "straight_si"), "n")
    m["evaluator.decide_abstract.busy_s"] = get("evaluator.decide_abstract", "busy")
    m["evaluator.decide_abstract.size_exponent"] = _series(jobs, spans, "evaluator.decide_abstract", ("chain",), "n")
    m["constraints.entails.calls"] = get("constraints.entails", "calls")
    m["constraints.entails.busy_s"] = get("constraints.entails", "busy")
    m["constraints.decide_eq.calls"] = get("constraints.decide_eq", "calls")
    m["constraints.decide_eq.undecided_ratio"] = ratio(get("constraints.decide_eq", "none"), get("constraints.decide_eq", "calls"))
    m["constraints.closure.computed"] = misses
    m["constraints.closure.hit_ratio"] = ratio(hits, hits + misses)
    m["constraints.closure.busy_s"] = get("constraints._closure", "busy")
    m["certificates.sym_step.calls"] = get("certificates.sym_step", "calls")
    m["certificates.sym_step.self_s"] = get("certificates.sym_step", "self")
    m["certificates.check.busy_s"] = sum(get(n, "busy") for n in checks)
    m["certificates.sym_steps_per_verdict"] = ratio(get("certificates.sym_step", "calls"), sum(get(n, "calls") for n in checks))
    m["cli.import_s"] = statistics.median(imports) if imports else IMPORT_S
    m["cli.main.busy_s"] = get("cli.main", "busy")
    return m


def rho_memory_exponent(jobs, dirs) -> float:
    """Log-log slope of peak traced memory against rho on the `rho` series."""
    rows = []
    for i, job in enumerate(jobs):
        if job.series == "rho":
            tracemalloc.start()
            OPS[job.op](job.args, dirs[i])
            rows.append((job.size["rho"], tracemalloc.get_traced_memory()[1]))
            tracemalloc.stop()
    return tracer.pooled_slope({"rho": rows})


def start_probe(source: str) -> float:
    """Seconds for a fresh interpreter to run `source` and exit."""
    start = time.perf_counter()
    code, _, err = run_child([sys.executable, "-c", source], ".")
    if code != 0:
        raise RuntimeError(f"{source} failed: {err}")
    return time.perf_counter() - start


def setup_probe(starts: list, bare: list) -> None:
    """One start that imports urm.cli (setup_s), then one bare start.

    The bare start is the host's own process start-up, which urm cannot
    change; recording it beside setup_s shows whether a shift in setup_s
    came from the host or from urm's import.
    """
    starts.append(start_probe("import urm.cli"))
    bare.append(start_probe("pass"))


def calibrate(samples: list) -> None:
    """Time three runs of a fixed pure-Python job that shares no code with urm.

    The job is the reference interpreter running minus.urm for 6002 steps.
    Its median time in a run measures how fast the host let Python run
    during that run.
    """
    for _ in range(3):
        start = time.perf_counter()
        reference.execute(CAL_PROGRAM, CAL_INIT, CAL_INIT[1] * 4 + 2)
        samples.append(time.perf_counter() - start)


def _percentile(sorted_values, q):
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def measure(workload: str, seed: int, seconds: float, traced: bool, toy: bool, work: pathlib.Path, out: pathlib.Path) -> dict:
    jobs = gen.build(workload, seed, toy)
    checked = reference.cross_check(gen.build(workload, seed, toy=True))
    warm = gen.build(workload, seed + 1_000_003, toy=True)
    run_pass(warm, prepare(warm, work / "warm"))
    dirs = prepare(jobs, work / "jobs")

    tr = tracer.Tracer()
    untraced, layered, overheads = [], [], []
    attempted, failures, starts, bare, cal = 0, [], [], [], []
    clock = time.perf_counter
    began, rounds = clock(), 0
    min_rounds = 1 if traced else MIN_PASSES
    shuffle = random.Random(f"order:{seed}")
    while True:
        times, failed, steps = run_pass(jobs, dirs, order=pass_order(jobs, shuffle))
        untraced.append((times, steps))
        if not traced:
            calibrate(cal)
        attempted += len(jobs)
        failures += failed
        if traced:
            summary, spans, ttimes, tfailed, closure, imports = traced_pass(jobs, dirs, tr)
            attempted += len(jobs)
            failures += tfailed
            layered.append(layer_metrics(jobs, summary, spans, closure, imports))
            overheads.append(sum(ttimes) - sum(times))
            if len(layered) == 1:
                _write_spans(out, workload, spans)
        rounds += 1
        elapsed = clock() - began
        while not traced and len(starts) < SETUP_STARTS * min(1.0, elapsed / seconds):
            setup_probe(starts, bare)
            calibrate(cal)
        if rounds >= min_rounds and elapsed + elapsed / rounds > seconds:
            break
    while not traced and len(starts) < SETUP_STARTS:
        setup_probe(starts, bare)
        calibrate(cal)

    # Each statistic of a job time is scaled by the same statistic of the
    # calibration time: totals by the mean, latencies by the median.
    walls = [sum(times) for times, _ in untraced]
    job_median = [statistics.median(col) for col in zip(*(times for times, _ in untraced))]
    latencies = sorted(job_median)
    scales = {
        "mean": CAL_REF_S / statistics.mean(cal) if cal else 1.0,
        "median": CAL_REF_S / statistics.median(cal) if cal else 1.0,
        "start": BARE_REF_S / statistics.median(bare) if bare else 1.0,
    }
    steps = statistics.mean(steps for _, steps in untraced)
    raw = {
        "wall_s": statistics.mean(walls),
        "job_p50_ms": 1000 * _percentile(latencies, 0.5),
        "job_p90_ms": 1000 * _percentile(latencies, 0.9),
        "setup_s": statistics.median(starts) if starts else None,
    }
    raw["steps_per_s"] = steps / raw["wall_s"]
    result = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
        "jobs_per_pass": len(jobs),
        "passes": len(untraced),
        "pass_walls": walls,
        "job_median_s": job_median,
        "cross_checked": checked,
        "setup_starts": starts,
        "bare_starts": bare,
        "calibration_s": cal,
        "scales": scales,
        "raw": raw,
        "e2e": {
            "wall_s": (raw["wall_s"] * scales["mean"], len(walls)),
            "job_p50_ms": (raw["job_p50_ms"] * scales["median"], len(latencies)),
            "job_p90_ms": (raw["job_p90_ms"] * scales["median"], len(latencies)),
            "steps_per_s": (raw["steps_per_s"] / scales["mean"], len(walls)),
            "setup_s": (raw["setup_s"] * scales["start"], len(starts)) if starts else None,
        },
    }
    if traced:
        layer = {name: statistics.median(row[name] for row in layered) for name in layered[0]}
        layer["evaluator.run.rho_mem_exponent"] = rho_memory_exponent(jobs, dirs)
        layer["trace.overhead_s"] = statistics.median(overheads)
        result["layer"] = layer
        result["traced_passes"] = len(layered)
    return result


def _write_spans(out: pathlib.Path, workload: str, spans) -> None:
    out.mkdir(exist_ok=True)
    with open(out / f"{workload}-spans.json", "w", encoding="utf-8") as handle:
        json.dump({"fields": ["id", "parent", "job", "name", "start", "end"], "spans": spans}, handle)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--toy", action="store_true")
    ap.add_argument("--work", required=True, help="scratch directory for job files, removed afterwards")
    ap.add_argument("--out", required=True, help="directory for the span dump")
    args = ap.parse_args()
    work = pathlib.Path(args.work)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.toy, work, pathlib.Path(args.out))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
