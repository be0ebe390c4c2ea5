"""Independent reference interpreter and the cross-check of the closed forms.

A deliberately plain, dict-based URM interpreter that shares no code with
`urm` (it does not import it).  Before any timing, the worker generates the
workload at toy size and checks every closed-form expectation of `gen.py`
against this interpreter; a mismatch stops the run.
"""

from __future__ import annotations

import re

from gen import Job


class Mismatch(Exception):
    """A closed form in gen.py disagrees with the reference interpreter."""


def parse(text: str) -> list[tuple]:
    prog = []
    for line in text.split("\n"):
        toks = line.split("#", 1)[0].split()
        if toks:
            prog.append((toks[0], *map(int, toks[1:])))
    return prog


def rho(prog: list[tuple]) -> int:
    return max([1] + [r for ins in prog for r in (ins[1:3] if ins[0] == "J" else ins[1:])])


def execute(prog: list[tuple], regs: dict[int, int], fuel: int, on_state=None):
    """Run from pc 1; ('halted', steps, regs) or ('fuel', steps, pc, regs)."""
    regs = dict(regs)
    pc, steps, n = 1, 0, len(prog)
    while steps < fuel:
        if on_state is not None:
            on_state(pc, regs)
        op, *a = prog[pc - 1]
        steps += 1
        nxt = pc + 1
        if op == "Z":
            regs[a[0]] = 0
        elif op == "S":
            regs[a[0]] = regs.get(a[0], 0) + 1
        elif op == "T":
            regs[a[1]] = regs.get(a[0], 0)
        elif regs.get(a[0], 0) == regs.get(a[1], 0):
            nxt = a[2]
        if not 1 <= nxt <= n:
            return ("halted", steps, regs)
        pc = nxt
    return ("fuel", steps, pc, regs)


def _nonzero(regs: dict[int, int]) -> dict[int, int]:
    return {r: v for r, v in regs.items() if v}


def _regs(init) -> dict[int, int]:
    if isinstance(init, dict):
        return dict(init)
    return {i: int(v) for i, v in enumerate(init.split(","), start=1)}


def _abstract(prog: list[tuple], regs: dict[int, int]):
    seen, pc, steps = {1: 0}, 1, 0
    while True:
        _, i, j, k = prog[pc - 1]
        steps += 1
        nxt = k if regs.get(i, 0) == regs.get(j, 0) else pc + 1
        if not 1 <= nxt <= len(prog):
            return ("converges", steps)
        if nxt in seen:
            return ("diverges", nxt, steps - seen[nxt])
        seen[nxt] = steps
        pc = nxt


def _show(prog, regs, fuel) -> tuple[int, str]:
    width = rho(prog)
    lines: list[str] = []
    dense = lambda r: ",".join(str(r.get(i, 0)) for i in range(1, width + 1))  # noqa: E731
    out = execute(prog, regs, fuel, lambda pc, r: lines.append(f"{pc} {dense(r)}"))
    if out[0] == "halted":
        return 0, "\n".join(lines + [f"halted: {dense(out[2])}", f"steps: {out[1]}"]) + "\n"
    return 2, "\n".join(lines + [f"fuel exhausted after {out[1]} steps"]) + "\n"


def _outcome(job: Job):
    a = job.args
    prog = parse(a["program"])
    regs = _regs(a["init"])
    if job.op == "run":
        out = execute(prog, regs, a["fuel"])
        if out[0] == "halted":
            return ("halted", out[1], tuple(out[2].get(i, 0) for i in range(1, rho(prog) + 1)))
        return out[:-1] + (_nonzero(out[-1]),)
    if job.op == "run_finite":
        out = execute(prog, regs, a["fuel"])
        width = len(a["init"].split(","))
        return ("halted", out[1], tuple(out[2].get(i, 0) for i in range(1, width + 1)))
    if job.op == "trace":
        states: list = []
        execute(prog, regs, 10**7, lambda pc, r: states.append((pc, dict(r))))
        return ("trace", len(states), states[-1][0], _nonzero(states[-1][1]))
    if job.op == "abstract":
        return _abstract(prog, regs)
    if job.op == "show_steps":
        return _show(prog, regs, a["fuel"])
    raise ValueError(job.op)


def _cli_outcome(job: Job):
    """Expected (code, stdout) of the `urm` calls whose outcome is concrete."""
    argv, files = job.args["argv"], job.args["files"]
    cmd, path = argv[0], argv[1]
    opts: dict = {}
    rest = iter(argv[2:])
    for tok in rest:
        opts[tok] = True if tok in ("--finite", "--show-steps") else next(rest)
    prog = parse(files[path])
    regs = _regs(opts["--init"]) if "--init" in opts else {}
    if cmd == "validate":
        standard = all(ins[3] <= len(prog) for ins in prog if ins[0] == "J")
        line = f"n={len(prog)} rho={rho(prog)} standard-form={'yes' if standard else 'no'}"
        ok = standard
        if "--config" in opts:
            good = standard and len(files[opts["--config"]].strip().split(",")) >= rho(prog)
            line += f" compatible={'yes' if good else 'no'}"
            ok = ok and good
        return (0 if ok else 1, line + "\n")
    if cmd == "run" and "--show-steps" in opts:
        return _show(prog, regs, int(opts.get("--fuel", 100000)))
    if cmd == "run":
        out = execute(prog, regs, int(opts.get("--fuel", 100000)))
        if out[0] == "fuel":
            return (2, f"fuel exhausted after {out[1]} steps\n")
        width = rho(prog)
        return (0, f"halted: {','.join(str(out[2].get(i, 0)) for i in range(1, width + 1))}\nsteps: {out[1]}\n")
    verdict = _abstract(prog, regs)
    if verdict[0] == "converges":
        return (0, f"converges in {verdict[1]} steps\n")
    return (0, f"diverges: cycle at pc {verdict[1]}, length {verdict[2]}\n")


def _check_cert(job: Job) -> None:
    """An accepted certificate's claim must hold on its witness input."""
    accepted = job.expect[0]
    if not accepted:
        return
    kind = re.search(r"kind: (\w+)", job.args["cert"]).group(1)
    out = execute(parse(job.args["program"]), job.args["witness"], 5000)
    if (out[0] == "halted") != (kind == "terminates"):
        raise Mismatch(f"certificate claims {kind} but the witness run gives {out[:2]}")


def cross_check(jobs: list[Job]) -> int:
    """Compare every toy job's closed-form expectation with the reference."""
    checked = 0
    for job in jobs:
        if job.op == "cert":
            _check_cert(job)
        elif job.op == "cli":
            if job.expect[1] is None or job.args["argv"][0] == "cert":
                continue
            got = _cli_outcome(job)
            if got != job.expect:
                raise Mismatch(f"urm {' '.join(job.args['argv'])}: closed form {job.expect!r}, reference {got!r}")
        else:
            got = _outcome(job)
            if got != job.expect:
                raise Mismatch(f"{job.op} {job.series}: closed form {job.expect!r}, reference {got!r}")
        checked += 1
    return checked
