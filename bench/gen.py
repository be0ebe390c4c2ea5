"""Seeded job generators for the urm benchmark.

A job is plain data: the operation to perform, its inputs as program,
configuration and certificate *text* (so every job goes through `textio` the
way a user's files do), the output expected from a closed form, the machine
steps that output reports, and the size parameters that place it on a scaling
series.  Nothing here imports `urm`: expected outputs never come from the code
under test.  `reference.py` confirms the closed forms at toy sizes.

The seed changes register numbering, parameter names, starting values, jump
targets and dropped invariant atoms, but not the sizes of the jobs or their
order.  Two seeds therefore do the same amount of work on different inputs,
which keeps run-to-run spread low.

Program families (k is the number of registers the loop uses):

* `minus_k`  J 1 2 k+2; S 2 .. S k; J 1 1 1; T 3 1.  k = 3 is samples/minus.urm.
  From (a, b, z3..zk) with a >= b and d = a - b it halts after d(k+1)+2
  steps with r1 = z3+d, r2 = a, ri = zi+d.  It diverges when a < b.
* `v_k`      S 1, then checks r2 = r3, ..., r(k-1) = rk, looping to 1 when all
  hold.  k = 3 is samples/v.urm.  With r2..rk equal it never halts; each
  round takes k-1 steps and adds 1 to r1.
* `shift_k`  S 1; T 3 2; T 4 3; ..; T k k-1; J 2 3 1.  With r2..rk equal it
  never halts; dropping one equality of its invariant breaks preservation.
* straight lines of `S 1` or of `S i` over distinct registers, and chains of
  always-taken jumps that visit every position once and then halt or cycle.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass, field

WORKLOADS = ("count-loop", "rule-step", "cert-check", "cli-mix")


@dataclass
class Job:
    op: str
    args: dict
    expect: object
    steps: int
    series: str = ""
    size: dict = field(default_factory=dict)


def _geo(lo: float, hi: float, count: int) -> list[int]:
    """`count` integers spaced evenly in log between lo and hi."""
    if count == 1:
        return [int(round(lo))]
    ratio = (hi / lo) ** (1 / (count - 1))
    return [int(round(lo * ratio**i)) for i in range(count)]


def _perm(rng: random.Random, k: int) -> dict[int, int]:
    """Seeded renumbering of logical registers 1..k into 1..k."""
    regs = list(range(1, k + 1))
    rng.shuffle(regs)
    return dict(zip(range(1, k + 1), regs))


def _offset_perm(rng: random.Random, k: int, base: int) -> dict[int, int]:
    return {i: base + r for i, r in _perm(rng, k).items()}


def _text(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _dense(regs: dict[int, int], width: int) -> list[int]:
    return [regs.get(i, 0) for i in range(1, width + 1)]


def _nonzero(regs: dict[int, int]) -> dict[int, int]:
    return {r: v for r, v in regs.items() if v}


# --- programs -----------------------------------------------------------


def minus_k(k: int, perm: dict[int, int]) -> str:
    r = perm
    lines = [f"J {r[1]} {r[2]} {k + 2}"]
    lines += [f"S {r[i]}" for i in range(2, k + 1)]
    lines += [f"J {r[1]} {r[1]} 1", f"T {r[3]} {r[1]}"]
    return _text(lines)


def _v_checks(k: int) -> list[tuple[int, int]]:
    """(position, logical register i) of the check `J i i+1` in v_k."""
    return [(2 * i - 2, i) for i in range(2, k)]


def v_k(k: int, perm: dict[int, int]) -> str:
    r = perm
    lines = [f"S {r[1]}"]
    for i in range(2, k - 1):
        lines += [f"J {r[i]} {r[i + 1]} {2 * i}", f"J {r[1]} {r[1]} 0"]
    lines.append(f"J {r[k - 1]} {r[k]} 1")
    return _text(lines)


def shift_k(k: int, perm: dict[int, int]) -> str:
    r = perm
    lines = [f"S {r[1]}"]
    lines += [f"T {r[i + 1]} {r[i]}" for i in range(2, k)]
    lines.append(f"J {r[2]} {r[3]} 1")
    return _text(lines)


def chain(n: int, rng: random.Random, converge: bool, a: int, b: int):
    """Jump-only program visiting all n positions; returns (text, verdict)."""
    order = [1] + rng.sample(range(2, n + 1), n - 1)
    target = {order[i]: order[i + 1] for i in range(n - 1)}
    if converge:
        target[order[-1]] = 0
        verdict = ("converges", n)
    else:
        back = rng.randrange(n)
        target[order[-1]] = order[back]
        verdict = ("diverges", order[back], n - back)
    return _text([f"J {a} {b} {target[pos]}" for pos in range(1, n + 1)]), verdict


# --- closed forms -------------------------------------------------------


def minus_k_final(k: int, start: list[int]) -> tuple[list[int], int]:
    """Final logical registers and steps of minus_k from start (a >= b)."""
    a, b = start[0], start[1]
    d = a - b
    final = [start[2] + d, a] + [z + d for z in start[2:]]
    return final, d * (k + 1) + 2


def minus_states(start: list[int]) -> list[tuple[int, list[int]]]:
    """Every state (pc, r1..r3) of samples/minus.urm from start, a >= b."""
    a, b, c = start
    states = []
    for j in range(a - b):
        states += [
            (1, [a, b + j, c + j]),
            (2, [a, b + j, c + j]),
            (3, [a, b + j + 1, c + j]),
            (4, [a, b + j + 1, c + j + 1]),
        ]
    d = a - b
    states += [(1, [a, a, c + d]), (5, [a, a, c + d])]
    return states


def v_states(k: int, start: list[int], fuel: int) -> list[tuple[int, list[int]]]:
    """First `fuel` states of v_k (identity numbering) with r2..rk equal."""
    regs = list(start)
    states = []
    checks = [pos for pos, _ in _v_checks(k)]
    pcs = [1] + checks
    i = 0
    while len(states) < fuel:
        pc = pcs[i % len(pcs)]
        states.append((pc, list(regs)))
        if pc == 1:
            regs[0] += 1
        i += 1
    return states


def _show_steps_text(states, tail: list[str]) -> str:
    lines = [f"{pc} {_csv(regs)}" for pc, regs in states]
    return "\n".join(lines + tail) + "\n"


def _map(perm: dict[int, int], logical: list[int]) -> dict[int, int]:
    return {perm[i]: v for i, v in enumerate(logical, start=1)}


# --- certificates -------------------------------------------------------


def _names(rng: random.Random, k: int) -> list[str]:
    """k distinct parameter names that cannot clash with register names."""
    out: set[str] = set()
    while len(out) < k:
        out.add(rng.choice("abcdefghijklmnopqstuvwxyz") + "".join(rng.choices(string.ascii_lowercase, k=3)))
    return sorted(out)


def _cert_text(kind, params, constraints, init, invariant, bound, split=None, ranking=None) -> str:
    lines = [f"kind: {kind}", "params: " + " ".join(params)]
    lines += [f"constraint: {c}" for c in constraints]
    lines += ["init: " + ", ".join(init), "head: 1"]
    lines += [f"invariant: {a}" for a in invariant]
    if split is not None:
        lines += [f"split: {split}", f"ranking: {ranking}"]
    lines.append(f"bound: {bound}")
    return _text(lines)


def _eq_chain(names: list[str], first: int, last: int) -> list[str]:
    return [f"{names[i - 1]} = {names[i]}" for i in range(first, last)]


def _reg_chain(perm: dict[int, int], first: int, last: int) -> list[tuple[str, tuple]]:
    """Register atoms ri = r(i+1) for first <= i < last, with Atom fields."""
    return [(f"r{perm[i]} = r{perm[i + 1]}", (f"r{perm[i]}", f"r{perm[i + 1]}", "=", 0)) for i in range(first, last)]


def _verdict(trail=None, code=None, pc=None, atom=None):
    if trail is not None:
        return (True, tuple(trail), None, None, None)
    return (False, (), code, pc, atom)


def cert_group(family: str, k: int, rng: random.Random) -> list[tuple[str, str, str, tuple, dict]]:
    """Certificates for one program: (variant, program, cert text, verdict, witness).

    All certificates of a group share the program and its parameter
    constraints and differ in the invariant, split or ranking, as when a user
    iterates on a certificate.  `witness` is a concrete start satisfying the
    constraints, used by the reference cross-check.
    """
    perm = _perm(rng, k)
    names = _names(rng, k)
    logical = {r: i for i, r in perm.items()}
    init = [names[logical[r] - 1] for r in range(1, k + 1)]
    out = []
    if family == "minus":
        prog = minus_k(k, perm)
        chain_c = _eq_chain(names, 3, k)
        chain_i = _reg_chain(perm, 3, k)
        r1, r2 = f"r{perm[1]}", f"r{perm[2]}"
        loop = [(1, "jf·r")] + [(i, "s·r") for i in range(2, k + 1)] + [(k + 1, "jt·r")]
        div_c = [f"{names[0]} < {names[1]}"] + chain_c
        bound = k + 3
        strict = [f"{r1} < {r2}"] + [t for t, _ in chain_i]
        weak = [f"{r1} <= {r2}"] + [t for t, _ in chain_i]
        w_div = {1: 3, 2: 5, **{i: 7 for i in range(3, k + 1)}}
        out.append(("div", prog, _cert_text("diverges", names, div_c, init, strict, bound), _verdict(trail=loop), w_div))
        out.append(("div-weak", prog, _cert_text("diverges", names, div_c, init, weak, bound), _verdict(code="UndecidedBranch", pc=1), w_div))
        term_c = [f"{names[0]} >= {names[1]}"] + chain_c
        inv = [f"{r1} >= {r2}"] + [t for t, _ in chain_i]
        split = f"{r1} - {r2} > 0"
        w_term = {1: 6, 2: 2, **{i: 4 for i in range(3, k + 1)}}
        term = loop + [(1, "jt·r"), (k + 2, "t·l")]
        out.append(("term", prog, _cert_text("terminates", names, term_c, init, inv, bound, split, f"{r1} - {r2}"), _verdict(trail=term), w_term))
        out.append(("term-reversed", prog, _cert_text("terminates", names, term_c, init, inv, bound, split, f"{r2} - {r1}"), _verdict(code="RankingNotNonnegative"), w_term))
        if k >= 4:
            flat = f"r{perm[3]} - r{perm[4]}"
            out.append(("term-flat", prog, _cert_text("terminates", names, term_c, init, inv, bound, split, flat), _verdict(code="RankingNotDecreasing"), w_term))
    elif family == "v":
        prog = v_k(k, perm)
        cons = _eq_chain(names, 2, k)
        atoms = _reg_chain(perm, 2, k)
        bound = 2 * k
        checks = _v_checks(k)
        trail = [(1, "s·r")] + [(pos, "jt·r") for pos, _ in checks]
        witness = {1: 1, **{i: 4 for i in range(2, k + 1)}}
        out.append(("div", prog, _cert_text("diverges", names, cons, init, [t for t, _ in atoms], bound), _verdict(trail=trail), witness))
        j = rng.randrange(2, k)
        kept = [t for i, (t, _) in enumerate(atoms, start=2) if i != j]
        rng.shuffle(kept)
        pc = dict((i, pos) for pos, i in checks)[j]
        out.append(("div-weak", prog, _cert_text("diverges", names, cons, init, kept, bound), _verdict(code="UndecidedBranch", pc=pc), witness))
    elif family == "shift":
        prog = shift_k(k, perm)
        cons = _eq_chain(names, 2, k)
        atoms = _reg_chain(perm, 2, k)
        bound = k + 1
        trail = [(1, "s·r")] + [(i, "t·r") for i in range(2, k)] + [(k, "jt·r")]
        witness = {1: 2, **{i: 3 for i in range(2, k + 1)}}
        out.append(("div", prog, _cert_text("diverges", names, cons, init, [t for t, _ in atoms], bound), _verdict(trail=trail), witness))
        j = rng.randrange(4, k)
        kept = [t for i, (t, _) in enumerate(atoms, start=2) if i != j]
        rng.shuffle(kept)
        fail = atoms[j - 3][1]
        out.append(("div-drop", prog, _cert_text("diverges", names, cons, init, kept, bound), _verdict(code="InvariantNotPreserved", atom=fail), witness))
    else:
        raise ValueError(family)
    return [(v, p, c, verdict, _map(perm, _dense(w, k))) for v, p, c, verdict, w in out]


# --- workloads ----------------------------------------------------------


def count_loop(rng: random.Random, toy: bool) -> list[Job]:
    """Compiled `run` / `run_finite` on counting loops; `step` never runs.

    Every job belongs to a scaling series: the input gap of minus, the fuel
    of v, the register width rho (through `run` from a register dict, and
    through `run_finite` from a CSV of width rho, so that `parse_config`,
    `include` and `restrict` see it too).  The sizes leave the 11 slowest
    jobs, which set job_p90_ms, well apart from the rest, so that one job
    caught in a slow spell of the host cannot move the percentile.
    """
    jobs: list[Job] = []
    top_gap, top_fuel, top_rho, top_width = (50, 200, 200, 200) if toy else (10**6, 10**5, 3 * 10**5, 10**5)
    ident = {1: 1, 2: 2, 3: 3}
    # minus.urm with input gaps log-spaced up to top_gap, through `run`.
    for gap in _geo(1, top_gap, 6 if toy else 15):
        b, z = rng.randrange(1000), rng.randrange(1000)
        start = [b + gap, b, z]
        final, steps = minus_k_final(3, start)
        jobs.append(Job("run", {"program": minus_k(3, ident), "init": _csv(start), "fuel": steps + 10},
                        ("halted", steps, tuple(final)), steps,
                        "minus", {"n": 5, "live": 3, "rho": 3, "m": gap}))
    # minus_k with renumbered registers through `run_finite` (a width-k CSV).
    for k in (3, 4, 5, 6, 8):
        for gap in _geo(1, 20, 4) if toy else _geo(16, top_gap // 100, 8):
            perm = _perm(rng, k)
            start = [gap + rng.randrange(50), 0] + [rng.randrange(50) for _ in range(k - 2)]
            start[1] = start[0] - gap
            final, steps = minus_k_final(k, start)
            jobs.append(Job("run_finite", {"program": minus_k(k, perm), "init": _csv(_dense(_map(perm, start), k)), "fuel": steps},
                            ("halted", steps, tuple(_dense(_map(perm, final), k))), steps,
                            "minus_k", {"n": k + 2, "live": k, "rho": k, "m": gap}))
    # v_k diverging until the fuel runs out; fuel is a multiple of the round length.
    for k in (3, 5, 7, 9):
        for fuel in _geo(10, top_fuel, 4) if toy else _geo(100, top_fuel, 8):
            fuel -= fuel % (k - 1)
            perm = _perm(rng, k)
            c = rng.randrange(100)
            start = [rng.randrange(100)] + [c] * (k - 1)
            final = [start[0] + fuel // (k - 1)] + start[1:]
            jobs.append(Job("run", {"program": v_k(k, perm), "init": _csv(_dense(_map(perm, start), k)), "fuel": fuel},
                            ("fuel", fuel, 1, _nonzero(_map(perm, final))), fuel,
                            "v_k", {"n": 2 * k - 4, "live": k, "rho": k, "m": fuel}))
    # v.urm renumbered to registers above R: fixed steps, growing rho.
    for base in _geo(10, top_rho, 5 if toy else 10):
        perm = _offset_perm(rng, 3, base)
        fuel = 1000
        jobs.append(Job("run", {"program": v_k(3, perm), "init": {}, "fuel": fuel},
                        ("fuel", fuel, 1, {perm[1]: fuel // 2}), fuel,
                        "rho", {"n": 2, "live": 3, "rho": base + 3, "m": 0}))
    # minus.urm renumbered high, started from a register dict; the halted
    # registers 1..rho are cut out with `restrict`, as `urm run` prints them.
    for base in _geo(100, top_rho // 3, 3 if toy else 8):
        perm = _offset_perm(rng, 3, base)
        gap = 2000 if not toy else 20
        start = [gap + 7, 7, rng.randrange(10)]
        final, steps = minus_k_final(3, start)
        jobs.append(Job("run", {"program": minus_k(3, perm), "init": _map(perm, start), "fuel": steps},
                        ("halted", steps, tuple(_dense(_map(perm, final), base + 3))), steps,
                        "minus_high", {"n": 5, "live": 3, "rho": base + 3, "m": gap}))
    # minus.urm on the last three columns of a wide CSV, through `run_finite`:
    # `parse_config` and `include` read rho values, the rest pass through.
    for width in _geo(20, top_width, 3) if toy else _geo(2 * 10**4, top_width, 4):
        perm = _offset_perm(rng, 3, width - 3)
        gap = 1000 if not toy else 10
        b = rng.randrange(10)
        start = [gap + b, b, rng.randrange(10)]
        final, steps = minus_k_final(3, start)
        values = [rng.randrange(10) for _ in range(width)]
        init, done = list(values), list(values)
        for i in range(3):
            init[perm[i + 1] - 1] = start[i]
            done[perm[i + 1] - 1] = final[i]
        jobs.append(Job("run_finite", {"program": minus_k(3, perm), "init": _csv(init), "fuel": steps},
                        ("halted", steps, tuple(done)), steps,
                        "finite_wide", {"n": 5, "live": 3, "rho": width, "m": gap}))
    return jobs


def rule_step(rng: random.Random, toy: bool) -> list[Job]:
    """Rule-level paths: `trace`, `decide_abstract` and `run --show-steps`."""
    jobs: list[Job] = []
    sizes = _geo(16, 64, 3) if toy else _geo(128, 1024, 12)
    for n in sizes:
        a = rng.randrange(100)
        jobs.append(Job("trace", {"program": _text(["S 1"] * n), "init": str(a)},
                        ("trace", n, n, _nonzero({1: a + n - 1})), n,
                        "straight_s1", {"n": n, "live": 1, "rho": 1, "m": a}))
        regs = rng.sample(range(1, 2 * n + 1), n)
        jobs.append(Job("trace", {"program": _text([f"S {r}" for r in regs]), "init": "0"},
                        ("trace", n, n, {r: 1 for r in regs[:-1]}), n,
                        "straight_si", {"n": n, "live": n, "rho": max(regs), "m": 0}))
        for converge in (True, False):
            a, b = rng.sample(range(1, 5), 2)
            c = rng.randrange(10)
            text, verdict = chain(n, rng, converge, a, b)
            jobs.append(Job("abstract", {"program": text, "init": _csv([c] * 4)}, verdict, n,
                            "chain", {"n": n, "live": 2, "rho": max(a, b), "m": c}))
    for gap in _geo(1, 60, 4) if toy else _geo(2, 1000, 18):
        start = [gap + 3, 3, rng.randrange(10)]
        states = minus_states(start)
        last_pc, last = states[-1]
        jobs.append(Job("trace", {"program": minus_k(3, {1: 1, 2: 2, 3: 3}), "init": _csv(start)},
                        ("trace", len(states), last_pc, _nonzero(_map({1: 1, 2: 2, 3: 3}, last))), len(states),
                        "minus_trace", {"n": 5, "live": 3, "rho": 3, "m": gap}))
    for gap in _geo(1, 40, 4) if toy else _geo(2, 300, 18):
        start = [gap + rng.randrange(20), 0, rng.randrange(20)]
        start[1] = start[0] - gap
        states = minus_states(start)
        final, steps = minus_k_final(3, start)
        out = _show_steps_text(states, [f"halted: {_csv(final)}", f"steps: {steps}"])
        jobs.append(Job("show_steps", {"program": minus_k(3, {1: 1, 2: 2, 3: 3}), "init": _csv(start), "fuel": steps + 5},
                        (0, out), steps, "show_minus", {"n": 5, "live": 3, "rho": 3, "m": gap}))
    for fuel in _geo(4, 40 if toy else 400, 3 if toy else 18):
        c = rng.randrange(9)
        start = [rng.randrange(9), c, c]
        out = _show_steps_text(v_states(3, start, fuel), [f"fuel exhausted after {fuel} steps"])
        jobs.append(Job("show_steps", {"program": v_k(3, {1: 1, 2: 2, 3: 3}), "init": _csv(start), "fuel": fuel},
                        (2, out), fuel, "show_v", {"n": 2, "live": 3, "rho": 3, "m": fuel}))
    return jobs


def cert_check(rng: random.Random, toy: bool) -> list[Job]:
    """Parse and check generated certificates; `evaluator` stays idle."""
    ks = (3, 4, 5, 6, 8) if toy else (3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64)
    jobs: list[Job] = []
    for k in ks:
        for family in ("minus", "v", "shift"):
            if family == "shift" and k < 5:
                continue
            for variant, prog, cert, verdict, witness in cert_group(family, k, rng):
                jobs.append(Job("cert", {"program": prog, "cert": cert, "witness": witness}, verdict, len(verdict[1]),
                                f"{family}-{variant}", {"n": len(prog.splitlines()), "live": k, "rho": k, "m": 0}))
    return jobs


def _cli(argv: list[str], code: int, stdout: str | None, steps: int = 0, files: dict | None = None,
         series: str = "", stderr: str = "") -> Job:
    """A `urm` call.  stdout None marks an error run: nothing on stdout and
    `stderr` somewhere in the message."""
    return Job("cli", {"argv": argv, "files": files or {}, "stderr": stderr}, (code, stdout), steps, series, {})


def cli_mix(rng: random.Random, toy: bool) -> list[Job]:
    """Sequential `urm` subprocess calls; each pays start-up and import."""
    jobs: list[Job] = []
    reps = 1 if toy else 6
    ident = {1: 1, 2: 2, 3: 3}
    # Three calls per round do real work besides start-up, so that the 90th
    # percentile measures them rather than the noise among near-equal calls.
    heavy_gaps = _geo(40, 300, reps) if toy else _geo(4 * 10**4, 3 * 10**5, reps)
    heavy_chains = _geo(30, 60, reps) if toy else _geo(600, 1400, reps)
    heavy_shows = _geo(20, 40, reps) if toy else _geo(300, 800, reps)
    for rep in range(reps):
        k = 3 + rep % 6
        perm = _perm(rng, k)
        prog = minus_k(k, perm)
        jobs.append(_cli(["validate", "p.urm"], 0, f"n={k + 2} rho={k} standard-form=yes\n", files={"p.urm": prog}, series="validate"))
        if rep % 2:
            jobs.append(_cli(["abstract", "p.urm"], 1, None, files={"p.urm": prog}, series="abstract",
                             stderr="p.urm: not an abstract program"))
        else:
            bad_target = k + 3 + rng.randrange(5)
            ns = prog.replace(f"J {perm[1]} {perm[1]} 1", f"J {perm[1]} {perm[1]} {bad_target}")
            jobs.append(_cli(["validate", "p.urm"], 1, f"n={k + 2} rho={k} standard-form=no\n", files={"p.urm": ns}, series="validate"))
        width = rng.randrange(1, 2 * k)
        ok = width >= k
        jobs.append(_cli(["validate", "p.urm", "--config", "c.cfg"], 0 if ok else 1,
                         f"n={k + 2} rho={k} standard-form=yes compatible={'yes' if ok else 'no'}\n",
                         files={"p.urm": prog, "c.cfg": _csv([0] * width) + "\n"}, series="validate"))
        # run: halting, fuel exhaustion, --finite, --show-steps
        for gap in (7, 41, heavy_gaps[rep]):
            start = [gap + rng.randrange(40), 0, rng.randrange(40)]
            start[1] = start[0] - gap
            final, steps = minus_k_final(3, start)
            fuel = ["--fuel", str(steps)] if gap > 41 else []
            jobs.append(_cli(["run", "m.urm", "--init", _csv(start), *fuel], 0, f"halted: {_csv(final)}\nsteps: {steps}\n",
                             steps, {"m.urm": minus_k(3, ident)}, "run"))
        fuel = 400
        c = rng.randrange(9)
        jobs.append(_cli(["run", "v.urm", "--init", _csv([0, c, c]), "--fuel", str(fuel)], 2,
                         f"fuel exhausted after {fuel} steps\n", fuel, {"v.urm": v_k(3, ident)}, "run"))
        b = rng.randrange(30)
        start = [b + 12, b] + [rng.randrange(5) for _ in range(k - 2)]
        final, steps = minus_k_final(k, start)
        jobs.append(_cli(["run", "p.urm", "--finite", "--init", _csv(_dense(_map(perm, start), k))], 0,
                         f"halted: {_csv(_dense(_map(perm, final), k))}\nsteps: {steps}\n", steps, {"p.urm": prog}, "run"))
        for gap in (3, heavy_shows[rep]):
            start = [gap + rng.randrange(5), 0, rng.randrange(5)]
            start[1] = start[0] - gap
            final, steps = minus_k_final(3, start)
            out = _show_steps_text(minus_states(start), [f"halted: {_csv(final)}", f"steps: {steps}"])
            jobs.append(_cli(["run", "m.urm", "--init", _csv(start), "--show-steps"], 0, out, steps, {"m.urm": minus_k(3, ident)}, "run"))
        # abstract: converging and diverging chains
        for converge, n in ((True, 24), (False, heavy_chains[rep])):
            text, verdict = chain(n, rng, converge, 1, 2)
            c = rng.randrange(9)
            line = f"converges in {verdict[1]} steps" if converge else f"diverges: cycle at pc {verdict[1]}, length {verdict[2]}"
            jobs.append(_cli(["abstract", "j.urm", "--init", _csv([c, c])], 0, line + "\n",
                             verdict[1] if converge else 0, {"j.urm": text}, "abstract"))
        # cert: samples/loop.cert, then one group per family, every variant
        jobs.append(_cli(["cert", "l.urm", "l.cert"], 0, "Accepted\ntrail: 1(jt·r)\n", 1,
                         {"l.urm": "J 1 1 1\n", "l.cert": _text(["kind: diverges", "init: 0", "head: 1", "bound: 1"])}, "cert"))
        family = ("minus", "v", "shift")[rep % 3]
        kc = 5 + rep % 3
        for variant, cprog, cert, verdict, _ in cert_group(family, kc, rng):
            accepted, trail, code, pc, atom = verdict
            if accepted:
                out = "Accepted\ntrail: " + " ".join(f"{p}({r})" for p, r in trail) + "\n"
            else:
                out = f"Rejected: {code}" + (f" pc={pc}" if pc is not None else "")
                if atom is not None:
                    x, y, rel, kk = atom
                    out += f" atom={x} - {y} {rel} {kk}"
                out += "\n"
            jobs.append(_cli(["cert", "c.urm", "c.cert"], 0 if accepted else 3, out, len(trail),
                             {"c.urm": cprog, "c.cert": cert}, "cert"))
        # malformed input: documented exit 1 with a positioned message
        line = rng.randrange(1, 6)
        bad = _text(["S 1"] * (line - 1) + ["Q 1"])
        jobs.append(_cli(["run", "bad.urm"], 1, None, files={"bad.urm": bad}, series="error",
                         stderr=f"bad.urm: line {line}, column 1: unknown mnemonic 'Q'"))
    return jobs


BUILDERS = {"count-loop": count_loop, "rule-step": rule_step, "cert-check": cert_check, "cli-mix": cli_mix}


def build(workload: str, seed: int, toy: bool = False) -> list[Job]:
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, toy)
