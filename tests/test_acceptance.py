"""Acceptance gate: ten end-to-end checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one printed
pass line per criterion alongside the pytest verdicts.  Each check
either passes exactly or fails; there are no approximate tolerances
apart from the wall-clock budget in criterion 1.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from oracles import (
    atom_holds,
    constraints_hold,
    head_visits,
    instantiate,
    naive_pcs,
    random_program,
    register_values,
    renumbered,
    sample_parameters,
    sym_value,
)
from urm.certificates import (
    DivergenceCert,
    HALTED_DURING_LOOP,
    INVARIANT_NOT_ESTABLISHED,
    INVARIANT_NOT_PRESERVED,
    RANKING_NOT_DECREASING,
    RANKING_NOT_NONNEGATIVE,
    TerminationCert,
    UNDECIDED_BRANCH,
    check_divergence,
    check_termination,
)
from urm.cli import main
from urm.constraints import (
    Atom,
    ConstraintSet,
    SymValue,
    decide_eq,
    entails,
)
from urm.evaluator import (
    Converges,
    Diverges,
    Halted,
    OutOfFuel,
    decide_abstract,
    run,
    run_finite,
)
from urm.machine import (
    Config,
    FiniteConfig,
    Jump,
    Program,
    compatible,
    include,
    restrict,
)
from urm.textio import parse_cert, parse_program, print_program


def _check(p, cert):
    if isinstance(cert, TerminationCert):
        return check_termination(p, cert)
    return check_divergence(p, cert)


def _load(samples_dir, prog_name, cert_name):
    p = parse_program((samples_dir / prog_name).read_text())
    cert = parse_cert((samples_dir / cert_name).read_text())
    return p, cert


def test_criterion_01_subtraction_grid_is_exact(u_minus):
    start = time.perf_counter()
    checked = 0
    for m in range(26):
        for n in range(m + 1):
            for z in range(3):
                result = run(u_minus, Config({1: m, 2: n, 3: z}), 1000)
                assert isinstance(result, Halted)
                final = restrict(result.final, u_minus)
                assert final.values == (m - n + z, m, m - n + z)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    print(f"criterion 1 PASS: {checked} grid points exact, {elapsed:.2f}s < 2.00s")


def test_criterion_02_subtraction_divergence_certified(u_minus, samples_dir):
    pairs = [(m, n) for n in range(11) for m in range(n)]
    assert len(pairs) == 55
    for m, n in pairs:
        result = run(u_minus, Config({1: m, 2: n}), 100000)
        assert isinstance(result, OutOfFuel)
        assert result.steps == 100000
    cert = parse_cert((samples_dir / "minus-div.cert").read_text())
    report = check_divergence(u_minus, cert)
    assert report.accepted
    assert len(report.trail) == 4
    print("criterion 2 PASS: 55 inputs out of fuel at 100000, certificate accepted with trail length 4")


def test_criterion_03_two_jump_program_facts(prog_b):
    result = run(prog_b, Config({2: 1}), 10)
    assert isinstance(result, Halted)
    assert result.steps == 2
    assert restrict(result.final, prog_b).values == (0, 1)
    verdict = decide_abstract(prog_b, Config())
    assert verdict == Diverges(cycle_entry_pc=2, cycle_length=1)
    print("criterion 3 PASS: halts unchanged in 2 steps on (0,1); cycle at pc 2, length 1 on (0,0)")


def test_criterion_04_increment_loop_divergence(prog_v, samples_dir):
    cert = parse_cert((samples_dir / "v-div.cert").read_text())
    report = check_divergence(prog_v, cert)
    assert report.accepted
    rng = random.Random(4)
    for _ in range(10):
        m, n = rng.randint(0, 10), rng.randint(0, 10)
        result = run(prog_v, Config({1: m, 2: n, 3: n}), 100000)
        assert isinstance(result, OutOfFuel)
    print("criterion 4 PASS: certificate accepted; 10 sampled equal-guard inputs out of fuel at 100000")


def test_criterion_05_abstract_decision_exhaustive():
    programs = []
    for n in (1, 2):
        slots = [Jump(i, j, k) for i in (1, 2) for j in (1, 2) for k in range(n + 1)]
        programs.extend(Program(combo) for combo in itertools.product(slots, repeat=n))
    assert len(programs) == 8 + 144
    mismatches = 0
    for p in programs:
        n = len(p)
        for a in (0, 1):
            for b in (0, 1):
                regs = {i: v for i, v in ((1, a), (2, b)) if v}
                verdict = decide_abstract(p, Config(regs))
                executed = run(p, Config(regs), n + 1)
                if isinstance(verdict, Converges):
                    ok = isinstance(executed, Halted) and executed.steps == verdict.steps
                else:
                    seq = naive_pcs(p, dict(regs), 3 * n + 4)
                    length = verdict.cycle_length
                    ok = (
                        isinstance(executed, OutOfFuel)
                        and verdict.cycle_entry_pc in seq
                        and all(
                            seq[idx + length] == seq[idx]
                            for idx in range(seq.index(verdict.cycle_entry_pc), len(seq) - length)
                        )
                    )
                if not ok:
                    mismatches += 1
    assert mismatches == 0
    print("criterion 5 PASS: 152 jump-only programs x 4 configurations, 0 mismatches")


def test_criterion_06_finite_and_infinite_runs_agree():
    rng = random.Random(6)
    mismatches = 0
    out_of_fuel = 0
    for case in range(400):
        p = random_program(rng)
        width = p.rho + rng.randint(0, 2)
        if case >= 200:
            # registers spread over 1..rho + 20, sigma up to 50 wider than that
            live = p.registers
            p = renumbered(p, dict(zip(live, rng.sample(range(1, len(live) + 21), len(live)))))
            width = p.rho + rng.randint(0, 50)
        sigma = FiniteConfig(tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(width)))
        assert compatible(sigma, p)
        fin = run_finite(p, sigma, 200)
        inf = run(p, include(sigma), 200)
        agreed = type(fin) is type(inf) and fin.steps == inf.steps
        if agreed and isinstance(fin, Halted):
            agreed = include(fin.final) == inf.final
            # inf.final holds sigma's registers above rho too
            agreed = agreed and restrict(inf.final, p).values == fin.final.values[: p.rho]
        elif agreed:
            out_of_fuel += 1
            agreed = fin.last == inf.last
        if not agreed:
            mismatches += 1
    assert mismatches == 0
    assert out_of_fuel > 40
    print(f"criterion 6 PASS: 400 random programs ({out_of_fuel} out of fuel), finite and infinite runs agree, 0 mismatches")


ACCEPTED_PAIRS = {
    "loop.cert": "loop.urm",
    "minus-div.cert": "minus.urm",
    "minus-term.cert": "minus.urm",
    "offset-div.cert": "offset.urm",
    "v-div.cert": "v.urm",
}


def test_criterion_07_certificates_match_sampled_behavior(samples_dir):
    found = sorted(path.name for path in samples_dir.glob("*.cert"))
    assert found == sorted(ACCEPTED_PAIRS)
    rng = random.Random(7)
    violations = 0
    for cert_name, prog_name in sorted(ACCEPTED_PAIRS.items()):
        p, cert = _load(samples_dir, prog_name, cert_name)
        assert _check(p, cert).accepted
        for _ in range(20):
            regs = instantiate(cert, sample_parameters(cert, rng))
            outcome = run(p, Config(regs), 10000)
            status, visits = head_visits(p, dict(regs), cert.loop_head, 10000)
            if isinstance(cert, TerminationCert):
                x, y = cert.ranking
                budget = regs.get(x, 0) - regs.get(y, 0) + 1
                if not (isinstance(outcome, Halted) and status == "halted" and len(visits) <= budget):
                    violations += 1
            else:
                ok = isinstance(outcome, OutOfFuel) and status == "fuel"
                ok = ok and all(atom_holds(atom, register_values(atom, snap)) for snap in visits for atom in cert.invariant)
                if not ok:
                    violations += 1
    assert violations == 0
    print("criterion 7 PASS: 5 accepted certificates x 20 sampled instantiations, 0 violations")


def test_criterion_08_rejections_carry_the_expected_codes(samples_dir):
    # the gap and window rows need an invariant atom's offsets folded into its bound,
    # from the file (r1+2 < r2+1) and from the loop's S 2 (r2+1 <= r1+5)
    cases = [
        ("minus.urm", "rejected/minus-div-weak.cert", UNDECIDED_BRANCH, 1, None),
        ("b.urm", "rejected/b-div.cert", HALTED_DURING_LOOP, 2, None),
        ("minus.urm", "rejected/minus-term-revrank.cert", RANKING_NOT_NONNEGATIVE, None, None),
        ("minus.urm", "rejected/minus-div-gap.cert", INVARIANT_NOT_ESTABLISHED, None, Atom("r1", "r2", "<=", -2)),
        ("minus.urm", "rejected/minus-div-window.cert", INVARIANT_NOT_PRESERVED, None, Atom("r2", "r1", "<=", 4)),
        # r4 is no register of minus.urm: its value comes from `init:` by position
        ("minus.urm", "rejected/minus-div-r4.cert", INVARIANT_NOT_ESTABLISHED, None, Atom("r4", None, "=", 8)),
        # false termination claims: each program diverges for every m > n.  The
        # first needs the ranking's decrease read with a variable left over
        # (r1 takes r3's value), the second the continue case to keep the
        # split value r1 = r2 + 1, at which the jump at 4 enters an endless loop
        ("rejected/chase.urm", "rejected/chase-term.cert", RANKING_NOT_DECREASING, None, None),
        ("rejected/stall.urm", "rejected/stall-term.cert", UNDECIDED_BRANCH, 4, None),
    ]
    for prog_name, cert_name, code, pc, atom in cases:
        p, cert = _load(samples_dir, prog_name, cert_name)
        report = _check(p, cert)
        assert not report.accepted
        assert report.reason.code == code
        assert report.reason.pc == pc
        assert report.reason.atom == atom
    print(f"criterion 8 PASS: {len(cases)} rejected certificates with codes "
          f"{UNDECIDED_BRANCH}, {HALTED_DURING_LOOP}, {RANKING_NOT_NONNEGATIVE}, "
          f"{RANKING_NOT_DECREASING}, {INVARIANT_NOT_ESTABLISHED}, {INVARIANT_NOT_PRESERVED}")


def _random_operand(rng, names):
    if rng.random() < 0.2:
        return None
    return rng.choice(names)


def _random_atom(rng, names):
    rel = rng.choice(("<", "<=", "=", ">=", ">", "!="))
    return Atom(_random_operand(rng, names), _random_operand(rng, names), rel, rng.randint(-3, 3))


def _random_value(rng, names):
    if rng.random() < 0.3:
        return SymValue(offset=rng.randint(0, 5))
    return SymValue(rng.choice(names), rng.randint(0, 3))


def test_criterion_09_constraint_decisions_are_sound():
    rng = random.Random(9)
    names = ("a", "b", "c")
    cube = [dict(zip(names, point)) for point in itertools.product(range(6), repeat=3)]
    unsound = 0
    for _ in range(300):
        cs = ConstraintSet.of(*(_random_atom(rng, names) for _ in range(rng.randint(0, 4))))
        models = [point for point in cube if constraints_hold(cs, point)]
        goal = _random_atom(rng, names)
        if entails(cs, goal) and not all(atom_holds(goal, point) for point in models):
            unsound += 1
        left, right = _random_value(rng, names), _random_value(rng, names)
        verdict = decide_eq(left, right, cs)
        if verdict is True and any(sym_value(left, point) != sym_value(right, point) for point in models):
            unsound += 1
        if verdict is False and any(sym_value(left, point) == sym_value(right, point) for point in models):
            unsound += 1
    assert unsound == 0
    print("criterion 9 PASS: 300 random constraint sets checked against [0..5]^3, 0 unsound answers")


def test_criterion_10_round_trips_and_stable_cli(capsys, samples_dir):
    bundled = sorted(samples_dir.rglob("*.urm"))
    assert bundled
    for path in bundled:
        p = parse_program(path.read_text())
        assert parse_program(print_program(p)) == p
    rng = random.Random(10)
    for _ in range(200):
        p = random_program(rng)
        assert parse_program(print_program(p)) == p

    minus = str(samples_dir / "minus.urm")
    b = str(samples_dir / "b.urm")
    invocations = [
        ("validate", minus),
        ("run", minus, "--init", "5,3,0"),
        ("run", b, "--init", "0,1", "--show-steps"),
        ("abstract", b, "--init", "0,0"),
        ("cert", minus, str(samples_dir / "minus-div.cert")),
        ("cert", minus, str(samples_dir / "rejected/minus-div-weak.cert")),
    ]

    def capture(argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    for argv in invocations:
        assert capture(argv) == capture(argv)
    assert capture(["run", minus, "--init", "5,3,0"]) == (0, "halted: 2,5,2\nsteps: 10\n", "")
    print(f"criterion 10 PASS: {len(bundled)} bundled + 200 generated round trips; "
          f"{len(invocations)} command outputs stable across two runs")
