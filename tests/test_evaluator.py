"""Concrete evaluation against the brute-force oracle."""

from __future__ import annotations

import random
import sys
import tracemalloc

import pytest

from urm import (
    Config,
    ConstraintSet,
    Converges,
    DivergenceCert,
    Diverges,
    FiniteConfig,
    Halted,
    Incompatible,
    Jump,
    MachineState,
    NotAbstractProgram,
    NotStandardForm,
    OutOfFuel,
    PcOutOfRange,
    Program,
    Succ,
    SymState,
    SymValue,
    TerminationCert,
    Transfer,
    Zero,
    check_divergence,
    check_termination,
    decide_abstract,
    include,
    mv,
    parse_program,
    print_program,
    restrict,
    run,
    run_finite,
    sc,
    step,
    sym_step,
    trace,
    zr,
)
from oracles import apply_instr, naive_pcs, naive_run, random_program, renumbered


def _sparse(c: Config) -> dict[int, int]:
    return dict(c.items())


def test_step_walks_the_minus_program(u_minus):
    s = MachineState(u_minus, 1, include(FiniteConfig((1, 1, 0))))
    r = step(s)
    assert r.pc == 5  # equal registers jump
    r = step(r)
    assert r.pc == 0  # transfer at the last position
    assert restrict(r.config, u_minus) == FiniteConfig((0, 1, 0))


def test_step_not_taken_jump_falls_through(u_minus):
    s = MachineState(u_minus, 1, include(FiniteConfig((0, 1, 0))))
    r = step(s)
    assert r.pc == 2
    assert r.config == s.config


def test_step_jump_to_zero_halts():
    p = Program((Jump(1, 1, 0), Zero(1)))
    r = step(MachineState(p, 1, Config()))
    assert r.pc == 0


def test_step_updates_as_zr_sc_and_mv():
    """`step` writes the next configuration itself, not through `zr`/`sc`/
    `mv`: one Z, S or T step from a random configuration gives their result
    and the reference update's, and a zero result stores no entry."""
    rng = random.Random(24)
    zeros = 0
    for _ in range(3000):
        regs = {r: rng.randrange(3) for r in rng.sample(range(1, 9), rng.randrange(7))}
        c = Config(regs)
        i, j = rng.randrange(1, 9), rng.randrange(1, 9)
        instr, public = rng.choice([(Zero(i), zr(c, i)), (Succ(i), sc(c, i)), (Transfer(i, j), mv(c, i, j))])
        nxt = step(MachineState(Program((instr, Jump(1, 1, 1))), 1, c))
        expected = {r: v for r, v in regs.items() if v}
        apply_instr(instr, 1, expected)
        assert nxt.pc == 2
        assert nxt.config == public and nxt.config._entries == public._entries == expected
        assert 0 not in nxt.config._entries.values()
        zeros += nxt.config.get(j if isinstance(instr, Transfer) else i) == 0
    assert zeros > 500


def test_an_instruction_subclass_steps_compiles_and_runs_as_its_base():
    """A subclass inherits its base's tag: `step`, `_code`, `run`,
    `run_finite`, `decide_abstract` and `print_program` treat its instances
    as the base's."""
    subclasses = {base: type(f"My{base.__name__}", (base,), {"__slots__": ()})
                  for base in (Zero, Succ, Transfer, Jump)}
    # r4 := 0, then r3 := r1 - r2 + r3 by counting r2 up to r1, then r1 := r3
    instrs = (Zero(4), Jump(1, 2, 6), Succ(2), Succ(3), Jump(1, 1, 2), Transfer(3, 1))
    base = Program(instrs)
    sub = Program(tuple(subclasses[type(instr)](*instr._astuple) for instr in instrs))
    assert all(type(a) is not type(b) for a, b in zip(base, sub))
    assert sub._code == base._code
    assert print_program(sub) == print_program(base)
    c = include(FiniteConfig((7, 2, 1, 9)))
    assert [(s.pc, s.config) for s in trace(sub, c)] == [(s.pc, s.config) for s in trace(base, c)]
    assert run(sub, c, 100) == run(base, c, 100) == Halted(include(FiniteConfig((6, 7, 6, 0))), 23)
    assert run_finite(sub, restrict(c, sub), 100) == run_finite(base, restrict(c, base), 100)
    jumps = Program((subclasses[Jump](1, 2, 2), subclasses[Jump](1, 1, 1)))
    assert decide_abstract(jumps, c) == Diverges(cycle_entry_pc=1, cycle_length=2)


def test_step_rejects_bad_positions_and_forms(u_minus):
    for pc in (0, 6):
        with pytest.raises(PcOutOfRange, match=rf"^pc {pc} not in \[1\.\.5\]$"):
            step(MachineState(u_minus, pc, Config()))
    with pytest.raises(NotStandardForm, match=r"^program is not in standard form$"):
        step(MachineState(Program((Succ(1), Jump(1, 1, 3))), 1, Config()))


@pytest.mark.parametrize("instructions, pc, regs, want_pc, want_regs", [
    ((Zero(2), Jump(1, 1, 1)), 1, {1: 3, 2: 4}, 2, {1: 3}),
    ((Succ(2), Jump(1, 1, 1)), 1, {1: 3}, 2, {1: 3, 2: 1}),
    ((Transfer(1, 3), Jump(1, 1, 1)), 1, {1: 3, 3: 7}, 2, {1: 3, 3: 3}),
    ((Jump(1, 2, 3), Zero(1), Succ(1)), 1, {1: 2, 2: 2}, 3, {1: 2, 2: 2}),  # taken
    ((Jump(1, 2, 3), Zero(1), Succ(1)), 1, {1: 2}, 2, {1: 2}),  # failed
    ((Jump(1, 1, 0), Zero(1)), 1, {1: 5}, 0, {1: 5}),  # taken to 0
    ((Jump(1, 1, 1), Succ(1)), 2, {1: 5}, 0, {1: 6}),  # halting last line
])
def test_step_builds_the_state_the_constructor_builds(instructions, pc, regs, want_pc, want_regs):
    """`step` builds its state without calling `MachineState`; the result
    is the one the constructor gives, with its hash and `repr`."""
    p = Program(instructions)
    got = step(MachineState(p, pc, Config(regs)))
    want = MachineState(p, want_pc, Config(want_regs))
    assert type(got) is MachineState
    assert (got, hash(got), repr(got)) == (want, hash(want), repr(want))


def test_every_driver_requires_standard_form():
    """The concrete and the symbolic interpreters refuse a program with a
    jump past its end in the same words, those of
    `machine._require_standard`, which `step` tests inline."""
    p = Program((Succ(1), Jump(1, 1, 9)))
    lasso = dict(param_constraints=ConstraintSet(), init=(), loop_head=1, invariant=(), step_bound=1)
    refusals = {
        "step": lambda: step(MachineState(p, 1, Config())),
        "trace": lambda: next(trace(p, Config())),
        "run": lambda: run(p, Config(), 10),
        "decide_abstract": lambda: decide_abstract(p, Config()),
        "sym_step": lambda: sym_step(p, SymState(1, (SymValue(),)), ConstraintSet()),
        "check_divergence": lambda: check_divergence(p, DivergenceCert(**lasso)),
        "check_termination": lambda: check_termination(p, TerminationCert(split=(1, 1, 0), ranking=(1, 1), **lasso)),
    }
    for entry, refuse in refusals.items():
        with pytest.raises(NotStandardForm, match=r"^program is not in standard form$"):
            refuse()
            pytest.fail(f"{entry} ran a program that is not in standard form")


def test_run_on_the_subtraction_example(u_minus):
    out = run(u_minus, include(FiniteConfig((5, 3, 0))), 100000)
    assert isinstance(out, Halted)
    assert out.steps == 10
    assert restrict(out.final, u_minus) == FiniteConfig((2, 5, 2))


def test_run_out_of_fuel_reports_the_budget(u_minus):
    out = run(u_minus, include(FiniteConfig((2, 5, 0))), 1000)
    assert isinstance(out, OutOfFuel)
    assert out.steps == 1000
    assert out.last.pc in (1, 2, 3, 4)


def test_run_with_zero_fuel_never_steps(u_minus):
    out = run(u_minus, Config(), 0)
    assert isinstance(out, OutOfFuel)
    assert out.steps == 0
    with pytest.raises(ValueError):
        run(u_minus, Config(), -1)


@pytest.mark.parametrize("driver", [
    lambda p, fuel: run(p, Config(), fuel),
    lambda p, fuel: run_finite(p, FiniteConfig((0,)), fuel),
], ids=["run", "run_finite"])
@pytest.mark.parametrize("fuel", [2.5, True, -1], ids=repr)
def test_fuel_must_be_a_natural(driver, fuel):
    """A float or bool fuel would run and be reported back as the step
    count, so it is refused as a negative one is."""
    with pytest.raises(ValueError, match="fuel must be a natural number"):
        driver(Program((Succ(1), Jump(1, 1, 1))), fuel)


def test_run_agrees_with_the_naive_interpreter():
    rng = random.Random(20260825)
    for case in range(300):
        p = random_program(rng)
        regs = {i: rng.randint(0, 3) for i in range(1, p.rho + 1)}
        fuel = rng.choice((0, 1, 2, 7, 50, 200))
        # the same program on large, sparse register indices, next to
        # registers it never mentions
        far = rng.sample(range(1, 10**9), 5)
        to = dict(zip((1, 2, 3), far))
        sparse = {to[i]: v for i, v in regs.items()}
        sparse.update({far[3]: rng.randint(0, 3), far[4]: rng.randint(0, 3)})
        for prog, start in ((p, regs), (renumbered(p, to), sparse)):
            got = run(prog, Config(start), fuel)
            verdict, final, steps = naive_run(prog, start, fuel)
            if verdict == "halted":
                assert isinstance(got, Halted), (case, prog)
                assert got.steps == steps
                assert _sparse(got.final) == final
            else:
                assert isinstance(got, OutOfFuel), (case, prog)
                assert got.steps == steps
                assert _sparse(got.last.config) == final


def _counting_program(rng: random.Random) -> Program:
    """Mostly increments and jumps, many of them backward; Z and T rare."""
    n = rng.randint(2, 8)
    top = rng.randint(1, 4)
    out = []
    for pos in range(1, n + 1):
        i, j = rng.randint(1, top), rng.randint(1, top)
        roll = rng.random()
        if roll < 0.45:
            out.append(Succ(i))
        elif roll < 0.93:
            k = rng.randint(1, pos) if rng.random() < 0.6 else rng.randint(0, n)
            out.append(Jump(i, j, k))
        else:
            out.append(rng.choice((Zero(i), Transfer(i, j))))
    return Program(tuple(out))


def test_run_agrees_with_the_naive_interpreter_on_counting_loops():
    # counting loops that iterate long enough for `run` to leap over them
    rng = random.Random(20261018)
    for case in range(400):
        p = _counting_program(rng)
        regs = {i: rng.randint(0, 50) for i in range(1, p.rho + 1)}
        fuel = rng.choice((0, 1, 5, 60, 700, 3000, 10**4))
        got = run(p, Config(regs), fuel)
        verdict, final, steps = naive_run(p, regs, fuel)
        if verdict == "halted":
            assert isinstance(got, Halted), (case, p)
            assert (got.steps, _sparse(got.final)) == (steps, final), (case, p)
        else:
            assert isinstance(got, OutOfFuel), (case, p)
            assert (got.steps, _sparse(got.last.config)) == (steps, final), (case, p)
            assert got.last.pc == naive_pcs(p, regs, fuel + 1)[-1], (case, p)


def test_run_is_exact_on_counts_no_stepping_run_reaches(samples_dir):
    minus = parse_program((samples_dir / "minus.urm").read_text())
    m = 10**30
    out = run(minus, Config({1: m}), 10**40)
    assert isinstance(out, Halted)
    assert out.steps == 4 * m + 2
    assert _sparse(out.final) == {1: m, 2: m, 3: m}
    # v counts up in r1 forever when r2 = r3; an odd fuel stops it at the jump
    v = parse_program((samples_dir / "v.urm").read_text())
    out = run(v, Config({2: 7, 3: 7}), 10**9 + 1)
    assert isinstance(out, OutOfFuel)
    assert out.steps == 10**9 + 1
    assert out.last.pc == 2
    assert _sparse(out.last.config) == {1: 5 * 10**8 + 1, 2: 7, 3: 7}


def test_run_leaps_a_loop_whose_span_holds_a_z_its_path_skips():
    # J 3 3 4 jumps over Z 5 in every iteration, so the loop J 1 1 1
    # closes counts r2 up to r1 in 4 steps per iteration, then halts
    p = Program((Jump(1, 2, 0), Jump(3, 3, 4), Zero(5), Succ(2), Jump(1, 1, 1)))
    m = 10**30
    out = run(p, Config({1: m, 5: 9}), 10**40)
    assert isinstance(out, Halted)
    assert out.steps == 4 * m + 1
    assert _sparse(out.final) == {1: m, 2: m, 5: 9}


def test_run_finite_is_exact_on_a_renumbered_long_subtraction():
    # minus_k: J 1 2 k+2 / S 2 ... S k / J 1 1 1 / T 3 1 over logical
    # registers 1..k.  Each of the a - b iterations takes k + 1 steps and
    # adds 1 to r2..rk; then the jump out and the transfer take 2 more.
    rng = random.Random(7)
    k, width = 6, 11
    to = dict(zip(range(1, k + 1), rng.sample(range(1, width + 1), k)))
    code = [Jump(to[1], to[2], k + 2)] + [Succ(to[i]) for i in range(2, k + 1)]
    p = Program(tuple(code + [Jump(to[1], to[1], 1), Transfer(to[3], to[1])]))
    a, b = 10**25 + 3, 4
    start = [a, b] + [rng.randint(0, 99) for _ in range(k - 2)]
    values = [rng.randint(0, 99) for _ in range(width)]
    for i, v in enumerate(start, start=1):
        values[to[i] - 1] = v
    out = run_finite(p, FiniteConfig(tuple(values)), 10**30)
    d = a - b
    logical = [start[2] + d, a] + [z + d for z in start[2:]]
    want = list(values)
    for i, v in enumerate(logical, start=1):
        want[to[i] - 1] = v
    assert isinstance(out, Halted)
    assert out.steps == d * (k + 1) + 2
    assert out.final == FiniteConfig(tuple(want))


def test_run_steps_loops_that_zero_or_transfer():
    for write in (Zero(4), Transfer(3, 4)):
        # the Z or T lies inside the span of the backward jump J 1 1 1
        p = Program((Jump(1, 2, 6), Succ(2), Succ(3), write, Jump(1, 1, 1), Transfer(3, 1)))
        for regs, fuel in (({1: 300, 4: 9}, 10**4), ({1: 300}, 777)):
            got = run(p, Config(regs), fuel)
            verdict, final, steps = naive_run(p, regs, fuel)
            assert verdict == ("halted" if fuel > 1500 else "fuel")
            assert isinstance(got, Halted if verdict == "halted" else OutOfFuel)
            assert got.steps == steps
            last = got.final if verdict == "halted" else got.last.config
            assert _sparse(last) == final
    # J 1 2 1 closes a loop of S and J only, but the next iteration falls
    # through it into Z 2 and comes back to the head by J 1 1 1
    p = Program((Succ(1), Jump(1, 2, 1), Zero(2), Jump(1, 1, 1)))
    got = run(p, Config({2: 1}), 4000)
    assert isinstance(got, OutOfFuel)
    assert (got.last.pc, _sparse(got.last.config)) == (3, {1: 1001})
    assert naive_run(p, {2: 1}, 4000)[1] == {1: 1001}
    assert naive_pcs(p, {2: 1}, 4001)[-1] == 3


def test_run_touches_registers_beyond_the_initial_config():
    p = Program((Succ(4), Succ(4)))
    out = run(p, Config(), 10)
    assert isinstance(out, Halted)
    assert _sparse(out.final) == {4: 2}


def test_trace_yields_every_state(u_minus):
    rng = random.Random(20261017)
    cases = [(u_minus, {1: 2, 2: 1})]
    cases += [(random_program(rng), {i: rng.randint(0, 3) for i in (1, 2, 3)}) for _ in range(300)]
    for p, regs in cases:
        want = {i: v for i, v in regs.items() if v}
        pc = 1
        states = trace(p, Config(regs))
        for _ in range(20):
            s = next(states)
            assert (s.pc, _sparse(s.config)) == (pc, want), p
            pc = apply_instr(p.instructions[pc - 1], pc, want)
            if not 1 <= pc <= len(p):
                assert next(states, None) is None, p
                break


@pytest.mark.parametrize("live", [64, 256, 1024])
def test_trace_copies_wide_configs_state_by_state(live):
    """Each `Z`/`S`/`T` step copies a config of up to `live` nonzero
    registers with one pair changed; every state, the earlier ones too once
    the trace has ended, matches the oracle."""
    rng = random.Random(live)
    regs = rng.sample(range(1, 10**6), live)
    init = {reg: rng.randint(1, 3) for reg in regs}
    instrs = []
    for _ in range(300):
        kind, i, j = rng.randrange(3), rng.choice(regs), rng.choice(regs)
        instrs.append((Zero(i), Succ(i), Transfer(i, j))[kind])
    p = Program(tuple(instrs))
    want = dict(init)
    seen = []
    for pc, s in enumerate(trace(p, Config(init)), start=1):
        assert s.pc == pc and _sparse(s.config) == want, (live, pc)
        seen.append((s, dict(want)))
        assert apply_instr(p.instructions[pc - 1], pc, want) == pc + 1
    assert len(seen) == len(p)
    for s, regs_then in seen:
        assert _sparse(s.config) == regs_then


def test_run_memory_follows_the_program_not_the_register_indices():
    big = 10**7
    tracemalloc.start()
    try:
        out = run(Program((Zero(big),)), Config({big + 5: 3}), 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert isinstance(out, Halted)
    assert _sparse(out.final) == {big + 5: 3}


def test_certificate_memory_follows_the_program_not_the_register_indices():
    # a register index of 10^6 in the program, and an `init` 10^5 wide
    # whose registers past r1 nothing reads
    cases = [
        (Program((Zero(10**6), Jump(1, 1, 2))),
         DivergenceCert(ConstraintSet(), (), loop_head=2, invariant=(), step_bound=4), ((2, "jt·r"),)),
        (Program((Succ(1), Jump(1, 1, 1))),
         DivergenceCert(ConstraintSet(), (SymValue(),) * 10**5, loop_head=1, invariant=(), step_bound=2),
         ((1, "s·r"), (2, "jt·r"))),
    ]
    for p, cert, trail in cases:
        tracemalloc.start()
        try:
            report = check_divergence(p, cert)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert report.accepted
        assert report.trail == trail


def test_run_finite_memory_follows_its_result(u_minus):
    # minus.urm on the last three of 10^5 registers
    width = 10**5
    p = renumbered(u_minus, {1: width - 2, 2: width - 1, 3: width})
    sigma = FiniteConfig((7,) * (width - 3) + (1005, 5, 3))
    tracemalloc.start()
    try:
        out = run_finite(p, sigma, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert isinstance(out, Halted)
    assert out.final.values == (7,) * (width - 3) + (1003, 1005, 1003)
    # one copy of the values and the result, never a register dict
    assert peak < 3 * sys.getsizeof(out.final.values)


def test_run_finite_requires_compatibility(prog_b):
    with pytest.raises(Incompatible):
        run_finite(prog_b, FiniteConfig((0,)), 10)


def test_run_finite_matches_run_on_include(u_minus):
    sigma = FiniteConfig((5, 3, 0, 9))
    fin = run_finite(u_minus, sigma, 100000)
    inf = run(u_minus, include(sigma), 100000)
    assert isinstance(fin, Halted) and isinstance(inf, Halted)
    assert fin.steps == inf.steps
    assert include(fin.final) == inf.final
    assert fin.final.values[: u_minus.rho] == restrict(inf.final, u_minus).values
    assert fin.final.values == (2, 5, 2, 9)


def test_decide_abstract_on_the_two_jump_program(prog_b):
    assert decide_abstract(prog_b, include(FiniteConfig((0, 0)))) == Diverges(2, 1)
    assert decide_abstract(prog_b, include(FiniteConfig((0, 1)))) == Converges(2)


def test_decide_abstract_on_the_self_loop(prog_loop):
    assert decide_abstract(prog_loop, Config()) == Diverges(1, 1)


def test_decide_abstract_rejects_non_jump_programs(u_minus):
    with pytest.raises(NotAbstractProgram):
        decide_abstract(u_minus, Config())
