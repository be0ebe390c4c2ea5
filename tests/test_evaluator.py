"""Concrete evaluation against the brute-force oracle."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from urm import (
    Config,
    ConstraintSet,
    Converges,
    DivergenceCert,
    Diverges,
    FiniteConfig,
    Halt,
    Halted,
    Incompatible,
    Jump,
    MachineState,
    Next,
    NotAbstractProgram,
    OutOfFuel,
    PcOutOfRange,
    Program,
    Succ,
    Transfer,
    Zero,
    check_divergence,
    decide_abstract,
    include,
    restrict,
    run,
    run_finite,
    step,
    trace,
)
from oracles import apply_instr, naive_run, random_program


def _sparse(c: Config) -> dict[int, int]:
    return dict(c.items())


def _renumbered(p: Program, to: dict[int, int]) -> Program:
    out = []
    for instr in p:
        if isinstance(instr, Jump):
            out.append(Jump(to[instr.i], to[instr.j], instr.k))
        elif isinstance(instr, Transfer):
            out.append(Transfer(to[instr.i], to[instr.j]))
        else:
            out.append(type(instr)(to[instr.i]))
    return Program(tuple(out))


def test_step_walks_the_minus_program(u_minus):
    s = MachineState(u_minus, 1, include(FiniteConfig((1, 1, 0))))
    r = step(s)
    assert isinstance(r, Next) and r.state.pc == 5  # equal registers jump
    r = step(r.state)
    assert isinstance(r, Halt)  # transfer at the last position
    assert restrict(r.config, u_minus) == FiniteConfig((0, 1, 0))


def test_step_not_taken_jump_falls_through(u_minus):
    s = MachineState(u_minus, 1, include(FiniteConfig((0, 1, 0))))
    r = step(s)
    assert isinstance(r, Next) and r.state.pc == 2
    assert r.state.config == s.config


def test_step_jump_to_zero_halts():
    p = Program((Jump(1, 1, 0), Zero(1)))
    r = step(MachineState(p, 1, Config()))
    assert isinstance(r, Halt)


def test_step_rejects_bad_positions_and_forms(u_minus):
    with pytest.raises(PcOutOfRange):
        step(MachineState(u_minus, 0, Config()))
    with pytest.raises(PcOutOfRange):
        step(MachineState(u_minus, 6, Config()))


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
        for prog, start in ((p, regs), (_renumbered(p, to), sparse)):
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
    big = 10**6
    p = Program((Zero(big), Jump(1, 1, 2)))
    cert = DivergenceCert(ConstraintSet(), {}, loop_head=2, invariant=(), step_bound=4)
    tracemalloc.start()
    try:
        report = check_divergence(p, cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert report.accepted
    assert report.trail == ((2, "jt·r"),)


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
