"""Program execution: single steps, fuel-bounded runs, lazy traces.

A step from a running state (program, pc, config) either produces the
next running state or halts with the final configuration.  Halting
happens in exactly three ways: a jump whose condition holds and whose
target is 0, a jump whose condition fails at the last instruction, or a
non-jump executed at the last instruction (its register update still
applies).  Divergence is never asserted by the runner; `run` merely
reports that the fuel budget ran out.  Positive divergence verdicts come
from `decide_abstract` (jump-only programs, where the question is
decidable) and from certificate checking.

There are two concrete interpreters.  `step` is the rule-level relation;
`trace`, `decide_abstract` and the CLI's `--show-steps` drive it.  `run`
compiles the program to a list loop over the registers it mentions, for
speed; the test suite checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .errors import Incompatible, NotAbstractProgram, NotStandardForm, PcOutOfRange
from .machine import (
    Config,
    FiniteConfig,
    Jump,
    Program,
    Succ,
    Transfer,
    Zero,
    compatible,
    include,
    mv,
    sc,
    zr,
)


@dataclass(frozen=True)
class MachineState:
    program: Program
    pc: int
    config: Config


@dataclass(frozen=True)
class Next:
    state: MachineState


@dataclass(frozen=True)
class Halt:
    config: Config


StepResult = Union[Next, Halt]


@dataclass(frozen=True)
class Halted:
    final: Config | FiniteConfig
    steps: int


@dataclass(frozen=True)
class OutOfFuel:
    last: MachineState
    steps: int


Outcome = Union[Halted, OutOfFuel]


@dataclass(frozen=True)
class Converges:
    steps: int


@dataclass(frozen=True)
class Diverges:
    cycle_entry_pc: int
    cycle_length: int


AbstractVerdict = Union[Converges, Diverges]


def _require_standard(p: Program) -> None:
    if not p.standard:
        raise NotStandardForm("program is not in standard form")


def step(s: MachineState) -> StepResult:
    """Apply one instruction; config changes only for Zero/Succ/Transfer."""
    p = s.program
    _require_standard(p)
    n = len(p)
    pc = s.pc
    if not 1 <= pc <= n:
        raise PcOutOfRange(f"pc {pc} not in [1..{n}]")
    instr = p.at(pc)
    if isinstance(instr, Jump):
        if s.config.get(instr.i) == s.config.get(instr.j):
            if instr.k == 0:
                return Halt(s.config)
            return Next(MachineState(p, instr.k, s.config))
        if pc == n:
            return Halt(s.config)
        return Next(MachineState(p, pc + 1, s.config))
    if isinstance(instr, Zero):
        updated = zr(s.config, instr.i)
    elif isinstance(instr, Succ):
        updated = sc(s.config, instr.i)
    else:
        updated = mv(s.config, instr.i, instr.j)
    if pc == n:
        return Halt(updated)
    return Next(MachineState(p, pc + 1, updated))


_ZERO, _SUCC, _TRANSFER, _JUMP = range(4)


def _compile(p: Program) -> tuple[list[tuple[int, int, int, int]], list[int]]:
    """Code over register slots, numbered by first mention, and the
    register each slot stands for."""
    slots: dict[int, int] = {}

    def slot(reg: int) -> int:
        return slots.setdefault(reg, len(slots))

    code = []
    for instr in p:
        if isinstance(instr, Zero):
            code.append((_ZERO, slot(instr.i), 0, 0))
        elif isinstance(instr, Succ):
            code.append((_SUCC, slot(instr.i), 0, 0))
        elif isinstance(instr, Transfer):
            code.append((_TRANSFER, slot(instr.i), slot(instr.j), 0))
        else:
            code.append((_JUMP, slot(instr.i), slot(instr.j), instr.k))
    return code, list(slots)


def run(p: Program, c: Config, fuel: int) -> Outcome:
    """Iterate `step` from (p, 1, c) for at most `fuel` applications.

    The registers the program mentions are copied into a list with one
    slot each, so memory follows the program, never the register indices;
    every other register of `c` is untouchable by the program and passes
    through unchanged.
    """
    _require_standard(p)
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    code, live = _compile(p)
    regs = [c.get(reg) for reg in live]

    def snapshot() -> Config:
        return c._updated(zip(live, regs))

    n = len(code)
    pc = 1
    steps = 0
    while steps < fuel:
        tag, a, b, k = code[pc - 1]
        steps += 1
        if tag == _JUMP:
            if regs[a] == regs[b]:
                if k == 0:
                    return Halted(snapshot(), steps)
                pc = k
                continue
            if pc == n:
                return Halted(snapshot(), steps)
            pc += 1
            continue
        if tag == _SUCC:
            regs[a] += 1
        elif tag == _ZERO:
            regs[a] = 0
        else:
            regs[b] = regs[a]
        if pc == n:
            return Halted(snapshot(), steps)
        pc += 1
    return OutOfFuel(MachineState(p, pc, snapshot()), fuel)


def trace(p: Program, c: Config) -> Iterator[MachineState]:
    """Lazy state sequence from (p, 1, c); finite exactly when the run halts."""
    _require_standard(p)
    state = MachineState(p, 1, c)
    while True:
        yield state
        result = step(state)
        if isinstance(result, Halt):
            return
        state = result.state


def run_finite(p: Program, sigma: FiniteConfig, fuel: int) -> Outcome:
    """Like `run`, but over the list view; the final config keeps length m."""
    if not compatible(sigma, p):
        raise Incompatible(
            f"program needs registers up to {p.rho} in standard form, "
            f"got a length-{len(sigma)} configuration"
        )
    outcome = run(p, include(sigma), fuel)
    if isinstance(outcome, Halted):
        assert isinstance(outcome.final, Config)
        values = tuple(outcome.final.get(i) for i in range(1, len(sigma) + 1))
        return Halted(FiniteConfig(values), outcome.steps)
    return outcome


def decide_abstract(p: Program, c: Config) -> AbstractVerdict:
    """Decide convergence for a jump-only program.

    Jumps never write registers, so the reachable states are just the
    program counters; either the run halts within n steps or some pc
    repeats, which pins down the loop.  Takes at most n+1 steps.
    """
    _require_standard(p)
    for instr in p:
        if not isinstance(instr, Jump):
            raise NotAbstractProgram(f"non-jump instruction {instr!r}")
    seen: dict[int, int] = {}
    for steps, state in enumerate(trace(p, c)):
        if state.pc in seen:
            return Diverges(cycle_entry_pc=state.pc, cycle_length=steps - seen[state.pc])
        seen[state.pc] = steps
    return Converges(len(seen))
