"""Program execution: single steps, fuel-bounded runs, lazy traces.

A step from a running state (program, pc, config) either produces the
next running state or halts with the final configuration.  Every step
has a next position: the taken jump's target, or else pc + 1, read as 0
past the last instruction.  The step halts exactly when that position is
0, which covers a taken jump to 0, a failed jump at the last
instruction, and a non-jump at the last instruction (its register
update still applies).  Divergence is never asserted by the runner;
`run` merely reports that the fuel budget ran out.  Positive divergence
verdicts come from `decide_abstract` (jump-only programs, where the
question is decidable) and from certificate checking.

There are two concrete interpreters.  `step` is the rule-level relation,
and `trace` alone drives it; `decide_abstract` and the CLI's
`--show-steps` consume `trace`'s states.  `run` compiles the program to
a list loop over the registers it mentions, for speed; the test suite
checks that the two agree.
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
    restrict,
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
    instr = p.instructions[pc - 1]
    c = s.config
    nxt = pc + 1 if pc < n else 0
    if isinstance(instr, Jump):
        if c._entries.get(instr.i, 0) == c._entries.get(instr.j, 0):
            nxt = instr.k
    elif isinstance(instr, Zero):
        c = zr(c, instr.i)
    elif isinstance(instr, Succ):
        c = sc(c, instr.i)
    else:
        c = mv(c, instr.i, instr.j)
    if not nxt:
        return Halt(c)
    return Next(MachineState(p, nxt, c))


_ZERO, _SUCC, _TRANSFER, _JUMP = range(4)


def _compile(p: Program) -> list[tuple[int, int, int, int, int]]:
    """Code over register slots, slot s standing for `p.registers[s]`.

    Each entry is (tag, a, b, jump target, next position), the next
    position being 0 after the last instruction."""
    slot = {reg: s for s, reg in enumerate(p.registers)}
    n = len(p)
    code = []
    for pos, instr in enumerate(p, start=1):
        nxt = pos + 1 if pos < n else 0
        if isinstance(instr, Zero):
            code.append((_ZERO, slot[instr.i], 0, 0, nxt))
        elif isinstance(instr, Succ):
            code.append((_SUCC, slot[instr.i], 0, 0, nxt))
        elif isinstance(instr, Transfer):
            code.append((_TRANSFER, slot[instr.i], slot[instr.j], 0, nxt))
        else:
            code.append((_JUMP, slot[instr.i], slot[instr.j], instr.k, nxt))
    return code


def run(p: Program, c: Config, fuel: int) -> Outcome:
    """Iterate `step` from (p, 1, c) for at most `fuel` applications.

    The registers the program mentions, `p.registers`, are copied into a
    list with one slot each, so memory follows the program, never the
    register indices; every other register of `c` is untouchable by the
    program and passes through unchanged.  As in `step`, the run halts
    when the next position is 0.
    """
    _require_standard(p)
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    code = _compile(p)
    live = p.registers
    regs = [c._entries.get(reg, 0) for reg in live]
    pc = 1
    steps = 0
    while steps < fuel:
        tag, a, b, k, nxt = code[pc - 1]
        steps += 1
        if tag == _JUMP:
            if regs[a] == regs[b]:
                # a taken jump to 0 halts; kept apart from the fall-through
                # exit below, which measured faster than one shared test
                if not k:
                    break
                pc = k
                continue
        elif tag == _SUCC:
            regs[a] += 1
        elif tag == _ZERO:
            regs[a] = 0
        else:
            regs[b] = regs[a]
        if not nxt:
            break
        pc = nxt
    else:
        return OutOfFuel(MachineState(p, pc, c._updated(zip(live, regs))), fuel)
    return Halted(c._updated(zip(live, regs)), steps)


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
        # `p` writes only r1..r_rho, so sigma's tail past rho is unchanged
        values = restrict(outcome.final, p).values + sigma.values[p.rho:]
        return Halted(FiniteConfig._of(values), outcome.steps)
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
