"""Program execution: single steps, fuel-bounded runs, lazy traces.

A step from a running state (program, pc, config) produces the next
state.  Its position is the taken jump's target, or else pc + 1, read as
0 past the last instruction.  A halted state is one at position 0, its
configuration the final one; a step halts on a taken jump to 0, a failed
jump at the last instruction, and a non-jump at the last instruction
(its register update still applies).  Divergence is never asserted by
the runner; `run` merely reports that the fuel budget ran out.  Positive
divergence verdicts come from `decide_abstract` (jump-only programs,
where the question is decidable) and from certificate checking.

There are two concrete interpreters.  `step` is the rule-level relation,
and `trace` alone drives it; `decide_abstract` and the CLI's
`--show-steps` consume `trace`'s states.  `step` dispatches on the
instruction's class tag, `_tag`, copies the configuration with its one
changed register through `Config._with`, and builds its state without a
type call.  `_execute` runs the program's compiled code, `Program._code`,
computed once per program, as a list loop over the registers it mentions,
for both `run` (over a `Config`) and `run_finite` (over the list view);
the test suite checks that the two interpreters agree.

`run` also leaps over counting loops.  Whenever it takes a backward
jump (one whose target is at or before itself), `_leap` walks one
iteration from the target, the loop head, without writing: it counts the
increments per register and, at each jump on the way, the gap between
the two registers compared, and gives up on reaching a `Z` or `T`.
Each gap moves by a constant per iteration, so the iterations that are
sure to follow the same path again have a closed-form count; `_leap`
applies them all at once and adds exactly their steps, never more than
the fuel left.  The result is the one stepping would give: the same
steps, final configuration and, on running out of fuel, the same last
state.  After a failed leap, the same loop head is tried again only
after 1, 2, 4, ... more steps, which bounds the cost on loops whose path
changes every iteration or runs a `Z` or `T`.
"""

from __future__ import annotations

from typing import Iterator

from .errors import Incompatible, NotAbstractProgram, NotStandardForm, PcOutOfRange
from .machine import (
    Config,
    FiniteConfig,
    Program,
    _JUMP,
    _SUCC,
    _ZERO,
    _check_natural,
    _Value,
    compatible,
    include,
)

__all__ = (
    "step", "MachineState", "trace", "run", "run_finite", "Halted", "OutOfFuel", "Outcome", "decide_abstract",
    "Converges", "Diverges", "AbstractVerdict",
)


class MachineState(_Value):
    __slots__ = __match_args__ = ("program", "pc", "config")
    program: Program
    pc: int
    config: Config

    def __init__(self, program: Program, pc: int, config: Config) -> None:
        _state_program(self, program)
        _state_pc(self, pc)
        _state_config(self, config)


class Halted(_Value):
    __slots__ = __match_args__ = ("final", "steps")
    final: Config | FiniteConfig
    steps: int

    def __init__(self, final: Config | FiniteConfig, steps: int) -> None:
        _halted_final(self, final)
        _halted_steps(self, steps)


class OutOfFuel(_Value):
    __slots__ = __match_args__ = ("last", "steps")
    last: MachineState
    steps: int

    def __init__(self, last: MachineState, steps: int) -> None:
        _out_of_fuel_last(self, last)
        _out_of_fuel_steps(self, steps)


_state_program, _state_pc, _state_config = MachineState._setters
_halted_final, _halted_steps = Halted._setters
_out_of_fuel_last, _out_of_fuel_steps = OutOfFuel._setters
Outcome = Halted | OutOfFuel


class Converges(_Value):
    __slots__ = __match_args__ = ("steps",)
    steps: int

    def __init__(self, steps: int) -> None:
        _converges_steps(self, steps)


class Diverges(_Value):
    __slots__ = __match_args__ = ("cycle_entry_pc", "cycle_length")
    cycle_entry_pc: int
    cycle_length: int

    def __init__(self, cycle_entry_pc: int, cycle_length: int) -> None:
        _diverges_entry(self, cycle_entry_pc)
        _diverges_length(self, cycle_length)


(_converges_steps,), (_diverges_entry, _diverges_length) = Converges._setters, Diverges._setters
AbstractVerdict = Converges | Diverges


def _require_standard(p: Program) -> None:
    if not p.standard:
        raise NotStandardForm("program is not in standard form")


def step(s: MachineState) -> MachineState:
    """Apply one instruction; config changes only for Zero/Succ/Transfer.
    The next state is at position 0 when the step halts."""
    p = s.program
    if not p.standard:
        raise NotStandardForm("program is not in standard form")
    instructions = p.instructions
    n = len(instructions)
    pc = s.pc
    if not 1 <= pc <= n:
        raise PcOutOfRange(f"pc {pc} not in [1..{n}]")
    instr = instructions[pc - 1]
    tag = instr._tag
    c = s.config
    entries = c._entries
    nxt = pc + 1 if pc < n else 0
    # the instruction's constructor has checked its operands, so the write
    # skips `zr`/`sc`/`mv`'s checks
    if tag == _JUMP:
        if entries.get(instr.i, 0) == entries.get(instr.j, 0):
            nxt = instr.k
    elif tag == _SUCC:
        c = c._with(instr.i, entries.get(instr.i, 0) + 1)
    elif tag == _ZERO:
        c = c._with(instr.i, 0)
    else:
        c = c._with(instr.j, entries.get(instr.i, 0))
    new = object.__new__(MachineState)
    _state_program(new, p)
    _state_pc(new, nxt)
    _state_config(new, c)
    return new


def _leap(code: tuple[tuple[int, int, int, int, int], ...], regs: list[int], head: int, budget: int) -> int:
    """Apply at once the iterations from `head` sure to repeat one path.

    Walks one iteration over `code` without writing, then adds to `regs`
    the growth of every iteration that follows the same path, as long as
    at most `budget` steps are spent; returns the steps so applied, 0
    when the walk meets a `Z` or `T`, halts or does not return to
    `head`, or when fewer than two iterations qualify."""
    grow: dict[int, int] = {}
    gaps = []
    pc = head
    length = 0
    while True:
        tag, a, b, k, nxt = code[pc - 1]
        length += 1
        if tag == _SUCC:
            grow[a] = grow.get(a, 0) + 1
        elif tag == _JUMP:
            gap = regs[a] + grow.get(a, 0) - regs[b] - grow.get(b, 0)
            gaps.append((a, b, gap))
            if not gap:
                nxt = k
        else:
            return 0
        if nxt == head:
            break
        if not nxt or length == len(code):
            return 0
        pc = nxt
    times = budget // length
    for a, b, gap in gaps:
        # in iteration t the gap is gap + t*d: the jump goes the same way
        # for ever if d is 0, else until t = 1 if gap is 0, and else until
        # t = -gap / d if that is a whole number above 0
        d = grow.get(a, 0) - grow.get(b, 0)
        if not d:
            continue
        if not gap:
            return 0
        if gap % d == 0 and -gap // d > 0:
            times = min(times, -gap // d)
    if times < 2:
        return 0
    for a, g in grow.items():
        regs[a] += times * g
    return times * length


def _execute(p: Program, regs: list[int], fuel: int) -> tuple[int, int]:
    """Run the program's compiled code, `p._code`, from position 1 over
    `regs`, one slot per register of `p.registers`, for at most `fuel`
    steps, updating `regs` in place.  Returns (steps, pc), pc being 0 when
    the run halted and else the position that would run next."""
    if fuel.__class__ is not int or fuel < 0:
        _check_natural(fuel, "fuel")
    code = p._code
    pc = 1
    steps = 0
    # back-off per loop head, by position (0, the halt target, is never
    # written): the step count from which a leap may be tried again, and
    # the wait after the next failure
    retry = [0] * (len(code) + 1)
    wait = [1] * (len(code) + 1)
    while steps < fuel:
        tag, a, b, k, nxt = code[pc - 1]
        steps += 1
        if tag == _JUMP:
            if regs[a] == regs[b]:
                if k <= pc and steps >= retry[k]:
                    # a taken jump to 0 halts (retry[0] stays 0); kept apart
                    # from the fall-through exit below, which measured faster
                    # than one shared test
                    if not k:
                        return steps, 0
                    leapt = _leap(code, regs, k, fuel - steps)
                    if leapt:
                        steps += leapt
                        wait[k] = 1
                    else:
                        retry[k] = steps + wait[k]
                        wait[k] *= 2
                pc = k
                continue
        elif tag == _SUCC:
            regs[a] += 1
        elif tag == _ZERO:
            regs[a] = 0
        else:
            regs[b] = regs[a]
        if not nxt:
            return steps, 0
        pc = nxt
    return fuel, pc


def run(p: Program, c: Config, fuel: int) -> Outcome:
    """Iterate `step` from (p, 1, c) for at most `fuel` applications.

    The registers the program mentions, `p.registers`, are copied into a
    list with one slot each, so memory follows the program, never the
    register indices; every other register of `c` is untouchable by the
    program and passes through unchanged.  As in `step`, the run halts
    when the next position is 0.  Counting loops are leapt over by
    `_leap`, with the result stepping would give.
    """
    _require_standard(p)
    live = p.registers
    regs = [c._entries.get(reg, 0) for reg in live]
    steps, pc = _execute(p, regs, fuel)
    final = c._updated(zip(live, regs))
    if not pc:
        return Halted(final, steps)
    return OutOfFuel(MachineState(p, pc, final), steps)


def trace(p: Program, c: Config) -> Iterator[MachineState]:
    """Lazy state sequence from (p, 1, c); finite exactly when the run
    halts, and without the halted state at position 0."""
    _require_standard(p)
    state = MachineState(p, 1, c)
    while state.pc:
        yield state
        state = step(state)


def run_finite(p: Program, sigma: FiniteConfig, fuel: int) -> Outcome:
    """Like `run`, but over the list view; the final config keeps length m.

    Only the slots of `p.registers` are read and written back, so beyond
    one copy of sigma's values the cost follows the program; the sparse
    `Config` is built only for an `OutOfFuel` last state."""
    if not compatible(sigma, p):
        raise Incompatible(
            f"program needs registers up to {p.rho} in standard form, "
            f"got a length-{len(sigma)} configuration"
        )
    live = p.registers
    values = list(sigma.values)
    regs = [values[reg - 1] for reg in live]
    steps, pc = _execute(p, regs, fuel)
    for reg, val in zip(live, regs):
        values[reg - 1] = val
    final = FiniteConfig._of(tuple(values))
    if not pc:
        return Halted(final, steps)
    return OutOfFuel(MachineState(p, pc, include(final)), steps)


def decide_abstract(p: Program, c: Config) -> AbstractVerdict:
    """Decide convergence for a jump-only program.

    Jumps never write registers, so the reachable states are just the
    program counters; either the run halts within n steps or some pc
    repeats, which pins down the loop.  Takes at most n+1 steps.
    """
    _require_standard(p)
    for instr in p:
        if instr._tag != _JUMP:
            raise NotAbstractProgram(f"non-jump instruction {instr!r}")
    seen: dict[int, int] = {}
    for steps, state in enumerate(trace(p, c)):
        if state.pc in seen:
            return Diverges(cycle_entry_pc=state.pc, cycle_length=steps - seen[state.pc])
        seen[state.pc] = steps
    return Converges(len(seen))
