"""Machine-checkable divergence and termination certificates.

Both certificate kinds describe a lasso: a prefix run from the first
instruction to a loop head, then a loop body that returns to the head.
The prefix is executed symbolically from the certified initial contents
under the parameter constraints.  The loop body is then re-executed from
a fresh symbolic state constrained only by the loop invariant, so
accepting it proves something about every state satisfying the
invariant, not just the states the prefix happens to reach.

For divergence the invariant must be re-established when the body comes
back to the head; because the body takes at least one step, an accepted
certificate denotes an infinite run.  For termination the body is
checked twice, split by a threshold on a register difference: under the
continue case the invariant must be preserved and the ranking register
difference must be nonnegative and strictly decrease, and under the
exit case the program must halt within the step bound.  The two cases
cover all values, so together they prove the loop exits.

Each invariant operand is resolved to its register index once, when the
certificate is constructed; the checks read those indices and never a
register name.

Rejection reports carry a single reason code and, where useful, the
offending program position or invariant atom.  Parameter constraints
that no input meets are rejected too: such a claim holds only because
it covers nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .constraints import (
    Atom,
    ConstraintSet,
    SymValue,
    decide_eq,
    entails,
    parse_reg_var,
    reg_var,
    _satisfiable,
    _ZERO,
)
from .errors import NotStandardForm, PcOutOfRange
from .machine import Jump, Program, Succ, Zero

PREFIX_FAILED = "PrefixFailed"
UNDECIDED_BRANCH = "UndecidedBranch"
HALTED_DURING_LOOP = "HaltedDuringLoop"
LOOP_NOT_CLOSED = "LoopNotClosed"
INVARIANT_NOT_ESTABLISHED = "InvariantNotEstablished"
INVARIANT_NOT_PRESERVED = "InvariantNotPreserved"
RANKING_NOT_NONNEGATIVE = "RankingNotNonnegative"
RANKING_NOT_DECREASING = "RankingNotDecreasing"
EXIT_DOES_NOT_HALT = "ExitDoesNotHalt"
CONSTRAINTS_UNSATISFIABLE = "ConstraintsUnsatisfiable"


@dataclass(frozen=True)
class SymState:
    """Symbolic configuration: position plus per-register symbolic values."""

    pc: int
    regs: dict[int, SymValue]

    def value(self, i: int) -> SymValue:
        return self.regs.get(i, _ZERO)


@dataclass(frozen=True)
class SymNext:
    state: SymState
    rule: str


@dataclass(frozen=True)
class SymHalt:
    state: SymState
    rule: str


@dataclass(frozen=True)
class Undecided:
    pc: int
    i: int
    j: int


SymStepResult = Union[SymNext, SymHalt, Undecided]


@dataclass(frozen=True)
class Reason:
    code: str
    pc: int | None = None
    atom: Atom | None = None


TrailEntry = tuple[int, str]


@dataclass(frozen=True)
class CertReport:
    accepted: bool
    trail: tuple[TrailEntry, ...] = ()
    reason: Reason | None = None


@dataclass(frozen=True)
class DivergenceCert:
    """Claim: from the certified initial contents the program never halts."""

    param_constraints: ConstraintSet
    init: Mapping[int, SymValue]
    loop_head: int
    invariant: tuple[Atom, ...]
    step_bound: int

    def __post_init__(self) -> None:
        _check_common(self)


@dataclass(frozen=True)
class TerminationCert:
    """Claim: from the certified initial contents the program halts.

    `split` is a register pair with a threshold (x, y, k); the continue
    case assumes r_x - r_y >= k+1 and the exit case r_x - r_y <= k.
    `ranking` names the register pair whose difference decreases.
    """

    param_constraints: ConstraintSet
    init: Mapping[int, SymValue]
    loop_head: int
    invariant: tuple[Atom, ...]
    split: tuple[int, int, int]
    ranking: tuple[int, int]
    step_bound: int

    def __post_init__(self) -> None:
        _check_common(self)
        for index in (*self.split[:2], *self.ranking):
            if index < 1:
                raise ValueError("registers are indexed from 1")
        if self.split[2] < 0:
            raise ValueError("split threshold is a natural")

    def continue_atom(self) -> Atom:
        x, y, k = self.split
        return Atom(reg_var(x), reg_var(y), ">=", k + 1)

    def exit_atom(self) -> Atom:
        x, y, k = self.split
        return Atom(reg_var(x), reg_var(y), "<=", k)


Cert = Union[DivergenceCert, TerminationCert]


def _reg_index(var: str | None) -> int:
    """Register index of an invariant operand; 0 for an absent side."""
    index = 0 if var is None else parse_reg_var(var)
    if index is None:
        raise ValueError(f"not a register operand: {var!r}")
    return index


def _check_common(cert: Cert) -> None:
    if cert.loop_head < 1:
        raise PcOutOfRange("loop head is indexed from 1")
    if cert.step_bound < 1:
        raise ValueError("step bound must be positive")
    for index in cert.init:
        if index < 1:
            raise ValueError("registers are indexed from 1")
    # each atom's (x, y) register indices, kept as `Program` keeps its
    # facts: no field, so equality and `repr` see only the claim
    object.__setattr__(cert, "_operands", tuple((_reg_index(a.x), _reg_index(a.y)) for a in cert.invariant))


# The ten rule strings, (non-final, final) per tag, built once: a trail
# keeps one per step, so each entry shares them instead of a copy.
_RULES = {tag: (f"{tag}·r", f"{tag}·l") for tag in ("jt", "jf", "z", "s", "t")}


def sym_step(p: Program, s: SymState, cs: ConstraintSet) -> SymStepResult:
    """One symbolic step; mirrors the concrete step relation.

    Jumps are resolved by three-valued equality of the compared values
    under `cs`; an unresolved comparison yields Undecided.  The rule
    field names the applied evaluation rule: "jt"/"jf" for a taken or
    failed jump, "z"/"s"/"t" for the others, then "·l" when the next
    position is 0 and the step halts, "·r" otherwise.  So "s·r" is a
    non-final increment and "jt·l" a taken jump to position 0.
    """
    if not p.standard:
        raise NotStandardForm("symbolic execution requires standard form")
    n = len(p)
    if not 1 <= s.pc <= n:
        raise PcOutOfRange(f"position {s.pc} outside 1..{n}")
    instr = p.instructions[s.pc - 1]
    nxt = s.pc + 1 if s.pc < n else 0
    regs = s.regs
    if isinstance(instr, Jump):
        eq = decide_eq(s.value(instr.i), s.value(instr.j), cs)
        if eq is None:
            return Undecided(s.pc, instr.i, instr.j)
        tag = "jt" if eq else "jf"
        if eq:
            nxt = instr.k
    else:
        regs = dict(s.regs)
        if isinstance(instr, Zero):
            regs[instr.i] = _ZERO
            tag = "z"
        elif isinstance(instr, Succ):
            value = s.value(instr.i)
            regs[instr.i] = SymValue(value.var, value.offset + 1)
            tag = "s"
        else:
            regs[instr.j] = s.value(instr.i)
            tag = "t"
    if not nxt:
        return SymHalt(SymState(s.pc, regs), _RULES[tag][1])
    return SymNext(SymState(nxt, regs), _RULES[tag][0])


def _universe(p: Program, cert: Cert) -> set[int]:
    """The registers the program or the certificate mentions; no other
    register is ever read, so the symbolic state leaves them out."""
    out = set(p.registers) | set(cert.init)
    out |= {i for pair in cert._operands for i in pair if i}
    if isinstance(cert, TerminationCert):
        out |= {*cert.split[:2], *cert.ranking}
    return out


class _Rejected(Exception):
    """A certificate fails; raised where the failure is found."""

    def __init__(self, code: str, pc: int | None = None, atom: Atom | None = None) -> None:
        super().__init__(code)
        self.report = CertReport(accepted=False, reason=Reason(code, pc=pc, atom=atom))


def _walk(
    p: Program,
    s: SymState,
    cs: ConstraintSet,
    bound: int,
    head: int | None = None,
    trail: list[TrailEntry] | None = None,
):
    """Symbolic run from `s` of at most `bound` steps.

    Stops on SymHalt, or on a SymNext that arrives at `head`, and returns
    that result, or None when the bound runs out first; each step taken is
    appended to `trail` when one is given.  An undecided jump rejects the
    certificate.
    """
    for _ in range(bound):
        res = sym_step(p, s, cs)
        if isinstance(res, Undecided):
            raise _Rejected(UNDECIDED_BRANCH, pc=res.pc)
        if trail is not None:
            trail.append((s.pc, res.rule))
        if isinstance(res, SymHalt) or res.state.pc == head:
            return res
        s = res.state
    return None


def _assume(cert: Cert, universe: set[int], *extra: Atom) -> tuple[SymState, ConstraintSet]:
    """Fresh symbolic state at the loop head over the registers in
    `universe`, constrained by the invariant and `extra`; register i holds
    the variable named after it, so the atoms are assumed as written."""
    start = SymState(cert.loop_head, {i: SymValue(reg_var(i)) for i in universe})
    return start, ConstraintSet(frozenset((*cert.invariant, *extra)))


def _require_entailed(code: str, cs: ConstraintSet, cert: Cert, regs: Mapping[int, SymValue]) -> None:
    """Reject with `code` at the first invariant atom that `cs` does not
    entail once its registers read `regs`, their offsets folded into the
    bound; `regs` holds every register of the `_universe`."""
    for a, (i, j) in zip(cert.invariant, cert._operands):
        x = regs[i] if i else _ZERO
        y = regs[j] if j else _ZERO
        if not entails(cs, Atom(x.var, y.var, a.rel, a.k - x.offset + y.offset)):
            raise _Rejected(code, atom=a)


def _enter_loop(p: Program, cert: Cert) -> set[int]:
    """Prefix phase: reach the head and establish the invariant there;
    returns the `_universe` that the loop phases start from too."""
    if not p.standard:
        raise NotStandardForm("certificates require a standard-form program")
    if cert.loop_head > len(p):
        raise PcOutOfRange(f"loop head {cert.loop_head} outside 1..{len(p)}")
    # no input meets the constraints, so any claim would hold vacuously
    if not _satisfiable(cert.param_constraints):
        raise _Rejected(CONSTRAINTS_UNSATISFIABLE)
    universe = _universe(p, cert)
    s = SymState(1, {i: cert.init.get(i, _ZERO) for i in universe})
    if s.pc != cert.loop_head:
        # the prefix trail is never printed, so none is kept
        res = _walk(p, s, cert.param_constraints, cert.step_bound, cert.loop_head)
        if not isinstance(res, SymNext):
            raise _Rejected(PREFIX_FAILED)
        s = res.state
    _require_entailed(INVARIANT_NOT_ESTABLISHED, cert.param_constraints, cert, s.regs)
    return universe


def _close_loop(p: Program, cert: Cert, universe: set[int], *extra: Atom):
    """Loop phase: from the head under the invariant and `extra` back to it,
    re-establishing the invariant; returns (start, end, cs, trail)."""
    start, cs = _assume(cert, universe, *extra)
    trail: list[TrailEntry] = []
    res = _walk(p, start, cs, cert.step_bound, cert.loop_head, trail)
    if isinstance(res, SymHalt):
        raise _Rejected(HALTED_DURING_LOOP, pc=res.state.pc)
    if res is None:
        raise _Rejected(LOOP_NOT_CLOSED)
    _require_entailed(INVARIANT_NOT_PRESERVED, cs, cert, res.state.regs)
    return start, res.state, cs, trail


def check_divergence(p: Program, cert: DivergenceCert) -> CertReport:
    """Accept iff the certified lasso proves the program never halts."""
    try:
        _, _, _, trail = _close_loop(p, cert, _enter_loop(p, cert))
    except _Rejected as rejected:
        return rejected.report
    return CertReport(accepted=True, trail=tuple(trail))


def _rank_decreases(cs: ConstraintSet, before: tuple[SymValue, SymValue], after: tuple[SymValue, SymValue]) -> bool:
    """Entailment of rank(after) <= rank(before) - 1.  Within the bound
    fragment only: once the four terms cancel, at most one variable may
    be left with coefficient +1 and one with -1, so that it is one atom."""
    coeffs: dict[str, int] = {}
    bound = -1
    for value, sign in ((after[0], 1), (after[1], -1), (before[0], -1), (before[1], 1)):
        bound -= sign * value.offset
        if value.var is not None:
            coeffs[value.var] = coeffs.get(value.var, 0) + sign
    left = [(var, coeff) for var, coeff in coeffs.items() if coeff]
    plus = [var for var, coeff in left if coeff == 1]
    minus = [var for var, coeff in left if coeff == -1]
    if len(plus) > 1 or len(minus) > 1 or len(plus) + len(minus) < len(left):
        return False
    goal = Atom(plus[0] if plus else None, minus[0] if minus else None, "<=", bound)
    ground = goal.trivial_value()
    # not `entails` when ground: that holds on an infeasible set
    return entails(cs, goal) if ground is None else ground


def check_termination(p: Program, cert: TerminationCert) -> CertReport:
    """Accept iff the certified lasso proves the program halts."""
    try:
        universe = _enter_loop(p, cert)
        start, end, cs, cont_trail = _close_loop(p, cert, universe, cert.continue_atom())
        x, y = cert.ranking
        if not entails(cs, Atom(reg_var(x), reg_var(y), ">=", 0)):
            raise _Rejected(RANKING_NOT_NONNEGATIVE)
        if not _rank_decreases(cs, (start.value(x), start.value(y)), (end.value(x), end.value(y))):
            raise _Rejected(RANKING_NOT_DECREASING)
        start, cs = _assume(cert, universe, cert.exit_atom())
        exit_trail: list[TrailEntry] = []
        res = _walk(p, start, cs, cert.step_bound, trail=exit_trail)
        if res is None:
            raise _Rejected(EXIT_DOES_NOT_HALT)
    except _Rejected as rejected:
        return rejected.report
    return CertReport(accepted=True, trail=tuple(cont_trail + exit_trail))
