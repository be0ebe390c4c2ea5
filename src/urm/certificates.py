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

Rejection reports carry a single reason code and, where useful, the
offending program position or invariant atom.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .constraints import (
    Atom,
    Const,
    ConstraintSet,
    SymValue,
    VarPlus,
    decide_eq,
    entails,
    parse_reg_var,
    reg_var,
    substitute,
    _parts,
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


@dataclass(frozen=True)
class SymState:
    """Symbolic configuration: position plus per-register symbolic values."""

    pc: int
    regs: dict[int, SymValue]

    def value(self, i: int) -> SymValue:
        return self.regs.get(i, Const(0))


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


def _check_common(cert: Cert) -> None:
    if cert.loop_head < 1:
        raise PcOutOfRange("loop head is indexed from 1")
    if cert.step_bound < 1:
        raise ValueError("step bound must be positive")
    for index in cert.init:
        if index < 1:
            raise ValueError("registers are indexed from 1")


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
    instr = p.at(s.pc)
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
            regs[instr.i] = Const(0)
            tag = "z"
        elif isinstance(instr, Succ):
            var, offset = _parts(s.value(instr.i))
            regs[instr.i] = Const(offset + 1) if var is None else VarPlus(var, offset + 1)
            tag = "s"
        else:
            regs[instr.j] = s.value(instr.i)
            tag = "t"
    if not nxt:
        return SymHalt(SymState(s.pc, regs), f"{tag}·l")
    return SymNext(SymState(nxt, regs), f"{tag}·r")


def _cert_registers(cert: Cert) -> set[int]:
    out = set(cert.init)
    for a in cert.invariant:
        out |= _atom_registers(a)
    if isinstance(cert, TerminationCert):
        out |= set(cert.split[:2]) | set(cert.ranking)
    return out


def _atom_registers(a: Atom) -> set[int]:
    out: set[int] = set()
    for var in (a.x, a.y):
        if var is None:
            continue
        index = parse_reg_var(var)
        if index is None:
            raise ValueError(f"not a register operand: {var!r}")
        out.add(index)
    return out


def _universe(p: Program, cert: Cert) -> set[int]:
    """The registers the program or the certificate mentions; no other
    register is ever read, so the symbolic state leaves them out."""
    return set(p.registers) | _cert_registers(cert)


class _Rejected(Exception):
    """A certificate fails; raised where the failure is found."""

    def __init__(self, code: str, pc: int | None = None, atom: Atom | None = None) -> None:
        super().__init__(code)
        self.report = CertReport(accepted=False, reason=Reason(code, pc=pc, atom=atom))


def _walk(p: Program, s: SymState, cs: ConstraintSet, bound: int, head: int | None = None):
    """Symbolic run from `s` of at most `bound` steps.

    Stops on SymHalt, or on a SymNext that arrives at `head`, and returns
    that result, or None when the bound runs out first, together with the
    trail of the steps taken.  An undecided jump rejects the certificate.
    """
    trail: list[TrailEntry] = []
    for _ in range(bound):
        res = sym_step(p, s, cs)
        if isinstance(res, Undecided):
            raise _Rejected(UNDECIDED_BRANCH, pc=res.pc)
        trail.append((s.pc, res.rule))
        if isinstance(res, SymHalt) or res.state.pc == head:
            return res, trail
        s = res.state
    return None, trail


def _assume(p: Program, cert: Cert, *extra: Atom) -> tuple[SymState, ConstraintSet]:
    """Fresh symbolic state at the loop head, constrained by the invariant and `extra`."""
    start = SymState(cert.loop_head, {i: VarPlus(f"_{reg_var(i)}") for i in _universe(p, cert)})
    atoms = (*cert.invariant, *extra)
    return start, ConstraintSet(frozenset(substitute(a, start.regs) for a in atoms))


def _require_entailed(code: str, cs: ConstraintSet, atoms: tuple[Atom, ...], regs: Mapping[int, SymValue]) -> None:
    """Reject with `code` at the first atom that `cs` does not entail once
    its registers read `regs`."""
    for a in atoms:
        if not entails(cs, substitute(a, regs)):
            raise _Rejected(code, atom=a)


def _enter_loop(p: Program, cert: Cert) -> None:
    """Prefix phase: reach the head and establish the invariant there."""
    if not p.standard:
        raise NotStandardForm("certificates require a standard-form program")
    if cert.loop_head > len(p):
        raise PcOutOfRange(f"loop head {cert.loop_head} outside 1..{len(p)}")
    s = SymState(1, {i: cert.init.get(i, Const(0)) for i in _universe(p, cert)})
    if s.pc != cert.loop_head:
        res, _ = _walk(p, s, cert.param_constraints, cert.step_bound, cert.loop_head)
        if not isinstance(res, SymNext):
            raise _Rejected(PREFIX_FAILED)
        s = res.state
    _require_entailed(INVARIANT_NOT_ESTABLISHED, cert.param_constraints, cert.invariant, s.regs)


def _close_loop(p: Program, cert: Cert, *extra: Atom):
    """Loop phase: from the head under the invariant and `extra` back to it,
    re-establishing the invariant; returns (start, end, cs, trail)."""
    start, cs = _assume(p, cert, *extra)
    res, trail = _walk(p, start, cs, cert.step_bound, cert.loop_head)
    if isinstance(res, SymHalt):
        raise _Rejected(HALTED_DURING_LOOP, pc=res.state.pc)
    if res is None:
        raise _Rejected(LOOP_NOT_CLOSED)
    _require_entailed(INVARIANT_NOT_PRESERVED, cs, cert.invariant, res.state.regs)
    return start, res.state, cs, trail


def check_divergence(p: Program, cert: DivergenceCert) -> CertReport:
    """Accept iff the certified lasso proves the program never halts."""
    try:
        _enter_loop(p, cert)
        _, _, _, trail = _close_loop(p, cert)
    except _Rejected as rejected:
        return rejected.report
    return CertReport(accepted=True, trail=tuple(trail))


def _combo_le(cs: ConstraintSet, terms: Iterable[tuple[str | None, int]], bound: int) -> bool:
    """Entailment of sum(coeff * var) <= bound, within the bound fragment."""
    coeffs: dict[str, int] = {}
    for var, coeff in terms:
        if var is None:
            continue
        coeffs[var] = coeffs.get(var, 0) + coeff
    coeffs = {v: c for v, c in coeffs.items() if c != 0}
    if not coeffs:
        return 0 <= bound
    if len(coeffs) == 1:
        ((var, coeff),) = coeffs.items()
        if coeff == 1:
            return entails(cs, Atom(var, None, "<=", bound))
        if coeff == -1:
            return entails(cs, Atom(None, var, "<=", bound))
        return False
    if len(coeffs) == 2:
        (v1, c1), (v2, c2) = coeffs.items()
        if c1 == 1 and c2 == -1:
            return entails(cs, Atom(v1, v2, "<=", bound))
        if c1 == -1 and c2 == 1:
            return entails(cs, Atom(v2, v1, "<=", bound))
    return False


def _rank_decreases(cs: ConstraintSet, before: tuple[SymValue, SymValue], after: tuple[SymValue, SymValue]) -> bool:
    """Entailment of rank(after) <= rank(before) - 1."""
    (avx, acx), (avy, acy) = _parts(after[0]), _parts(after[1])
    (bvx, bcx), (bvy, bcy) = _parts(before[0]), _parts(before[1])
    constant = acx - acy - bcx + bcy
    terms = [(avx, 1), (avy, -1), (bvx, -1), (bvy, 1)]
    return _combo_le(cs, terms, -1 - constant)


def check_termination(p: Program, cert: TerminationCert) -> CertReport:
    """Accept iff the certified lasso proves the program halts."""
    try:
        _enter_loop(p, cert)
        start, end, cs, cont_trail = _close_loop(p, cert, cert.continue_atom())
        x, y = cert.ranking
        if not entails(cs, substitute(Atom(reg_var(x), reg_var(y), ">=", 0), start.regs)):
            raise _Rejected(RANKING_NOT_NONNEGATIVE)
        if not _rank_decreases(cs, (start.value(x), start.value(y)), (end.value(x), end.value(y))):
            raise _Rejected(RANKING_NOT_DECREASING)
        start, cs = _assume(p, cert, cert.exit_atom())
        res, exit_trail = _walk(p, start, cs, cert.step_bound)
        if res is None:
            raise _Rejected(EXIT_DOES_NOT_HALT)
    except _Rejected as rejected:
        return rejected.report
    return CertReport(accepted=True, trail=tuple(cont_trail + exit_trail))
