"""Machine-checkable divergence and termination certificates.

Both certificate kinds describe a lasso: a prefix run from the first
instruction to a loop head, then a loop body that returns to the head.
The prefix is executed symbolically from the certified initial contents
under the parameter constraints.  The loop body is then re-executed from
a fresh symbolic state constrained only by the loop invariant, so
accepting it proves something about every state satisfying the
invariant, not just the states the prefix happens to reach.  As in the
concrete interpreters, a halted state is at position 0.

For divergence the invariant must be re-established when the body comes
back to the head; because the body takes at least one step, an accepted
certificate denotes an infinite run.  For termination the body is
checked twice, split by a threshold on a register difference: under the
continue case the invariant must be preserved and the ranking register
difference must be nonnegative and strictly decrease, and under the
exit case the program must halt within the step bound.  The two cases
cover all values, so together they prove the loop exits.

Both kinds share the lasso's fields and their checks in one frozen
base, `_Lasso`; a termination certificate adds only its split and
ranking.  `init` (r1 first), `invariant`, `split` and `ranking` are
tuples, so a certificate hashes.

Each invariant operand is resolved to its register index once, when the
certificate is constructed, or by `parse_cert`, which reads it off the
line and hands it to `_Lasso._of`; the checks read those indices and
never a register name.

Rejection reports carry a single reason code and, where useful, the
offending program position or invariant atom.  Parameter constraints
that no input meets are rejected too: such a claim holds only because
it covers nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _LAZY
from .constraints import (
    Atom,
    ConstraintSet,
    SymValue,
    decide_eq,
    entails,
    reg_var,
    _is_int,
    _satisfiable,
    _slotted,
    _ZERO,
)
from .errors import NotStandardForm, PcOutOfRange
from .machine import Program, parse_reg_var, _JUMP, _SUCC, _TRANSFER

__all__ = _LAZY["certificates"]

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


@_slotted
class SymState:
    """Symbolic configuration: position plus one symbolic value per slot,
    slot s holding register `p.registers[s]` as in `Program._code`.  Like
    `Atom`, `SymValue`, `Reason` and `CertReport`, a slotted dataclass; the
    certificates have no slots, as they keep their `_operands` in a dict."""

    pc: int
    regs: tuple[SymValue, ...]

    def __init__(self, pc: int, regs: tuple[SymValue, ...]) -> None:
        _set_pc(self, pc)
        _set_regs(self, regs)


@_slotted
class Reason:
    code: str
    pc: int | None = None
    atom: Atom | None = None


_set_pc, _set_regs = SymState.pc.__set__, SymState.regs.__set__
TrailEntry = tuple[int, str]


@_slotted
class CertReport:
    """A check's verdict, accepted exactly when it has no `reason`."""

    trail: tuple[TrailEntry, ...] = ()
    reason: Reason | None = None

    @property
    def accepted(self) -> bool:
        return self.reason is None


@dataclass(frozen=True)
class _Lasso:
    """The lasso both certificate kinds claim: from `init` (r1 first, as
    the `init:` line writes it) under `param_constraints`, a prefix to
    `loop_head`, then a body under `invariant`, each phase at most
    `step_bound` symbolic steps.  `parse_cert` builds through `_of`, which
    skips the checks the parser has made, as `Program._of` does."""

    param_constraints: ConstraintSet
    init: tuple[SymValue, ...]
    loop_head: int
    invariant: tuple[Atom, ...]
    step_bound: int

    def __post_init__(self) -> None:
        if not isinstance(self.param_constraints, ConstraintSet):
            raise ValueError("param_constraints is a ConstraintSet")
        if not isinstance(self.init, tuple) or not all(isinstance(v, SymValue) for v in self.init):
            raise ValueError("init is a tuple of SymValue, r1 first")
        if not isinstance(self.invariant, tuple) or not all(isinstance(a, Atom) for a in self.invariant):
            raise ValueError("invariant is a tuple of Atom")
        if not (_is_int(self.loop_head) and _is_int(self.step_bound)):
            raise ValueError("loop head and step bound are ints")
        if self.loop_head < 1:
            raise PcOutOfRange("loop head is indexed from 1")
        if self.step_bound < 1:
            raise ValueError("step bound must be positive")
        # each atom's (x, y) register indices, kept as `Program` keeps its
        # facts: no field, so equality and `repr` see only the claim
        object.__setattr__(self, "_operands", tuple((_reg_index(a.x), _reg_index(a.y)) for a in self.invariant))

    @classmethod
    def _of(cls, operands: tuple[tuple[int, int], ...], **fields) -> _Lasso:
        """From the `fields` that `parse_cert` has checked and `operands`, the
        register indices it has read off the invariant's atoms; the checks
        of `__post_init__` are skipped."""
        new = object.__new__(cls)
        new.__dict__.update(fields, _operands=operands)
        return new


@dataclass(frozen=True)
class DivergenceCert(_Lasso):
    """Claim: from the certified initial contents the program never halts."""


@dataclass(frozen=True)
class TerminationCert(_Lasso):
    """Claim: from the certified initial contents the program halts.

    `split` is a register pair with a threshold (x, y, k); the continue
    case assumes r_x - r_y >= k+1 and the exit case r_x - r_y <= k.
    `ranking` names the register pair whose difference decreases.
    """

    split: tuple[int, int, int]
    ranking: tuple[int, int]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not isinstance(self.split, tuple) or not isinstance(self.ranking, tuple):
            raise ValueError("split and ranking are tuples")
        if len(self.split) != 3 or len(self.ranking) != 2 or not all(map(_is_int, (*self.split, *self.ranking))):
            raise ValueError("split is three ints and ranking two")
        for index in (*self.split[:2], *self.ranking):
            if index < 1:
                raise ValueError("registers are indexed from 1")
        if self.split[2] < 0:
            raise ValueError("split threshold is a natural")


def _reg_index(var: str | None) -> int:
    """Register index of an invariant operand; 0 for an absent side."""
    index = 0 if var is None else parse_reg_var(var)
    if index is None:
        raise ValueError(f"not a register operand: {var!r}")
    return index


# The ten rule strings, (non-final, final) per `Program._code` tag, a taken
# jump's one past the tag; built once, so that the trail's entries share them.
_RULES = tuple((f"{rule}·r", f"{rule}·l") for rule in ("z", "s", "t", "jf", "jt"))


def sym_step(p: Program, s: SymState, cs: ConstraintSet) -> tuple[SymState, str] | None:
    """One symbolic step of `p._code` over the slots of `s.regs`, slot s
    holding register `p.registers[s]`, as the pair (next state, rule); it
    mirrors the concrete step relation, and the slots past the program's
    pass through unchanged.

    Jumps are resolved by three-valued equality of the compared values
    under `cs`; an unresolved comparison yields None, as in `decide_eq`.
    As in `step`, the next state is at position 0 when the step halts.
    The rule names the applied evaluation rule: "jt"/"jf" for a
    taken or failed jump, "z"/"s"/"t" for the others, then "·l" when the
    step halts, "·r" otherwise.  So "s·r" is a non-final increment and
    "jt·l" a taken jump to position 0.
    """
    if not p.standard:
        raise NotStandardForm("symbolic execution requires standard form")
    code = p._code
    n = len(code)
    pc = s.pc
    if not 1 <= pc <= n:
        raise PcOutOfRange(f"position {pc} outside 1..{n}")
    regs = s.regs
    if regs.__class__ is not tuple or len(regs) < len(p.registers):
        raise ValueError("regs is a tuple with a slot per register of the program")
    tag, a, b, k, nxt = code[pc - 1]
    if tag == _JUMP:
        eq = decide_eq(regs[a], regs[b], cs)
        if eq is None:
            return None
        if eq:
            nxt = k
            tag += 1
    else:
        regs = list(regs)
        if tag == _SUCC:
            regs[a] = SymValue(regs[a].var, regs[a].offset + 1)
        elif tag == _TRANSFER:
            regs[b] = regs[a]
        else:
            regs[a] = _ZERO
        regs = tuple(regs)
    return SymState(nxt, regs), _RULES[tag][not nxt]


def _universe(p: Program, cert: _Lasso) -> tuple[int, ...]:
    """The registers the program, then an invariant atom, names, in order.
    No other register is read, so the symbolic states leave them out: one
    that only `init`, the split or the ranking names reads `_ZERO`."""
    return tuple(dict.fromkeys((*p.registers, *(i for pair in cert._operands for i in pair if i))))


class _Rejected(Exception):
    """A certificate fails; raised where the failure is found."""

    def __init__(self, code: str, pc: int | None = None, atom: Atom | None = None) -> None:
        super().__init__(code)
        self.report = CertReport(reason=Reason(code, pc=pc, atom=atom))


def _walk(
    p: Program,
    s: SymState,
    cs: ConstraintSet,
    bound: int,
    head: int | None = None,
    trail: list[TrailEntry] | None = None,
) -> SymState | None:
    """Symbolic run from `s` of at most `bound` steps.

    Stops on halting, at position 0, or on arriving at `head`, and returns
    that state, or None when the bound runs out first; each step taken is
    appended to `trail` when one is given.  An undecided jump rejects the
    certificate.
    """
    for _ in range(bound):
        res = sym_step(p, s, cs)
        if res is None:
            raise _Rejected(UNDECIDED_BRANCH, pc=s.pc)
        if trail is not None:
            trail.append((s.pc, res[1]))
        s = res[0]
        if not s.pc or s.pc == head:
            return s
    return None


def _require_entailed(code: str, cs: ConstraintSet, cert: _Lasso, s: SymState, slot: dict[int, int]) -> None:
    """Reject with `code` at the first invariant atom that `cs` does not
    entail once its registers read their values in `s` through `slot`, the
    offsets folded into the bound; an absent side reads the `_ZERO` slot."""
    for a, (i, j) in zip(cert.invariant, cert._operands):
        x, y = s.regs[slot.get(i, -1)], s.regs[slot.get(j, -1)]
        if not entails(cs, Atom(x.var, y.var, a.rel, a.k - x.offset + y.offset)):
            raise _Rejected(code, atom=a)


def _enter_loop(p: Program, cert: _Lasso) -> tuple[SymState, dict[int, int]]:
    """Prefix phase: reach the head and establish the invariant there.
    Returns the loop phases' start state, in which each register of the
    `_universe` holds the variable named after it, so that the invariant's
    atoms are assumed as written, and the register -> slot map: a state has
    a slot per universe register, then a `_ZERO` slot that all others read."""
    if not p.standard:
        raise NotStandardForm("certificates require a standard-form program")
    if cert.loop_head > len(p):
        raise PcOutOfRange(f"loop head {cert.loop_head} outside 1..{len(p)}")
    # no input meets the constraints, so any claim would hold vacuously
    if not _satisfiable(cert.param_constraints):
        raise _Rejected(CONSTRAINTS_UNSATISFIABLE)
    universe = _universe(p, cert)
    slot = {i: s for s, i in enumerate(universe)}
    s = SymState(1, (*(cert.init[i - 1] if i <= len(cert.init) else _ZERO for i in universe), _ZERO))
    if s.pc != cert.loop_head:
        # the prefix trail is never printed, so none is kept
        s = _walk(p, s, cert.param_constraints, cert.step_bound, cert.loop_head)
        if s is None or not s.pc:
            raise _Rejected(PREFIX_FAILED)
    _require_entailed(INVARIANT_NOT_ESTABLISHED, cert.param_constraints, cert, s, slot)
    return SymState(cert.loop_head, (*(SymValue(reg_var(i)) for i in universe), _ZERO)), slot


def _close_loop(p: Program, cert: _Lasso, start: SymState, slot: dict[int, int], cs: ConstraintSet):
    """Loop phase: from `start` under `cs` back to the head, re-establishing
    the invariant; returns (end, trail)."""
    trail: list[TrailEntry] = []
    end = _walk(p, start, cs, cert.step_bound, cert.loop_head, trail)
    if end is None:
        raise _Rejected(LOOP_NOT_CLOSED)
    if not end.pc:
        raise _Rejected(HALTED_DURING_LOOP, pc=trail[-1][0])
    _require_entailed(INVARIANT_NOT_PRESERVED, cs, cert, end, slot)
    return end, trail


def check_divergence(p: Program, cert: DivergenceCert) -> CertReport:
    """Accept iff the certified lasso proves the program never halts."""
    try:
        _, trail = _close_loop(p, cert, *_enter_loop(p, cert), ConstraintSet.of(*cert.invariant))
    except _Rejected as rejected:
        return rejected.report
    return CertReport(tuple(trail))


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
    # not `entails` when ground: every goal holds on an empty set
    return entails(cs, goal) if ground is None else ground


def check_termination(p: Program, cert: TerminationCert) -> CertReport:
    """Accept iff the certified lasso proves the program halts."""
    try:
        start, slot = _enter_loop(p, cert)
        x, y, k = cert.split
        split = reg_var(x), reg_var(y)
        cs = ConstraintSet.of(*cert.invariant, Atom(*split, ">=", k + 1))
        end, cont_trail = _close_loop(p, cert, start, slot, cs)
        x, y = cert.ranking
        if not entails(cs, Atom(reg_var(x), reg_var(y), ">=", 0)):
            raise _Rejected(RANKING_NOT_NONNEGATIVE)
        x, y = slot.get(x, -1), slot.get(y, -1)
        if not _rank_decreases(cs, (start.regs[x], start.regs[y]), (end.regs[x], end.regs[y])):
            raise _Rejected(RANKING_NOT_DECREASING)
        cs = ConstraintSet.of(*cert.invariant, Atom(*split, "<=", k))
        exit_trail: list[TrailEntry] = []
        if _walk(p, start, cs, cert.step_bound, trail=exit_trail) is None:
            raise _Rejected(EXIT_DOES_NOT_HALT)
    except _Rejected as rejected:
        return rejected.report
    return CertReport(tuple(cont_trail + exit_trail))
