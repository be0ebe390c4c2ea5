"""Symbolic register values and difference-bound entailment.

Symbolic execution only ever produces register contents of two shapes,
a known constant or a variable plus a constant offset, because the
instruction set can merely zero, increment, and copy.  Relational facts
about the variables are kept as difference-bound atoms, `x - y rel k` or
`x rel k` with integer k.  Conjunctions of such atoms are decidable by
shortest-path closure over the constraint graph, which is what `entails`
implements; this fragment is deliberately the whole constraint language
(no disjunction, no coefficients other than one).

Disequalities are second-class: an `!=` atom is never used for bound
reasoning and a `!=` goal succeeds only via an entailed strict bound or
a syntactically identical atom.  Certificates that would need case
analysis on a disequality have to be rewritten with strict bounds.

All variables range over naturals; `x >= 0` is ambient and never stated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Mapping, Union

from .errors import UnsupportedAtom

REL_SYMBOLS = ("<", "<=", "=", ">=", ">", "!=")

_INF = math.inf


@dataclass(frozen=True)
class Const:
    value: int

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError("register contents are naturals")


@dataclass(frozen=True)
class VarPlus:
    var: str
    offset: int = 0

    def __post_init__(self) -> None:
        if not self.var:
            raise ValueError("variable name must be non-empty")
        if self.offset < 0:
            raise ValueError("offsets are naturals")


SymValue = Union[Const, VarPlus]


def _parts(sv: SymValue) -> tuple[str | None, int]:
    if isinstance(sv, Const):
        return None, sv.value
    return sv.var, sv.offset


@dataclass(frozen=True)
class Atom:
    """Normalized fact `value(x) - value(y) rel k`, absent sides reading 0.

    Construction normalizes: strict inequalities become weak ones with a
    shifted bound, identical sides cancel to a ground fact, and `!=` is
    oriented canonically so that equal disequalities compare equal.
    """

    x: str | None
    y: str | None
    rel: str
    k: int

    def __post_init__(self) -> None:
        x, y, rel, k = self.x, self.y, self.rel, self.k
        if rel not in REL_SYMBOLS:
            raise UnsupportedAtom(f"unknown relation {rel!r}")
        if rel == "<":
            rel, k = "<=", k - 1
        elif rel == ">":
            rel, k = ">=", k + 1
        if x == y:
            x = y = None
        if rel == "!=":
            if x is None and y is not None:
                x, y, k = y, None, -k
            elif x is not None and y is not None and x > y:
                x, y, k = y, x, -k
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "k", k)

    def trivial_value(self) -> bool | None:
        """Truth value if the atom mentions no variables, else None."""
        if self.x is not None or self.y is not None:
            return None
        return _compare(0, self.rel, self.k)

    def variables(self) -> frozenset[str]:
        return frozenset(v for v in (self.x, self.y) if v is not None)


def _compare(lhs: int, rel: str, k: int) -> bool:
    if rel == "<=":
        return lhs <= k
    if rel == ">=":
        return lhs >= k
    if rel == "=":
        return lhs == k
    if rel == "!=":
        return lhs != k
    raise UnsupportedAtom(f"unknown relation {rel!r}")


_FALSE_ATOM = Atom(None, None, "<=", -1)


def _normalized(atoms: Iterable[Atom]) -> frozenset[Atom]:
    out: set[Atom] = set()
    for a in atoms:
        tv = a.trivial_value()
        if tv is True:
            continue
        if tv is False:
            out.add(_FALSE_ATOM)
        elif a.rel == "=":
            out.add(Atom(a.x, a.y, "<=", a.k))
            out.add(Atom(a.x, a.y, ">=", a.k))
        else:
            out.add(a)
    return frozenset(out)


@dataclass(frozen=True)
class ConstraintSet:
    """A conjunction of atoms; equalities are stored as bound pairs."""

    atoms: frozenset[Atom] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(self, "atoms", _normalized(self.atoms))

    @classmethod
    def of(cls, *atoms: Atom) -> "ConstraintSet":
        return cls(frozenset(atoms))

    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for a in self.atoms:
            out |= a.variables()
        return frozenset(out)


# Bounded, because an unbounded memo grows for the life of a process that
# checks many certificates.  A check reuses the closures of its own few
# constraint sets, and the certificates of one program are checked
# together, so a small bound loses almost no hits.
@lru_cache(maxsize=64)
def _closure(cs: ConstraintSet) -> tuple[dict, bool]:
    """All-pairs tightest difference bounds; second part is feasibility.

    Nodes are the variables plus None for the literal zero.  An edge
    u -> v of weight w records value(v) - value(u) <= w; ambient
    nonnegativity adds v -> None with weight 0 for every variable.
    """
    nodes: set[str | None] = {None}
    for a in cs.atoms:
        nodes |= a.variables()
    dist: dict = {u: {v: (0 if u == v else _INF) for v in nodes} for u in nodes}
    for v in nodes:
        if v is not None:
            dist[v][None] = 0
    for a in cs.atoms:
        if a.rel == "<=":
            dist[a.y][a.x] = min(dist[a.y][a.x], a.k)
        elif a.rel == ">=":
            dist[a.x][a.y] = min(dist[a.x][a.y], -a.k)
    for w in nodes:
        dw = dist[w]
        for u in nodes:
            du = dist[u]
            through = du[w]
            if through == _INF:
                continue
            for v in nodes:
                cand = through + dw[v]
                if cand < du[v]:
                    du[v] = cand
    feasible = all(dist[u][u] >= 0 for u in nodes)
    return dist, feasible


def _bound(dist: dict, frm: str | None, to: str | None) -> float:
    """Tightest derivable k with value(to) - value(frm) <= k."""
    if frm == to:
        return 0
    if frm in dist:
        return dist[frm].get(to, _INF)
    if to in dist:
        # frm is unconstrained: only its nonnegativity can help.
        return dist[None].get(to, _INF)
    return _INF


def entails(cs: ConstraintSet, a: Atom) -> bool:
    """True iff every natural assignment satisfying `cs` satisfies `a`.

    Complete for bound goals over the stored bounds; `!=` atoms of `cs`
    contribute nothing, so the answer errs toward False where only
    disequality reasoning would close the gap.
    """
    dist, feasible = _closure(cs)
    if not feasible:
        return True
    tv = a.trivial_value()
    if tv is not None:
        return tv
    if a.rel == "<=":
        return _bound(dist, a.y, a.x) <= a.k
    if a.rel == ">=":
        return _bound(dist, a.x, a.y) <= -a.k
    if a.rel == "=":
        return _bound(dist, a.y, a.x) <= a.k and _bound(dist, a.x, a.y) <= -a.k
    if a.rel == "!=":
        if _bound(dist, a.y, a.x) <= a.k - 1:
            return True
        if _bound(dist, a.x, a.y) <= -(a.k + 1):
            return True
        return a in cs.atoms
    raise UnsupportedAtom(f"unknown relation {a.rel!r}")


def decide_eq(a: SymValue, b: SymValue, cs: ConstraintSet) -> bool | None:
    """Three-valued equality of symbolic values; None means undecided."""
    vx, cx = _parts(a)
    vy, cy = _parts(b)
    if vx == vy:
        return cx == cy
    target = cy - cx
    if entails(cs, Atom(vx, vy, "=", target)):
        return True
    if entails(cs, Atom(vx, vy, "!=", target)):
        return False
    return None


def reg_var(i: int) -> str:
    """Variable name standing for register i in certificate atoms."""
    return f"r{i}"


def parse_reg_var(name: str) -> int | None:
    """Register index of a `rI` variable name, or None."""
    if len(name) >= 2 and name[0] == "r" and name[1:].isdigit():
        index = int(name[1:])
        return index if index >= 1 else None
    return None


def _subst_side(var: str | None, regs: Mapping[int, SymValue]) -> tuple[str | None, int]:
    if var is None:
        return None, 0
    index = parse_reg_var(var)
    if index is None:
        raise ValueError(f"not a register operand: {var!r}")
    if index not in regs:
        raise ValueError(f"register {index} has no symbolic value")
    return _parts(regs[index])


def substitute(a: Atom, regs: Mapping[int, SymValue]) -> Atom:
    """Replace register operands by their symbolic values, folding offsets."""
    vx, cx = _subst_side(a.x, regs)
    vy, cy = _subst_side(a.y, regs)
    return Atom(vx, vy, a.rel, a.k - cx + cy)


def eval_atom(a: Atom, values: Mapping[str, int]) -> bool:
    """Concrete truth of an atom under a total variable assignment."""
    lhs = (values[a.x] if a.x is not None else 0) - (values[a.y] if a.y is not None else 0)
    return _compare(lhs, a.rel, a.k)


def satisfies(cs: ConstraintSet, values: Mapping[str, int]) -> bool:
    return all(eval_atom(a, values) for a in cs.atoms)


def format_atom(a: Atom) -> str:
    if a.x is None and a.y is None:
        return f"0 {a.rel} {a.k}"
    if a.y is None:
        return f"{a.x} {a.rel} {a.k}"
    if a.x is None:
        return f"0 - {a.y} {a.rel} {a.k}"
    return f"{a.x} - {a.y} {a.rel} {a.k}"
