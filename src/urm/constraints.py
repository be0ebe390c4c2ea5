"""Symbolic register values and difference-bound entailment.

Symbolic execution only ever produces register contents of one shape,
`SymValue`: a variable plus a natural offset, or a bare constant,
because the instruction set can merely zero, increment, and copy.
Relational facts about the variables are kept as difference-bound
atoms, `x - y rel k` or `x rel k` with integer k.  Conjunctions of such
atoms are decidable by shortest-path closure over the constraint graph;
this fragment is deliberately the whole constraint language (no
disjunction, no coefficients other than one).  The `=` atoms are not
edges of that graph: they first merge the variables into equality
classes, each member a fixed offset from its class's root (the zero
cycles of a difference-bound matrix collapsed, as in its minimal
constraint systems), and the closure runs over the roots alone, so its
cost follows the number of classes, not of variables.  One walk over
each component of the `=` atoms finds the classes, and ambient
nonnegativity is one edge per class, from its member of least offset.

Every question about a set goes through the same two steps: `_range`
reads the tightest interval [lo, hi] of one difference off the closure,
and `_holds` says whether every value in that interval satisfies a
relation.  `entails`, `decide_eq`, `_satisfiable` and the ground case of
`Atom.trivial_value` differ only in the relation they ask.  An empty set
has the closure None, off which `_range` reads the empty interval, where
every relation holds.  A `ConstraintSet` keeps its atoms as written; its
closure is computed once, on first use, and kept with the set
(`ConstraintSet.closure`).

Disequalities are second-class: an `!=` atom is never used for bound
reasoning, `_satisfiable` only checks each one against the bounds, and
a `!=` goal succeeds only via an entailed strict bound or a
syntactically identical atom.  Certificates that would need case
analysis on a disequality have to be rewritten with strict bounds.

All variables range over naturals; `x >= 0` is ambient and never stated.
A certificate names register i by the variable `reg_var(i)`, `ri`;
`parse_reg_var` reads such a name back by `machine._REGISTER`, which the
parser's certificate patterns embed, and the certificate checker
substitutes symbolic values for its registers by index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from . import _LAZY
from .errors import UnsupportedAtom
from .machine import _decimal, _is_int, parse_reg_var

__all__ = _LAZY["constraints"]

_NORMAL = {"<": ("<=", -1), "<=": ("<=", 0), "=": ("=", 0), ">=": (">=", 0), ">": (">=", 1), "!=": ("!=", 0)}
REL_SYMBOLS = tuple(_NORMAL)

_INF = math.inf


# The checker builds its values many times per check, so `SymValue` and `Atom`
# are slotted dataclasses whose own `__init__` checks and normalizes the
# arguments, then stores each field once through its slot descriptor's `__set__`,
# bound after the class (`slots=True` returns a new one), as `SymState`'s does.
# `dataclasses.replace` runs the same checks; as in `machine`, a plain int or
# str is tested inline, and `machine._is_int` then refuses a bool.
# `ConstraintSet` and the certificates have no slots: they cache facts in a dict.


def _slotted(cls: type) -> type:
    """`cls` as a frozen dataclass with slots.  Its `__setattr__` and `__delattr__` are
    pointed at the new class: written for `cls`, they would refuse a new name with a
    TypeError, not `FrozenInstanceError`."""
    new = dataclass(cls, frozen=True, slots=True, init="__init__" not in vars(cls))
    for fn in new.__setattr__, new.__delattr__:
        for cell in fn.__closure__ or ():
            if cell.cell_contents is cls:
                cell.cell_contents = new
    return new


@_slotted
class SymValue:
    """Register contents `var + offset`; the constant `offset` when `var`
    is None."""

    var: str | None = None
    offset: int = 0

    def __init__(self, var: str | None = None, offset: int = 0) -> None:
        if var.__class__ is not str and var is not None and not isinstance(var, str):
            raise ValueError(f"variable names are str or None, got {var!r}")
        if var == "":
            raise ValueError("variable name must be non-empty")
        if offset.__class__ is not int and not _is_int(offset) or offset < 0:
            raise ValueError(f"offsets are naturals, got {offset!r}")
        _set_var(self, var)
        _set_offset(self, offset)


@_slotted
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

    def __init__(self, x: str | None, y: str | None, rel: str, k: int) -> None:
        try:
            rel, shift = _NORMAL[rel]
        except (KeyError, TypeError):  # TypeError: an unhashable relation
            raise UnsupportedAtom(f"unknown relation {rel!r}") from None
        if k.__class__ is not int and not _is_int(k):
            raise ValueError(f"bound must be an int, got {k!r}")
        if (x.__class__ is not str and x is not None and not isinstance(x, str)
                or y.__class__ is not str and y is not None and not isinstance(y, str)):
            raise ValueError(f"atom sides are variable names or None, got {x!r} and {y!r}")
        if x == "" or y == "":
            raise ValueError("variable name must be non-empty")
        k += shift
        if x == y:
            x = y = None
        if rel == "!=":
            if x is None and y is not None:
                x, y, k = y, None, -k
            elif x is not None and y is not None and x > y:
                x, y, k = y, x, -k
        _set_x(self, x)
        _set_y(self, y)
        _set_rel(self, rel)
        _set_k(self, k)

    def trivial_value(self) -> bool | None:
        """Truth value if the atom mentions no variables, else None."""
        if self.x is not None or self.y is not None:
            return None
        return _holds(0, 0, self.rel, self.k)


_set_var, _set_offset = SymValue.var.__set__, SymValue.offset.__set__
_set_x, _set_y, _set_rel, _set_k = Atom.x.__set__, Atom.y.__set__, Atom.rel.__set__, Atom.k.__set__
_ZERO = SymValue()


def _holds(lo: float, hi: float, rel: str, k: int) -> bool:
    """True iff every difference d in [lo, hi] satisfies `d rel k`, where
    `rel` is one of a normalized atom: `<=`, `>=`, `=` or `!=`."""
    if rel == "<=":
        return hi <= k
    if rel == ">=":
        return lo >= k
    if rel == "=":
        return hi <= k <= lo
    return hi < k or lo > k


@dataclass(frozen=True)
class ConstraintSet:
    """A conjunction of atoms, kept as written.  Its closure is computed
    once, on first use, and kept with the set, as `Program` keeps its
    facts; equality and hashing look only at `atoms`."""

    atoms: frozenset[Atom] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not isinstance(self.atoms, frozenset):
            raise ValueError("atoms is a frozenset of Atom")

    @classmethod
    def of(cls, *atoms: Atom) -> "ConstraintSet":
        return cls(frozenset(atoms))

    @cached_property
    def closure(self) -> tuple[dict, dict] | None:
        return _closure(self)


def _closure(cs: ConstraintSet) -> tuple[dict, dict] | None:
    """Tightest difference bounds between equality classes, as (class
    map, closed rows); None when the set is empty.

    Nodes are the variables plus None for the literal zero.  One pass over
    the atoms lists each node's `=` neighbours with their offsets and
    keeps the bound atoms; one walk per component of the `=` atoms then
    gives every node its class, (root, offset) with value(v) =
    value(root) + offset, and reaching a node again at another offset
    empties the set.  Every bound is then an edge between roots, with the
    offsets folded into its weight: an edge u -> v of weight w records
    value(v) - value(u) <= w.  Ambient nonnegativity adds one edge per
    class, to the zero node, weighted by the class's least variable
    offset: the tightest of its members' `v >= 0`.  The closed rows are
    the roots', so the closure costs the cube of the number of classes,
    not of variables, and a negative cycle among them, or a false atom
    without variables, empties the set.  It is exact: in a nonempty set
    no other bound can tighten a difference that `=` atoms fix.
    """
    near: dict = {None: []}  # node -> [(neighbour, d)] with value(neighbour) = value(node) + d
    bounds = []  # (u, v, w): value(v) - value(u) <= w
    for a in cs.atoms:
        x, y, rel, k = a.x, a.y, a.rel, a.k
        nx, ny = near.setdefault(x, []), near.setdefault(y, [])
        if rel == "=":
            nx.append((y, -k))
            ny.append((x, k))
        elif rel == "<=":
            bounds.append((y, x, k))
        elif rel == ">=":
            bounds.append((x, y, -k))
        elif a.trivial_value() is False:
            return None
    # The walks start at the zero node, so None is its class's root at offset 0.
    cls: dict = {}
    least: dict = {}  # root -> least offset of a variable in its class (inf for None alone)
    for root in near:
        if root in cls:
            continue
        cls[root] = (root, 0)
        low = _INF if root is None else 0
        todo = [(root, 0)]
        while todo:
            u, ou = todo.pop()
            for v, d in near[u]:
                o = ou + d
                c = cls.get(v)
                if c is None:
                    cls[v] = (root, o)
                    todo.append((v, o))
                    if o < low and v is not None:
                        low = o
                elif c[1] != o:
                    return None
        least[root] = low
    rows: dict = {}
    for r, low in least.items():
        row = rows[r] = dict.fromkeys(least, _INF)
        row[r] = 0
        if low < row[None]:
            row[None] = low
    for u, v, w in bounds:
        (ru, ou), (rv, ov) = cls[u], cls[v]
        w += ou - ov
        row = rows[ru]
        if w < row[rv]:
            row[rv] = w
    for w in rows:
        # finite entries only: an int beyond float range plus inf overflows
        reach = [(v, d) for v, d in rows[w].items() if d != _INF]
        for u in rows:
            du = rows[u]
            through = du[w]
            if through == _INF:
                continue
            for v, d in reach:
                cand = through + d
                if cand < du[v]:
                    du[v] = cand
    if any(rows[u][u] < 0 for u in rows):
        return None
    return cls, rows


def _satisfiable(cs: ConstraintSet) -> bool:
    """False when the bounds of `cs` are empty (no closure), or pin the
    difference of one of its `!=` atoms to exactly that atom's constant.

    Never false for a set with a model; but disequalities that empty the
    set only together (x in [0, 1], x != 0, x != 1) go undetected."""
    dist = cs.closure
    return dist is not None and not any(a.rel == "!=" and _holds(*_range(dist, a.x, a.y), "=", a.k) for a in cs.atoms)


def _range(dist: tuple[dict, dict] | None, x: str | None, y: str | None) -> tuple[float, float]:
    """Tightest (lo, hi) with lo <= value(x) - value(y) <= hi, read off the
    closed rows between the two sides' classes and shifted by their
    offsets; (0, 0) when x and y are the same side, and the empty
    interval (inf, -inf), where `_holds` is true, for an empty set.

    A variable the closure lacks is unconstrained, so only the zero
    node's class, its nonnegativity, bounds the difference from it."""
    if dist is None:
        return _INF, -_INF
    if x == y:
        return 0, 0
    cls, rows = dist
    cx, cy = cls.get(x), cls.get(y)
    (rx, ox), (ry, oy) = cx or cls[None], cy or cls[None]
    # rows[u][v] bounds value(v) - value(u) between two roots
    yx = _INF if cy is None else rows[rx][ry]
    xy = _INF if cx is None else rows[ry][rx]
    # inf plus an int beyond float range overflows
    return (-_INF if yx == _INF else ox - oy - yx), (_INF if xy == _INF else xy + ox - oy)


def entails(cs: ConstraintSet, a: Atom) -> bool:
    """True iff every natural assignment satisfying `cs` satisfies `a`.

    Complete for bound goals over the stored bounds; `!=` atoms of `cs`
    contribute nothing, so the answer errs toward False where only
    disequality reasoning would close the gap.
    """
    return _holds(*_range(cs.closure, a.x, a.y), a.rel, a.k) or (a.rel == "!=" and a in cs.atoms)


def decide_eq(a: SymValue, b: SymValue, cs: ConstraintSet) -> bool | None:
    """Three-valued equality of symbolic values; None means undecided."""
    if a.var == b.var:
        return a.offset == b.offset
    lo, hi = _range(cs.closure, a.var, b.var)
    target = b.offset - a.offset
    if _holds(lo, hi, "=", target):
        return True
    if _holds(lo, hi, "!=", target) or Atom(a.var, b.var, "!=", target) in cs.atoms:
        return False
    return None


def reg_var(i: int) -> str:
    """Variable name standing for register i in certificate atoms."""
    return f"r{i}"


def format_atom(a: Atom) -> str:
    """`x - y rel k`, an absent x read as 0 and an absent y left out."""
    minus_y = "" if a.y is None else f" - {a.y}"
    return f"{a.x or 0}{minus_y} {a.rel} {_decimal(a.k)}"
