"""Difference-bound atoms, entailment, and three-valued equality."""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys

import pytest

from urm import (
    Atom,
    ConstraintSet,
    SymValue,
    UnsupportedAtom,
    decide_eq,
    entails,
    format_atom,
)
from urm import constraints
from urm.constraints import REL_SYMBOLS, _closure, _range, _satisfiable, parse_reg_var, reg_var
from oracles import atom_holds, atom_variables, closure_oracle, constraints_hold, sym_value


def test_symbolic_values_are_naturals():
    with pytest.raises(ValueError):
        SymValue(offset=-1)
    with pytest.raises(ValueError):
        SymValue("v", -1)
    with pytest.raises(ValueError):
        SymValue("")
    with pytest.raises(dataclasses.FrozenInstanceError):
        SymValue("v").offset = 1
    # a register holding 0.5 used to be accepted, and reasoned about
    for offset in (0.5, True, "1", None):
        with pytest.raises(ValueError, match="offsets are naturals"):
            SymValue(None, offset)
        with pytest.raises(ValueError, match="offsets are naturals"):
            SymValue("v", offset)
    assert SymValue("v", _Natural(2)).offset == 2


def test_constraint_sets_hold_a_frozenset():
    """A set of atoms is a frozen value, so it hashes; a list or a set of
    atoms is refused, as `_Lasso` refuses a list invariant."""
    a = Atom("a", None, "<=", 1)
    for atoms in ([a], {a}, (a,)):
        with pytest.raises(ValueError, match="atoms is a frozenset of Atom"):
            ConstraintSet(atoms)
    assert hash(ConstraintSet(frozenset([a]))) == hash(ConstraintSet.of(a))


def test_strict_relations_normalize_to_weak_ones():
    assert Atom("a", "b", "<", 0) == Atom("a", "b", "<=", -1)
    assert Atom("a", "b", ">", 0) == Atom("a", "b", ">=", 1)
    # a str subclass normalizes as its text does, and so does `replace`
    assert Atom("a", "b", _Name("<"), 5) == Atom("a", "b", "<=", 4)
    assert Atom("a", "b", _Name(">"), 5) == Atom("a", "b", ">=", 6)
    assert dataclasses.replace(Atom("a", "b", "<=", 0), rel=">") == Atom("a", "b", ">=", 1)


def test_equal_sides_cancel_to_a_ground_atom():
    a = Atom("v", "v", "<", 5)
    assert a.x is None and a.y is None
    assert a.trivial_value() is True
    assert Atom("v", "v", ">=", 1).trivial_value() is False


def test_disequalities_are_canonically_oriented():
    assert Atom("b", "a", "!=", 3) == Atom("a", "b", "!=", -3)
    assert Atom(None, "a", "!=", 2) == Atom("a", None, "!=", -2)


def test_unknown_relations_are_rejected():
    # an unhashable relation too, not with a TypeError
    for rel in ("<>", ["<="], None, "=<", ""):
        with pytest.raises(UnsupportedAtom) as refused:
            Atom("a", "b", rel, 0)
        assert str(refused.value) == f"unknown relation {rel!r}"
    # these used to be accepted and to fail later with a TypeError, or not at all
    for rel, k in (("<=", "1"), ("<", 0.5), ("=", True), (">=", None), ("!=", 2.0)):
        with pytest.raises(ValueError, match="bound must be an int"):
            Atom("a", "b", rel, k)
    assert Atom("a", None, "<", _Natural(2)) == Atom("a", None, "<=", 1)


class _Natural(int):
    """An int subclass other than bool, which the checks admit."""


class _Name(str):
    """A str subclass, which the checks admit as a variable name."""


def test_variable_names_are_str_or_none():
    # these used to be accepted and reasoned about, or to fail with a
    # TypeError from the `!=` orientation
    for name in (5, 1.0, True, b"v", ("v",)):
        with pytest.raises(ValueError, match="variable names are str or None"):
            SymValue(name, 1)
        for x, y, rel in ((name, None, "<="), (None, name, "="), (name, "b", "!="), ("b", name, "<")):
            with pytest.raises(ValueError, match="atom sides are variable names or None"):
                Atom(x, y, rel, 0)
    with pytest.raises(ValueError, match="variable names are str or None"):
        decide_eq(SymValue(5), SymValue("5"), ConstraintSet())
    # as `SymValue("")` is, so no atom reasons about a variable no
    # certificate can name
    for x, y, rel in (("", None, "<="), (None, "", "="), ("", "b", "!="), ("b", "", "<"), ("", "", ">=")):
        with pytest.raises(ValueError, match="variable name must be non-empty"):
            Atom(x, y, rel, 0)
    with pytest.raises(ValueError, match="variable name must be non-empty"):
        Atom(_Name(""), None, "<=", 0)
    assert SymValue(_Name("v"), 1) == SymValue("v", 1)
    assert Atom(_Name("b"), "a", "!=", 1) == Atom("a", "b", "!=", -1)
    assert entails(ConstraintSet.of(Atom(_Name("a"), None, "<=", 1)), Atom("a", None, "<=", 2))


def test_entailment_of_weakenings():
    cs = ConstraintSet.of(Atom("v1", "v2", "<=", -1))
    assert entails(cs, Atom("v1", "v2", "<=", 0))
    assert entails(cs, Atom("v1", "v2", "<=", -1))
    assert not entails(cs, Atom("v1", "v2", "<=", -2))
    # an equality is kept as written and read as both of its bounds
    eq = ConstraintSet.of(Atom("a", "b", "=", 1))
    assert eq.atoms == {Atom("a", "b", "=", 1)}
    assert entails(eq, Atom("a", "b", "<=", 1)) and entails(eq, Atom("a", "b", ">=", 1))
    assert not entails(eq, Atom("a", "b", "<=", 0)) and not entails(eq, Atom("a", "b", ">=", 2))


def test_entailment_chains_differences():
    cs = ConstraintSet.of(Atom("a", "b", "<=", 0), Atom("b", "c", "<=", 0))
    assert entails(cs, Atom("a", "c", "<=", 0))
    assert not entails(cs, Atom("c", "a", "<=", 0))


def test_nonnegativity_is_ambient():
    empty = ConstraintSet()
    assert entails(empty, Atom("a", None, ">=", 0))
    assert not entails(empty, Atom("a", None, ">=", 1))
    assert entails(empty, Atom(None, "a", "<=", 0))
    # an atom that holds trivially changes no answer
    goals = [Atom(x, y, rel, k) for x, y in (("a", None), ("a", "b")) for rel in ("<=", "=", ">=", "!=") for k in (-1, 0, 1)]
    for base in (empty, ConstraintSet.of(Atom("a", "b", "<=", 1))):
        for true in (Atom("v", "v", "<=", 0), Atom(None, None, "=", 0), Atom(None, None, "!=", 3)):
            cs = ConstraintSet(base.atoms | {true})
            assert _satisfiable(cs)
            assert [entails(cs, g) for g in goals] == [entails(base, g) for g in goals]
            assert decide_eq(SymValue("a"), SymValue("b", 2), cs) is decide_eq(SymValue("a"), SymValue("b", 2), base)


def test_unsatisfiable_premises_entail_everything():
    cs = ConstraintSet.of(Atom("a", None, "<=", -1))  # a <= -1 with a >= 0 ambient
    assert entails(cs, Atom("a", "b", "<=", -99))
    assert entails(cs, Atom(None, None, "<=", -1))
    # a false atom without variables empties the set, whatever its relation
    for false in (Atom("a", "a", ">=", 1), Atom(None, None, "<=", -3), Atom(None, None, "=", 2), Atom("a", "a", "!=", 0)):
        ground_false = ConstraintSet.of(Atom("b", "c", "<=", 4), false)
        assert not _satisfiable(ground_false)
        assert entails(ground_false, Atom("b", "c", "=", 5))
        assert decide_eq(SymValue("b"), SymValue("c", 7), ground_false) is True


def test_disequality_goals_need_a_strict_bound_or_a_syntactic_match():
    assert entails(ConstraintSet.of(Atom("a", "b", "<", 0)), Atom("a", "b", "!=", 0))
    assert entails(ConstraintSet.of(Atom("a", "b", "!=", 0)), Atom("b", "a", "!=", 0))
    assert not entails(ConstraintSet.of(Atom("a", "b", "<=", 0)), Atom("a", "b", "!=", 0))


def test_disequality_premises_do_not_feed_bounds():
    cs = ConstraintSet.of(Atom("a", "b", "!=", 0), Atom("a", "b", "<=", 0))
    # semantically a < b follows, but the fragment does not combine them
    assert not entails(cs, Atom("a", "b", "<=", -1))


def test_decide_eq_on_shared_shapes():
    cs = ConstraintSet()
    assert decide_eq(SymValue("v"), SymValue("v"), cs) is True
    assert decide_eq(SymValue("v"), SymValue("v", 1), cs) is False
    assert decide_eq(SymValue(offset=3), SymValue(offset=3), cs) is True
    assert decide_eq(SymValue(offset=3), SymValue(offset=4), cs) is False


def test_decide_eq_under_constraints():
    lt = ConstraintSet.of(Atom("v1", "v2", "<=", -1))
    assert decide_eq(SymValue("v1"), SymValue("v2"), lt) is False
    eq = ConstraintSet.of(Atom("v1", "v2", "=", 0))
    assert decide_eq(SymValue("v1"), SymValue("v2"), eq) is True
    assert decide_eq(SymValue("v1"), SymValue("v2"), ConstraintSet()) is None


def test_decide_eq_uses_nonnegativity():
    cs = ConstraintSet()
    assert decide_eq(SymValue("v", 1), SymValue(offset=0), cs) is False
    assert decide_eq(SymValue("v"), SymValue(offset=0), cs) is None


def test_each_set_computes_its_closure_once(monkeypatch):
    """The closure is kept with its set: repeated questions reuse it, and
    an equal set built anew computes its own, as no memo outlives a set."""
    computed = []

    def counted(cs):
        computed.append(cs)
        return _closure(cs)

    monkeypatch.setattr(constraints, "_closure", counted)
    atoms = (Atom("a", "b", "<=", -1), Atom("b", "c", "=", 2))
    cs = ConstraintSet.of(*atoms)
    for _ in range(3):
        assert entails(cs, Atom("a", "c", "<=", 1))
        assert decide_eq(SymValue("b"), SymValue("c", 2), cs) is True
        assert _satisfiable(cs)
    assert computed == [cs]
    twin = ConstraintSet.of(*atoms)
    assert twin == cs and hash(twin) == hash(cs)
    assert entails(twin, Atom("a", "c", "<=", 1)) and not entails(twin, Atom("a", "c", "<=", 0))
    assert len(computed) == 2 and computed[1] is twin


def test_register_variable_names_round_trip():
    assert reg_var(3) == "r3"
    assert parse_reg_var("r3") == 3
    assert parse_reg_var("r0") is None
    # one name per register: no leading zero
    assert parse_reg_var("r01") is None
    assert parse_reg_var("r00") is None
    assert parse_reg_var("r10") == 10
    assert parse_reg_var("rx") is None
    assert parse_reg_var("m") is None
    # digits outside ASCII name no register: Arabic-Indic one, superscript two
    assert parse_reg_var("r\u0661") is None
    assert parse_reg_var("r\u00b2") is None


def test_eval_atom_and_satisfies():
    a = Atom("a", "b", "<=", -1)
    assert atom_holds(a, {"a": 1, "b": 2})
    assert not atom_holds(a, {"a": 2, "b": 2})
    assert atom_holds(Atom("a", None, "!=", 3), {"a": 2})
    assert atom_holds(Atom("a", "b", "=", -1), {"a": 1, "b": 2})
    assert not atom_holds(Atom(None, "b", ">=", 0), {"b": 2})
    cs = ConstraintSet.of(Atom("a", "b", "<", 0), Atom("b", None, "<=", 4))
    assert constraints_hold(cs, {"a": 1, "b": 3})
    assert not constraints_hold(cs, {"a": 5, "b": 3})


def test_format_atom_shapes():
    assert format_atom(Atom("a", "b", "<=", -1)) == "a - b <= -1"
    assert format_atom(Atom("a", None, ">=", 2)) == "a >= 2"
    assert format_atom(Atom(None, "b", "<=", 0)) == "0 - b <= 0"
    assert format_atom(Atom("v", "v", "<=", 3)) == "0 <= 3"


def _semantic_entails(cs: ConstraintSet, goal: Atom, space: int) -> bool:
    names = sorted({v for a in (*cs.atoms, goal) for v in atom_variables(a)})
    for values in itertools.product(range(space), repeat=len(names)):
        assignment = dict(zip(names, values))
        if constraints_hold(cs, assignment) and not atom_holds(goal, assignment):
            return False
    return True


def test_constants_beyond_float_range():
    """Bounds are exact integers, also past what a float can hold."""
    huge = 10**400
    cs = ConstraintSet.of(Atom("a", None, "<=", huge), Atom("b", "a", "<=", -huge))
    assert entails(cs, Atom("a", "b", ">=", huge))
    assert not entails(cs, Atom("a", "b", ">=", huge + 1))
    assert _satisfiable(cs)
    assert not _satisfiable(ConstraintSet.of(*cs.atoms, Atom("a", None, "!=", huge)))


def test_a_deep_equality_chain_closes_without_recursion():
    """5,000 `=` atoms in one chain merge into one class at the default
    recursion limit."""
    assert sys.getrecursionlimit() <= 5000
    cs = ConstraintSet.of(*(Atom(f"v{i}", f"v{i + 1}", "=", 1) for i in range(1, 5001)))
    assert entails(cs, Atom("v1", "v5001", "=", 5000))
    assert not entails(cs, Atom("v1", "v5001", "<=", 4999))


def test_equality_offsets_beyond_float_range():
    """Class offsets are exact integers, and an unbounded difference stays
    unbounded however large the offsets it would be shifted by."""
    huge = 10**400
    cs = ConstraintSet.of(Atom("a", "b", "=", huge), Atom("b", "c", "=", huge))
    assert entails(cs, Atom("a", "c", "=", 2 * huge))
    assert not entails(cs, Atom("a", "c", "<=", 2 * huge - 1))
    assert entails(cs, Atom("a", None, ">=", 2 * huge))
    assert not entails(cs, Atom("a", None, "<=", huge**2))
    assert not entails(cs, Atom("a", "d", "<=", huge**2))
    assert _satisfiable(cs)
    assert decide_eq(SymValue("a"), SymValue("c", 2 * huge), cs) is True
    assert decide_eq(SymValue("a"), SymValue("d"), cs) is None


def _random_closure_case(rng: random.Random) -> ConstraintSet:
    """A set over a..e and the zero node, weighted toward `=` atoms, with
    now and then an equality cycle that may not close, a ground false
    `!=` atom or a constant near +-10^400."""
    names = ("a", "b", "c", "d", "e")
    rels = ("=", "=", "=", "<", "<=", ">=", ">", "!=")

    def constant():
        k = rng.randint(-3, 3)
        return k + rng.choice((-1, 1)) * 10**400 if rng.random() < 0.1 else k

    atoms = [Atom(*rng.sample((*names, None), 2), rng.choice(rels), constant()) for _ in range(rng.randint(0, 7))]
    if rng.random() < 0.2:
        cycle = rng.sample(names, rng.randint(2, 4))
        atoms += [Atom(u, v, "=", rng.randint(-1, 1)) for u, v in zip(cycle, cycle[1:] + cycle[:1])]
    if rng.random() < 0.05:
        atoms.append(Atom(None, None, "!=", 0))
    return ConstraintSet.of(*atoms)


def _assert_empty(cs: ConstraintSet, sides) -> None:
    """An empty set has no closure, and reads the empty interval for every
    pair of `sides`, on which every goal is entailed and any two values
    are equal."""
    inf = float("inf")
    assert _closure(cs) is None, cs
    assert not _satisfiable(cs)
    for x in sides:
        for y in sides:
            assert _range(cs.closure, x, y) == (inf, -inf), (cs, x, y)
    for rel in REL_SYMBOLS:
        assert entails(cs, Atom("a", "b", rel, 3)), (cs, rel)
    assert decide_eq(SymValue("a"), SymValue("b", 5), cs) is True


def test_closure_matches_floyd_warshall_over_every_variable():
    """Merging equality classes changes no answer: emptiness,
    `_satisfiable` and every pair's `_range` (a variable no atom mentions
    included) equal those of a plain closure over every variable.  An
    empty set's closure is None, from each of the three causes below as
    from the random sets."""
    rng = random.Random(14)
    inf = float("inf")
    sides = ("a", "b", "c", "d", "e", "unmentioned", None)
    for cause in (
        (Atom("a", "b", "=", 1), Atom("b", "a", "=", 1)),  # a conflicting `=`
        (Atom("a", "b", "<=", -1), Atom("b", "c", "<=", -1), Atom("c", "a", "<=", 1)),  # a negative cycle
        (Atom(None, None, "!=", 0),),  # 0 != 0
    ):
        assert not closure_oracle(ConstraintSet.of(*cause))[1]
        _assert_empty(ConstraintSet.of(*cause), sides)
    feasible_sets = 0
    for _ in range(4000):
        cs = _random_closure_case(rng)
        dist = _closure(cs)
        bound, expected = closure_oracle(cs)
        assert (dist is not None) is expected, cs
        if dist is None:
            _assert_empty(cs, sides)
            continue
        feasible_sets += 1

        def oracle_range(x, y):
            lo, hi = bound(x, y), bound(y, x)
            return (-inf if lo is None else -lo, inf if hi is None else hi)

        pinned = any(a.rel == "!=" and oracle_range(a.x, a.y) == (a.k, a.k) for a in cs.atoms)
        assert _satisfiable(cs) is not pinned, cs
        for x in sides:
            for y in sides:
                assert _range(dist, x, y) == oracle_range(x, y), (cs, x, y)
    assert 1000 < feasible_sets < 3500


def test_unsatisfiable_sets_have_no_model():
    """Where the bounds alone are feasible, `_satisfiable` rejects a set
    through its `!=` atoms only if the set has no model in [0, 7]^3."""
    rng = random.Random(20261021)
    names = ("a", "b", "c")
    cube = [dict(zip(names, point)) for point in itertools.product(range(8), repeat=3)]
    rels = ("<", "<=", "=", ">=", ">", "!=")
    by_disequality = 0
    for _ in range(20000):
        cs = ConstraintSet.of(
            *(
                Atom(*rng.sample((*names, None), 2), rng.choice(rels), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 4))
            )
        )
        if _closure(cs) is not None and not _satisfiable(cs):
            assert not any(constraints_hold(cs, point) for point in cube), cs
            by_disequality += 1
    assert by_disequality > 30


def test_entails_is_sound_on_random_small_sets():
    rng = random.Random(5)
    variables = ("a", "b", None)
    rels = ("<", "<=", "=", ">=", ">", "!=")
    for _ in range(400):
        atoms = []
        for _ in range(rng.randint(1, 3)):
            x, y = rng.sample(variables, 2)
            atoms.append(Atom(x, y, rng.choice(rels), rng.randint(-2, 2)))
        cs = ConstraintSet(frozenset(atoms))
        x, y = rng.sample(variables, 2)
        goal = Atom(x, y, rng.choice(rels), rng.randint(-2, 2))
        if entails(cs, goal):
            assert _semantic_entails(cs, goal, 7), (cs, goal)


def test_entails_and_decide_eq_are_complete_on_random_bound_sets():
    """On bound atoms alone, a False from `entails` has a counter-model and
    a None from `decide_eq` has both an equal and an unequal model, all
    found in [0, 12]^3; so the answers are not just sound but the tightest."""
    rng = random.Random(11)
    names = ("a", "b", "c")
    cube = [dict(zip(names, point)) for point in itertools.product(range(13), repeat=3)]
    bound_rels = ("<", "<=", "=", ">=", ">")
    rels = (*bound_rels, "!=")

    def sym(rng):
        var = rng.choice((*names, None))
        return SymValue(offset=rng.randint(0, 3)) if var is None else SymValue(var, rng.randint(0, 3))

    checked = 0
    while checked < 300:
        cs = ConstraintSet.of(
            *(
                Atom(*rng.sample((*names, None), 2), rng.choice(bound_rels), rng.randint(-3, 3))
                for _ in range(rng.randint(1, 4))
            )
        )
        if _closure(cs) is None:
            continue
        models = [point for point in cube if constraints_hold(cs, point)]
        for _ in range(3):
            goal = Atom(*rng.sample((*names, None), 2), rng.choice(rels), rng.randint(-3, 3))
            if not entails(cs, goal):
                assert not all(atom_holds(goal, point) for point in models), (cs, goal)
                checked += 1
            left, right = sym(rng), sym(rng)
            if decide_eq(left, right, cs) is None:
                equal = {sym_value(left, point) == sym_value(right, point) for point in models}
                assert equal == {True, False}, (cs, left, right)
                checked += 1
