"""The value classes of `machine` and `evaluator`: representation, equality,
hashing, pattern matching, immutability, copying and constructor checks."""

import copy
import pickle

import pytest

from urm import (
    Config,
    Converges,
    Diverges,
    FiniteConfig,
    Halted,
    Jump,
    MachineState,
    OutOfFuel,
    Program,
    Succ,
    Transfer,
    Zero,
)

_PROGRAM = Program((Zero(1), Succ(2)))
_STATE = MachineState(_PROGRAM, 1, Config({1: 2}))

# (class, field values, another instance's field values, repr text)
CASES = [
    (Zero, (1,), (2,), "Zero(i=1)"),
    (Succ, (2,), (3,), "Succ(i=2)"),
    (Transfer, (1, 2), (2, 1), "Transfer(i=1, j=2)"),
    (Jump, (1, 2, 3), (1, 2, 0), "Jump(i=1, j=2, k=3)"),
    (Program, ((Zero(1), Succ(2)),), ((Zero(1),),), "Program(instructions=(Zero(i=1), Succ(i=2)))"),
    (FiniteConfig, ((1, 2),), ((1, 2, 0),), "FiniteConfig(values=(1, 2))"),
    (MachineState, (_PROGRAM, 1, Config({1: 2})), (_PROGRAM, 2, Config({1: 2})),
     "MachineState(program=Program(instructions=(Zero(i=1), Succ(i=2))), pc=1, config=Config({1: 2}))"),
    (Halted, (Config({}), 3), (FiniteConfig((0,)), 3), "Halted(final=Config({}), steps=3)"),
    (OutOfFuel, (_STATE, 5), (_STATE, 6),
     "OutOfFuel(last=MachineState(program=Program(instructions=(Zero(i=1), Succ(i=2))), pc=1, "
     "config=Config({1: 2})), steps=5)"),
    (Converges, (3,), (4,), "Converges(steps=3)"),
    (Diverges, (2, 1), (1, 2), "Diverges(cycle_entry_pc=2, cycle_length=1)"),
]

FIELDS = {
    Zero: ("i",),
    Succ: ("i",),
    Transfer: ("i", "j"),
    Jump: ("i", "j", "k"),
    Program: ("instructions",),
    FiniteConfig: ("values",),
    MachineState: ("program", "pc", "config"),
    Halted: ("final", "steps"),
    OutOfFuel: ("last", "steps"),
    Converges: ("steps",),
    Diverges: ("cycle_entry_pc", "cycle_length"),
}

_IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=_IDS)
def test_repr(cls, args, other, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=_IDS)
def test_equality_and_hashing(cls, args, other, text):
    a, b, c = cls(*args), cls(*args), cls(*other)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2
    assert {a: 1}[b] == 1
    # only an instance of the same class compares equal; no ordering
    assert a != args and a != text and a is not None
    with pytest.raises(TypeError):
        a < b  # noqa: B015


def test_equal_fields_of_different_classes_differ():
    assert Zero(1) != Succ(1)
    assert Succ(1) != Zero(1)
    assert Converges(2) != Diverges(2, 2) and Converges(2) != Halted(Config(), 2)


def test_program_facts_leave_equality_alone():
    p = Program((Jump(1, 2, 1), Succ(3)))
    q = Program((Jump(1, 2, 1), Succ(3)))
    assert (p.standard, p.registers, p.rho) == (True, (1, 2, 3), 3)
    assert p == q and hash(p) == hash(q)
    assert repr(p) == repr(q) == "Program(instructions=(Jump(i=1, j=2, k=1), Succ(i=3)))"


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=_IDS)
def test_match_args_and_keywords(cls, args, other, text):
    names = FIELDS[cls]
    assert cls.__match_args__ == names
    value = cls(**dict(zip(names, args)))
    assert value == cls(*args)
    assert tuple(getattr(value, name) for name in names) == args
    with pytest.raises(TypeError):
        cls(*args, 1)


def test_match_statement_binds_fields():
    match Jump(1, 2, 3):
        case Zero(i) | Succ(i):
            bound = ("one", i)
        case Jump(i, j, k):
            bound = ("jump", i, j, k)
    assert bound == ("jump", 1, 2, 3)
    match Diverges(cycle_entry_pc=2, cycle_length=1):
        case Converges(steps):
            verdict = ("converges", steps)
        case Diverges(pc, length):
            verdict = ("diverges", pc, length)
    assert verdict == ("diverges", 2, 1)


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=_IDS)
def test_immutable(cls, args, other, text):
    value = cls(*args)
    for name in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*args)


@pytest.mark.parametrize("cls, args, other, text", CASES, ids=_IDS)
def test_copy_and_pickle(cls, args, other, text):
    value = cls(*args)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)
        assert repr(twin) == text


def test_program_copy_keeps_its_facts():
    p = Program((Jump(1, 4, 1), Succ(2)))
    assert p.rho == 4
    # the compiled code is a fact too: computed once, over slots in `registers` order
    assert p._code is p._code == ((3, 0, 1, 1, 2), (1, 2, 0, 0, 0))
    for twin in (copy.copy(p), pickle.loads(pickle.dumps(p))):
        assert (twin.standard, twin.registers, twin.rho, twin._code) == (True, (1, 4, 2), 4, p._code)


@pytest.mark.parametrize("make, message", [
    (lambda: Zero(0), "register index must be a positive integer, got 0"),
    (lambda: Succ(-1), "register index must be a positive integer, got -1"),
    (lambda: Zero(True), "register index must be a positive integer, got True"),
    (lambda: Succ("1"), "register index must be a positive integer, got '1'"),
    (lambda: Transfer(0, 1), "register index must be a positive integer, got 0"),
    (lambda: Transfer(1, 0), "register index must be a positive integer, got 0"),
    (lambda: Jump(0, 1, 1), "register index must be a positive integer, got 0"),
    (lambda: Jump(1, 2.0, 1), "register index must be a positive integer, got 2.0"),
    (lambda: Jump(1, 2, -1), "jump target must be a natural number, got -1"),
    (lambda: Jump(1, 2, False), "jump target must be a natural number, got False"),
    (lambda: Jump(i=1, j=2, k=None), "jump target must be a natural number, got None"),
    (lambda: Program(()), "a program must contain at least one instruction"),
    (lambda: Program((Zero(1), 3)), "not an instruction: 3"),
    (lambda: Program([Zero(1)]), "instructions is a tuple of instructions"),
    (lambda: Program(instructions=[]), "instructions is a tuple of instructions"),
    (lambda: FiniteConfig(()), "a finite configuration must be non-empty"),
    (lambda: FiniteConfig((1, -1)), "value at position 2 must be a natural number, got -1"),
    (lambda: FiniteConfig(values=(True,)), "value at position 1 must be a natural number, got True"),
    (lambda: FiniteConfig([1, 2]), "values is a tuple of naturals"),
])
def test_constructor_checks(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert str(err.value) == message


def test_unchecked_classes_take_any_fields():
    """The evaluator's results check nothing, as before."""
    assert MachineState(_PROGRAM, 0, Config()).pc == 0
    assert Halted(final=FiniteConfig((1,)), steps=0).steps == 0
    assert OutOfFuel(last=_STATE, steps=7).last is _STATE
    assert Converges(steps=0).steps == 0
    assert Diverges(cycle_entry_pc=2, cycle_length=1).cycle_length == 1
