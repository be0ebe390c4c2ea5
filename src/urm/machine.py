"""Register machine syntax and configurations.

The machine is the unlimited register machine: infinitely many
registers holding naturals, and four instructions.  `Zero(i)` stores 0 in
register i, `Succ(i)` increments register i, `Transfer(i, j)` copies
register i into register j, and `Jump(i, j, k)` transfers control to
instruction k when registers i and j hold the same value (k = 0 is the
halt target).

Two configuration views exist.  `Config` is the total valuation of all
registers, kept as a finite map with default 0; because zero entries are
never stored, map equality coincides with valuation equality.
`FiniteConfig` is the plain list view covering registers 1..m; it only
couples soundly with a program whose register operands all fall inside
1..m, which is what `compatible` checks.

The instructions, `Program` and `FiniteConfig`, like the evaluator's
states and results, are immutable slotted classes on the private base
`_Value`, which gives them a frozen dataclass's equality, hashing and
`repr` without importing `dataclasses`.  Each value rule that other modules
share is written once here: `_is_int`, `_REGISTER` (a register's name, which
`textio`'s patterns embed), `Instruction` and `_require_standard`.
"""

from __future__ import annotations

import re
from functools import cached_property
from itertools import repeat
from operator import attrgetter
from typing import Iterable, Iterator, Mapping

from .errors import NotStandardForm

__all__ = (
    "Zero", "Succ", "Transfer", "Jump", "Instruction", "Program", "Config", "FiniteConfig", "zr", "sc", "mv",
    "compatible", "include", "restrict",
)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_register(value: int) -> None:
    if not _is_int(value) or value < 1:
        raise ValueError(f"register index must be a positive integer, got {value!r}")


def _check_natural(value: int, what: str, *args: object) -> None:
    """`what` is formatted with `args` only when the check fails, so that
    bulk checks of valid values build no message."""
    if not _is_int(value) or value < 0:
        raise ValueError(f"{what.format(*args)} must be a natural number, got {value!r}")


# `rI`, I a group of ASCII digits without a leading zero: one name per register.
_REGISTER = r"r([1-9][0-9]*)"


def parse_reg_var(name: str) -> int | None:
    """Register index of a `rI` variable name, as `constraints.reg_var`
    writes one, or None; ValueError for an index past the int digit limit."""
    m = re.fullmatch(_REGISTER, name)
    return int(m[1]) if m else None


# `str` refuses an int of more digits than sys.get_int_max_str_digits(),
# 4300 by default and never below 640; a chunk of 600 digits stays under it.
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """`str(n)` for an int of any length.  A parsed number has at most the
    limit's digits, but a register value or a normalized bound may grow
    past it."""
    if -_CHUNK < n < _CHUNK:
        return str(n)
    sign, rest = ("-", -n) if n < 0 else ("", n)
    chunks = []
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(str(low).zfill(_CHUNK_DIGITS))
    chunks.append(str(rest))
    return sign + "".join(reversed(chunks))


class _Value:
    """Base of the immutable value classes: equality, hashing, `repr` and
    pickling from the fields that `__match_args__` names, as a frozen
    dataclass has them.  Only an instance of the same class compares
    equal.  Each subclass declares its fields as its `__slots__` and sets
    them in its own `__init__` through their slot descriptors' `__set__`
    (`_setters`), which skips `object.__setattr__`'s lookup by name."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()
    _astuple: tuple  # the field values, in `__match_args__` order
    _setters: tuple  # the fields' slot descriptor `__set__`s, in that order

    def __init_subclass__(cls) -> None:
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__match_args__)
        get = attrgetter(*cls.__match_args__)
        cls._astuple = property(get if len(cls.__match_args__) > 1 else lambda self: (get(self),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple == other._astuple

    def __hash__(self) -> int:
        return hash(self._astuple)

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={value!r}" for name, value in zip(self.__match_args__, self._astuple)])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._astuple


# The constructors test the common case, an int in range, inline, and leave
# anything else to the full check, which refuses it or, for an int subclass
# other than bool, admits it.

# Each instruction class's tag, its class attribute `_tag`, which a subclass
# inherits: the library reads an instruction's kind off it.  The jump's is last.
_ZERO, _SUCC, _TRANSFER, _JUMP = range(4)


class Zero(_Value):
    __slots__ = __match_args__ = ("i",)
    _tag = _ZERO
    i: int

    def __init__(self, i: int) -> None:
        if i.__class__ is not int or i < 1:
            _check_register(i)
        _zero_i(self, i)


class Succ(_Value):
    __slots__ = __match_args__ = ("i",)
    _tag = _SUCC
    i: int

    def __init__(self, i: int) -> None:
        if i.__class__ is not int or i < 1:
            _check_register(i)
        _succ_i(self, i)


class Transfer(_Value):
    __slots__ = __match_args__ = ("i", "j")
    _tag = _TRANSFER
    i: int
    j: int

    def __init__(self, i: int, j: int) -> None:
        if i.__class__ is not int or i < 1:
            _check_register(i)
        if j.__class__ is not int or j < 1:
            _check_register(j)
        _transfer_i(self, i)
        _transfer_j(self, j)


class Jump(_Value):
    __slots__ = __match_args__ = ("i", "j", "k")
    _tag = _JUMP
    i: int
    j: int
    k: int

    def __init__(self, i: int, j: int, k: int) -> None:
        if i.__class__ is not int or i < 1:
            _check_register(i)
        if j.__class__ is not int or j < 1:
            _check_register(j)
        if k.__class__ is not int or k < 0:
            _check_natural(k, "jump target")
        _jump_i(self, i)
        _jump_j(self, j)
        _jump_k(self, k)


(_zero_i,), (_succ_i,) = Zero._setters, Succ._setters
_transfer_i, _transfer_j = Transfer._setters
_jump_i, _jump_j, _jump_k = Jump._setters
Instruction = Zero | Succ | Transfer | Jump


class Program(_Value):
    """A finite, non-empty instruction sequence; positions are 1-based."""

    __slots__ = ("instructions", "__dict__")
    __match_args__ = ("instructions",)
    instructions: tuple[Instruction, ...]

    def __init__(self, instructions: tuple[Instruction, ...]) -> None:
        if not isinstance(instructions, tuple):
            raise ValueError("instructions is a tuple of instructions")
        if not instructions:
            raise ValueError("a program must contain at least one instruction")
        for instr in instructions:
            if not isinstance(instr, Instruction):
                raise ValueError(f"not an instruction: {instr!r}")
        _program_instructions(self, instructions)

    @classmethod
    def _of(cls, instructions: tuple[Instruction, ...]) -> Program:
        """From a non-empty tuple of instructions; `__init__`'s checks are
        skipped."""
        new = object.__new__(cls)
        _program_instructions(new, instructions)
        return new

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    # Computed on first use and kept in the instance dict; equality,
    # hashing and pickling look only at `instructions`.
    @cached_property
    def standard(self) -> bool:
        """True iff every jump target k satisfies k <= len(self)."""
        n = len(self.instructions)
        return all(instr.k <= n for instr in self.instructions if instr._tag == _JUMP)

    @cached_property
    def registers(self) -> tuple[int, ...]:
        """Distinct register operands in order of first mention; jump
        targets are not registers."""
        seen: dict[int, None] = {}
        for instr in self.instructions:
            seen[instr.i] = None
            if instr._tag >= _TRANSFER:
                seen[instr.j] = None
        return tuple(seen)

    @cached_property
    def rho(self) -> int:
        """Maximal register index mentioned."""
        return max(self.registers)

    @cached_property
    def _code(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """The compiled program, over register slots, slot s standing for
        `registers[s]`.  Each entry is (tag, a, b, jump target, next
        position), the next position being 0 after the last instruction; the
        tag is the instruction's `_tag`, and b and the target are 0 where
        it has no such operand."""
        slot = {reg: s for s, reg in enumerate(self.registers)}
        n = len(self.instructions)
        code = []
        for pos, instr in enumerate(self.instructions, start=1):
            tag = instr._tag
            b = slot[instr.j] if tag >= _TRANSFER else 0
            code.append((tag, slot[instr.i], b, instr.k if tag == _JUMP else 0, pos + 1 if pos < n else 0))
        return tuple(code)


class Config:
    """Total register valuation with finite support.

    Zero entries are dropped at construction, so two configs are equal
    exactly when they assign every register the same value.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, int] | None = None):
        canon: dict[int, int] = {}
        for reg, val in (entries or {}).items():
            _check_register(reg)
            _check_natural(val, "value of register {}", reg)
            if val != 0:
                canon[reg] = val
        self._entries = canon

    def _updated(self, changes: Iterable[tuple[int, int]]) -> Config:
        """Copy with the (register, value) pairs assigned; the pairs must be
        valid, as `__init__`'s checks are skipped."""
        entries = dict(self._entries)
        for reg, val in changes:
            if val:
                entries[reg] = val
            else:
                entries.pop(reg, None)
        new = object.__new__(Config)
        new._entries = entries
        return new

    def _with(self, reg: int, val: int) -> Config:
        """Copy with register `reg` assigned `val`, the one-register
        `_updated`; both must be valid."""
        entries = self._entries.copy()
        if val:
            entries[reg] = val
        else:
            entries.pop(reg, None)
        new = object.__new__(Config)
        new._entries = entries
        return new

    def get(self, i: int) -> int:
        _check_register(i)
        return self._entries.get(i, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._entries.items()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Config):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(frozenset(self._entries.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{r}: {v}" for r, v in sorted(self._entries.items()))
        return f"Config({{{inner}}})"


EMPTY_CONFIG = Config()


class FiniteConfig(_Value):
    """Register values for positions 1..m, m >= 1."""

    __slots__ = __match_args__ = ("values",)
    values: tuple[int, ...]

    def __init__(self, values: tuple[int, ...]) -> None:
        if not isinstance(values, tuple):
            raise ValueError("values is a tuple of naturals")
        if not values:
            raise ValueError("a finite configuration must be non-empty")
        for pos, val in enumerate(values, start=1):
            _check_natural(val, "value at position {}", pos)
        _finite_values(self, values)

    @classmethod
    def _of(cls, values: tuple[int, ...]) -> FiniteConfig:
        """From a non-empty tuple of naturals; `__init__`'s checks are
        skipped."""
        new = object.__new__(cls)
        _finite_values(new, values)
        return new

    def __len__(self) -> int:
        return len(self.values)


(_program_instructions,), (_finite_values,) = Program._setters, FiniteConfig._setters


def _require_standard(p: Program) -> None:
    if not p.standard:
        raise NotStandardForm("program is not in standard form")


def compatible(sigma: FiniteConfig, p: Program) -> bool:
    """True iff `p` is in standard form and touches only registers 1..m."""
    return p.standard and p.rho <= len(sigma)


def zr(c: Config, i: int) -> Config:
    """Config equal to `c` except register i holds 0."""
    _check_register(i)
    return c._with(i, 0)


def sc(c: Config, i: int) -> Config:
    """Config equal to `c` except register i is incremented."""
    _check_register(i)
    return c._with(i, c._entries.get(i, 0) + 1)


def mv(c: Config, i: int, j: int) -> Config:
    """Config equal to `c` except register j holds the value of register i."""
    _check_register(i)
    _check_register(j)
    return c._with(j, c._entries.get(i, 0))


def include(sigma: FiniteConfig) -> Config:
    """Embed a finite configuration: positions beyond m read as 0.

    `FiniteConfig` has checked every value, so no entry is checked again."""
    return EMPTY_CONFIG._updated(enumerate(sigma.values, start=1))


def restrict(c: Config, p: Program) -> FiniteConfig:
    """Cut `c` down to the registers `p` can touch, positions 1..p.rho.

    Reads the fewer of c's nonzero entries and the rho positions."""
    entries = c._entries
    rho = p.rho
    if len(entries) >= rho:
        return FiniteConfig._of(tuple(map(entries.get, range(1, rho + 1), repeat(0))))
    values = [0] * rho
    for reg, val in entries.items():
        if reg <= rho:
            values[reg - 1] = val
    return FiniteConfig._of(tuple(values))
