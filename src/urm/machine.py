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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Union


def _check_register(value: int, what: str = "register index") -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{what} must be a positive integer, got {value!r}")


def _check_natural(value: int, what: str, *args: object) -> None:
    """`what` is formatted with `args` only when the check fails, so that
    bulk checks of valid values build no message."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{what.format(*args)} must be a natural number, got {value!r}")


@dataclass(frozen=True)
class Zero:
    i: int

    def __post_init__(self) -> None:
        _check_register(self.i)


@dataclass(frozen=True)
class Succ:
    i: int

    def __post_init__(self) -> None:
        _check_register(self.i)


@dataclass(frozen=True)
class Transfer:
    i: int
    j: int

    def __post_init__(self) -> None:
        _check_register(self.i)
        _check_register(self.j)


@dataclass(frozen=True)
class Jump:
    i: int
    j: int
    k: int

    def __post_init__(self) -> None:
        _check_register(self.i)
        _check_register(self.j)
        _check_natural(self.k, "jump target")


Instruction = Union[Zero, Succ, Transfer, Jump]


@dataclass(frozen=True)
class Program:
    """A finite, non-empty instruction sequence; positions are 1-based."""

    instructions: tuple[Instruction, ...]

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ValueError("a program must contain at least one instruction")
        for instr in self.instructions:
            if not isinstance(instr, (Zero, Succ, Transfer, Jump)):
                raise ValueError(f"not an instruction: {instr!r}")

    def __len__(self) -> int:
        return len(self.instructions)

    def at(self, pos: int) -> Instruction:
        """Instruction at 1-based position `pos`."""
        if not 1 <= pos <= len(self.instructions):
            raise IndexError(f"position {pos} not in [1..{len(self.instructions)}]")
        return self.instructions[pos - 1]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    # Computed on first use and kept in the instance dict; dataclass
    # equality and hashing look only at `instructions`.
    @cached_property
    def standard(self) -> bool:
        """True iff every jump target k satisfies k <= len(self)."""
        n = len(self.instructions)
        return all(instr.k <= n for instr in self.instructions if isinstance(instr, Jump))

    @cached_property
    def registers(self) -> tuple[int, ...]:
        """Distinct register operands in order of first mention; jump
        targets are not registers."""
        seen: dict[int, None] = {}
        for instr in self.instructions:
            seen[instr.i] = None
            if not isinstance(instr, (Zero, Succ)):
                seen[instr.j] = None
        return tuple(seen)

    @cached_property
    def rho(self) -> int:
        """Maximal register index mentioned."""
        return max(self.registers)


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
        object.__setattr__(self, "_entries", canon)

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
        object.__setattr__(new, "_entries", entries)
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


@dataclass(frozen=True)
class FiniteConfig:
    """Register values for positions 1..m, m >= 1."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a finite configuration must be non-empty")
        for pos, val in enumerate(self.values, start=1):
            _check_natural(val, "value at position {}", pos)

    def __len__(self) -> int:
        return len(self.values)

    def at(self, pos: int) -> int:
        if not 1 <= pos <= len(self.values):
            raise IndexError(f"position {pos} not in [1..{len(self.values)}]")
        return self.values[pos - 1]


def rho(p: Program) -> int:
    """Maximal register index mentioned by any instruction of `p`."""
    return p.rho


def is_standard_form(p: Program) -> bool:
    """True iff every jump target k satisfies k <= len(p)."""
    return p.standard


def compatible(sigma: FiniteConfig, p: Program) -> bool:
    """True iff `p` is in standard form and touches only registers 1..m."""
    return is_standard_form(p) and rho(p) <= len(sigma)


def zr(c: Config, i: int) -> Config:
    """Config equal to `c` except register i holds 0."""
    _check_register(i)
    return c._updated(((i, 0),))


def sc(c: Config, i: int) -> Config:
    """Config equal to `c` except register i is incremented."""
    _check_register(i)
    return c._updated(((i, c._entries.get(i, 0) + 1),))


def mv(c: Config, i: int, j: int) -> Config:
    """Config equal to `c` except register j holds the value of register i."""
    _check_register(i)
    _check_register(j)
    return c._updated(((j, c._entries.get(i, 0)),))


def include(sigma: FiniteConfig) -> Config:
    """Embed a finite configuration: positions beyond m read as 0.

    `FiniteConfig` has checked every value, so no entry is checked again."""
    return EMPTY_CONFIG._updated(enumerate(sigma.values, start=1))


def restrict(c: Config, p: Program) -> FiniteConfig:
    """Cut `c` down to the registers `p` can touch, positions 1..rho(p)."""
    entries = c._entries
    return FiniteConfig(tuple(entries.get(i, 0) for i in range(1, p.rho + 1)))
