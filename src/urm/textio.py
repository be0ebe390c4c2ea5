"""Parsers for the three on-disk formats, plus the program printer.

Programs are one instruction per line (`Z i`, `S i`, `T i j`, `J i j k`),
configurations are comma-separated naturals, and certificates are a
line-oriented `key: value` format.  All formats treat `#` as a comment
to end of line and ignore blank lines: every reader takes its lines from
`_content_lines`, and the comma lists (a configuration, `init:`) are
read by `_fields`.  Errors are reported as SourceError with the 1-based
line and column of the offending token.

Certificate grammar, by key:

    kind: diverges | terminates
    params: m n z                # parameter names, space-separated
    constraint: m < n            # repeatable; operands are parameters,
                                 # `param+nat`, or naturals
    init: m, n, z                # one value per register, first is r1
    head: 1
    invariant: r1 < r2           # repeatable; operands are `rI`,
                                 # `rI+nat`, or naturals
    split: r1 - r2 > 0           # terminates only
    ranking: r1 - r2             # terminates only
    bound: 8

`kind`, `head`, and `bound` are required.  Relations are <, <=, =, >=,
>, !=.  Parameters are bare identifiers and must not look like register
names; a register name has no leading zero (`r1`, never `r01`).  A
certificate has at most `MAX_ATOM_LINES` (500) `constraint` and
`invariant` lines together, and a `bound` of at most `MAX_STEP_BOUND`
(100000).
"""

from __future__ import annotations

import re

from typing import Callable, Iterator

from .certificates import DivergenceCert, TerminationCert
from .constraints import REL_SYMBOLS, Atom, ConstraintSet, SymValue, _decimal, parse_reg_var
from .errors import SourceError
from .machine import FiniteConfig, Instruction, Jump, Program, Succ, Transfer, Zero

_TOKEN = re.compile(r"\S+")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# The instruction syntax: a mnemonic, then one natural per field of its
# class, in constructor order (`__match_args__`); the first two operands
# are registers, a jump's third its target.
_SYNTAX = {"Z": Zero, "S": Succ, "T": Transfer, "J": Jump}
_MNEMONIC = {kind: mnemonic for mnemonic, kind in _SYNTAX.items()}


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line without its comment) for each line with content."""
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0]
        if line.strip():
            yield ln, line


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


def _nat(tok: str, line: int, column: int) -> int:
    if not (tok.isascii() and tok.isdigit()):
        raise SourceError(line, column, f"expected a natural number, got {tok!r}")
    try:
        return int(tok)
    except ValueError:  # longer than the interpreter's int conversion limit
        raise SourceError(line, column, f"number too long ({len(tok)} digits)") from None


def _reg_index(tok: str, line: int, column: int) -> int | None:
    """`parse_reg_var` of a token, with a positioned error for an index
    longer than the interpreter's int conversion limit."""
    try:
        return parse_reg_var(tok)
    except ValueError:
        raise SourceError(line, column, f"number too long ({len(tok) - 1} digits)") from None


def parse_program(text: str) -> Program:
    """Program from assembly text; positions follow file order."""
    instructions: list[Instruction] = []
    for ln, line in _content_lines(text):
        toks = _tokens(line)
        (mnemonic, mcol), args = toks[0], toks[1:]
        kind = _SYNTAX.get(mnemonic)
        if kind is None:
            raise SourceError(ln, mcol, f"unknown mnemonic {mnemonic!r}")
        arity = len(kind.__match_args__)
        if len(args) != arity:
            raise SourceError(ln, mcol, f"{mnemonic} takes {arity} operand(s), got {len(args)}")
        values = [_nat(tok, ln, col) for tok, col in args]
        for value, (_, col) in zip(values[:2], args):
            if value < 1:
                raise SourceError(ln, col, "register indices start at 1")
        instructions.append(kind(*values))
    if not instructions:
        raise SourceError(1, 1, "empty program")
    return Program(tuple(instructions))


def print_program(p: Program) -> str:
    """Canonical assembly text; inverse of parse_program."""
    return "\n".join(
        " ".join([_MNEMONIC[type(instr)], *(str(getattr(instr, name)) for name in instr.__match_args__)])
        for instr in p
    )


def _fields(text: str, ln: int, col: int, what: str, read: Callable[[str, int, int], object]) -> list:
    """`read(token, ln, column)` of each field of the comma list `text`,
    whose first character is at column `col`."""
    out = []
    for part in text.split(","):
        tok = part.strip()
        column = col + len(part) - len(part.lstrip())
        if not tok:
            raise SourceError(ln, column, f"expected {what}")
        out.append(read(tok, ln, column))
        col += len(part) + 1
    return out


def parse_config(text: str) -> FiniteConfig:
    """Finite configuration from comma-separated naturals."""
    lines = list(_content_lines(text))
    if not lines:
        raise SourceError(1, 1, "empty input")
    if len(lines) > 1:
        raise SourceError(lines[1][0], 1, "expected a single line")
    ln, line = lines[0]
    body = line.strip()
    # ASCII digits and commas only: one C-level conversion of the whole
    # line.  Anything else, or an empty field or a number too long for
    # `int`, is read field by field, which alone builds the positioned error.
    if body.isascii() and body.replace(",", "").isdigit():
        try:
            return FiniteConfig._of(tuple(map(int, body.split(","))))
        except ValueError:
            pass
    return FiniteConfig._of(tuple(_fields(line, ln, 1, "a natural number", _nat)))


def format_config(values) -> str:
    """Comma-separated register values, e.g. "5,3,0"."""
    return ",".join(map(_decimal, values))


def _parse_term(tok: str, ln: int, col: int, names: str) -> tuple[str | None, int]:
    """Operand `ident`, `ident+nat`, or `nat` as (variable, offset)."""
    base, plus, offset_tok = tok.partition("+")
    if plus and not offset_tok:
        raise SourceError(ln, col, f"missing offset after '+' in {tok!r}")
    if base.isascii() and base.isdigit():
        if plus:
            raise SourceError(ln, col, f"offset on a constant in {tok!r}")
        return None, _nat(base, ln, col)
    if not _IDENT.match(base):
        raise SourceError(ln, col, f"expected a {names} operand, got {tok!r}")
    offset = _nat(offset_tok, ln, col) if plus else 0
    return base, offset


# Keys that may appear at most once.
_ONCE = frozenset(("kind", "params", "init", "head", "split", "ranking", "bound"))
# The most `constraint:` and `invariant:` lines a certificate may have.  A
# constraint set's closure holds a bound per pair of its equality classes,
# so without `=` atoms its memory grows with the square of its atoms; at
# 500 `urm cert` peaks near 50 MB.
MAX_ATOM_LINES = 500
# The largest `bound:`.  Each step of a loop walk stays in its trail, which
# an accepted certificate prints, until the check ends; at this cap a
# rejected `urm cert` peaks near 30 MB.
MAX_STEP_BOUND = 100000


def parse_cert(text: str):
    """Divergence or termination certificate from key-value text."""
    seen: dict[str, int] = {}  # a once-only key's line
    once: dict = {}  # a once-only key's value
    constraints: list[Atom] = []
    invariant: list[Atom] = []

    def param_term(tok: str, ln: int, col: int) -> tuple[str | None, int]:
        var, offset = _parse_term(tok, ln, col, "parameter")
        if var is not None and var not in once.get("params", ()):
            raise SourceError(ln, col, f"undeclared parameter {var!r}")
        return var, offset

    def register_term(tok: str, ln: int, col: int) -> tuple[str | None, int]:
        var, offset = _parse_term(tok, ln, col, "register")
        if var is not None and _reg_index(var, ln, col) is None:
            raise SourceError(ln, col, f"expected a register operand like r1, got {tok!r}")
        return var, offset

    def atom(toks: list[tuple[str, int]], ln: int, term) -> Atom:
        if len(toks) != 3:
            raise SourceError(ln, toks[0][1] if toks else 1, "expected 'A rel B'")
        (ltok, lcol), (rel, rcol), (rtok, ccol) = toks
        if rel not in REL_SYMBOLS:
            raise SourceError(ln, rcol, f"unknown relation {rel!r}")
        vx, cx = term(ltok, ln, lcol)
        vy, cy = term(rtok, ln, ccol)
        return Atom(vx, vy, rel, cy - cx)

    def register(tok: str, ln: int, col: int) -> int:
        index = _reg_index(tok, ln, col)
        if index is None:
            raise SourceError(ln, col, f"expected a register like r1, got {tok!r}")
        return index

    def pair(toks: list[tuple[str, int]], ln: int, what: str) -> tuple[int, int, list[tuple[str, int]]]:
        if len(toks) < 3 or toks[1][0] != "-":
            raise SourceError(ln, toks[0][1] if toks else 1, f"expected '{what}'")
        return register(toks[0][0], ln, toks[0][1]), register(toks[2][0], ln, toks[2][1]), toks[3:]

    for ln, line in _content_lines(text):
        key, colon, value = line.partition(":")
        if not colon:
            raise SourceError(ln, 1, "expected 'key: value'")
        vcol = len(key) + 2
        key = key.strip()
        toks = [(tok, vcol + col - 1) for tok, col in _tokens(value)]
        col0 = toks[0][1] if toks else vcol
        if key in _ONCE:
            if key in seen:
                raise SourceError(ln, 1, f"duplicate {key!r} line (first on line {seen[key]})")
            seen[key] = ln
        elif key in ("constraint", "invariant") and len(constraints) + len(invariant) == MAX_ATOM_LINES:
            raise SourceError(ln, 1, f"more than {MAX_ATOM_LINES} constraint and invariant lines")
        if key == "kind":
            if value.strip() not in ("diverges", "terminates"):
                raise SourceError(ln, col0, "kind must be 'diverges' or 'terminates'")
            once[key] = value.strip()
        elif key == "params":
            names = once[key] = []
            for tok, col in toks:
                if not _IDENT.match(tok):
                    raise SourceError(ln, col, f"invalid parameter name {tok!r}")
                if _reg_index(tok, ln, col) is not None:
                    raise SourceError(ln, col, f"parameter {tok!r} clashes with a register name")
                if tok in names:
                    raise SourceError(ln, col, f"duplicate parameter {tok!r}")
                names.append(tok)
        elif key == "constraint":
            constraints.append(atom(toks, ln, param_term))
        elif key == "init":
            terms = _fields(value, ln, vcol, "a value", param_term)
            once[key] = {i: SymValue(*term) for i, term in enumerate(terms, start=1)}
        elif key in ("head", "bound"):
            if len(toks) != 1:
                what = "position" if key == "head" else "step bound"
                raise SourceError(ln, col0, f"expected a single {what}")
            once[key] = _nat(toks[0][0], ln, toks[0][1])
            if key == "bound" and once[key] > MAX_STEP_BOUND:
                raise SourceError(ln, toks[0][1], f"bound must be at most {MAX_STEP_BOUND}")
        elif key == "invariant":
            invariant.append(atom(toks, ln, register_term))
        elif key == "split":
            x, y, rest = pair(toks, ln, "split: rX - rY > k")
            if len(rest) != 2 or rest[0][0] != ">":
                raise SourceError(ln, rest[0][1] if rest else col0, "expected '> k' after the register pair")
            once[key] = (x, y, _nat(rest[1][0], ln, rest[1][1]))
        elif key == "ranking":
            x, y, rest = pair(toks, ln, "ranking: rX - rY")
            if rest:
                raise SourceError(ln, rest[0][1], "unexpected trailing tokens")
            once[key] = (x, y)
        else:
            raise SourceError(ln, 1, f"unknown key {key!r}")

    for key in ("kind", "head", "bound"):
        if key not in once:
            raise SourceError(1, 1, f"missing {key!r} line")
    if once["bound"] < 1:
        raise SourceError(seen["bound"], 1, "bound must be at least 1")
    if once["head"] < 1:
        raise SourceError(seen["head"], 1, "head positions start at 1")
    common = dict(
        param_constraints=ConstraintSet(frozenset(constraints)),
        init=once.get("init", {}),
        loop_head=once["head"],
        invariant=tuple(invariant),
        step_bound=once["bound"],
    )
    if once["kind"] == "diverges":
        for key in ("split", "ranking"):
            if key in seen:
                raise SourceError(seen[key], 1, f"{key!r} is only for kind terminates")
        return DivergenceCert(**common)
    for key in ("split", "ranking"):
        if key not in once:
            raise SourceError(1, 1, f"missing {key!r} line for kind terminates")
    return TerminationCert(**common, split=once["split"], ranking=once["ranking"])
