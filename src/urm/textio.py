"""Parsers for the three on-disk formats, plus the program printer.

Programs are one instruction per line (`Z i`, `S i`, `T i j`, `J i j k`),
configurations are comma-separated naturals, and certificates are a
line-oriented `key: value` format.  All formats treat `#` as a comment
to end of line and ignore blank lines.  Errors are reported as
SourceError with the 1-based line and column of the offending token.

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
names.
"""

from __future__ import annotations

import re

from .certificates import DivergenceCert, TerminationCert
from .constraints import REL_SYMBOLS, Atom, Const, ConstraintSet, SymValue, VarPlus, parse_reg_var
from .errors import SourceError
from .machine import FiniteConfig, Instruction, Jump, Program, Succ, Transfer, Zero

_TOKEN = re.compile(r"\S+")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

_ARITY = {"Z": 1, "S": 1, "T": 2, "J": 3}


def _strip_comment(line: str) -> str:
    return line.split("#", 1)[0]


def _tokens(line: str) -> list[tuple[str, int]]:
    return [(m.group(), m.start() + 1) for m in _TOKEN.finditer(line)]


def _nat(tok: str, line: int, column: int) -> int:
    if not (tok.isascii() and tok.isdigit()):
        raise SourceError(line, column, f"expected a natural number, got {tok!r}")
    try:
        return int(tok)
    except ValueError:  # longer than the interpreter's int conversion limit
        raise SourceError(line, column, f"number too long ({len(tok)} digits)") from None


def parse_program(text: str) -> Program:
    """Program from assembly text; positions follow file order."""
    instructions: list[Instruction] = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        toks = _tokens(_strip_comment(raw))
        if not toks:
            continue
        (mnemonic, mcol), args = toks[0], toks[1:]
        arity = _ARITY.get(mnemonic)
        if arity is None:
            raise SourceError(ln, mcol, f"unknown mnemonic {mnemonic!r}")
        if len(args) != arity:
            raise SourceError(ln, mcol, f"{mnemonic} takes {arity} operand(s), got {len(args)}")
        values = [_nat(tok, ln, col) for tok, col in args]
        registers = values[:2] if mnemonic in ("T", "J") else values[:1]
        for value, (_, col) in zip(registers, args):
            if value < 1:
                raise SourceError(ln, col, "register indices start at 1")
        if mnemonic == "Z":
            instructions.append(Zero(values[0]))
        elif mnemonic == "S":
            instructions.append(Succ(values[0]))
        elif mnemonic == "T":
            instructions.append(Transfer(values[0], values[1]))
        else:
            instructions.append(Jump(values[0], values[1], values[2]))
    if not instructions:
        raise SourceError(1, 1, "empty program")
    return Program(tuple(instructions))


def print_program(p: Program) -> str:
    """Canonical assembly text; inverse of parse_program."""
    lines = []
    for instr in p:
        if isinstance(instr, Zero):
            lines.append(f"Z {instr.i}")
        elif isinstance(instr, Succ):
            lines.append(f"S {instr.i}")
        elif isinstance(instr, Transfer):
            lines.append(f"T {instr.i} {instr.j}")
        else:
            lines.append(f"J {instr.i} {instr.j} {instr.k}")
    return "\n".join(lines)


def _content_line(text: str) -> tuple[str, int]:
    found: tuple[str, int] | None = None
    for ln, raw in enumerate(text.split("\n"), start=1):
        if not _strip_comment(raw).strip():
            continue
        if found is not None:
            raise SourceError(ln, 1, "expected a single line")
        found = (raw, ln)
    if found is None:
        raise SourceError(1, 1, "empty input")
    return found


def parse_config(text: str) -> FiniteConfig:
    """Finite configuration from comma-separated naturals."""
    raw, ln = _content_line(text)
    line = _strip_comment(raw)
    values: list[int] = []
    cursor = 0
    for part in line.split(","):
        column = cursor + len(part) - len(part.lstrip()) + 1
        tok = part.strip()
        if not tok:
            raise SourceError(ln, column, "expected a natural number")
        values.append(_nat(tok, ln, column))
        cursor += len(part) + 1
    return FiniteConfig(tuple(values))


def format_config(values) -> str:
    """Comma-separated register values, e.g. "5,3,0"."""
    return ",".join(str(v) for v in values)


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


class _CertParser:
    def __init__(self) -> None:
        self.seen: dict[str, int] = {}
        self.kind: str | None = None
        self.params: list[str] = []
        self.constraints: list[Atom] = []
        self.init: dict[int, SymValue] = {}
        self.head: int | None = None
        self.invariant: list[Atom] = []
        self.split: tuple[int, int, int] | None = None
        self.ranking: tuple[int, int] | None = None
        self.bound: int | None = None

    def _once(self, key: str, ln: int) -> None:
        if key in self.seen:
            raise SourceError(ln, 1, f"duplicate {key!r} line (first on line {self.seen[key]})")
        self.seen[key] = ln

    def _param_term(self, tok: str, ln: int, col: int) -> tuple[str | None, int]:
        var, offset = _parse_term(tok, ln, col, "parameter")
        if var is not None and var not in self.params:
            raise SourceError(ln, col, f"undeclared parameter {var!r}")
        return var, offset

    def _register_term(self, tok: str, ln: int, col: int) -> tuple[str | None, int]:
        var, offset = _parse_term(tok, ln, col, "register")
        if var is not None and parse_reg_var(var) is None:
            raise SourceError(ln, col, f"expected a register operand like r1, got {tok!r}")
        return var, offset

    def _atom(self, toks: list[tuple[str, int]], ln: int, operand) -> Atom:
        if len(toks) != 3:
            col = toks[0][1] if toks else 1
            raise SourceError(ln, col, "expected 'A rel B'")
        (ltok, lcol), (rel, rcol), (rtok, ccol) = toks
        if rel not in REL_SYMBOLS:
            raise SourceError(ln, rcol, f"unknown relation {rel!r}")
        vx, cx = operand(ltok, ln, lcol)
        vy, cy = operand(rtok, ln, ccol)
        return Atom(vx, vy, rel, cy - cx)

    def _register(self, tok: str, ln: int, col: int) -> int:
        index = parse_reg_var(tok)
        if index is None:
            raise SourceError(ln, col, f"expected a register like r1, got {tok!r}")
        return index

    def _pair(self, toks: list[tuple[str, int]], ln: int, what: str) -> tuple[int, int, list[tuple[str, int]]]:
        if len(toks) < 3 or toks[1][0] != "-":
            col = toks[0][1] if toks else 1
            raise SourceError(ln, col, f"expected '{what}'")
        x = self._register(toks[0][0], ln, toks[0][1])
        y = self._register(toks[2][0], ln, toks[2][1])
        return x, y, toks[3:]

    def feed(self, key: str, value: str, ln: int, vcol: int) -> None:
        toks = [(tok, vcol + col - 1) for tok, col in _tokens(value)]
        col0 = toks[0][1] if toks else vcol
        if key == "kind":
            self._once(key, ln)
            if value.strip() not in ("diverges", "terminates"):
                raise SourceError(ln, col0, "kind must be 'diverges' or 'terminates'")
            self.kind = value.strip()
        elif key == "params":
            self._once(key, ln)
            for tok, col in toks:
                if not _IDENT.match(tok):
                    raise SourceError(ln, col, f"invalid parameter name {tok!r}")
                if parse_reg_var(tok) is not None:
                    raise SourceError(ln, col, f"parameter {tok!r} clashes with a register name")
                if tok in self.params:
                    raise SourceError(ln, col, f"duplicate parameter {tok!r}")
                self.params.append(tok)
        elif key == "constraint":
            self.constraints.append(self._atom(toks, ln, self._param_term))
        elif key == "init":
            self._once(key, ln)
            cursor = 0
            for index, part in enumerate(value.split(","), start=1):
                column = vcol + cursor + len(part) - len(part.lstrip())
                tok = part.strip()
                if not tok:
                    raise SourceError(ln, column, "expected a value")
                var, offset = self._param_term(tok, ln, column)
                self.init[index] = Const(offset) if var is None else VarPlus(var, offset)
                cursor += len(part) + 1
        elif key == "head":
            self._once(key, ln)
            if len(toks) != 1:
                raise SourceError(ln, col0, "expected a single position")
            self.head = _nat(toks[0][0], ln, toks[0][1])
        elif key == "invariant":
            self.invariant.append(self._atom(toks, ln, self._register_term))
        elif key == "split":
            self._once(key, ln)
            x, y, rest = self._pair(toks, ln, "split: rX - rY > k")
            if len(rest) != 2 or rest[0][0] != ">":
                col = rest[0][1] if rest else col0
                raise SourceError(ln, col, "expected '> k' after the register pair")
            self.split = (x, y, _nat(rest[1][0], ln, rest[1][1]))
        elif key == "ranking":
            self._once(key, ln)
            x, y, rest = self._pair(toks, ln, "ranking: rX - rY")
            if rest:
                raise SourceError(ln, rest[0][1], "unexpected trailing tokens")
            self.ranking = (x, y)
        elif key == "bound":
            self._once(key, ln)
            if len(toks) != 1:
                raise SourceError(ln, col0, "expected a single step bound")
            self.bound = _nat(toks[0][0], ln, toks[0][1])
        else:
            raise SourceError(ln, 1, f"unknown key {key!r}")

    def finish(self):
        for name, value in (("kind", self.kind), ("head", self.head), ("bound", self.bound)):
            if value is None:
                raise SourceError(1, 1, f"missing {name!r} line")
        if self.bound < 1:
            raise SourceError(self.seen["bound"], 1, "bound must be at least 1")
        if self.head < 1:
            raise SourceError(self.seen["head"], 1, "head positions start at 1")
        if self.kind == "diverges":
            for key in ("split", "ranking"):
                if key in self.seen:
                    raise SourceError(self.seen[key], 1, f"{key!r} is only for kind terminates")
            return DivergenceCert(
                param_constraints=ConstraintSet(frozenset(self.constraints)),
                init=dict(self.init),
                loop_head=self.head,
                invariant=tuple(self.invariant),
                step_bound=self.bound,
            )
        for key, value in (("split", self.split), ("ranking", self.ranking)):
            if value is None:
                raise SourceError(1, 1, f"missing {key!r} line for kind terminates")
        return TerminationCert(
            param_constraints=ConstraintSet(frozenset(self.constraints)),
            init=dict(self.init),
            loop_head=self.head,
            invariant=tuple(self.invariant),
            split=self.split,
            ranking=self.ranking,
            step_bound=self.bound,
        )


def parse_cert(text: str):
    """Divergence or termination certificate from key-value text."""
    parser = _CertParser()
    for ln, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise SourceError(ln, 1, "expected 'key: value'")
        parser.feed(key.strip(), value, ln, len(key) + 2)
    return parser.finish()
