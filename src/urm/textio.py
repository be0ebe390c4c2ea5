"""Parsers for the three on-disk formats, plus the program printer.

Programs are one instruction per line (`Z i`, `S i`, `T i j`, `J i j k`),
configurations are comma-separated naturals, and certificates are a
line-oriented `key: value` format.  All formats treat `#` as a comment
to end of line and ignore blank lines.  Every reader splits the lines of
`_content_lines` (a text with no `#` is only split into lines) with
`str.split` (a comma list of naturals with `_naturals`, any other with
`_fields`); `_naturals` hands a list of at least `_JSON_FIELDS` (65,536)
fields to `json.loads`, importing json on the first such list, and one of
at least `_JSON_MIN` (1,024) fields once json is loaded, so a process that
reads only narrower lists never pays the import.
`parse_program` reads the lines of a plain program text, one without
comments or other whitespace than spaces and newlines, directly, and
`parse_cert` reads each line by one match:
`constraint:` and `invariant:` of `_ATOM_LINE`, `params:` of `_PARAMS`,
`init:` (a `findall`) of `_INIT_FIELD`, splitting only a line its
pattern refuses.
A SourceError gives the 1-based line and column of the offending token,
computed only for the line that fails.

Certificate grammar, by key, in any order:

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
import sys

from typing import Callable, Iterator

import urm

from .errors import SourceError
from .machine import FiniteConfig, Instruction, Jump, Program, Succ, Transfer, Zero, _decimal, parse_reg_var

__all__ = ("parse_program", "print_program", "parse_config", "format_config", "parse_cert")

_TOKEN = re.compile(r"\S+")
_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

# The instruction syntax: a mnemonic, then one natural per field of its
# class, in constructor order (`__match_args__`); the first two operands
# are registers, a jump's third its target.
_SYNTAX = {"Z": Zero, "S": Succ, "T": Transfer, "J": Jump}
_MNEMONIC = {kind._tag: mnemonic for mnemonic, kind in _SYNTAX.items()}


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, line without its comment) for each line with content;
    the lines of a text with no `#` are only split and tested for content."""
    lines = text.split("\n")
    if "#" in text:
        lines = (raw.split("#", 1)[0] for raw in lines)
    for ln, line in enumerate(lines, start=1):
        if line.strip():
            yield ln, line


class _Bad(Exception):
    """`_Bad(at, message)`: the `at`-th token (or field) of a line split
    by a reader is wrong, or the whole line when `at` is None."""

    def error(self, ln: int, text: str, col: int = 1, sep: str | None = None) -> SourceError:
        """Its SourceError on line `ln`, `text` (split on whitespace or `sep`)
        starting at column `col`.  A blank field is placed at the separator
        after it, or, when it is the last field, at the one before it (for a
        lone field, the column before `col`), so never past the line's end."""
        at, message = self.args
        if at is None:
            return SourceError(ln, 1, message)
        if sep is None:
            start = ([m.start() for m in _TOKEN.finditer(text)][at:] or [0])[0]
        else:
            parts = text.split(sep)
            start = sum(map(len, parts[: at + 1])) + at - len(parts[at].lstrip())
            if at == len(parts) - 1 and not parts[at].strip():
                start -= len(parts[at]) + 1
        return SourceError(ln, col + start, message)


def _nat(tok: str, at: int) -> int:
    if not (tok.isascii() and tok.isdigit()):
        raise _Bad(at, f"expected a natural number, got {tok!r}")
    try:
        return int(tok)
    except ValueError:  # longer than the interpreter's int conversion limit
        raise _Bad(at, f"number too long ({len(tok)} digits)") from None


def _register(tok: str, at: int, refusal: str | None = None) -> int | None:
    """`parse_reg_var` of a token, refusing an index past the int digit
    limit and, given a `refusal`, a token that names no register."""
    try:
        index = parse_reg_var(tok)
    except ValueError:
        raise _Bad(at, f"number too long ({len(tok) - 1} digits)") from None
    if index is None and refusal:
        raise _Bad(at, refusal)
    return index


def _refusal(line: str) -> _Bad:
    """Why `parse_program`'s one-pass conversion refused a program line,
    placed at the token at fault; it builds no instruction."""
    mnemonic, *args = line.split()
    kind = _SYNTAX.get(mnemonic)
    if kind is None:
        return _Bad(0, f"unknown mnemonic {mnemonic!r}")
    arity = len(kind.__match_args__)
    if len(args) != arity:
        return _Bad(0, f"{mnemonic} takes {arity} operand(s), got {len(args)}")
    try:
        values = [_nat(tok, at) for at, tok in enumerate(args, start=1)]
    except _Bad as bad:
        return bad
    # the conversion refuses no other line of naturals
    return _Bad(values.index(0) + 1, "register indices start at 1")


# The bytes of a plain program text: mnemonics, ASCII digits, spaces and
# newlines.  Such a text has no comment, and `int` reads each of its
# operands exactly as the grammar does: a token of digits, or a refusal.
_PLAIN = b"ZSTJ0123456789 \n"


def parse_program(text: str) -> Program:
    """Program from assembly text; positions follow file order, and equal
    lines share one instruction object.  One `bytes.translate` pass over
    the encoded text tests whether it is plain (`_PLAIN`): if so its lines
    are read as they are, else through `_content_lines`, each line's
    operands then tested for ASCII digits."""
    plain = text.isascii() and not text.encode().translate(None, _PLAIN)
    instructions: list[Instruction] = []
    shared: dict[str, Instruction] = {}
    for ln, line in enumerate(text.split("\n"), start=1) if plain else _content_lines(text):
        instr = shared.get(line)
        if instr is None:
            toks = line.split()
            if not toks:  # a blank line of a plain text
                continue
            # ASCII-digit operands: one conversion, the constructor refusing
            # register 0 (a ValueError, as is an int too long to convert)
            # and a wrong arity (a TypeError).  A plain text's operands skip
            # the digit test, as `int` refuses its every other token.  A line
            # not built is refused, `_refusal` only placing that error.
            args = toks[1:]
            kind = _SYNTAX.get(toks[0])
            if not plain:
                digits = "".join(args)
                if not (digits.isascii() and digits.isdigit()):
                    kind = None
            if kind is not None:
                try:
                    instr = kind(*map(int, args))
                except (TypeError, ValueError):
                    pass
            if instr is None:
                raise _refusal(line).error(ln, line)
            shared[line] = instr
        instructions.append(instr)
    if not instructions:
        raise SourceError(1, 1, "empty program")
    return Program._of(tuple(instructions))


def print_program(p: Program) -> str:
    """Canonical assembly text; inverse of parse_program."""
    return "\n".join(
        " ".join([_MNEMONIC[instr._tag], *(_decimal(getattr(instr, name)) for name in instr.__match_args__)])
        for instr in p
    )


def _fields(text: str, what: str, read: Callable[[str, int], object]) -> list:
    """`read(field, at)` of each field of the comma list `text`, the `at`-th."""
    out = []
    for at, part in enumerate(text.split(",")):
        tok = part.strip()
        if not tok:
            raise _Bad(at, f"expected {what}")
        out.append(read(tok, at))
    return out


# The fewest fields of a comma list that `_naturals` hands to `json.loads`,
# importing json on the first such line: from 40,000 to 48,000 one-digit
# fields on, json's conversion saves more than its import costs (CPython 3.11).
_JSON_FIELDS = 65536
# The fewest fields of a comma list that `_naturals` hands to json once this
# process has loaded it: from 1,024 fields on, json with its import paid is
# no slower than `int` on CPython 3.10-3.13.
_JSON_MIN = 1024


def _naturals(text: str) -> tuple[int, ...] | None:
    """The values of a comma list of naturals, or None for any other text.
    One `bytes.translate` pass, which builds and frees one buffer the size
    of the line, tests that it holds only ASCII digits, commas and spaces.
    A line of at least `_JSON_FIELDS` fields, or of at least `_JSON_MIN`
    once json is in `sys.modules`, is then read by `json.loads`, kept only
    when it gives one value per field (json reads a blank line as none); a
    line json refuses (a leading zero, an empty field, a number past the
    int digit limit), and any other, is left to `int`, which converts each
    `bytes` field, stripping its spaces as `_fields` does, and refuses an
    empty or blank field, a blank inside one and a number past the int
    digit limit."""
    if text.isascii():
        raw = text.encode()
        if not raw.translate(None, b"0123456789, "):
            fields = raw.count(b",") + 1
            if fields >= _JSON_FIELDS or fields >= _JSON_MIN and "json" in sys.modules:
                import json  # loaded already, or for a wide line: `urm run --init 5,3,0` never pays its import
                try:
                    values = json.loads(f"[{text}]")
                except ValueError:
                    pass
                else:
                    if len(values) == fields:
                        return tuple(values)
            try:
                return tuple(map(int, raw.split(b",")))
            except ValueError:
                pass
    return None


def parse_config(text: str) -> FiniteConfig:
    """Finite configuration from comma-separated naturals.  A line that
    `_naturals` converts costs one C-level pass (json's, importing json,
    from `_JSON_FIELDS` fields on, and from `_JSON_MIN` once json is
    loaded); any other is read field by field with `_fields`, which alone
    builds the positioned error."""
    lines = list(_content_lines(text))
    if not lines:
        raise SourceError(1, 1, "empty input")
    if len(lines) > 1:
        raise SourceError(lines[1][0], 1, "expected a single line")
    ln, line = lines[0]
    values = _naturals(line.strip())
    if values is not None:
        return FiniteConfig._of(values)
    try:
        return FiniteConfig._of(tuple(_fields(line, "a natural number", _nat)))
    except _Bad as bad:
        raise bad.error(ln, line, sep=",") from None


def format_config(values) -> str:
    """Comma-separated register values, e.g. "5,3,0"; `_decimal` converts them past the int digit limit."""
    try:
        return ",".join(map(str, values))
    except ValueError:
        return ",".join(map(_decimal, values))


def _term(tok: str, at: int, names: str) -> tuple[str | None, int]:
    """Operand `ident`, `ident+nat`, or `nat` as (variable, offset); the
    variable of a "register" operand must name one."""
    base, plus, offset_tok = tok.partition("+")
    if plus and not offset_tok:
        raise _Bad(at, f"missing offset after '+' in {tok!r}")
    if base.isascii() and base.isdigit():
        if plus:
            raise _Bad(at, f"offset on a constant in {tok!r}")
        return None, _nat(base, at)
    if not _IDENT.match(base):
        raise _Bad(at, f"expected a {names} operand, got {tok!r}")
    offset = _nat(offset_tok, at) if plus else 0
    if names == "register":
        _register(base, at, f"expected a register operand like r1, got {tok!r}")
    return base, offset


def _init_values(value: str) -> tuple[urm.constraints.SymValue, ...]:
    """The `init:` list `value`, one `SymValue` per distinct term.  A list
    that `_naturals` converts costs one C-level pass, and one whose every
    field `_INIT_FIELD` matches one `findall`; any other is read field by
    field with `_fields` and `_term`, which alone build the positioned error."""
    SymValue = urm.constraints.SymValue
    naturals = _naturals(value.strip())
    if naturals is not None:
        shared = {n: SymValue(offset=n) for n in set(naturals)}
        return tuple(map(shared.__getitem__, naturals))
    terms = re.compile(_INIT_FIELD).findall(value)  # compiled on the first call, then kept by `re`
    if len(terms) == value.count(",") + 1:
        # each distinct field converted once; equal terms (`n+1`, `n+01`) share one value
        values = {}
        shared = {field: values.setdefault(term := (field[0] or None, int(field[1] or field[2] or 0)), SymValue(*term))
                  for field in set(terms)}
    else:
        terms = _fields(value, "a value", lambda tok, at: _term(tok, at, "parameter"))
        shared = {term: SymValue(*term) for term in set(terms)}
    return tuple(map(shared.__getitem__, terms))


# A `constraint:` or `invariant:` line, read by one match: its key, then
# operand, relation and operand separated by whitespace.  An operand is a name
# with an optional `+nat` offset, or a natural; the name is an identifier on
# a `constraint:` line and a register `rI` on an `invariant:` line, where I
# is a group of its own.  `\s` matches exactly the code points for which
# `str.isspace` is true, on which `str.split` splits.  Groups: key, then per
# operand name, register index, offset and constant, the relation between.
_OPERAND = r"(?:((?(1)[A-Za-z][A-Za-z0-9_]*|r([1-9][0-9]*)))(?:\+([0-9]+))?|([0-9]+))"
_ATOM_LINE = rf"\s*(?:(constraint)|invariant)\s*:\s*{_OPERAND}\s+([<>!]=|[<>=])\s+{_OPERAND}\s*"
# A `params:` value: identifiers separated by whitespace, none a register name
# as `parse_reg_var` reads one (`r0`, `r01` and `r1x` are not).
_PARAMS = r"\s*(?:(?!r[1-9][0-9]*(?!\S))[A-Za-z][A-Za-z0-9_]*(?:\s+|\Z))*"
# An `init:` field, from the list's start or a comma through the next comma or
# the end: a name with an optional `+nat`, or a natural.  No natural has over
# 640 digits, which `int` converts under any digit limit.  Groups: name,
# offset, constant.
_INIT_FIELD = r"(?:\A|(?<=,))\s*(?:([A-Za-z][A-Za-z0-9_]*)(?:\+([0-9]{1,640}))?|([0-9]{1,640}))\s*(?:,|\Z)"

_ONCE = frozenset(("kind", "params", "init", "head", "split", "ranking", "bound"))  # keys at most once
# The most `constraint:` and `invariant:` lines a certificate may have.  A
# constraint set's closure holds a bound per pair of its equality classes,
# so without `=` atoms its memory grows with the square of its atoms: on
# 499 disjoint `a < b` constraints `urm cert` peaks near 51 MB.
MAX_ATOM_LINES = 500
# The largest `bound:`.  Each step of a loop walk stays in its trail, which
# an accepted certificate prints, until the check ends; at this cap a
# rejected `urm cert` peaks near 30 MB.
MAX_STEP_BOUND = 100000


def parse_cert(text: str):
    """Divergence or termination certificate from key-value text; loads the checker."""
    REL_SYMBOLS, Atom = urm.constraints.REL_SYMBOLS, urm.constraints.Atom
    match = re.compile(_ATOM_LINE).fullmatch  # compiled on the first call, then kept by `re`
    seen: dict[str, int] = {}  # a once-only key's line
    once: dict = {}  # a once-only key's value
    constraints: list[Atom] = []
    invariant: list[Atom] = []
    operands: list[tuple[int, int]] = []  # each invariant atom's (x, y) register indices
    uses: dict[str, tuple[int, str, int]] = {}  # a parameter's first (line number, line, token)

    try:
        for ln, line in _content_lines(text):
            m = match(line)
            if m is not None and len(constraints) + len(invariant) < MAX_ATOM_LINES:
                param, x, xi, xo, xc, rel, y, yi, yo, yc = m.groups()
                try:
                    k = int(yo or yc or 0) - int(xo or xc or 0)
                    i, j = int(xi or 0), int(yi or 0)  # 0 for a constant side
                except ValueError:  # a number past the int digit limit, placed below
                    pass
                else:
                    atom = Atom(x, y, rel, k)
                    if param:
                        if x is not None and x not in uses:
                            uses[x] = (ln, line, 0)
                        if y is not None and y not in uses:
                            uses[y] = (ln, line, 2)
                        constraints.append(atom)
                    else:  # the indices follow the sides as `Atom` normalized them
                        invariant.append(atom)
                        operands.append((i, j) if atom.x == x else (j, i) if atom.x == y else (0, 0))
                    continue
            key, colon, value = line.partition(":")
            key = key.strip()
            # `init:` is a comma list, read by `_init_values`; it may be wide
            toks = value.split() if key != "init" else []
            if not colon:
                raise _Bad(None, "expected 'key: value'")
            if key == "constraint" or key == "invariant":
                # a line the pattern refused: its tokens only place the error
                if len(constraints) + len(invariant) == MAX_ATOM_LINES:
                    raise _Bad(None, f"more than {MAX_ATOM_LINES} constraint and invariant lines")
                if len(toks) != 3:
                    raise _Bad(0 if toks else None, "expected 'A rel B'")
                if toks[1] not in REL_SYMBOLS:
                    raise _Bad(1, f"unknown relation {toks[1]!r}")
                for at in (0, 2):
                    _term(toks[at], at, "parameter" if key == "constraint" else "register")
                raise AssertionError(f"the atom-line pattern refused the valid line {line!r}")
            if key not in _ONCE:
                raise _Bad(None, f"unknown key {key!r}")
            if key in seen:
                raise _Bad(None, f"duplicate {key!r} line (first on line {seen[key]})")
            seen[key] = ln
            if key == "kind":
                if toks not in (["diverges"], ["terminates"]):
                    raise _Bad(0, "kind must be 'diverges' or 'terminates'")
                once[key] = toks[0]
            elif key == "params":
                names = once[key] = set(toks)
                if len(names) == len(toks) and re.compile(_PARAMS).fullmatch(value):
                    continue
                names.clear()  # a repeated name, or a line the pattern refuses: its tokens place the error
                for at, tok in enumerate(toks):
                    if not _IDENT.match(tok):
                        raise _Bad(at, f"invalid parameter name {tok!r}")
                    if _register(tok, at) is not None:
                        raise _Bad(at, f"parameter {tok!r} clashes with a register name")
                    if tok in names:
                        raise _Bad(at, f"duplicate parameter {tok!r}")
                    names.add(tok)
            elif key == "init":
                once[key] = _init_values(value)
                for at, v in enumerate(once[key]):
                    if v.var is not None and v.var not in uses:
                        uses[v.var] = (ln, line, at)
            elif key in ("head", "bound"):
                if len(toks) != 1:
                    raise _Bad(0, f"expected a single {'position' if key == 'head' else 'step bound'}")
                once[key] = _nat(toks[0], 0)
                if once[key] < 1:
                    raise _Bad(0, "head positions start at 1" if key == "head" else "bound must be at least 1")
                if key == "bound" and once[key] > MAX_STEP_BOUND:
                    raise _Bad(0, f"bound must be at most {MAX_STEP_BOUND}")
            else:  # a register pair `rX - rY`, then `> k` for a split
                form = "split: rX - rY > k" if key == "split" else "ranking: rX - rY"
                if len(toks) < 3 or toks[1] != "-":
                    raise _Bad(0 if toks else None, f"expected '{form}'")
                once[key] = tuple(_register(toks[at], at, f"expected a register like r1, got {toks[at]!r}")
                                  for at in (0, 2))
                if key == "ranking":
                    if len(toks) > 3:
                        raise _Bad(3, "unexpected trailing tokens")
                elif len(toks) != 5 or toks[3] != ">":
                    raise _Bad(3 if len(toks) > 3 else 0, "expected '> k' after the register pair")
                else:
                    once[key] += (_nat(toks[4], 4),)
        params = once.get("params", ())
        for var, (ln, line, at) in uses.items():
            if var not in params:
                raise _Bad(at, f"undeclared parameter {var!r}")
    except _Bad as bad:
        key, _, value = line.partition(":")
        raise bad.error(ln, value, len(key) + 2, "," if key.strip() == "init" else None) from None

    for key in ("kind", "head", "bound"):
        if key not in once:
            raise SourceError(1, 1, f"missing {key!r} line")
    terminates = once["kind"] == "terminates"
    for key in ("split", "ranking"):
        if key in seen and not terminates:
            raise SourceError(seen[key], 1, f"{key!r} is only for kind terminates")
        if key not in once and terminates:
            raise SourceError(1, 1, f"missing {key!r} line for kind terminates")
    cert = urm.certificates.TerminationCert if terminates else urm.certificates.DivergenceCert
    return cert._of(tuple(operands), param_constraints=urm.constraints.ConstraintSet(frozenset(constraints)),
                    init=once.get("init", ()), loop_head=once["head"], invariant=tuple(invariant),
                    step_bound=once["bound"], **{key: once[key] for key in ("split", "ranking") if terminates})
