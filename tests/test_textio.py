"""The three on-disk formats."""

from __future__ import annotations

import dataclasses
import itertools
import random
import re
import sys
import tracemalloc

import pytest

from urm import (
    Atom,
    ConstraintSet,
    DivergenceCert,
    FiniteConfig,
    Jump,
    Program,
    SourceError,
    Succ,
    SymValue,
    TerminationCert,
    Transfer,
    Zero,
    check_divergence,
    format_config,
    parse_cert,
    parse_config,
    parse_program,
    print_program,
)
from urm import textio
from urm.textio import MAX_STEP_BOUND, _Bad, _content_lines, _fields, _init_values, _naturals, _term
from oracles import random_program

MINUS_TEXT = "J 1 2 5\nS 2\nS 3\nJ 1 1 1\nT 3 1"
# More digits than CPython converts to int by default (4300)
LONG = "9" * 5000


def test_parse_program_on_the_subtraction_listing(u_minus):
    assert parse_program(MINUS_TEXT) == u_minus


def test_parse_program_ignores_comments_and_blank_lines():
    assert parse_program("# comment\n\nS 1") == Program((Succ(1),))
    assert parse_program("S 1 # trailing note\n\n# more\n") == Program((Succ(1),))


def test_parse_program_rejects_register_zero():
    with pytest.raises(SourceError) as info:
        parse_program("Z 0")
    assert info.value.line == 1
    assert info.value.column == 3


def test_parse_program_error_positions():
    with pytest.raises(SourceError) as info:
        parse_program("S 1\nQ 2")
    assert (info.value.line, info.value.column) == (2, 1)
    with pytest.raises(SourceError) as info:
        parse_program("T 1\n")
    assert info.value.line == 1
    with pytest.raises(SourceError) as info:
        parse_program("S 1 2")
    assert info.value.line == 1
    with pytest.raises(SourceError) as info:
        parse_program("J 1 x 0")
    assert (info.value.line, info.value.column) == (1, 5)
    with pytest.raises(SourceError) as info:
        parse_program("# only comments\n\n")
    assert info.value.line == 1
    with pytest.raises(SourceError, match="too long") as info:
        parse_program(f"S 1\nZ {LONG}")
    assert (info.value.line, info.value.column) == (2, 3)


def test_parse_program_error_messages():
    cases = [
        ("S 1\nQ 2", 2, 1, "unknown mnemonic 'Q'"),
        ("T 1\n", 1, 1, "T takes 2 operand(s), got 1"),
        ("J 1 2", 1, 1, "J takes 3 operand(s), got 2"),
        ("T 1 0", 1, 5, "register indices start at 1"),
    ]
    for text, line, column, message in cases:
        with pytest.raises(SourceError) as info:
            parse_program(text)
        assert (info.value.line, info.value.column, info.value.message) == (line, column, message)
    # a jump's third operand is a target, and 0 halts
    assert parse_program("J 1 2 0") == Program((Jump(1, 2, 0),))


def test_parse_program_rejects_negative_looking_tokens():
    with pytest.raises(SourceError):
        parse_program("J 1 1 -1")


def test_print_program_canonical_form(u_minus, prog_b):
    assert print_program(prog_b) == "J 1 2 2\nJ 1 2 2"
    assert print_program(Program((Zero(1),))) == "Z 1"
    assert print_program(u_minus) == MINUS_TEXT


def test_print_program_writes_operands_of_any_length():
    """Operands past the int digit limit are printed, as `format_config`
    prints such values, though `parse_program` refuses them."""
    big = 10**5000
    assert print_program(Program((Succ(big), Jump(1, big + 1, 2)))) == f"S 1{'0' * 5000}\nJ 1 1{'0' * 4999}1 2"


def test_program_round_trip_on_random_programs():
    rng = random.Random(99)
    for _ in range(50):
        p = random_program(rng)
        assert parse_program(print_program(p)) == p


def test_equal_program_lines_share_one_instruction():
    """Lines equal once their comments are cut share one instruction."""
    p = parse_program("S 1\nJ 1 2 0\n\nS 1\n# note\nJ 1 2 0\nS 2 # a\nS 2 # b\nS 01\n")
    s1, j, s1_again, j_again, s2, s2_again, s01 = p.instructions
    assert s1 is s1_again and j is j_again and s2 is s2_again
    assert s01 == s1 and len({id(instr) for instr in p.instructions}) == 4


def _per_token_program(text: str):
    """`parse_program` reading every token on its own, placed by the regex
    columns: the instructions, or the error's (line, column, message)."""
    kinds = {"Z": Zero, "S": Succ, "T": Transfer, "J": Jump}
    out = []
    for ln, raw in enumerate(text.split("\n"), start=1):
        toks = [(m.start() + 1, m.group()) for m in re.finditer(r"\S+", raw.split("#", 1)[0])]
        if not toks:
            continue
        (col, mnemonic), *args = toks
        kind = kinds.get(mnemonic)
        if kind is None:
            return ln, col, f"unknown mnemonic {mnemonic!r}"
        arity = len(kind.__match_args__)
        if len(args) != arity:
            return ln, col, f"{mnemonic} takes {arity} operand(s), got {len(args)}"
        values = []
        for col, tok in args:
            if not re.fullmatch("[0-9]+", tok):
                return ln, col, f"expected a natural number, got {tok!r}"
            try:
                values.append(int(tok))
            except ValueError:
                return ln, col, f"number too long ({len(tok)} digits)"
        for (col, _), value in zip(args, values[:2]):
            if value == 0:
                return ln, col, "register indices start at 1"
        out.append(kind(*values))
    return tuple(out) if out else (1, 1, "empty program")


# Operands that may replace a program's: register 0 (`0`, `00`), the
# spellings that `int` takes but the grammar refuses (`٣`, `+1`, `1_0`,
# `-1`) and both sides of the int conversion limit.
OPERANDS = ["0", "00", "01", "\u0663", "+1", "1_0", "-1", LONG, "9" * 4300, "x"]


def _random_program_text(rng: random.Random) -> str:
    """A random program, some of its lines repeated and some mutated: an
    operand replaced, dropped or added, or the mnemonic replaced.  A share
    of the texts is laid out plain, with single spaces and blank lines but
    no comment, CR or other whitespace, so that unless a mutation put in
    another character `parse_program` reads them on its whole-text path."""
    plain = rng.random() < 0.5
    lines = []
    for instr in random_program(rng, max_len=6, max_reg=9):
        toks = print_program(Program((instr,))).split()
        roll = rng.random()
        if roll < 0.15:
            toks[rng.randrange(1, len(toks))] = rng.choice(OPERANDS)
        elif roll < 0.18:
            del toks[rng.randrange(1, len(toks))]
        elif roll < 0.21:
            toks.append(rng.choice(["1", "0", "x"]))
        elif roll < 0.23:
            toks[0] = rng.choice(["Q", "s", "JJ", "Z1"])
        lines.append(_spaced(rng, toks)[0] if not plain and rng.random() < 0.3 else " ".join(toks))
        if rng.random() < 0.3:
            lines.append(lines[-1])
    if not plain:
        return _lay_out(rng, lines)[0]
    out = []
    for line in lines:
        out += rng.choice([[], [""], ["  "]]) + [line]
    return "\n".join(out)


def test_parse_program_agrees_with_the_per_token_reader():
    rng = random.Random(37)
    wrong = []
    accepted = 0
    plain = {True: 0, False: 0}  # plain texts, by whether they were accepted
    for _ in range(3000):
        text = _random_program_text(rng)
        ok = True
        try:
            got = parse_program(text).instructions
        except SourceError as err:
            got, ok = (err.line, err.column, err.message), False
        accepted += ok
        if set(text) <= set("ZSTJ0123456789 \n"):
            plain[ok] += 1
        if got != _per_token_program(text):
            wrong.append(text[:80])
    assert wrong == []
    # both the accepted and the refused programs are well represented, and
    # so are both paths, the whole-text one with both outcomes
    assert 600 < accepted < 2400
    assert 600 < plain[True] + plain[False] < 2400
    assert min(plain.values()) > 200, plain


def test_parse_config_basics():
    assert parse_config("0,1") == FiniteConfig((0, 1))
    assert parse_config("5, 3, 0") == FiniteConfig((5, 3, 0))
    assert parse_config("7") == FiniteConfig((7,))
    assert parse_config("# note\n2,2\n") == FiniteConfig((2, 2))


def test_parse_config_errors():
    with pytest.raises(SourceError):
        parse_config("")
    with pytest.raises(SourceError) as info:
        parse_config("1,,2")
    assert info.value.column == 3
    with pytest.raises(SourceError):
        parse_config("1,x")
    with pytest.raises(SourceError):
        parse_config("1\n2")
    with pytest.raises(SourceError):
        parse_config("-1")
    with pytest.raises(SourceError, match="too long") as info:
        parse_config(f"1,{LONG}")
    assert info.value.column == 3


def _per_field_config(text: str):
    """`parse_config` reading every field on its own: the values, or the
    error's (line, column, message)."""
    lines = [(ln, raw.split("#", 1)[0]) for ln, raw in enumerate(text.split("\n"), start=1)]
    lines = [(ln, line) for ln, line in lines if line.strip()]
    if not lines:
        return 1, 1, "empty input"
    if len(lines) > 1:
        return lines[1][0], 1, "expected a single line"
    ln, line = lines[0]
    values, col = [], 1
    parts = line.split(",")
    for n, part in enumerate(parts):
        tok = part.strip()
        column = col + len(part) - len(part.lstrip())
        if not tok:
            # a blank field at the comma after it; the last one, before it
            return ln, column if n < len(parts) - 1 else col - 1, "expected a natural number"
        if not (tok.isascii() and tok.isdigit()):
            return ln, column, f"expected a natural number, got {tok!r}"
        try:
            values.append(int(tok))
        except ValueError:
            return ln, column, f"number too long ({len(tok)} digits)"
        col += len(part) + 1
    return tuple(values)


# Characters that send a line down the per-field path, all but the space:
# `_naturals` keeps a space on its one pass, where `int` strips it from a
# field's edges as `_fields` does and refuses it inside a field.
NOT_DIGITS = [" ", "\t", "\x1c", "+", "-", "_", "\u0661", "\uff15", "#", "\n"]


def _random_config_text(rng: random.Random) -> str:
    fields = []
    for _ in range(rng.randint(1, 8)):
        roll = rng.random()
        if roll < 0.7:
            fields.append("0" * rng.randint(0, 1) + str(rng.randrange(10 ** rng.randint(1, 25))))
        elif roll < 0.75:
            # around the interpreter's int conversion limit of 4300 digits
            fields.append("9" * rng.choice((4300, 4301, 5000)))
        elif roll < 0.8:
            fields.append("")
        else:
            fields.append("".join(rng.choices(NOT_DIGITS + list("0123456789,"), k=rng.randint(1, 4))))
    text = ",".join(fields)
    if rng.random() < 0.1:
        text = "," + text
    if rng.random() < 0.1:
        text += ","
    if rng.random() < 0.2:
        at = rng.randint(0, len(text))
        text = text[:at] + rng.choice(NOT_DIGITS) + text[at:]
    return text


def test_parse_config_agrees_with_the_per_field_reader(monkeypatch):
    given = _int_for_every_line(monkeypatch)
    rng = random.Random(13)
    wrong = []
    fast = 0
    for _ in range(20000):
        text = _random_config_text(rng)
        try:
            got = parse_config(text).values
        except SourceError as err:
            got = (err.line, err.column, err.message)
        else:
            fast += 1
        if got != _per_field_config(text):
            wrong.append(text[:80])
    assert wrong == [] == given
    # both the accepted and the refused lines are well represented
    assert 4000 < fast < 16000


def _json_given(monkeypatch) -> list[str]:
    """The list of the texts `json.loads` is given from now on."""
    import json

    loads, given = json.loads, []

    def spy(s, *args, **kwargs):
        given.append(s)
        return loads(s, *args, **kwargs)

    monkeypatch.setattr(json, "loads", spy)
    return given


def _json_for_every_line(monkeypatch) -> list[str]:
    """Set `_JSON_MIN` and `_JSON_FIELDS` to 0, so that `_naturals` hands
    every line that passes its byte test to `json.loads`; the list returned
    collects the texts json is given."""
    monkeypatch.setattr(textio, "_JSON_MIN", 0)
    monkeypatch.setattr(textio, "_JSON_FIELDS", 0)
    return _json_given(monkeypatch)


def _int_for_every_line(monkeypatch) -> list[str]:
    """Set `_JSON_MIN` and `_JSON_FIELDS` past any line's width, so that
    `_naturals` leaves every line to `int` though json is loaded; the list
    returned collects the texts json is given."""
    monkeypatch.setattr(textio, "_JSON_MIN", sys.maxsize)
    monkeypatch.setattr(textio, "_JSON_FIELDS", sys.maxsize)
    return _json_given(monkeypatch)


# Lines that json reads unlike the grammar: a blank line is `[]` to json, a
# leading zero and an empty field are errors to it, and its int conversion
# has the same digit limit.
@pytest.mark.parametrize("text, values", [
    ("", None),
    (",", None),
    (" ", None),
    ("1,", None),
    (",1", None),
    ("1 2", None),
    (" 1 , 2 ", (1, 2)),
    ("+1", None),
    ("-1", None),
    ("1_0", None),
    ("\u0661", None),
    ("\t1", None),
    pytest.param("9" * 4300, (int("9" * 4300),), id="4300 nines"),
    pytest.param("9" * 4301, None, id="4301 nines"),
    ("   ", None),
    ("1,,2", None),
    ("01,2", (1, 2)),
    ("00", (0,)),
    ("0 1", None),
])
def test_naturals_converts_only_a_comma_list_of_naturals(monkeypatch, text, values):
    """Both conversions give the same values: `int` per field, and json,
    here given every line."""
    given = _int_for_every_line(monkeypatch)
    assert _naturals(text) == values
    assert given == []
    given = _json_for_every_line(monkeypatch)
    assert _naturals(text) == values
    # json is given each line of digits, commas and spaces
    assert given == ([] if text.strip("0123456789, ") else [f"[{text}]"])


def test_spaced_lists_of_naturals_take_the_one_pass(monkeypatch):
    """Spaces inside a list, and any blank at a line's edges (a carriage
    return left by CRLF text), leave a list of naturals on `_naturals`' one
    pass."""
    def per_field(*args):
        raise AssertionError("read field by field")

    monkeypatch.setattr(textio, "_fields", per_field)
    assert parse_config("\t5, 3 ,0\r\n") == FiniteConfig((5, 3, 0))
    assert parse_cert("kind: diverges\r\ninit: 5, 3 ,0\r\nhead: 1\r\nbound: 5\r\n").init == (
        SymValue(offset=5), SymValue(offset=3), SymValue(offset=0))


def test_a_list_of_json_min_fields_goes_to_json_only_once_json_is_loaded(monkeypatch):
    """Below `_JSON_FIELDS`, a list of `_JSON_MIN` fields or more is read by
    json while json is in `sys.modules`, and by `int` when it is not; a
    narrower one is read by `int` either way."""
    given = _json_given(monkeypatch)
    line = ",".join(["7"] * textio._JSON_MIN)
    assert textio._JSON_MIN < textio._JSON_FIELDS
    assert _naturals(line[2:]) == (7,) * (textio._JSON_MIN - 1)
    assert _naturals(line) == (7,) * textio._JSON_MIN
    assert given == [f"[{line}]"]
    monkeypatch.delitem(sys.modules, "json")
    assert _naturals(line) == (7,) * textio._JSON_MIN
    assert given == [f"[{line}]"]


@pytest.mark.parametrize("where", ["random", "end"])
def test_a_wide_line_with_one_defect_agrees_with_the_per_field_reader(where):
    """One character the one pass refuses, or one number past the int digit
    limit, in a line of 10^5 fields: at a random character and at the start
    of a random field, where a sign or a blank would still convert, or at
    the very end."""
    rng = random.Random(29)
    fields = [str(rng.randrange(1000)) for _ in range(10**5)]
    line = ",".join(fields)
    starts = [0, *(at + 1 for at, char in enumerate(line) if char == ",")]
    texts = []
    for char in NOT_DIGITS:
        spots = (rng.randint(0, len(line)), rng.choice(starts)) if where == "random" else (len(line),)
        texts.extend(line[:at] + char + line[at:] for at in spots)
    at = rng.randrange(len(fields)) if where == "random" else len(fields) - 1
    texts.append(",".join([*fields[:at], "9" * 4301, *fields[at + 1:]]))
    wrong = []
    for text in texts:
        try:
            got = parse_config(text).values
        except SourceError as err:
            got = (err.line, err.column, err.message)
        if got != _per_field_config(text):
            wrong.append(text[-40:])
    assert wrong == []


@pytest.mark.parametrize("where, column, message", [
    ("empty last field", 209997, "expected a natural number"),
    ("x last", 209998, "expected a natural number, got 'x'"),
    ("5000 digits", 150001, "number too long (5000 digits)"),
])
def test_a_line_wide_enough_for_json_places_its_error_as_before(where, column, message):
    """A line of 70,000 fields, past `_JSON_FIELDS`, that json refuses (or
    whose bytes already do) is read field by field, its error placed where
    the per-field reader places it."""
    assert textio._JSON_FIELDS < 70000
    fields = ["10"] * 70000
    if where == "5000 digits":
        fields[50000] = "9" * 5000
    else:
        fields[-1] = "" if where == "empty last field" else "x"
    text = ",".join(fields)
    with pytest.raises(SourceError) as info:
        parse_config(text)
    got = (info.value.line, info.value.column, info.value.message)
    assert got == (1, column, message) == _per_field_config(text)


def test_init_values_agree_with_the_per_field_reader(monkeypatch):
    """An `init:` list of naturals is converted in one pass, by `int` or,
    here given every such list, by json, and one whose fields the pattern
    takes by one `findall`; all read as `_fields` does, and any other list,
    or an error, is left to it."""
    def read(tok, at):
        return _term(tok, at, "parameter")

    def outcome(reader, value):
        try:
            return reader(value)
        except _Bad as bad:
            return bad.args

    def per_field(value):
        return tuple(SymValue(*term) for term in _fields(value, "a value", read))

    rng = random.Random(17)
    values = [_random_config_text(rng).replace(",", rng.choice([",", ", ", " , ", ",  "])) for _ in range(5000)]
    expected = [outcome(per_field, value) for value in values]
    assert 600 < sum(isinstance(want[0], SymValue) for want in expected) < 4000
    for conversion in ("int", "json"):
        # the json pass gives json every list of naturals, and json refuses some
        given = (_int_for_every_line if conversion == "int" else _json_for_every_line)(monkeypatch)
        wrong = [value[:80] for value, want in zip(values, expected) if outcome(_init_values, value) != want]
        assert wrong == [], conversion
        shared = _init_values(" 0, 00 ,7,07 ")
        assert shared == (SymValue(offset=0), SymValue(offset=0), SymValue(offset=7), SymValue(offset=7))
        assert shared[0] is shared[1] and shared[2] is shared[3]
        assert given == [] if conversion == "int" else 1000 < len(given) < 4000

    # fields with leading zeros and `+0` offsets: one `findall`, equal terms sharing one value
    def not_per_field(*args):
        raise AssertionError("read field by field")

    value = "m, n+1, n+01, 07, 7, m+0, m+00, n+001"
    expected = per_field(value)
    monkeypatch.setattr(textio, "_fields", not_per_field)
    shared = _init_values(value)
    assert shared == expected == (SymValue("m"), SymValue("n", 1), SymValue("n", 1), SymValue(offset=7),
                                  SymValue(offset=7), SymValue("m"), SymValue("m"), SymValue("n", 1))
    assert shared[0] is shared[5] is shared[6] and shared[1] is shared[2] is shared[7] and shared[3] is shared[4]


def test_parse_config_memory_follows_its_result():
    rng = random.Random(5)
    values = tuple(rng.randrange(1000, 10**6) for _ in range(10**5))
    text = ",".join(map(str, values)) + "\n"
    tracemalloc.start()
    try:
        sigma = parse_config(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sigma.values == values
    # the tuple and its ints, plus the field strings they are read from
    assert peak < 4 * (sys.getsizeof(values) + sum(map(sys.getsizeof, values)))


def test_format_config_round_trips():
    assert format_config((5, 3, 0)) == "5,3,0"
    assert parse_config(format_config((5, 3, 0))) == FiniteConfig((5, 3, 0))


def test_parse_divergence_certificate(samples_dir):
    cert = parse_cert((samples_dir / "minus-div.cert").read_text())
    assert isinstance(cert, DivergenceCert)
    assert cert.param_constraints == ConstraintSet.of(Atom("m", "n", "<", 0))
    assert cert.init == (SymValue("m"), SymValue("n"), SymValue("z"))
    assert cert.loop_head == 1
    assert cert.invariant == (Atom("r1", "r2", "<", 0),)
    assert cert.step_bound == 8


def test_parse_termination_certificate(samples_dir):
    cert = parse_cert((samples_dir / "minus-term.cert").read_text())
    assert isinstance(cert, TerminationCert)
    assert cert.param_constraints == ConstraintSet.of(Atom("m", "n", ">=", 0))
    assert cert.split == (1, 2, 0)
    assert cert.ranking == (1, 2)
    assert cert.invariant == (Atom("r1", "r2", ">=", 0),)


def test_certificate_operands_allow_offsets_and_constants():
    cert = parse_cert(
        "kind: diverges\n"
        "params: m\n"
        "constraint: m+1 <= 4\n"
        "init: m+2, 3\n"
        "head: 1\n"
        "invariant: r1+1 <= r2\n"
        "invariant: r2 >= 1\n"
        "bound: 5\n"
    )
    assert cert.param_constraints == ConstraintSet.of(Atom("m", None, "<=", 3))
    assert cert.init == (SymValue("m", 2), SymValue(offset=3))
    assert cert.invariant == (Atom("r1", "r2", "<=", -1), Atom("r2", None, ">=", 1))


def test_equal_init_terms_share_one_value():
    """A wide `init:` keeps one `SymValue` per distinct term, however
    often, and however spelled, the line repeats it."""
    cert = parse_cert("kind: diverges\nparams: m\ninit: 0, m+1, 00, m+01, 0, m\nhead: 1\nbound: 5\n")
    assert cert.init == (SymValue(offset=0), SymValue("m", 1), SymValue(offset=0), SymValue("m", 1),
                         SymValue(offset=0), SymValue("m"))
    zero, m1 = cert.init[0], cert.init[1]
    assert cert.init[2] is zero and cert.init[4] is zero and cert.init[3] is m1
    assert len({id(v) for v in cert.init}) == 3


def test_certificate_repeatable_constraint_lines():
    cert = parse_cert(
        "kind: diverges\nparams: a b\nconstraint: a < b\nconstraint: a >= 1\nhead: 1\nbound: 2\n"
    )
    assert cert.param_constraints == ConstraintSet.of(Atom("a", "b", "<", 0), Atom("a", None, ">=", 1))


def _lines(**overrides):
    base = {
        "kind": "terminates",
        "params": "m n",
        "constraint": "m >= n",
        "init": "m, n",
        "head": "1",
        "invariant": "r1 >= r2",
        "split": "r1 - r2 > 0",
        "ranking": "r1 - r2",
        "bound": "8",
    }
    base.update(overrides)
    return "\n".join(f"{key}: {value}" for key, value in base.items() if value is not None)


def test_certificate_errors():
    with pytest.raises(SourceError, match="missing 'head'"):
        parse_cert(_lines(head=None))
    with pytest.raises(SourceError, match="missing 'kind'"):
        parse_cert(_lines(kind=None))
    with pytest.raises(SourceError, match="missing 'bound'"):
        parse_cert(_lines(bound=None))
    with pytest.raises(SourceError, match="missing 'split'"):
        parse_cert(_lines(split=None))
    with pytest.raises(SourceError, match="unknown key"):
        parse_cert(_lines() + "\nextra: 1")
    with pytest.raises(SourceError, match="duplicate"):
        parse_cert(_lines() + "\nhead: 2")
    with pytest.raises(SourceError, match="kind"):
        parse_cert(_lines(kind="loops"))
    with pytest.raises(SourceError, match="undeclared parameter"):
        parse_cert(_lines(constraint="m >= q"))
    with pytest.raises(SourceError, match="clashes"):
        parse_cert(_lines(params="m r2"))
    with pytest.raises(SourceError, match="register operand"):
        parse_cert(_lines(invariant="m >= r2"))
    with pytest.raises(SourceError, match="only for kind terminates"):
        parse_cert("kind: diverges\nhead: 1\nbound: 2\nsplit: r1 - r2 > 0")
    with pytest.raises(SourceError, match="bound"):
        parse_cert(_lines(bound="0"))
    with pytest.raises(SourceError, match="relation"):
        parse_cert(_lines(constraint="m ~ n"))
    with pytest.raises(SourceError, match="'A rel B'"):
        parse_cert(_lines(invariant="r1 < r2 extra"))
    with pytest.raises(SourceError, match="key"):
        parse_cert("kind diverges")
    with pytest.raises(SourceError, match="> k"):
        parse_cert(_lines(split="r1 - r2 >= 1"))
    with pytest.raises(SourceError, match="split"):
        parse_cert(_lines(split="r1 + r2 > 0"))
    with pytest.raises(SourceError, match="too long"):
        parse_cert(_lines(bound=LONG))
    with pytest.raises(SourceError, match="too long"):
        parse_cert(_lines(constraint=f"m < {LONG}"))


def test_certificates_state_up_to_500_atom_lines(u_minus):
    head = "kind: diverges\nparams: m n z\ninit: m, n, z\nhead: 1\nbound: 8\n"
    atoms = "".join(f"constraint: m < n+{i}\ninvariant: r1 < r2+{i}\n" for i in range(250))
    cert = parse_cert(head + atoms)
    assert len(cert.param_constraints.atoms) == len(cert.invariant) == 250
    assert check_divergence(u_minus, cert).accepted


def test_certificate_bound_may_reach_the_cap():
    assert parse_cert(D + f"head: 1\nbound: {MAX_STEP_BOUND}").step_bound == MAX_STEP_BOUND == 100000


def test_certificate_error_positions():
    with pytest.raises(SourceError) as info:
        parse_cert("kind: diverges\nparams: m 2x\nhead: 1\nbound: 1")
    assert (info.value.line, info.value.column) == (2, 11)
    with pytest.raises(SourceError) as info:
        parse_cert("kind: diverges\nhead: 1\ninvariant: r1 < bogus\nbound: 1")
    assert (info.value.line, info.value.column) == (3, 17)


D = "kind: diverges\n"
T = "kind: terminates\nhead: 1\nbound: 8\n"
TOO_LONG = "number too long (5000 digits)"

# Every SourceError that textio raises, as (reader, text, line, column, message).
ERRORS = [
    (parse_program, "S 1\nQ 2", 2, 1, "unknown mnemonic 'Q'"),
    (parse_program, "T 1\n", 1, 1, "T takes 2 operand(s), got 1"),
    (parse_program, "J 1 2", 1, 1, "J takes 3 operand(s), got 2"),
    (parse_program, "T 1 0", 1, 5, "register indices start at 1"),
    (parse_program, "J 1 x 0", 1, 5, "expected a natural number, got 'x'"),
    (parse_program, f"S 1\nZ {LONG}", 2, 3, TOO_LONG),
    (parse_program, "# only comments\n\n", 1, 1, "empty program"),
    (parse_config, "", 1, 1, "empty input"),
    (parse_config, "# note\n", 1, 1, "empty input"),
    (parse_config, "1\n# note\n2", 3, 1, "expected a single line"),
    (parse_config, "1, ,2", 1, 4, "expected a natural number"),
    (parse_config, "1, ", 1, 2, "expected a natural number"),
    (parse_config, "1,", 1, 2, "expected a natural number"),
    (parse_config, "1,\r", 1, 2, "expected a natural number"),
    (parse_config, "1,x", 1, 3, "expected a natural number, got 'x'"),
    (parse_config, "-1", 1, 1, "expected a natural number, got '-1'"),
    (parse_config, f"1,{LONG}", 1, 3, TOO_LONG),
    (parse_cert, "kind diverges", 1, 1, "expected 'key: value'"),
    (parse_cert, "color: blue", 1, 1, "unknown key 'color'"),
    (parse_cert, "kind: loops", 1, 7, "kind must be 'diverges' or 'terminates'"),
    (parse_cert, D + "kind: diverges", 2, 1, "duplicate 'kind' line (first on line 1)"),
    (parse_cert, D + "head: 1\nbound: 1\nhead: 2", 4, 1, "duplicate 'head' line (first on line 2)"),
    (parse_cert, D + "params: m 2x", 2, 11, "invalid parameter name '2x'"),
    (parse_cert, D + "params: m r2", 2, 11, "parameter 'r2' clashes with a register name"),
    (parse_cert, D + "params: m m", 2, 11, "duplicate parameter 'm'"),
    (parse_cert, D + f"params: r{LONG}", 2, 9, TOO_LONG),
    (parse_cert, D + "params: m n\nconstraint: m <", 3, 13, "expected 'A rel B'"),
    (parse_cert, D + "params: m n\nconstraint: m ~ n", 3, 15, "unknown relation '~'"),
    (parse_cert, D + "params: m n\nconstraint: m < q", 3, 17, "undeclared parameter 'q'"),
    (parse_cert, D + "constraint: m < n\nparams: m", 2, 17, "undeclared parameter 'n'"),
    (parse_cert, D + "params: m n\nconstraint: m < n+", 3, 17, "missing offset after '+' in 'n+'"),
    (parse_cert, D + "params: m n\nconstraint: m < 3+1", 3, 17, "offset on a constant in '3+1'"),
    (parse_cert, D + "params: m n\nconstraint: m < -n", 3, 17, "expected a parameter operand, got '-n'"),
    (parse_cert, D + "params: m n\nconstraint: m < n+x", 3, 17, "expected a natural number, got 'x'"),
    (parse_cert, D + f"params: m n\nconstraint: m < {LONG}", 3, 17, TOO_LONG),
    (parse_cert, D + "params: m n\ninit: m, , 0", 3, 10, "expected a value"),
    (parse_cert, D + "params: m n\ninit: m, q", 3, 10, "undeclared parameter 'q'"),
    (parse_cert, D + "params: m n\ninit: m, ", 3, 8, "expected a value"),
    (parse_cert, D + "init:", 2, 5, "expected a value"),
    (parse_cert, D + "head: 1 2", 2, 7, "expected a single position"),
    (parse_cert, D + "head: x", 2, 7, "expected a natural number, got 'x'"),
    (parse_cert, D + "invariant: r1 < m", 2, 17, "expected a register operand like r1, got 'm'"),
    (parse_cert, D + "invariant: r0 < r1", 2, 12, "expected a register operand like r1, got 'r0'"),
    (parse_cert, D + "invariant: r01 < r2", 2, 12, "expected a register operand like r1, got 'r01'"),
    (parse_cert, D + "invariant: r1 < 2 + 1", 2, 12, "expected 'A rel B'"),
    (parse_cert, D + f"invariant: r{LONG} < r1", 2, 12, TOO_LONG),
    (parse_cert, D + "invariant:", 2, 1, "expected 'A rel B'"),
    (parse_cert, T + "split: r1 + r2 > 0", 4, 8, "expected 'split: rX - rY > k'"),
    (parse_cert, T + "split:", 4, 1, "expected 'split: rX - rY > k'"),
    (parse_cert, T + "split: x - r2 > 0", 4, 8, "expected a register like r1, got 'x'"),
    (parse_cert, T + "split: r01 - r2 > 0", 4, 8, "expected a register like r1, got 'r01'"),
    (parse_cert, T + "split: r1 - r2 >= 1", 4, 16, "expected '> k' after the register pair"),
    (parse_cert, T + "split: r1 - r2", 4, 8, "expected '> k' after the register pair"),
    (parse_cert, T + "split: r1 - r2 > -1", 4, 18, "expected a natural number, got '-1'"),
    (parse_cert, T + "ranking: r1 - r2 r3", 4, 18, "unexpected trailing tokens"),
    (parse_cert, T + "ranking: r1", 4, 10, "expected 'ranking: rX - rY'"),
    (parse_cert, D + "head: 1\nbound: 4 5", 3, 8, "expected a single step bound"),
    (parse_cert, D + "head: 1\nbound: 0", 3, 8, "bound must be at least 1"),
    (parse_cert, D + "head: 1\nbound:  100001", 3, 9, "bound must be at most 100000"),
    (parse_cert, D + "head: 0\nbound: 1", 2, 7, "head positions start at 1"),
    (parse_cert, D + "head: 0\nbound: 0", 2, 7, "head positions start at 1"),
    (parse_cert, D + "bound: 0\nhead: 0", 2, 8, "bound must be at least 1"),
    (parse_cert, "head: 0", 1, 7, "head positions start at 1"),
    (parse_cert, "head: 1\nbound: 1", 1, 1, "missing 'kind' line"),
    (parse_cert, D + "bound: 1", 1, 1, "missing 'head' line"),
    (parse_cert, D + "head: 1", 1, 1, "missing 'bound' line"),
    (parse_cert, D + "head: 1\nbound: 1\nsplit: r1 - r2 > 0", 4, 1, "'split' is only for kind terminates"),
    (parse_cert, D + "head: 1\nbound: 1\nranking: r1 - r2", 4, 1, "'ranking' is only for kind terminates"),
    (parse_cert, T + "ranking: r1 - r2", 1, 1, "missing 'split' line for kind terminates"),
    (parse_cert, T + "split: r1 - r2 > 0", 1, 1, "missing 'ranking' line for kind terminates"),
    (parse_cert, D + "invariant: r1 < r2\n" * 250 + "constraint: 0 < 1\n" * 250 + "invariant: r1 < r3", 502, 1,
     "more than 500 constraint and invariant lines"),
]


def test_every_error_keeps_its_line_column_and_message():
    wrong = []
    for read, text, line, column, message in ERRORS:
        with pytest.raises(SourceError) as info:
            read(text)
        got = (info.value.line, info.value.column, info.value.message)
        if got != (line, column, message):
            wrong.append((read.__name__, text[:60], got))
    assert wrong == []


def test_source_error_renders_position():
    err = SourceError(3, 7, "bad token")
    assert "line 3" in str(err)
    assert "column 7" in str(err)


def test_params_may_come_on_any_line():
    lines = _lines().split("\n")
    assert lines[1].startswith("params:")
    assert parse_cert("\n".join(lines[:1] + lines[2:] + lines[1:2])) == parse_cert(_lines())
    after = parse_cert(D + "init: m, n+1\nconstraint: m < n\nparams: n m\nhead: 1\nbound: 2")
    assert after == parse_cert(D + "params: n m\ninit: m, n+1\nconstraint: m < n\nhead: 1\nbound: 2")
    assert after.init == (SymValue("m"), SymValue("n", 1))


def test_the_first_undeclared_parameter_in_file_order_is_reported():
    cases = [
        # q is used before p, and its first use is the one reported
        (D + "init: m, q\nconstraint: p < q\nparams: m\nhead: 1\nbound: 1", 2, 10, "q"),
        (D + "constraint: m < q\ninit: q, p\nparams: m", 2, 17, "q"),
        (D + "params: m\nhead: 1\nconstraint: m+1 < m\nbound: 1\nconstraint: 0 <= z+2", 6, 18, "z"),
    ]
    for text, line, column, name in cases:
        with pytest.raises(SourceError) as info:
            parse_cert(text)
        assert (info.value.line, info.value.column, info.value.message) == (
            line, column, f"undeclared parameter {name!r}")


# What str.split and the regex \S+ both read as whitespace: ASCII blanks,
# a CRLF file's \r, the information separators \x1c-\x1f, NEL, no-break
# and ideographic spaces.
SPACES = [" ", "\t", "\x0b", "\x0c", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "　"]


def test_the_pattern_whitespace_is_str_split_whitespace():
    """`\\s`, which separates the tokens of an atom line read by
    `textio._ATOM_LINE`, matches exactly the code points of `str.isspace`,
    on which every other reader splits: checked over every code point."""
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.sub(r"\S", "", every) == "".join(filter(str.isspace, every))


def test_split_tokens_and_error_columns_agree_with_the_regex():
    rng = random.Random(23)
    for _ in range(5000):
        line = "".join(rng.choices(SPACES + list("ab1+,-<:"), k=rng.randint(0, 24)))
        found = list(re.finditer(r"\S+", line))
        assert line.split() == [m.group() for m in found]
        for at, m in enumerate(found):
            assert _Bad(at, "bad").error(1, line).column == m.start() + 1


def _spaced(rng: random.Random, toks: list[str]) -> tuple[str, list[int]]:
    """`toks` joined by random runs of whitespace, and each one's column."""
    line, columns = "".join(rng.choices(SPACES, k=rng.randint(0, 2))), []
    for tok in toks:
        columns.append(len(line) + 1)
        line += tok + "".join(rng.choices(SPACES, k=rng.randint(1, 3)))
    return line, columns


def test_readers_place_an_error_by_the_regex_columns():
    rng = random.Random(29)
    for _ in range(3000):
        at = rng.randrange(4)
        toks = ["J", "1", "2", "3"]
        toks[at] = "x" if at else "Q"
        line, columns = _spaced(rng, toks)
        comment = rng.choice(["", "# J x Q", "#"])
        with pytest.raises(SourceError) as info:
            parse_program("S 1\r\n\n" + line + comment + "\r\nS 2")
        assert (info.value.line, info.value.column) == (3, columns[at])
        rel = rng.choice(["<", "~"])
        toks = ["r1", rel, "r2"]
        at = 1 if rel == "~" else rng.choice([0, 2])
        if rel == "<":
            toks[at] = "r01"
        line, columns = _spaced(rng, toks)
        with pytest.raises(SourceError) as info:
            parse_cert(D + "invariant:" + line + comment + "\nhead: 1\nbound: 1")
        assert (info.value.line, info.value.column) == (2, len("invariant:") + columns[at])


LETTERS = "abcdefghjkmnpstuvwxy"


def _random_cert(rng: random.Random) -> list[tuple[str, list[str]]]:
    """A valid certificate as (key, value tokens) lines in random order;
    `init:` has one token per comma field."""
    params = rng.sample(LETTERS, rng.randint(1, 5))
    regs = rng.randint(1, 6)

    def term(names: list[str]) -> str:
        roll = rng.random()
        if roll < 0.2:
            return str(rng.randrange(50))
        return rng.choice(names) + (f"+{rng.randrange(9)}" if roll > 0.7 else "")

    registers = [f"r{i}" for i in range(1, regs + 1)]
    kind = rng.choice(["diverges", "terminates"])
    lines = [("kind", [kind]), ("params", params), ("init", [term(params) for _ in range(regs)]),
             ("head", [str(rng.randint(1, 5))]), ("bound", [str(rng.randint(1, 100))])]
    for key, names in (("constraint", params), ("invariant", registers)):
        lines += [(key, [term(names), rng.choice(["<", "<=", "=", ">=", ">", "!="]), term(names)])
                  for _ in range(rng.randint(0, 4))]
    if kind == "terminates":
        x, y = rng.choice(registers), rng.choice(registers)
        lines += [("split", [x, "-", y, ">", str(rng.randrange(5))]), ("ranking", [x, "-", y])]
    rng.shuffle(lines)
    return lines


LONG_REG = "r" + LONG
# Replacements that make any line they land on wrong, by key and token
# index (None: any token of that key).
MUTATIONS = {
    ("kind", None): ["loops", LONG],
    ("params", None): [LONG, "r1", "2x", "q q", "r10", LONG_REG],
    ("constraint", 0): ["", LONG, "zz", "r01", "m+"],
    ("constraint", 1): ["", "~", "=>"],
    ("invariant", 0): ["", LONG, LONG_REG, "r01", "m"],
    ("invariant", 1): ["", "~"],
    ("init", None): ["", LONG, "zz", "r01", "n+" + LONG],
    ("head", None): [LONG, "x", "-1"],
    ("bound", None): [LONG, "x", "0x1"],
    ("split", 0): ["", LONG_REG, "r01"],
    ("split", 3): ["", ">="],
    ("split", 4): ["", LONG, "-1"],
    ("ranking", 0): ["", LONG_REG, "r01"],
}
MUTATIONS[("constraint", 2)] = MUTATIONS[("constraint", 0)]
MUTATIONS[("invariant", 2)] = MUTATIONS[("invariant", 0)]
MUTATIONS[("ranking", 2)] = MUTATIONS[("split", 2)] = MUTATIONS[("split", 0)]


def _token_starts(line: str, start: int = 0) -> set[int]:
    """Column 1, and each column of `line` from its index `start` on where
    a token or a comma field begins, or the separator that places a blank
    comma field: the comma after it, or, for the last field of the line
    without its comment, the comma (or `key:` colon) before it.  None lies
    past the line's end."""
    fields = line.split("#", 1)[0][start:].split(",")
    ends = list(itertools.accumulate(len(field) + 1 for field in fields))
    blank = [(end, field) for end, field in zip(ends, fields) if not field.strip()]
    columns = ({1} | {m.start() + 1 for m in re.compile(r"\S+").finditer(line, start)}
               | {start + end - len(field) for end, field in zip(ends, fields) if field.strip()}
               | {start + end for end, field in blank if end < ends[-1]}
               | {start + end - len(field) - 1 for end, field in blank if end == ends[-1]})
    assert max(columns) <= len(line)
    return columns


def _lay_out(rng: random.Random, lines: list[tuple[int, str]]) -> tuple[str, list[int]]:
    """The text of `lines` with blank and comment lines between them, and
    each one's line number; about half the texts have no `#`, their blank
    lines and line ends only whitespace."""
    plain = rng.random() < 0.5
    out, numbers = [], []
    for line in lines:
        out += rng.choice([[], [""], ["\t "], ["\r"]] if plain else [[], [""], ["# note"], ["  # r1 < r2"]])
        numbers.append(len(out) + 1)
        out.append(line + rng.choice(["", " \u3000", "\r"] if plain else ["", "  # note", "\r"]))
    return "\n".join(out), numbers


def _value(tok: str) -> tuple[str | None, int]:
    """The (variable, offset) that a `_random_cert` operand stands for."""
    if tok.isdigit():
        return None, int(tok)
    name, _, offset = tok.partition("+")
    return name, int(offset or 0)


def _cert_line(rng: random.Random, key: str, toks: list[str]) -> str:
    """The line `key: toks`, its tokens (an `init:` line's comma fields)
    spaced by random whitespace."""
    return key + ":" + (",".join(_spaced(rng, [tok])[0] for tok in toks) if key == "init" else _spaced(rng, toks)[0])


def test_every_mutated_token_is_refused_at_its_line():
    rng = random.Random(31)
    uncommented = 0
    for _ in range(600):
        lines = _random_cert(rng)
        texts = [_cert_line(rng, key, toks) for key, toks in lines]
        layout = rng.random()
        text = _lay_out(random.Random(layout), texts)[0]
        uncommented += "#" not in text
        cert = parse_cert(text)
        atoms = {"constraint": [], "invariant": []}
        for key, toks in lines:
            if key in atoms:
                (vx, cx), (vy, cy) = _value(toks[0]), _value(toks[2])
                atoms[key].append(Atom(vx, vy, toks[1], cy - cx))
        assert cert.param_constraints == ConstraintSet(frozenset(atoms["constraint"])), texts
        assert cert.invariant == tuple(atoms["invariant"]), texts
        assert cert.init == tuple(SymValue(*_value(tok)) for key, toks in lines if key == "init" for tok in toks)
        i, at = rng.choice([(i, at) for i, (key, toks) in enumerate(lines) for at in range(len(toks))
                            if (key, at) in MUTATIONS or (key, None) in MUTATIONS])
        key, toks = lines[i][0], list(lines[i][1])
        toks[at] = rng.choice(MUTATIONS.get((key, at)) or MUTATIONS[(key, None)])
        texts[i] = _cert_line(rng, key, toks)
        text, numbers = _lay_out(random.Random(layout), texts)
        with pytest.raises(SourceError) as info:
            parse_cert(text)
        line = text.split("\n")[numbers[i] - 1]
        assert info.value.line == numbers[i], (text, info.value)
        assert info.value.column in _token_starts(line, len(key) + 1), (line, info.value)
    for _ in range(600):
        toks = [line.split() for line in print_program(random_program(rng, max_len=8, max_reg=9)).split("\n")]
        i = rng.randrange(len(toks))
        at = rng.randrange(len(toks[i]))
        toks[i][at] = rng.choice(["Q", "", "z"]) if at == 0 else rng.choice(["", LONG, "r01", "-1", "x"])
        texts = [_spaced(rng, line)[0] for line in toks]
        text, numbers = _lay_out(rng, texts)
        uncommented += "#" not in text
        with pytest.raises(SourceError) as info:
            parse_program(text)
        line = text.split("\n")[numbers[i] - 1]
        assert info.value.line == numbers[i], (text, info.value)
        assert info.value.column in _token_starts(line), (line, info.value)
    # the texts without a `#` take `_content_lines`' split-only path
    assert uncommented >= 1200 / 3


def test_parameter_names_may_look_like_registers_that_are_not():
    """A register name is `r` and a natural without a leading zero, so
    `r0`, `r01`, `r1x` and `R1` are parameter names."""
    cert = parse_cert(D + "params: r0 r01 r1x R1\ninit: r0, r01+1, r1x, R1\nhead: 1\nbound: 1")
    assert cert.init == (SymValue("r0"), SymValue("r01", 1), SymValue("r1x"), SymValue("R1"))


def test_a_parsed_certificate_equals_one_built_through_its_checks(samples_dir):
    """`parse_cert` builds through `_Lasso._of`, which skips the checks the
    parser has made; the certificate equals the one that the public
    constructor builds from its fields, register indices included."""
    rng = random.Random(37)
    texts = [path.read_text() for path in sorted(samples_dir.rglob("*.cert"))]
    texts += [_lay_out(rng, [_cert_line(rng, key, toks) for key, toks in _random_cert(rng)])[0] for _ in range(600)]
    for text in texts:
        cert = parse_cert(text)
        built = type(cert)(**{field.name: getattr(cert, field.name) for field in dataclasses.fields(cert)})
        assert (cert, hash(cert), repr(cert)) == (built, hash(built), repr(built)), text
        assert cert._operands == built._operands, text


def test_content_lines_of_a_text_without_comments():
    """A text with no `#` is only split into lines, yielding each with
    content as the comment path does: blank lines, lines of whitespace and
    a CRLF file's lone `\\r` are skipped."""
    rng = random.Random(41)
    for _ in range(3000):
        text = "\n".join("".join(rng.choices(SPACES + ["", "", "x", "S 1"], k=rng.randint(0, 3)))
                          for _ in range(rng.randint(0, 8)))
        assert list(_content_lines(text)) == [(ln, raw) for ln, raw in enumerate(text.split("\n"), 1) if raw.strip()]
