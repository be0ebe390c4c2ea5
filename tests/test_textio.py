"""The three on-disk formats."""

from __future__ import annotations

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
from urm.textio import MAX_STEP_BOUND, _Bad
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


def test_program_round_trip_on_random_programs():
    rng = random.Random(99)
    for _ in range(50):
        p = random_program(rng)
        assert parse_program(print_program(p)) == p


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


# Characters that must send a line down the per-field path.
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


def test_parse_config_agrees_with_the_per_field_reader():
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
    assert wrong == []
    # both the accepted and the refused lines are well represented
    assert 4000 < fast < 16000


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
    ("params", None): [LONG, "r1", "2x"],
    ("constraint", 0): ["", LONG, "zz", "r01", "m+"],
    ("constraint", 1): ["", "~", "=>"],
    ("invariant", 0): ["", LONG, LONG_REG, "r01", "m"],
    ("invariant", 1): ["", "~"],
    ("init", None): ["", LONG, "zz", "r01"],
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
    each one's line number."""
    out, numbers = [], []
    for line in lines:
        out += rng.choice([[], [""], ["# note"], ["  # r1 < r2"]])
        numbers.append(len(out) + 1)
        out.append(line + rng.choice(["", "  # note", "\r"]))
    return "\n".join(out), numbers


def _cert_line(rng: random.Random, key: str, toks: list[str]) -> str:
    return key + ":" + (" " + ",".join(toks) if key == "init" else _spaced(rng, toks)[0])


def test_every_mutated_token_is_refused_at_its_line():
    rng = random.Random(31)
    for _ in range(600):
        lines = _random_cert(rng)
        texts = [_cert_line(rng, key, toks) for key, toks in lines]
        layout = rng.random()
        parse_cert(_lay_out(random.Random(layout), texts)[0])
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
        with pytest.raises(SourceError) as info:
            parse_program(text)
        line = text.split("\n")[numbers[i] - 1]
        assert info.value.line == numbers[i], (text, info.value)
        assert info.value.column in _token_starts(line), (line, info.value)
