"""The three on-disk formats."""

from __future__ import annotations

import random

import pytest

from urm import (
    Atom,
    Const,
    ConstraintSet,
    DivergenceCert,
    FiniteConfig,
    Jump,
    Program,
    SourceError,
    Succ,
    TerminationCert,
    Transfer,
    VarPlus,
    Zero,
    format_config,
    parse_cert,
    parse_config,
    parse_program,
    print_program,
)
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


def test_format_config_round_trips():
    assert format_config((5, 3, 0)) == "5,3,0"
    assert parse_config(format_config((5, 3, 0))) == FiniteConfig((5, 3, 0))


def test_parse_divergence_certificate(samples_dir):
    cert = parse_cert((samples_dir / "minus-div.cert").read_text())
    assert isinstance(cert, DivergenceCert)
    assert cert.param_constraints == ConstraintSet.of(Atom("m", "n", "<", 0))
    assert cert.init == {1: VarPlus("m"), 2: VarPlus("n"), 3: VarPlus("z")}
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
    assert cert.init == {1: VarPlus("m", 2), 2: Const(3)}
    assert cert.invariant == (Atom("r1", "r2", "<=", -1), Atom("r2", None, ">=", 1))


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


def test_certificate_error_positions():
    with pytest.raises(SourceError) as info:
        parse_cert("kind: diverges\nparams: m 2x\nhead: 1\nbound: 1")
    assert (info.value.line, info.value.column) == (2, 11)
    with pytest.raises(SourceError) as info:
        parse_cert("kind: diverges\nhead: 1\ninvariant: r1 < bogus\nbound: 1")
    assert (info.value.line, info.value.column) == (3, 17)


def test_source_error_renders_position():
    err = SourceError(3, 7, "bad token")
    assert "line 3" in str(err)
    assert "column 7" in str(err)
