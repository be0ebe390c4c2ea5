"""The textbook corpus in `samples/textbook/`: standard URM programs written
from their definitions, each with the certificates the checker accepts and
those it rejects today."""

from __future__ import annotations

import itertools
import pathlib

import pytest

from urm import Config, Halted, OutOfFuel, TerminationCert, check_termination, parse_cert, parse_program, run
from oracles import naive_run

TEXTBOOK = pathlib.Path(__file__).resolve().parent.parent / "samples" / "textbook"

# program -> (arity, definition, registers of the start state, accepted
# certificates); the inputs go to r1.. and every other register of the start
# state is 0, and a definition reading None is undefined there: the run
# never halts
CORPUS = {
    "add.urm": (2, lambda x, y: x + y, 3, ("add-term.cert",)),
    "pred.urm": (1, lambda x: max(x - 1, 0), 4, ("pred-term.cert",)),
    "monus.urm": (2, lambda x, y: max(x - y, 0), 5, ("monus-term.cert", "monus-below-term.cert")),
    # no loop, so no lasso: its certificate is a `kind: terminates` without
    # `head:` (ROADMAP item 5)
    "sg.urm": (1, lambda x: min(x, 1), 2, ()),
    # a nest of two loops: each certificate covers one, and the other
    # leaves a jump undecided (ROADMAP item 4)
    "mult.urm": (2, lambda x, y: x * y, 5, ()),
    # divergence for odd x and termination for even x both rest on the
    # parity of r1 - r3, which no certificate can state (ROADMAP item 14)
    "half.urm": (1, lambda x: None if x % 2 else x // 2, 3, ()),
}

# certificate -> (program, reason code, pc) of a claim that holds but that
# the checker rejects today
REJECTED = {
    "mult-outer-term.cert": ("mult.urm", "UndecidedBranch", 3),
    "mult-inner-term.cert": ("mult.urm", "UndecidedBranch", 1),
}


def test_the_corpus_is_exactly_these_files():
    certs = {cert for *_, names in CORPUS.values() for cert in names}
    assert sorted(path.name for path in TEXTBOOK.iterdir()) == sorted({*CORPUS, *certs, *REJECTED})


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_outputs_match_the_definition_on_inputs_up_to_6(name):
    arity, definition, width, _ = CORPUS[name]
    p = parse_program((TEXTBOOK / name).read_text())
    for args in itertools.product(range(7), repeat=arity):
        regs = dict(enumerate((*args, *[0] * (width - arity)), start=1))
        status, final, _ = naive_run(p, regs, 10_000)
        outcome = run(p, Config(regs), 10_000)
        if definition(*args) is None:
            assert status == "fuel" and isinstance(outcome, OutOfFuel), (name, args)
            continue
        assert status == "halted" and final.get(1, 0) == definition(*args), (name, args)
        assert isinstance(outcome, Halted) and outcome.final.get(1) == definition(*args), (name, args)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_termination_certificates_are_accepted(name):
    p = parse_program((TEXTBOOK / name).read_text())
    for cert_name in CORPUS[name][3]:
        cert = parse_cert((TEXTBOOK / cert_name).read_text())
        assert isinstance(cert, TerminationCert)
        report = check_termination(p, cert)
        assert report.accepted, (cert_name, report.reason)


@pytest.mark.parametrize("cert_name", sorted(REJECTED))
def test_rejected_certificates_keep_their_code_and_position(cert_name):
    name, code, pc = REJECTED[cert_name]
    p = parse_program((TEXTBOOK / name).read_text())
    report = check_termination(p, parse_cert((TEXTBOOK / cert_name).read_text()))
    assert (report.reason.code, report.reason.pc) == (code, pc), report.reason
