"""The textbook corpus in `samples/textbook/`: standard URM programs written
from their definitions, each with the certificates the checker accepts."""

from __future__ import annotations

import itertools
import pathlib

import pytest

from urm import Config, Halted, TerminationCert, check_termination, parse_cert, parse_program, run
from oracles import naive_run

TEXTBOOK = pathlib.Path(__file__).resolve().parent.parent / "samples" / "textbook"

# program -> (arity, definition, registers of the start state, certificates);
# the inputs go to r1.. and every other register of the start state is 0
CORPUS = {
    "add.urm": (2, lambda x, y: x + y, 3, ("add-term.cert",)),
    "pred.urm": (1, lambda x: max(x - 1, 0), 4, ("pred-term.cert",)),
}


def test_the_corpus_is_exactly_these_files():
    certs = {cert for *_, names in CORPUS.values() for cert in names}
    assert sorted(path.name for path in TEXTBOOK.iterdir()) == sorted({*CORPUS, *certs})


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_outputs_match_the_definition_on_inputs_up_to_6(name):
    arity, definition, width, _ = CORPUS[name]
    p = parse_program((TEXTBOOK / name).read_text())
    for args in itertools.product(range(7), repeat=arity):
        regs = dict(enumerate((*args, *[0] * (width - arity)), start=1))
        status, final, _ = naive_run(p, regs, 10_000)
        assert status == "halted" and final.get(1, 0) == definition(*args), (name, args)
        outcome = run(p, Config(regs), 10_000)
        assert isinstance(outcome, Halted) and outcome.final.get(1) == definition(*args), (name, args)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_termination_certificates_are_accepted(name):
    p = parse_program((TEXTBOOK / name).read_text())
    for cert_name in CORPUS[name][3]:
        cert = parse_cert((TEXTBOOK / cert_name).read_text())
        assert isinstance(cert, TerminationCert)
        report = check_termination(p, cert)
        assert report.accepted, (cert_name, report.reason)
