"""Command-line front end.

Subcommands: `validate` (program shape report), `run` (bounded
execution), `abstract` (decide jump-only programs), and `cert`
(certificate checking).  Exit codes: 0 success or accepted, 1 input or
validation error, 2 fuel exhausted, 3 certificate rejected.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from functools import cache
from typing import Callable, NoReturn, TypeVar

import urm

from .errors import NotAbstractProgram, PcOutOfRange, SourceError
from .evaluator import Converges, Halted, decide_abstract, run, trace
from .machine import Config, Program, compatible, include, restrict
from .textio import _Bad, _content_lines, format_config, parse_cert, parse_config, parse_program

DEFAULT_FUEL = 100000
# `run` prints registers r1..r_rho, so its time, memory and output grow
# with rho (Z 1000000 prints 2 MB); it refuses larger programs.  The
# library and the other subcommands take any rho.
MAX_RUN_RHO = 10**6
# `--show-steps` prints them at every step, so its output grows with rho
# times the steps (Z 1000000 / J 1 1 2 would print 200 GB at the default
# fuel); it takes a far smaller rho.
MAX_SHOW_STEPS_RHO = 1000

_T = TypeVar("_T")


class _Failure(Exception):
    def __init__(self, message: str, code: int = 1) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for fuel exhaustion, so usage errors exit 1
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise _Failure(f"{self.prog}: error: {message}")


def _newlines(text: str) -> str:
    """Universal newlines, as text-mode `open` reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as err:
        raise _Failure(f"{path}: {err.strerror or err}")
    try:
        return _newlines(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        before = _newlines(data[: err.start].decode("utf-8"))
        line, column = before.count("\n") + 1, len(before) - before.rfind("\n")
        raise _Failure(f"{path}: {SourceError(line, column, 'not UTF-8 text')}")


def _parse(what: str, parse: Callable[[str], _T], text: str) -> _T:
    """`parse(text)`, a parse error exiting 1 with `what` before its position."""
    try:
        return parse(text)
    except SourceError as err:
        raise _Failure(f"{what}: {err}")


def _refuse_above(path: str, text: str, tokens: slice, cap: int, message: str) -> None:
    """Refuse the program `text` at the first operand above `cap` among
    its lines' `tokens` (a slice of the line's whitespace split)."""
    for ln, line in _content_lines(text):
        for at, tok in enumerate(line.split()[tokens], start=tokens.start):
            if int(tok) > cap:
                raise _Failure(f"{path}: {_Bad(at, message).error(ln, line)}")


def _load_program(path: str) -> tuple[Program, str]:
    """The program in `path` and its text, refused at its first jump
    target past its end when it is not in standard form."""
    text = _read(path)
    p = _parse(path, parse_program, text)
    if not p.standard:
        # a parsed line's fourth token is a jump's target
        _refuse_above(path, text, slice(3, 4), len(p), "program is not in standard form")
    return p, text


def _cmd_validate(args: argparse.Namespace) -> int:
    p = _parse(args.program, parse_program, _read(args.program))
    parts = [f"n={len(p)}", f"rho={p.rho}", f"standard-form={'yes' if p.standard else 'no'}"]
    ok = p.standard
    if args.config is not None:
        sigma = _parse(args.config, parse_config, _read(args.config))
        good = compatible(sigma, p)
        parts.append(f"compatible={'yes' if good else 'no'}")
        ok = ok and good
    print(" ".join(parts))
    return 0 if ok else 1


def _cmd_run(args: argparse.Namespace) -> int:
    p, text = _load_program(args.program)
    what, cap = ("--show-steps", MAX_SHOW_STEPS_RHO) if args.show_steps else ("run", MAX_RUN_RHO)
    if p.rho > cap:
        # a parsed line's register operands are its tokens 1 and 2
        _refuse_above(args.program, text, slice(1, 3), cap, f"{what} takes register indices up to {cap}")
    if args.fuel < 0:
        raise _Failure("--fuel: must be nonnegative")
    sigma = _parse("--init", parse_config, args.init) if args.init is not None else None
    # `--finite` changes no result: its default, zeros over r1..r_rho, is
    # the empty configuration, so all it adds is the compatibility check.
    if args.finite and sigma is not None and not compatible(sigma, p):
        raise _Failure(f"--init: needs at least {p.rho} registers for this program")
    start = include(sigma) if sigma is not None else Config()
    if args.show_steps:
        # `trace` yields one state per step taken, so these are exactly the
        # states `run` steps from; written first, a line at a time, so that
        # they stream.  `range`, unlike `islice`, takes a fuel above
        # sys.maxsize.  A jump hands its configuration on, so registers are
        # formatted once for each run of states that share one `Config`.
        config = registers = None
        write = sys.stdout.write
        for _, state in zip(range(args.fuel), trace(p, start)):
            if state.config is not config:
                config = state.config
                registers = format_config(restrict(config, p).values)
            write(f"{state.pc} {registers}\n")
    outcome = run(p, start, args.fuel)
    if isinstance(outcome, Halted):
        print(f"halted: {format_config(restrict(outcome.final, p).values)}")
        print(f"steps: {outcome.steps}")
        return 0
    print(f"fuel exhausted after {outcome.steps} steps")
    return 2


def _cmd_abstract(args: argparse.Namespace) -> int:
    p, _ = _load_program(args.program)
    sigma = _parse("--init", parse_config, args.init) if args.init is not None else None
    start = include(sigma) if sigma is not None else Config()
    try:
        verdict = decide_abstract(p, start)
    except NotAbstractProgram:
        raise _Failure(f"{args.program}: not an abstract program")
    if isinstance(verdict, Converges):
        print(f"converges in {verdict.steps} steps")
    else:
        print(f"diverges: cycle at pc {verdict.cycle_entry_pc}, length {verdict.cycle_length}")
    return 0


def _format_reason(reason: urm.certificates.Reason) -> str:
    text = reason.code
    if reason.pc is not None:
        text += f" pc={reason.pc}"
    if reason.atom is not None:
        text += f" atom={urm.constraints.format_atom(reason.atom)}"
    return text


def _cmd_cert(args: argparse.Namespace) -> int:
    p, _ = _load_program(args.program)
    text = _read(args.cert)
    cert = _parse(args.cert, parse_cert, text)
    # read through the package: only this subcommand loads the checker
    certs = urm.certificates
    check = certs.check_termination if isinstance(cert, certs.TerminationCert) else certs.check_divergence
    try:
        report = check(p, cert)
    except PcOutOfRange as err:
        # the loop head is past the program's end: placed at the `head:`
        # value, as `parse_cert` places `head: 0`
        for ln, line in _content_lines(text):
            key, _, value = line.partition(":")
            if key.strip() == "head":
                raise _Failure(f"{args.cert}: {_Bad(0, str(err)).error(ln, value, len(key) + 2)}")
    if report.accepted:
        print("Accepted")
        print("trail: " + " ".join(f"{pc}({rule})" for pc, rule in report.trail))
        return 0
    print(f"Rejected: {_format_reason(report.reason)}")
    return 3


@cache
def _build_parser() -> _Parser:
    """The parser, built once per process, on first use."""
    parser = _Parser(prog="urm", description="Unlimited register machine tools.")
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="report program shape and compatibility")
    validate.add_argument("program", help="program file")
    validate.add_argument("--config", metavar="FILE", help="configuration file to check compatibility against")
    validate.set_defaults(func=_cmd_validate)

    runp = sub.add_parser("run", help="run a program with a fuel bound")
    runp.add_argument("program", help="program file")
    runp.add_argument("--init", metavar="CSV", help="initial register values, e.g. 5,3,0 (default all zero)")
    runp.add_argument("--fuel", metavar="N", type=int, default=DEFAULT_FUEL, help="step budget (default %(default)s)")
    runp.add_argument("--finite", action="store_true", help="treat the initial configuration as finite; requires compatibility")
    runp.add_argument("--show-steps", dest="show_steps", action="store_true", help="print `pc registers` for every step")
    runp.set_defaults(func=_cmd_run)

    abstract = sub.add_parser("abstract", help="decide a jump-only program")
    abstract.add_argument("program", help="program file")
    abstract.add_argument("--init", metavar="CSV", help="initial register values (default all zero)")
    abstract.set_defaults(func=_cmd_abstract)

    cert = sub.add_parser("cert", help="check a divergence or termination certificate")
    cert.add_argument("program", help="program file")
    cert.add_argument("cert", help="certificate file")
    cert.set_defaults(func=_cmd_cert)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _Failure as failure:
        print(str(failure), file=sys.stderr)
        return failure.code
    except BrokenPipeError:
        # The reader closed stdout early.  As Python's `signal` docs advise,
        # point the descriptor at devnull, so that the interpreter's flush
        # at exit fails quietly too.
        try:
            fd = sys.stdout.fileno()
        except io.UnsupportedOperation:  # an in-process caller's StringIO
            return 1
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
