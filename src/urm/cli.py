"""Command-line front end.

Subcommands: `validate` (program shape report), `run` (bounded
execution), `abstract` (decide jump-only programs), and `cert`
(certificate checking).  Exit codes: 0 success or accepted, 1 input or
validation error, 2 fuel exhausted, 3 certificate rejected.
"""

from __future__ import annotations

import argparse
import sys

from typing import NoReturn

from .certificates import CertReport, Reason, TerminationCert, check_divergence, check_termination
from .constraints import format_atom
from .errors import NotAbstractProgram, NotStandardForm, PcOutOfRange, SourceError
from .evaluator import (
    Converges,
    Halt,
    Halted,
    MachineState,
    decide_abstract,
    run,
    step,
)
from .machine import Config, FiniteConfig, Program, compatible, include, is_standard_form, restrict, rho
from .textio import format_config, parse_cert, parse_config, parse_program

DEFAULT_FUEL = 100000


class _Failure(Exception):
    def __init__(self, message: str, code: int = 1) -> None:
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    # exit code 2 is reserved for fuel exhaustion, so usage errors exit 1
    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise _Failure(f"{self.prog}: error: {message}")


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as err:
        raise _Failure(f"{path}: {err.strerror or err}")


def _load_program(path: str) -> Program:
    try:
        return parse_program(_read(path))
    except SourceError as err:
        raise _Failure(f"{path}: {err}")


def _parse_init(text: str, what: str) -> FiniteConfig:
    try:
        return parse_config(text)
    except SourceError as err:
        raise _Failure(f"{what}: {err}")


def _cmd_validate(args: argparse.Namespace) -> int:
    p = _load_program(args.program)
    standard = is_standard_form(p)
    parts = [f"n={len(p)}", f"rho={rho(p)}", f"standard-form={'yes' if standard else 'no'}"]
    ok = standard
    if args.config is not None:
        sigma = _parse_init(_read(args.config), args.config)
        good = compatible(sigma, p)
        parts.append(f"compatible={'yes' if good else 'no'}")
        ok = ok and good
    print(" ".join(parts))
    return 0 if ok else 1


def _require_standard(path: str, p: Program) -> None:
    if not is_standard_form(p):
        raise _Failure(f"{path}: program is not in standard form")


def _show_halted(values, steps: int) -> int:
    print(f"halted: {format_config(values)}")
    print(f"steps: {steps}")
    return 0


def _run_showing_steps(p: Program, start: Config, fuel: int) -> int:
    state = MachineState(p, 1, start)
    steps = 0
    while steps < fuel:
        print(f"{state.pc} {format_config(restrict(state.config, p).values)}")
        result = step(state)
        steps += 1
        if isinstance(result, Halt):
            return _show_halted(restrict(result.config, p).values, steps)
        state = result.state
    print(f"fuel exhausted after {fuel} steps")
    return 2


def _cmd_run(args: argparse.Namespace) -> int:
    p = _load_program(args.program)
    _require_standard(args.program, p)
    if args.fuel < 0:
        raise _Failure("--fuel: must be nonnegative")
    sigma = _parse_init(args.init, "--init") if args.init is not None else None
    # `--finite` changes no result: its default, zeros over r1..r_rho, is
    # the empty configuration, so all it adds is the compatibility check.
    if args.finite and sigma is not None and not compatible(sigma, p):
        raise _Failure(f"--init: needs at least {rho(p)} registers for this program")
    start = include(sigma) if sigma is not None else Config()
    if args.show_steps:
        return _run_showing_steps(p, start, args.fuel)
    outcome = run(p, start, args.fuel)
    if isinstance(outcome, Halted):
        return _show_halted(restrict(outcome.final, p).values, outcome.steps)
    print(f"fuel exhausted after {outcome.steps} steps")
    return 2


def _cmd_abstract(args: argparse.Namespace) -> int:
    p = _load_program(args.program)
    _require_standard(args.program, p)
    sigma = _parse_init(args.init, "--init") if args.init is not None else None
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


def _format_reason(reason: Reason) -> str:
    text = reason.code
    if reason.pc is not None:
        text += f" pc={reason.pc}"
    if reason.atom is not None:
        text += f" atom={format_atom(reason.atom)}"
    return text


def _cmd_cert(args: argparse.Namespace) -> int:
    p = _load_program(args.program)
    _require_standard(args.program, p)
    try:
        cert = parse_cert(_read(args.cert))
    except SourceError as err:
        raise _Failure(f"{args.cert}: {err}")
    try:
        if isinstance(cert, TerminationCert):
            report: CertReport = check_termination(p, cert)
        else:
            report = check_divergence(p, cert)
    except (NotStandardForm, PcOutOfRange, ValueError) as err:
        raise _Failure(f"{args.cert}: {err}")
    if report.accepted:
        print("Accepted")
        print("trail: " + " ".join(f"{pc}({rule})" for pc, rule in report.trail))
        return 0
    print(f"Rejected: {_format_reason(report.reason)}")
    return 3


def _build_parser() -> _Parser:
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
        return args.func(args)
    except _Failure as failure:
        print(str(failure), file=sys.stderr)
        return failure.code


if __name__ == "__main__":
    raise SystemExit(main())
