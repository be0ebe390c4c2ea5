"""Unlimited register machine: programs, evaluation, and certificates.

The package splits into small layers: `machine` holds instruction and
configuration types, `evaluator` runs programs concretely, `constraints`
decides difference-bound entailment over symbolic register values,
`certificates` checks divergence and termination certificates by
symbolic execution, `textio` parses the on-disk formats, and `cli` is
the command-line front end.
"""

from importlib import import_module

from .errors import (
    Incompatible,
    NotAbstractProgram,
    NotStandardForm,
    PcOutOfRange,
    SourceError,
    UnsupportedAtom,
    URMError,
)
from .evaluator import (
    AbstractVerdict,
    Converges,
    Diverges,
    Halted,
    MachineState,
    Outcome,
    OutOfFuel,
    decide_abstract,
    run,
    run_finite,
    step,
    trace,
)
from .machine import (
    Config,
    FiniteConfig,
    Instruction,
    Jump,
    Program,
    Succ,
    Transfer,
    Zero,
    compatible,
    include,
    mv,
    restrict,
    sc,
    zr,
)
from .textio import format_config, parse_cert, parse_config, parse_program, print_program

# The certificate checker's modules, and the names this package takes from
# them; each module loads when one of its names is first read, so that
# running a program never imports the checker (PEP 562).
_LAZY = {
    "certificates": (
        "CONSTRAINTS_UNSATISFIABLE", "EXIT_DOES_NOT_HALT", "HALTED_DURING_LOOP", "INVARIANT_NOT_ESTABLISHED",
        "INVARIANT_NOT_PRESERVED", "LOOP_NOT_CLOSED", "PREFIX_FAILED", "RANKING_NOT_DECREASING",
        "RANKING_NOT_NONNEGATIVE", "UNDECIDED_BRANCH", "CertReport", "DivergenceCert", "Reason", "SymState",
        "TerminationCert", "Undecided", "check_divergence", "check_termination", "sym_step",
    ),
    "constraints": ("Atom", "ConstraintSet", "SymValue", "decide_eq", "entails", "format_atom", "reg_var"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY:
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})


__all__ = [
    "AbstractVerdict",
    "Atom",
    "CONSTRAINTS_UNSATISFIABLE",
    "CertReport",
    "Config",
    "ConstraintSet",
    "Converges",
    "DivergenceCert",
    "Diverges",
    "EXIT_DOES_NOT_HALT",
    "FiniteConfig",
    "HALTED_DURING_LOOP",
    "Halted",
    "INVARIANT_NOT_ESTABLISHED",
    "INVARIANT_NOT_PRESERVED",
    "Incompatible",
    "Instruction",
    "Jump",
    "LOOP_NOT_CLOSED",
    "MachineState",
    "NotAbstractProgram",
    "NotStandardForm",
    "OutOfFuel",
    "Outcome",
    "PREFIX_FAILED",
    "PcOutOfRange",
    "Program",
    "RANKING_NOT_DECREASING",
    "RANKING_NOT_NONNEGATIVE",
    "Reason",
    "SourceError",
    "Succ",
    "SymState",
    "SymValue",
    "TerminationCert",
    "Transfer",
    "UNDECIDED_BRANCH",
    "URMError",
    "Undecided",
    "UnsupportedAtom",
    "Zero",
    "check_divergence",
    "check_termination",
    "compatible",
    "decide_abstract",
    "decide_eq",
    "entails",
    "format_atom",
    "format_config",
    "include",
    "mv",
    "parse_cert",
    "parse_config",
    "parse_program",
    "print_program",
    "reg_var",
    "restrict",
    "run",
    "run_finite",
    "sc",
    "step",
    "sym_step",
    "trace",
    "zr",
]
