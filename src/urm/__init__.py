"""Unlimited register machine: programs, evaluation, and certificates.

The package splits into small layers: `machine` holds instruction and
configuration types, `evaluator` runs programs concretely, `constraints`
decides difference-bound entailment over symbolic register values,
`certificates` checks divergence and termination certificates by
symbolic execution, `textio` parses the on-disk formats, and `cli` is
the command-line front end.
"""

from importlib import import_module

# The eager modules' public names, each declared once in its module's `__all__`.
from . import errors, evaluator, machine, textio
from .errors import *
from .evaluator import *
from .machine import *
from .textio import *

# The certificate checker's modules, and the names this package takes from
# them; each module loads when one of its names is first read, so that
# running a program never imports the checker (PEP 562).
_LAZY = {
    "certificates": (
        "CONSTRAINTS_UNSATISFIABLE", "EXIT_DOES_NOT_HALT", "HALTED_DURING_LOOP", "INVARIANT_NOT_ESTABLISHED",
        "INVARIANT_NOT_PRESERVED", "LOOP_NOT_CLOSED", "PREFIX_FAILED", "RANKING_NOT_DECREASING",
        "RANKING_NOT_NONNEGATIVE", "UNDECIDED_BRANCH", "CertReport", "DivergenceCert", "Reason", "SymState",
        "TerminationCert", "check_divergence", "check_termination", "sym_step",
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


__all__ = sorted([*errors.__all__, *evaluator.__all__, *machine.__all__, *textio.__all__, *_HOME])
