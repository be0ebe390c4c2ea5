"""Unlimited register machine: programs, evaluation, and certificates.

The package splits into small layers: `machine` holds instruction and
configuration types, `evaluator` runs programs concretely, `constraints`
decides difference-bound entailment over symbolic register values,
`certificates` checks divergence and termination certificates by
symbolic execution, `textio` parses the on-disk formats, and `cli` is
the command-line front end.
"""

from importlib import import_module

# The checker's modules and their public names, in README's order, defined first:
# each takes its `__all__` from here.  Eager modules read them only from the
# package, which loads each on first use (PEP 562), so `urm run` never does.
_LAZY = {
    "certificates": (
        "sym_step", "SymState", "DivergenceCert", "TerminationCert", "check_divergence", "check_termination",
        "CertReport", "Reason", "CONSTRAINTS_UNSATISFIABLE", "PREFIX_FAILED", "UNDECIDED_BRANCH",
        "HALTED_DURING_LOOP", "LOOP_NOT_CLOSED", "INVARIANT_NOT_ESTABLISHED", "INVARIANT_NOT_PRESERVED",
        "RANKING_NOT_NONNEGATIVE", "RANKING_NOT_DECREASING", "EXIT_DOES_NOT_HALT",
    ),
    "constraints": ("Atom", "ConstraintSet", "SymValue", "entails", "decide_eq", "reg_var", "format_atom"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

# The eager modules' public names, each declared once in its module's `__all__`.
from . import errors, evaluator, machine, textio
from .errors import *
from .evaluator import *
from .machine import *
from .textio import *


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
