"""Certificate checking by symbolic execution."""

from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc

import pytest

from urm import (
    Atom,
    ConstraintSet,
    DivergenceCert,
    SymState,
    SymValue,
    TerminationCert,
    check_divergence,
    check_termination,
    decide_eq,
    parse_cert,
    sym_step,
)
from urm.certificates import (
    CONSTRAINTS_UNSATISFIABLE,
    EXIT_DOES_NOT_HALT,
    HALTED_DURING_LOOP,
    INVARIANT_NOT_ESTABLISHED,
    INVARIANT_NOT_PRESERVED,
    LOOP_NOT_CLOSED,
    PREFIX_FAILED,
    RANKING_NOT_DECREASING,
    RANKING_NOT_NONNEGATIVE,
    UNDECIDED_BRANCH,
    CertReport,
    Reason,
)
from urm import certificates, constraints
from urm.constraints import parse_reg_var
from urm.errors import NotStandardForm, PcOutOfRange
from urm.machine import Jump, Program, Succ, Transfer, Zero
from oracles import (
    atom_holds,
    atom_variables,
    constraints_hold,
    head_visits,
    instantiate,
    naive_pcs,
    naive_run,
    random_program,
    register_values,
    sample_parameters,
)

# registers 1, 2 and 3, in `u_minus`'s slot order
FRESH = (SymValue("v1"), SymValue("v2"), SymValue("v3"))


def _load(samples_dir, name):
    return parse_cert((samples_dir / name).read_text())


def test_sym_step_resolves_a_jump_from_a_strict_bound(u_minus):
    s = SymState(1, FRESH)
    nxt, rule = sym_step(u_minus, s, ConstraintSet.of(Atom("v1", "v2", "<=", -1)))
    assert isinstance(nxt, SymState)
    assert nxt.pc == 2
    assert nxt.regs == s.regs
    assert rule == "jf·r"


def test_sym_step_compares_a_register_with_itself(u_minus):
    s = SymState(4, (SymValue("v1"), SymValue("v2", 1), SymValue("v3", 1)))
    nxt, rule = sym_step(u_minus, s, ConstraintSet())
    assert isinstance(nxt, SymState)
    assert nxt.pc == 1
    assert rule == "jt·r"


def test_sym_step_reports_an_unresolved_jump(u_minus):
    r = sym_step(u_minus, SymState(1, FRESH), ConstraintSet())
    assert r is None


def test_sym_step_leaves_a_jump_undecided_exactly_when_decide_eq_does():
    """On a jump, `sym_step` returns None when `decide_eq` of the two
    compared values does, and otherwise the step that verdict takes."""
    rng = random.Random(41)
    names = ("a", "b", "c")
    seen = {True: 0, False: 0, None: 0}
    for _ in range(2000):
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        p = Program((Jump(i, j, 3), Succ(1), Succ(2)))
        regs = {r: SymValue(rng.choice((None, *names)), rng.randint(0, 2)) for r in (1, 2, 3) if rng.random() < 0.8}
        s = SymState(1, tuple(regs.get(r, SymValue()) for r in p.registers))
        cs = ConstraintSet.of(*(
            Atom(rng.choice(names), rng.choice((None, *names)), rng.choice(("<", "<=", "=", ">=", ">", "!=")), rng.randint(-2, 2))
            for _ in range(rng.randint(0, 3))
        ))
        eq = decide_eq(regs.get(i, SymValue()), regs.get(j, SymValue()), cs)
        seen[eq] += 1
        r = sym_step(p, s, cs)
        if eq is None:
            assert r is None, (p, s, cs)
        else:
            assert r == (SymState(3 if eq else 2, s.regs), "jt·r" if eq else "jf·r"), (p, s, cs)
    assert min(seen.values()) > 200, seen


def test_a_report_is_accepted_when_it_has_no_reason():
    """`accepted` is read off `reason`, so no report can claim both."""
    assert [f.name for f in dataclasses.fields(CertReport)] == ["trail", "reason"]
    assert CertReport().accepted and CertReport(((1, "s·r"),)).accepted
    assert not CertReport(reason=Reason(LOOP_NOT_CLOSED)).accepted
    with pytest.raises(TypeError):
        CertReport(accepted=True)
    with pytest.raises(AttributeError):
        CertReport().accepted = False


def test_sym_step_updates_values_like_the_rules():
    p = Program((Zero(2), Succ(1), Succ(3)))
    # slots in first-mention order: registers 2, 1, 3
    s = SymState(1, (SymValue("v2"), SymValue("v1"), SymValue("v3")))
    s, rule = sym_step(p, s, ConstraintSet())
    assert s.regs == (SymValue(offset=0), SymValue("v1"), SymValue("v3")) and rule == "z·r"
    s, rule = sym_step(p, s, ConstraintSet())
    assert s.regs == (SymValue(offset=0), SymValue("v1", 1), SymValue("v3")) and rule == "s·r"
    s, rule = sym_step(p, s, ConstraintSet())
    assert s.pc == 0 and rule == "s·l"
    assert s.regs == (SymValue(offset=0), SymValue("v1", 1), SymValue("v3", 1))


def test_sym_step_shares_one_rule_string_per_rule():
    """A trail keeps a rule per step, so steps by the same rule hand out
    the same string rather than a copy each."""
    p = Program((Succ(1), Succ(1)))
    state, first = sym_step(p, SymState(1, FRESH[:1]), ConstraintSet())
    _, second = sym_step(p, SymState(1, FRESH[:1]), ConstraintSet())
    assert first == "s·r" and first is second
    _, last = sym_step(p, state, ConstraintSet())
    assert last == "s·l" and last is sym_step(p, state, ConstraintSet())[1]


def test_sym_step_requires_standard_form():
    with pytest.raises(NotStandardForm):
        sym_step(Program((Jump(1, 1, 9),)), SymState(1, (SymValue(offset=0),)), ConstraintSet())


def test_sym_step_requires_a_position_in_the_program(u_minus):
    for pc in (0, len(u_minus) + 1):
        with pytest.raises(PcOutOfRange):
            sym_step(u_minus, SymState(pc, FRESH), ConstraintSet())


def test_sym_step_on_constants_mirrors_concrete_execution():
    """From constants, `sym_step` over `Program._code` takes the steps that
    `step` takes over the instructions, with the same registers after each."""
    from urm import Config, MachineState, step

    rng = random.Random(31)
    empty = ConstraintSet()
    halted = 0
    for _ in range(200):
        p = random_program(rng)
        regs = {i: rng.randint(0, 3) for i in range(1, 4)}
        concrete = MachineState(p, 1, Config(regs))
        symbolic = SymState(1, tuple(SymValue(offset=regs[i]) for i in p.registers))
        for _ in range(20):
            concrete = step(concrete)
            got_s = sym_step(p, symbolic, empty)
            assert got_s is not None
            symbolic, _ = got_s
            assert symbolic.pc == concrete.pc
            assert all(v.var is None for v in symbolic.regs)
            # a register the program does not mention keeps its value
            expected = {**regs, **{i: v.offset for i, v in zip(p.registers, symbolic.regs)}}
            assert {i: concrete.config.get(i) for i in range(1, 4)} == expected, (p, regs)
            if not concrete.pc:
                halted += 1
                break
    assert halted > 50


def test_a_symbolic_state_cannot_change_after_it_hashes():
    """`regs` is a tuple, so a state used as a dict key keeps its entry."""
    s = SymState(1, (SymValue("v"),))
    memo = {s: "seen"}
    with pytest.raises(TypeError):
        s.regs[0] = SymValue("w")
    assert s in memo and memo[SymState(1, (SymValue("v"),))] == "seen"
    assert hash(s) == hash(SymState(1, (SymValue("v"),)))
    assert SymState(1, (SymValue("v"), SymValue("w"))) not in memo


def test_sym_step_reads_the_registers_in_slot_order():
    """Slot s is register `p.registers[s]`, in order of first mention, and
    the slots past those are passed on unchanged; a state without a slot
    for every register of the program is refused."""
    p = Program((Succ(3), Transfer(3, 1), Jump(1, 3, 0)))
    assert p.registers == (3, 1)
    extra = (SymValue("x"), SymValue("y", 2))
    s = SymState(1, (SymValue("a"), SymValue("b"), *extra))
    rules = []
    while s.pc:
        s, rule = sym_step(p, s, ConstraintSet())
        rules.append(rule)
        assert s.regs[2] is extra[0] and s.regs[3] is extra[1]
    assert rules == ["s·r", "t·r", "jt·l"]
    assert s.regs == (SymValue("a", 1), SymValue("a", 1), *extra)
    for pc in (1, 2, 3):
        for regs in ((), (SymValue("a"),), {3: SymValue("a"), 1: SymValue("b")}, [SymValue("a"), SymValue("b")]):
            with pytest.raises(ValueError, match="a slot per register"):
                sym_step(p, SymState(pc, regs), ConstraintSet())


def test_divergence_certificate_for_subtraction(u_minus, samples_dir):
    report = check_divergence(u_minus, _load(samples_dir, "minus-div.cert"))
    assert report.accepted
    assert report.trail == ((1, "jf·r"), (2, "s·r"), (3, "s·r"), (4, "jt·r"))


def test_divergence_certificate_for_the_counter(prog_v, samples_dir):
    report = check_divergence(prog_v, _load(samples_dir, "v-div.cert"))
    assert report.accepted
    assert report.trail == ((1, "s·r"), (2, "jt·r"))


def test_divergence_certificate_for_the_self_loop(prog_loop, samples_dir):
    report = check_divergence(prog_loop, _load(samples_dir, "loop.cert"))
    assert report.accepted
    assert report.trail == ((1, "jt·r"),)


def test_accepted_loops_are_guarded(u_minus, prog_v, prog_loop, samples_dir):
    for prog, name in ((u_minus, "minus-div.cert"), (prog_v, "v-div.cert"), (prog_loop, "loop.cert")):
        assert len(check_divergence(prog, _load(samples_dir, name)).trail) >= 1


def test_termination_certificate_for_subtraction(u_minus, samples_dir):
    report = check_termination(u_minus, _load(samples_dir, "minus-term.cert"))
    assert report.accepted
    assert report.trail == (
        (1, "jf·r"),
        (2, "s·r"),
        (3, "s·r"),
        (4, "jt·r"),
        (1, "jt·r"),
        (5, "t·l"),
    )


def test_weak_invariant_leaves_the_branch_undecided(u_minus, samples_dir):
    report = check_divergence(u_minus, _load(samples_dir, "rejected/minus-div-weak.cert"))
    assert not report.accepted
    assert report.reason.code == UNDECIDED_BRANCH
    assert report.reason.pc == 1


def test_straight_line_program_halts_during_the_loop(prog_b, samples_dir):
    report = check_divergence(prog_b, _load(samples_dir, "rejected/b-div.cert"))
    assert not report.accepted
    assert report.reason.code == HALTED_DURING_LOOP
    assert report.reason.pc == 2


def test_reversed_ranking_is_not_nonnegative(u_minus, samples_dir):
    report = check_termination(u_minus, _load(samples_dir, "rejected/minus-term-revrank.cert"))
    assert not report.accepted
    assert report.reason.code == RANKING_NOT_NONNEGATIVE


def _minus_cert(**overrides):
    fields = dict(
        param_constraints=ConstraintSet.of(Atom("m", "n", "<", 0)),
        init=(SymValue("m"), SymValue("n"), SymValue("z")),
        loop_head=1,
        invariant=(Atom("r1", "r2", "<", 0),),
        step_bound=8,
    )
    fields.update(overrides)
    return DivergenceCert(**fields)


def test_prefix_that_halts_is_rejected():
    p = Program((Jump(1, 1, 0), Zero(1)))
    cert = DivergenceCert(ConstraintSet(), (), loop_head=2, invariant=(), step_bound=4)
    report = check_divergence(p, cert)
    assert report.reason.code == PREFIX_FAILED


def test_prefix_that_overruns_the_bound_is_rejected():
    p = Program((Succ(1), Succ(1), Succ(1), Jump(1, 1, 4)))
    cert = DivergenceCert(ConstraintSet(), (), loop_head=4, invariant=(), step_bound=2)
    report = check_divergence(p, cert)
    assert report.reason.code == PREFIX_FAILED


def test_prefix_walk_keeps_no_trail():
    # a prefix that spins at position 1 and never reaches the head
    p = Program((Jump(1, 1, 1), Jump(1, 1, 2)))
    cert = DivergenceCert(ConstraintSet(), (), loop_head=2, invariant=(), step_bound=20000)
    tracemalloc.start()
    try:
        report = check_divergence(p, cert)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.reason.code == PREFIX_FAILED
    assert peak < 2**18


def test_invariant_must_hold_on_arrival(u_minus):
    cert = _minus_cert(invariant=(Atom("r1", "r2", ">", 0),))
    report = check_divergence(u_minus, cert)
    assert report.reason.code == INVARIANT_NOT_ESTABLISHED
    assert report.reason.atom == Atom("r1", "r2", ">=", 1)


def test_invariant_must_survive_one_iteration(u_minus):
    cert = _minus_cert(
        param_constraints=ConstraintSet.of(Atom("m", "n", "<", 0), Atom("z", None, "=", 0)),
        invariant=(Atom("r1", "r2", "<", 0), Atom("r3", None, "=", 0)),
    )
    report = check_divergence(u_minus, cert)
    assert report.reason.code == INVARIANT_NOT_PRESERVED
    assert report.reason.atom == Atom("r3", None, "=", 0)


def test_too_small_a_bound_leaves_the_loop_open(u_minus):
    report = check_divergence(u_minus, _minus_cert(step_bound=3))
    assert report.reason.code == LOOP_NOT_CLOSED


def _term_cert(**overrides):
    fields = dict(
        param_constraints=ConstraintSet.of(Atom("m", "n", ">=", 0)),
        init=(SymValue("m"), SymValue("n"), SymValue("z")),
        loop_head=1,
        invariant=(Atom("r1", "r2", ">=", 0),),
        split=(1, 2, 0),
        ranking=(1, 2),
        step_bound=8,
    )
    fields.update(overrides)
    return TerminationCert(**fields)


def test_termination_ranking_must_decrease(u_minus):
    cert = _term_cert(
        param_constraints=ConstraintSet.of(Atom("m", "n", ">=", 0), Atom("z", None, "=", 0)),
        invariant=(Atom("r1", "r2", ">=", 0), Atom("r2", "r3", ">=", 0)),
        ranking=(2, 3),
    )
    report = check_termination(u_minus, cert)
    assert report.reason.code == RANKING_NOT_DECREASING


def test_termination_exit_case_must_halt():
    p = Program((Jump(1, 2, 4), Succ(2), Jump(1, 1, 1), Jump(3, 3, 4)))
    cert = TerminationCert(
        param_constraints=ConstraintSet.of(Atom("m", "n", ">=", 0)),
        init=(SymValue("m"), SymValue("n")),
        loop_head=1,
        invariant=(Atom("r1", "r2", ">=", 0),),
        split=(1, 2, 0),
        ranking=(1, 2),
        step_bound=8,
    )
    report = check_termination(p, cert)
    assert report.reason.code == EXIT_DOES_NOT_HALT


def test_degenerate_split_never_returns_to_the_head(prog_b):
    cert = TerminationCert(
        param_constraints=ConstraintSet.of(Atom("a", "b", "!=", 0)),
        init=(SymValue("a"), SymValue("b")),
        loop_head=1,
        invariant=(Atom("r1", "r2", "!=", 0),),
        split=(1, 1, 0),
        ranking=(1, 2),
        step_bound=4,
    )
    report = check_termination(prog_b, cert)
    assert not report.accepted
    assert report.reason.code == LOOP_NOT_CLOSED


def test_certificate_field_validation():
    with pytest.raises(ValueError):
        _minus_cert(step_bound=0)
    with pytest.raises(PcOutOfRange):
        _minus_cert(loop_head=0)
    with pytest.raises(ValueError):
        _term_cert(ranking=(0, 2))
    with pytest.raises(ValueError):
        _term_cert(split=(1, 2, -1))
    # a list would be checked but could not be hashed, so it is refused
    with pytest.raises(ValueError, match="invariant is a tuple"):
        _minus_cert(invariant=[Atom("r1", "r2", "<", 0)])
    with pytest.raises(ValueError, match="invariant is a tuple"):
        _term_cert(invariant=[Atom("r1", "r2", ">=", 0)])
    for fields in ({"split": [1, 2, 0]}, {"ranking": [1, 2]}):
        with pytest.raises(ValueError, match="split and ranking are tuples"):
            _term_cert(**fields)
    # each of these failed later, and not with a ValueError, or not at all
    with pytest.raises(ValueError, match="split is three ints and ranking two"):
        _term_cert(split=(1, 2))
    with pytest.raises(ValueError, match="split is three ints and ranking two"):
        _term_cert(ranking=(1,))
    with pytest.raises(ValueError, match="split is three ints and ranking two"):
        _term_cert(split=("a", 2, 0))
    with pytest.raises(ValueError, match="loop head and step bound are ints"):
        _minus_cert(loop_head="1")
    with pytest.raises(ValueError, match="loop head and step bound are ints"):
        _term_cert(step_bound=2.5)
    with pytest.raises(ValueError, match="loop head and step bound are ints"):
        _minus_cert(loop_head=True)
    with pytest.raises(ValueError, match="invariant is a tuple of Atom"):
        _minus_cert(invariant=("r1",))
    with pytest.raises(ValueError, match="param_constraints is a ConstraintSet"):
        _term_cert(param_constraints=frozenset())
    with pytest.raises(PcOutOfRange):
        _term_cert(loop_head=-1)
    assert len({_minus_cert(), _term_cert()}) == 2


def test_init_is_a_tuple_of_symbolic_values():
    """`init` is read by position, r1 first, so an old-style mapping from
    register to value, which would be misread, is refused."""
    for init in ({0: SymValue(offset=1)}, {1: SymValue("m"), 2: SymValue("n")}, [SymValue("m")], ("m", "n")):
        with pytest.raises(ValueError, match="init is a tuple of SymValue"):
            _minus_cert(init=init)
        with pytest.raises(ValueError, match="init is a tuple of SymValue"):
            _term_cert(init=init)


def _key_sorted(text, reverse=False):
    """`text`'s lines with content, stably sorted by key: the once-only
    keys move, the `constraint:` and `invariant:` lines keep their order."""
    lines = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
    return "\n".join(sorted(lines, key=lambda line: line.partition(":")[0], reverse=reverse))


def test_certificates_are_hashable_values(samples_dir):
    """A certificate is a frozen value: it hashes, equal texts give one set
    member whatever their key order, and a copy hashes as the original."""
    texts = [path.read_text() for path in sorted(samples_dir.rglob("*.cert"))]
    assert len(texts) == 19
    certs = [parse_cert(text) for text in texts]
    assert len(set(certs)) == len(certs)
    for text, cert in zip(texts, certs):
        assert hash(cert) == hash(dataclasses.replace(cert))
        assert {cert, parse_cert(_key_sorted(text)), parse_cert(_key_sorted(text, reverse=True))} == {cert}
    assert {_minus_cert(): "claim"}[_load(samples_dir, "minus-div.cert")] == "claim"


def test_checker_values_are_frozen_dataclasses():
    """`Atom`, `SymValue` and `SymState` keep a frozen
    dataclass's interface, although `Atom` and `SymValue` build through their
    own `__init__`, and `dataclasses.replace` runs their checks again."""
    cases = [
        (Atom, {"x": "a", "y": "b", "rel": "<=", "k": 0}, "Atom(x='a', y='b', rel='<=', k=0)"),
        (SymValue, {"var": "v", "offset": 2}, "SymValue(var='v', offset=2)"),
        (SymState, {"pc": 1, "regs": (SymValue("v"),)}, "SymState(pc=1, regs=(SymValue(var='v', offset=0),))"),
    ]
    for cls, kwargs, text in cases:
        assert [f.name for f in dataclasses.fields(cls)] == list(kwargs)
        value = cls(**kwargs)
        assert value == cls(*kwargs.values()) == dataclasses.replace(value)
        assert repr(value) == text
        for name in kwargs:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
        assert hash(value) == hash(cls(*kwargs.values()))
    assert [f.default for f in dataclasses.fields(SymValue)] == [None, 0]
    assert SymValue() == SymValue(None, 0) and repr(SymValue(offset=3)) == "SymValue(var=None, offset=3)"
    assert dataclasses.replace(Atom("a", "b", "<=", 0), rel="<") == Atom("a", "b", "<=", -1)
    assert dataclasses.replace(Atom("a", "b", "<=", 0), y="a") == Atom(None, None, "<=", 0)
    with pytest.raises(ValueError, match="offsets are naturals"):
        dataclasses.replace(SymValue("v"), offset=-1)
    with pytest.raises(TypeError):
        Atom("a", "b", "<=")


def test_the_two_kinds_are_apart(samples_dir):
    """The CLI and the checks dispatch on the kind, so neither kind is the other."""
    div, term = _load(samples_dir, "minus-div.cert"), _load(samples_dir, "minus-term.cert")
    assert not isinstance(term, DivergenceCert)
    assert not isinstance(div, TerminationCert)
    assert [f.name for f in dataclasses.fields(term)] == [
        "param_constraints", "init", "loop_head", "invariant", "step_bound", "split", "ranking"]
    assert [f.name for f in dataclasses.fields(div)] == [f.name for f in dataclasses.fields(term)][:5]


LOOP, COUNT = Program((Jump(1, 1, 1),)), Program((Jump(1, 2, 0), Succ(2), Jump(1, 1, 1)))
TERMINATES = "kind: terminates\nhead: 1\nbound: 8\n"
COUNTING = TERMINATES + "params: m\ninit: m\ninvariant: r1 >= r2\n"


@pytest.mark.parametrize("p, text, accepted, code, pc", [
    (LOOP, TERMINATES + "split: r5 - r6 > 0\nranking: r5 - r6", False, RANKING_NOT_DECREASING, None),
    (LOOP, TERMINATES + "split: r5 - r6 > 0\nranking: r6 - r5", False, RANKING_NOT_NONNEGATIVE, None),
    (COUNT, COUNTING + "split: r1 - r2 > 0\nranking: r1 - r2", True, None, None),
    (COUNT, COUNTING + "split: r1 - r2 > 0\nranking: r7 - r2", False, RANKING_NOT_NONNEGATIVE, None),
    (COUNT, COUNTING + "split: r1 - r2 > 0\nranking: r1 - r7", False, RANKING_NOT_NONNEGATIVE, None),
    (COUNT, COUNTING + "split: r8 - r9 > 3\nranking: r8 - r9", False, UNDECIDED_BRANCH, 1),
])
def test_split_and_ranking_registers_are_read_by_name(p, text, accepted, code, pc):
    """The symbolic states hold no register that only the split or the
    ranking names: the split is assumed by name, and such a ranking
    register reads zero at both ends of the loop, as a fresh variable that
    no step writes cancels."""
    report = check_termination(p, parse_cert(text))
    assert report.accepted is accepted
    if accepted:
        assert report.trail == ((1, "jf·r"), (2, "s·r"), (3, "jt·r"), (1, "jt·l"))
    else:
        assert (report.reason.code, report.reason.pc) == (code, pc)


def test_invariant_atoms_must_name_registers():
    """`parse_cert` refuses other names, so only a certificate built in the
    library reaches this check."""
    p = Program((Jump(1, 1, 1),))
    stray = (Atom("m", None, ">=", 0),)
    with pytest.raises(ValueError, match="not a register operand: 'm'"):
        check_divergence(p, _minus_cert(invariant=stray))
    with pytest.raises(ValueError, match="not a register operand: 'm'"):
        check_termination(p, _term_cert(invariant=stray))


def test_the_checks_read_no_register_name(u_minus, samples_dir, monkeypatch):
    """Construction resolves each invariant operand once; the checks then
    substitute through the kept indices and parse no `rI` name."""
    calls = []

    def counting(name):
        calls.append(name)
        return parse_reg_var(name)

    monkeypatch.setattr(certificates, "parse_reg_var", counting)
    monkeypatch.setattr(constraints, "parse_reg_var", counting)
    texts = [(samples_dir / name).read_text() for name in (
        "minus-div.cert", "minus-term.cert", "rejected/minus-div-weak.cert", "rejected/minus-term-revrank.cert",
        "rejected/minus-div-gap.cert", "rejected/minus-div-window.cert")]
    built = _minus_cert(invariant=(Atom("r1", "r2", "<", 0), Atom(None, "r3", "<=", 0), Atom("r2", None, ">=", 1)))
    for cert in [parse_cert(text) for text in texts] + [built]:
        calls.clear()
        cert = dataclasses.replace(cert)
        assert len(calls) == sum(len(atom_variables(a)) for a in cert.invariant)
        calls.clear()
        check = check_termination if isinstance(cert, TerminationCert) else check_divergence
        check(u_minus, cert)
        assert calls == []


def test_kept_operands_are_no_field(samples_dir):
    """The register indices a certificate keeps stay out of its fields,
    so equality, `repr` and `dataclasses.replace` see the claim alone."""
    parsed = _load(samples_dir, "minus-div.cert")
    assert parsed._operands == ((1, 2),)
    assert parsed == _minus_cert()
    assert "_operands" not in {f.name for f in dataclasses.fields(parsed)}
    assert "_operands" not in repr(parsed)
    assert dataclasses.replace(parsed, invariant=(Atom(None, "r3", "<=", 0),))._operands == ((0, 3),)
    # a termination certificate runs the shared checks too
    term = _load(samples_dir, "minus-term.cert")
    changed = dataclasses.replace(term, invariant=(Atom("r3", "r1", ">=", 0), Atom(None, "r2", "<", 4)))
    assert (term._operands, changed._operands) == (((1, 2),), ((3, 1), (0, 2)))


def test_loop_head_must_be_a_position(u_minus):
    with pytest.raises(PcOutOfRange):
        check_divergence(u_minus, _minus_cert(loop_head=9))


def test_checkers_require_standard_form():
    with pytest.raises(NotStandardForm):
        check_divergence(Program((Jump(1, 1, 9),)), _minus_cert())


def test_unsatisfiable_constraints_are_rejected():
    """`m < n` and `n < m` cover no input, nor do `m = n` and `m != n`, so
    an accepted lasso would prove nothing: the program below halts from
    r1 = 0, r2 = 1."""
    p = Program((Jump(1, 2, 1), Succ(3)))
    cert = DivergenceCert(
        param_constraints=ConstraintSet.of(Atom("m", "n", "<", 0), Atom("n", "m", "<", 0)),
        init=(SymValue("m"), SymValue("n")),
        loop_head=1,
        invariant=(Atom("r1", "r2", "=", 0),),
        step_bound=2,
    )
    assert naive_run(p, {1: 0, 2: 1}, 10)[0] == "halted"
    for constraints in (
        cert.param_constraints,
        ConstraintSet.of(Atom("m", "n", "=", 0), Atom("m", "n", "!=", 0)),
        ConstraintSet.of(Atom("m", None, "<=", 2), Atom("m", None, ">", 1), Atom(None, "m", "!=", -2)),
    ):
        cert = dataclasses.replace(cert, param_constraints=constraints)
        assert check_divergence(p, cert).reason.code == CONSTRAINTS_UNSATISFIABLE
        term = _term_cert(param_constraints=constraints, init=cert.init, invariant=cert.invariant)
        assert check_termination(p, term).reason.code == CONSTRAINTS_UNSATISFIABLE
    # the standard-form and loop-head checks come first
    with pytest.raises(NotStandardForm):
        check_divergence(Program((Jump(1, 2, 3),)), cert)
    with pytest.raises(PcOutOfRange):
        check_divergence(p, dataclasses.replace(cert, loop_head=3))


def test_accepted_divergence_trail_matches_concrete_traces(u_minus, samples_dir):
    cert = _load(samples_dir, "minus-div.cert")
    report = check_divergence(u_minus, cert)
    rng = random.Random(11)
    for _ in range(5):
        regs = instantiate(cert, sample_parameters(cert, rng))
        pcs = naive_pcs(u_minus, regs, 3 * len(report.trail))
        expected = [pc for pc, _ in report.trail]
        # the loop segment repeats from the head onwards
        assert pcs[: len(expected)] == expected
        assert pcs[len(expected) : 2 * len(expected)] == expected


def test_accepted_divergence_samples_run_forever(prog_v, samples_dir):
    cert = _load(samples_dir, "v-div.cert")
    assert check_divergence(prog_v, cert).accepted
    rng = random.Random(13)
    for _ in range(5):
        regs = instantiate(cert, sample_parameters(cert, rng))
        verdict, visits = head_visits(prog_v, regs, cert.loop_head, 2000)
        assert verdict == "fuel"
        for snapshot in visits:
            for atom in cert.invariant:
                assert atom_holds(atom, register_values(atom, snapshot))


def test_accepted_termination_bounds_head_visits(u_minus, samples_dir):
    cert = _load(samples_dir, "minus-term.cert")
    assert check_termination(u_minus, cert).accepted
    x, y = cert.ranking
    for m, n, z in itertools.product(range(16), range(16), range(3)):
        if not constraints_hold(cert.param_constraints, {"m": m, "n": n, "z": z}):
            continue
        regs = instantiate(cert, {"m": m, "n": n, "z": z})
        rank = max(regs.get(x, 0) - regs.get(y, 0), 0)
        verdict, visits = head_visits(u_minus, regs, cert.loop_head, 10000)
        assert verdict == "halted", (m, n, z)
        assert len(visits) <= rank + 1, (m, n, z)


_RELATIONS = ("<", "<=", "=", ">=", ">", "!=")


def _random_atoms(rng, names):
    """0-2 atoms over `names`, None standing for an absent side."""
    return tuple(
        Atom(rng.choice(names), rng.choice(names), rng.choice(_RELATIONS), rng.randint(-2, 2))
        for _ in range(rng.randint(0, 2))
    )


def _accepted_claim_holds(p, cert, params):
    """Check `cert`; if accepted, run `p` on every assignment of `params`
    (name -> range) that the constraints allow and assert the claim.
    Returns whether the certificate was accepted."""
    diverges = isinstance(cert, DivergenceCert)
    report = check_divergence(p, cert) if diverges else check_termination(p, cert)
    if not report.accepted:
        return False
    for values in itertools.product(*params.values()):
        assignment = dict(zip(params, values))
        if constraints_hold(cert.param_constraints, assignment):
            # 400 steps cover a ranking value up to 15 at bound 8
            verdict, _, _ = naive_run(p, instantiate(cert, assignment), 400)
            assert verdict == ("fuel" if diverges else "halted"), (p, cert, assignment)
    return True


def test_accepted_random_certificates_are_sound():
    """Every accepted claim must hold on every small input it covers."""
    rng = random.Random(20261018)
    accepted = 0
    for _ in range(20000):
        p = random_program(rng, 5, 3)
        fields = dict(
            param_constraints=ConstraintSet.of(*_random_atoms(rng, (None, "m", "n"))),
            init=(SymValue("m", rng.randint(0, 1)), SymValue("n"), SymValue(offset=rng.randint(0, 2))),
            loop_head=rng.randint(1, len(p)),
            invariant=_random_atoms(rng, (None, "r1", "r2", "r3")),
            step_bound=rng.randint(1, 8),
        )
        if rng.random() < 0.5:
            cert = DivergenceCert(**fields)
        else:
            split = (rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2))
            cert = TerminationCert(**fields, split=split, ranking=(rng.randint(1, 3), rng.randint(1, 3)))
        accepted += _accepted_claim_holds(p, cert, {"m": range(7), "n": range(7)})
    assert accepted > 100


def _with_init(cert, i, value):
    """`cert.init` with register i's initial value replaced."""
    init = list(cert.init)
    init[i - 1] = value
    return tuple(init)


def test_accepted_mutations_of_the_minus_certificates_are_sound(u_minus, samples_dir):
    """Random certificates for random programs are almost never accepted
    termination claims, so mutate the subtraction samples too: one field
    of the certificate, and half the time one instruction of the program."""
    rng = random.Random(20261019)
    samples = [_load(samples_dir, "minus-div.cert"), _load(samples_dir, "minus-term.cert")]
    mutations = {
        "param_constraints": lambda cert: ConstraintSet.of(*_random_atoms(rng, (None, "m", "n", "z"))),
        "init": lambda cert: _with_init(cert, rng.randint(1, 3), SymValue(offset=rng.randint(0, 2))),
        "loop_head": lambda cert: rng.randint(1, 5),
        "invariant": lambda cert: _random_atoms(rng, (None, "r1", "r2", "r3")),
        "step_bound": lambda cert: rng.randint(1, 8),
        "split": lambda cert: (rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 2)),
        "ranking": lambda cert: (rng.randint(1, 3), rng.randint(1, 3)),
    }
    params = {"m": range(6), "n": range(6), "z": range(2)}
    accepted = {DivergenceCert: 0, TerminationCert: 0}
    for _ in range(800):
        instructions = list(u_minus.instructions)
        if rng.random() < 0.5:
            instructions[rng.randrange(5)] = random_program(rng, 5, 3).instructions[0]
        cert = rng.choice(samples)
        field = rng.choice([f for f in mutations if hasattr(cert, f)])
        cert = dataclasses.replace(cert, **{field: mutations[field](cert)})
        accepted[type(cert)] += _accepted_claim_holds(Program(tuple(instructions)), cert, params)
    assert min(accepted.values()) > 40
