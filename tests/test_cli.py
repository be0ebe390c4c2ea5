"""Command-line behavior: output lines and exit codes."""

from __future__ import annotations

import io
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys

import pytest

from urm import Jump, Program, Succ, Transfer, Zero, print_program
from urm.cli import main
from oracles import apply_instr, naive_run, random_program

ROOT = pathlib.Path(__file__).resolve().parent.parent

# More digits than CPython converts to int by default (4300)
LONG = "9" * 5000
# As many as it converts; one more step gives a value it will not print
NINES = "9" * 4300


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_reports_shape(capsys, samples_dir):
    code, out, _ = _run(capsys, "validate", str(samples_dir / "minus.urm"))
    assert code == 0
    assert out == "n=5 rho=3 standard-form=yes\n"


def test_validate_flags_nonstandard_form(capsys, tmp_path):
    bad = tmp_path / "bad.urm"
    bad.write_text("J 1 1 9\n")
    code, out, _ = _run(capsys, "validate", str(bad))
    assert code == 1
    assert out == "n=1 rho=1 standard-form=no\n"


def test_validate_checks_compatibility(capsys, samples_dir, tmp_path):
    cfg = tmp_path / "c1.cfg"
    cfg.write_text("0\n")
    code, out, _ = _run(capsys, "validate", str(samples_dir / "b.urm"), "--config", str(cfg))
    assert code == 1
    assert out == "n=2 rho=2 standard-form=yes compatible=no\n"
    cfg.write_text("0,1\n")
    code, out, _ = _run(capsys, "validate", str(samples_dir / "b.urm"), "--config", str(cfg))
    assert code == 0
    assert out == "n=2 rho=2 standard-form=yes compatible=yes\n"


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = _run(capsys, "validate", str(tmp_path / "nope.urm"))
    assert code == 1
    assert out == ""
    assert "nope.urm" in err


def test_line_ends_and_bytes_that_are_not_utf8(capsys, tmp_path):
    """CR, LF and CRLF all end a line, as in text-mode reading; a byte
    that is not UTF-8 exits 1 at its line and column."""
    prog = tmp_path / "p.urm"
    prog.write_bytes(b"S 1\r\nS 2\rS 3\nJ 1 1 0")
    code, out, _ = _run(capsys, "validate", str(prog))
    assert (code, out) == (0, "n=4 rho=3 standard-form=yes\n")
    prog.write_bytes(b"S 1\r\n# \xc3\xa9\rS 2 \xff\n")
    code, out, err = _run(capsys, "run", str(prog))
    assert (code, out, err) == (1, "", f"{prog}: line 3, column 5: not UTF-8 text\n")


def test_validate_parse_error_position(capsys, tmp_path):
    bad = tmp_path / "bad.urm"
    bad.write_text("Z 0\n")
    code, _, err = _run(capsys, "validate", str(bad))
    assert code == 1
    assert "line 1" in err and "column 3" in err
    bad.write_text(f"Z {LONG}\n")
    code, _, err = _run(capsys, "run", str(bad))
    assert code == 1
    assert "line 1" in err and "column 3" in err


def test_run_halts_with_restricted_registers(capsys, samples_dir):
    code, out, _ = _run(capsys, "run", str(samples_dir / "minus.urm"), "--init", "5,3,0")
    assert code == 0
    assert out == "halted: 2,5,2\nsteps: 10\n"


def test_run_defaults_to_the_zero_configuration(capsys, samples_dir):
    code, out, _ = _run(capsys, "run", str(samples_dir / "minus.urm"))
    assert code == 0
    assert out == "halted: 0,0,0\nsteps: 2\n"


def test_run_exhausts_fuel(capsys, samples_dir):
    code, out, _ = _run(capsys, "run", str(samples_dir / "minus.urm"), "--init", "2,5,0", "--fuel", "1000")
    assert code == 2
    assert out == "fuel exhausted after 1000 steps\n"


def test_run_streams_steps(capsys, samples_dir):
    code, out, _ = _run(capsys, "run", str(samples_dir / "b.urm"), "--init", "0,1", "--show-steps")
    assert code == 0
    assert out == "1 0,1\n2 0,1\nhalted: 0,1\nsteps: 2\n"


def test_run_takes_fuel_beyond_sys_maxsize(capsys, samples_dir):
    fuel = str(10**23)
    for extra, steps in (((), ""), (("--show-steps",), "1 0,1\n2 0,1\n")):
        code, out, _ = _run(capsys, "run", str(samples_dir / "b.urm"), "--init", "0,1", "--fuel", fuel, *extra)
        assert (code, out) == (0, f"{steps}halted: 0,1\nsteps: 2\n"), extra


def test_values_past_the_int_to_str_limit_print_in_full(capsys, tmp_path):
    """CPython's `str` refuses an int of over 4300 digits; `run` and
    `cert` print such values digit for digit."""
    big = "1" + "0" * 4300
    prog, cert = tmp_path / "p.urm", tmp_path / "c.cert"
    prog.write_text("S 1\n")
    for extra, steps in (((), ""), (("--show-steps",), f"1 {NINES}\n")):
        code, out, _ = _run(capsys, "run", str(prog), "--init", NINES, *extra)
        assert (code, out) == (0, f"{steps}halted: {big}\nsteps: 1\n"), extra
    prog.write_text("J 1 1 1\n")
    # `>` normalizes to `>=` one above the stated bound
    cert.write_text(f"kind: diverges\ninit: 0\nhead: 1\ninvariant: r1 > {NINES}\nbound: 1\n")
    code, out, _ = _run(capsys, "cert", str(prog), str(cert))
    assert (code, out) == (3, f"Rejected: InvariantNotEstablished atom=r1 >= {big}\n")


def _expected_show_steps(p, init, fuel):
    """Exit code and `--show-steps` text, stepped by the oracle."""
    regs = {i: v for i, v in enumerate(init, start=1) if v}

    def registers():
        return ",".join(str(regs.get(i, 0)) for i in range(1, p.rho + 1))

    lines = []
    pc = 1
    for steps in range(1, fuel + 1):
        lines.append(f"{pc} {registers()}")
        pc = apply_instr(p.instructions[pc - 1], pc, regs)
        if not 1 <= pc <= len(p):
            return 0, "\n".join([*lines, f"halted: {registers()}", f"steps: {steps}", ""])
    return 2, "\n".join([*lines, f"fuel exhausted after {fuel} steps", ""])


def test_run_show_steps_agrees_with_the_naive_interpreter(capsys, tmp_path, prog_v):
    """Fuel 0 and around the halting step count k, and runs that never halt."""
    rng = random.Random(20261020)
    path = tmp_path / "p.urm"
    cases = [(prog_v, (0, 0, 0), (0, 1, 2, 60))]
    for _ in range(150):
        p = random_program(rng, 5, 3)
        init = tuple(rng.randint(0, 3) for _ in range(3))
        verdict, _, k = naive_run(p, dict(enumerate(init, start=1)), 200)
        cases.append((p, init, (0, k - 1, k, k + 1) if verdict == "halted" else (0, 1, 60)))
    # after `T i i` or a `Z` of a zero register a new but equal `Config`
    # follows; after a jump, back-to-back ones included, the same one
    for p in (Program((Transfer(1, 1), Zero(3), Jump(1, 2, 5), Jump(3, 3, 1), Succ(2), Jump(1, 1, 1))),
              Program((Jump(1, 1, 2), Jump(2, 3, 3), Zero(1), Transfer(2, 2), Jump(1, 3, 0), Succ(3)))):
        for init in ((0, 0, 0), (2, 0, 0), (1, 1, 0), (0, 4, 4)):
            verdict, _, k = naive_run(p, dict(enumerate(init, start=1)), 200)
            cases.append((p, init, (0, k - 1, k, k + 1) if verdict == "halted" else (0, 1, 7, 60)))
    for p, init, fuels in cases:
        path.write_text(print_program(p))
        for fuel in fuels:
            argv = ["run", str(path), "--init", ",".join(map(str, init)), "--fuel", str(fuel), "--show-steps"]
            if rng.random() < 0.5:
                argv.append("--finite")
            assert _run(capsys, *argv)[:2] == _expected_show_steps(p, init, fuel), (p, init, fuel)


def test_readme_command_line_examples(capsys, monkeypatch):
    """Every `$ urm ...` line of README's command-line block prints what
    the README shows below it."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(ROOT)
    examples = [chunk.strip("\n").split("\n", 1) for chunk in block.split("$ ")[1:]]
    assert len(examples) == 7
    for command, shown in examples:
        argv = shlex.split(command)
        assert argv[0] == "urm"
        assert _run(capsys, *argv[1:])[1] == shown + "\n", command


def test_closed_stdout_exits_1_without_a_traceback(samples_dir):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    argv = ["run", str(samples_dir / "loop.urm"), "--fuel", "1000000", "--show-steps"]
    child = subprocess.Popen(
        [sys.executable, "-c", "import sys; from urm.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert child.stdout.readline() == b"1 0\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert b"Traceback" not in err, err.decode()


def test_closed_stdout_without_a_descriptor_returns_1(monkeypatch, samples_dir):
    """An in-process caller's stdout that has no file descriptor and whose
    reader has gone: `main` returns 1 and raises nothing."""

    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError

    monkeypatch.setattr(sys, "stdout", Closed())
    assert main(["run", str(samples_dir / "minus.urm"), "--init", "5,3,0"]) == 1


def test_run_finite_matches_the_infinite_view(capsys, samples_dir):
    code, plain, _ = _run(capsys, "run", str(samples_dir / "minus.urm"), "--init", "5,3,0")
    assert code == 0
    code, finite, _ = _run(capsys, "run", str(samples_dir / "minus.urm"), "--init", "5,3,0", "--finite")
    assert code == 0
    assert finite == plain


def test_run_finite_needs_enough_registers(capsys, samples_dir):
    code, out, err = _run(capsys, "run", str(samples_dir / "minus.urm"), "--init", "5,3", "--finite")
    assert code == 1
    assert out == ""
    assert "at least 3 registers" in err


def test_run_rejects_bad_init(capsys, samples_dir):
    code, _, err = _run(capsys, "run", str(samples_dir / "minus.urm"), "--init", "x,y")
    assert code == 1
    assert "--init" in err
    code, _, err = _run(capsys, "run", str(samples_dir / "minus.urm"), "--init", f"1,{LONG}")
    assert code == 1
    assert "--init" in err and "column 3" in err


def test_run_rejects_negative_fuel(capsys, samples_dir):
    code, _, err = _run(capsys, "run", str(samples_dir / "minus.urm"), "--fuel", "-5")
    assert code == 1
    assert "fuel" in err


def test_run_caps_the_register_indices_it_prints(capsys, tmp_path):
    """`run` prints r1..r_rho, so it refuses rho above 10^6 at the first
    such operand; the other subcommands take any rho."""
    prog = tmp_path / "p.urm"
    prog.write_text("Z 1000000\n")
    code, out, _ = _run(capsys, "run", str(prog))
    assert code == 0
    assert out == "halted: " + ",".join(["0"] * 10**6) + "\nsteps: 1\n"
    huge = "1" + "0" * 4000
    cases = [("Z 1000001\n", "line 1, column 3"), (f"Z {huge}\n", "line 1, column 3")]
    cases.append((f"# wide\nS 2\nJ 1 {huge} 1\n", "line 3, column 5"))
    for text, where in cases:
        prog.write_text(text)
        for extra, refusal in (((), "run takes register indices up to 1000000"),
                               (("--show-steps",), "--show-steps takes register indices up to 1000")):
            code, out, err = _run(capsys, "run", str(prog), *extra)
            assert (code, out) == (1, "")
            assert err == f"{prog}: {where}: {refusal}\n"
    code, out, _ = _run(capsys, "validate", str(prog))
    assert (code, out) == (0, f"n=2 rho={huge} standard-form=yes\n")
    prog.write_text(f"J 1 {huge} 1\n")
    code, out, _ = _run(capsys, "abstract", str(prog))
    assert (code, out) == (0, "diverges: cycle at pc 1, length 1\n")


def test_show_steps_caps_the_register_indices_it_prints(capsys, tmp_path):
    """Every `--show-steps` line shows r1..r_rho, so it refuses rho above
    1000 at the first such operand, before printing anything."""
    prog = tmp_path / "p.urm"
    for text, where in (("Z 1000000\nJ 1 1 2\n", "line 1, column 3"), ("S 2\n# wide\nJ 2 1001 1\n", "line 3, column 5")):
        prog.write_text(text)
        code, out, err = _run(capsys, "run", str(prog), "--fuel", "5", "--show-steps")
        assert (code, out) == (1, "")
        assert err == f"{prog}: {where}: --show-steps takes register indices up to 1000\n"
        code, out, _ = _run(capsys, "run", str(prog), "--fuel", "5")
        assert code in (0, 2) and out.startswith(("halted: ", "fuel exhausted"))
    prog.write_text("Z 1000\n")
    code, out, _ = _run(capsys, "run", str(prog), "--show-steps")
    zeros = ",".join(["0"] * 1000)
    assert (code, out) == (0, f"1 {zeros}\nhalted: {zeros}\nsteps: 1\n")


def test_run_rejects_nonstandard_programs(capsys, samples_dir, tmp_path):
    """run, abstract and cert refuse the program at its first jump target
    past its end; validate reports it."""
    bad = tmp_path / "bad.urm"
    bad.write_text("J 1 1 9\n")
    code, _, err = _run(capsys, "run", str(bad))
    assert code == 1
    assert "standard form" in err
    bad.write_text("S 1\n# J 1 1 9\nJ 1 1 2\n  J 2 1   5\nJ 1 1 9\n")
    want = f"{bad}: line 4, column 11: program is not in standard form\n"
    for argv in (["run", str(bad)], ["abstract", str(bad)], ["cert", str(bad), str(samples_dir / "loop.cert")]):
        assert _run(capsys, *argv) == (1, "", want), argv
    assert _run(capsys, "validate", str(bad)) == (1, "n=4 rho=2 standard-form=no\n", "")


def test_abstract_verdicts(capsys, samples_dir):
    code, out, _ = _run(capsys, "abstract", str(samples_dir / "b.urm"), "--init", "0,0")
    assert code == 0
    assert out == "diverges: cycle at pc 2, length 1\n"
    code, out, _ = _run(capsys, "abstract", str(samples_dir / "b.urm"), "--init", "0,1")
    assert code == 0
    assert out == "converges in 2 steps\n"


def test_abstract_defaults_to_zeros(capsys, samples_dir):
    code, out, _ = _run(capsys, "abstract", str(samples_dir / "loop.urm"))
    assert code == 0
    assert out == "diverges: cycle at pc 1, length 1\n"


def test_abstract_rejects_full_programs(capsys, samples_dir):
    code, out, err = _run(capsys, "abstract", str(samples_dir / "minus.urm"), "--init", "1,1,1")
    assert code == 1
    assert out == ""
    assert "not an abstract program" in err


def test_cert_accepts_with_a_trail(capsys, samples_dir):
    code, out, _ = _run(capsys, "cert", str(samples_dir / "minus.urm"), str(samples_dir / "minus-div.cert"))
    assert code == 0
    assert out == "Accepted\ntrail: 1(jf·r) 2(s·r) 3(s·r) 4(jt·r)\n"


def test_cert_accepts_termination(capsys, samples_dir):
    code, out, _ = _run(capsys, "cert", str(samples_dir / "minus.urm"), str(samples_dir / "minus-term.cert"))
    assert code == 0
    assert out == "Accepted\ntrail: 1(jf·r) 2(s·r) 3(s·r) 4(jt·r) 1(jt·r) 5(t·l)\n"


def test_cert_decides_a_jump_on_the_sign_of_an_offset_difference(capsys, samples_dir):
    # J 1 2 3 compares m+1 with n under n = m+1; a checker that reads the
    # offset difference the wrong way round takes the jump to fail
    code, out, _ = _run(capsys, "cert", str(samples_dir / "offset.urm"), str(samples_dir / "offset-div.cert"))
    assert (code, out) == (0, "Accepted\ntrail: 3(jt·r)\n")


def test_cert_rejections_exit_3(capsys, samples_dir):
    code, out, _ = _run(
        capsys, "cert", str(samples_dir / "minus.urm"), str(samples_dir / "rejected/minus-div-weak.cert")
    )
    assert code == 3
    assert out == "Rejected: UndecidedBranch pc=1\n"
    code, out, _ = _run(capsys, "cert", str(samples_dir / "b.urm"), str(samples_dir / "rejected/b-div.cert"))
    assert code == 3
    assert out == "Rejected: HaltedDuringLoop pc=2\n"
    code, out, _ = _run(
        capsys, "cert", str(samples_dir / "minus.urm"), str(samples_dir / "rejected/minus-term-revrank.cert")
    )
    assert code == 3
    assert out == "Rejected: RankingNotNonnegative\n"


@pytest.mark.parametrize(
    "program, params",
    [
        ("J 1 2 5\nT 3 1\nT 4 2\nJ 1 1 1\nZ 5\n", "m n p q"),
        ("J 1 2 6\nT 1 3\nT 2 1\nT 3 2\nJ 1 1 1\nZ 4\n", "m n"),
    ],
    ids=["four-variables", "swap"],
)
def test_cert_rejects_a_ranking_that_is_no_single_difference(capsys, tmp_path, program, params):
    """After one iteration the ranking r1 - r2 reads r3 - r4 (four
    variables), or r2 - r1 after a swap (coefficients 2 and -2); neither
    is a difference bound, so the decrease cannot be shown."""
    prog, cert = tmp_path / "p.urm", tmp_path / "t.cert"
    prog.write_text(program)
    cert.write_text(
        f"kind: terminates\nparams: {params}\ninit: {params.replace(' ', ', ')}\n"
        "head: 1\nsplit: r1 - r2 > 0\nranking: r1 - r2\nbound: 8\n"
    )
    code, out, _ = _run(capsys, "cert", str(prog), str(cert))
    assert (code, out) == (3, "Rejected: RankingNotDecreasing\n")


def test_cert_reports_offending_atoms(capsys, samples_dir, tmp_path):
    cert = tmp_path / "bad-inv.cert"
    cert.write_text(
        "kind: diverges\nparams: m n z\nconstraint: m < n\ninit: m, n, z\n"
        "head: 1\ninvariant: r1 > r2\nbound: 8\n"
    )
    code, out, _ = _run(capsys, "cert", str(samples_dir / "minus.urm"), str(cert))
    assert code == 3
    assert out == "Rejected: InvariantNotEstablished atom=r1 - r2 >= 1\n"


def test_cert_rejects_unsatisfiable_constraints(capsys, tmp_path):
    prog = tmp_path / "p.urm"
    prog.write_text("J 1 2 1\nS 3\n")
    cert = tmp_path / "empty.cert"
    for constraints in ("m < n\nconstraint: n < m", "m = n\nconstraint: m != n"):
        cert.write_text(
            f"kind: diverges\nparams: m n\nconstraint: {constraints}\ninit: m, n\n"
            "head: 1\ninvariant: r1 = r2\nbound: 2\n"
        )
        code, out, _ = _run(capsys, "cert", str(prog), str(cert))
        assert (code, out) == (3, "Rejected: ConstraintsUnsatisfiable\n"), constraints
    # no input meets the constraints, and this one halts
    code, out, _ = _run(capsys, "run", str(prog), "--init", "0,1")
    assert (code, out) == (0, "halted: 0,1,1\nsteps: 2\n")


def test_cert_parse_errors_exit_1(capsys, samples_dir, tmp_path):
    cert = tmp_path / "broken.cert"
    cert.write_text("kind: diverges\nbound: 4\n")
    code, _, err = _run(capsys, "cert", str(samples_dir / "minus.urm"), str(cert))
    assert code == 1
    assert "missing 'head'" in err
    cert.write_text(f"kind: diverges\nhead: 1\nbound: {LONG}\n")
    code, _, err = _run(capsys, "cert", str(samples_dir / "minus.urm"), str(cert))
    assert code == 1
    assert "line 3" in err and "too long" in err
    for key, rest in (("invariant", " < r2"), ("split", " - r2 > 0"), ("params", "")):
        cert.write_text(f"kind: diverges\nhead: 1\nbound: 4\n{key}: r{LONG}{rest}\n")
        code, _, err = _run(capsys, "cert", str(samples_dir / "minus.urm"), str(cert))
        where = f"line 4, column {len(key) + 3}"
        assert (code, err) == (1, f"{cert}: {where}: number too long (5000 digits)\n"), key


def test_cert_register_names_take_ascii_digits_only(capsys, samples_dir, tmp_path):
    cert = tmp_path / "term.cert"
    text = (samples_dir / "minus-term.cert").read_text()
    # an Arabic-Indic one was read as r1; a superscript two as a too-long number
    for name in ("r\u0661", "r\u00b2"):
        cert.write_text(text.replace("split: r1", f"split: {name}"))
        code, _, err = _run(capsys, "cert", str(samples_dir / "minus.urm"), str(cert))
        want = f"{cert}: line 7, column 8: expected a register like r1, got '{name}'\n"
        assert (code, err) == (1, want), name


def test_cert_head_outside_program_exits_1(capsys, samples_dir, tmp_path):
    cert = tmp_path / "far.cert"
    cert.write_text("kind: diverges\n# head: 1\nhead:  9\nbound: 4\n")
    code, _, err = _run(capsys, "cert", str(samples_dir / "minus.urm"), str(cert))
    assert (code, err) == (1, f"{cert}: line 3, column 8: loop head 9 outside 1..5\n")


def test_usage_errors_exit_1(capsys, samples_dir):
    code, _, err = _run(capsys, "bogus")
    assert code == 1
    assert "invalid choice" in err
    code, _, err = _run(capsys, "run")
    assert code == 1
    assert "error" in err
    code, _, err = _run(capsys, "run", str(samples_dir / "minus.urm"), "--fuel", "lots")
    assert code == 1
    assert "invalid" in err


# What the fuzz below puts in place of a token: over-long numerals and ones
# just short of the int conversion limit, register
# indices above run's cap, signs, NUL, CR, non-ASCII digits and letters,
# bytes that are not UTF-8, and bits of the formats' own syntax.
_FUZZ_TOKENS = (
    LONG.encode(), NINES.encode(), b"1" + b"0" * 4000, b"1000001", b"r" + LONG.encode(), b"m+" + LONG.encode(),
    b"0", b"1", b"7", b"-1", b"r0", b"m+", b"\x00", b"\r", "\u00e9".encode(), "\u0661".encode(), b"\xff",
    b"#", b",", b":", b"<", b"!=", b"J", b"Z", b"kind:", b"head:", b"", b"\n",
)
_FUZZ_BYTES = b"\x00\r\n #,:+-<=>!0123456789rJZSTmn\xc3\xa9\xff"
# Exit-1 messages that point at no position in a file.
_UNPOSITIONED = re.compile(
    r"needs at least \d+ registers|not an abstract program|error: argument"
)


def _mutate(rng, data):
    """One to three seeded token or byte mutations of `data`."""
    for _ in range(rng.randint(1, 3)):
        tokens = list(re.finditer(rb"\S+", data))
        if tokens and rng.random() < 0.5:
            token = rng.choice(tokens)
            data = data[: token.start()] + rng.choice(_FUZZ_TOKENS) + data[token.end() :]
            continue
        at = rng.randint(0, len(data))
        byte = bytes([rng.choice(_FUZZ_BYTES) if rng.random() < 0.8 else rng.randrange(256)])
        data = data[:at] + rng.choice((byte, byte, b"")) + data[at + rng.randint(0, 1) :]
    return data


def test_mutated_inputs_end_in_a_documented_exit_code(capsys, tmp_path, samples_dir):
    """Every subcommand on mutated samples exits 0-3 without an exception,
    and an exit-1 message names a line and column unless it is about no
    position in a file."""
    rng = random.Random(20261022)
    programs = {path.stem: path.read_bytes() for path in samples_dir.rglob("*.urm")}
    certs = [(path.stem.split("-")[0], path.read_bytes()) for path in sorted(samples_dir.rglob("*.cert"))]
    inits = [b"5,3,0", b"0,1", b"2,5,0", b"1,1,1"]
    prog, cert, config = tmp_path / "p.urm", tmp_path / "c.cert", tmp_path / "c.cfg"
    for _ in range(700):
        command = rng.choice(("validate", "run", "abstract", "cert"))
        # a certificate with its own program; one of the two is mutated
        name, cert_text = rng.choice(certs)
        if command != "cert":
            name = rng.choice(sorted(programs))
        mutate_program = rng.random() < (0.3 if command == "cert" else 0.7)
        prog.write_bytes(_mutate(rng, programs[name]) if mutate_program else programs[name])
        init = rng.choice(inits)
        init = (_mutate(rng, init) if rng.random() < 0.3 else init).decode("utf-8", "replace")
        if command == "validate":
            config.write_text(init, encoding="utf-8")
            argv = ["validate", str(prog), "--config", str(config)][: rng.choice((2, 4))]
        elif command == "run":
            argv = ["run", str(prog), "--fuel", "50", "--init", init]
            argv += [flag for flag in ("--finite", "--show-steps") if rng.random() < 0.3]
        elif command == "abstract":
            argv = ["abstract", str(prog), "--init", init]
        else:
            cert.write_bytes(cert_text if mutate_program else _mutate(rng, cert_text))
            argv = ["cert", str(prog), str(cert)]
        try:
            code, out, err = _run(capsys, *argv)
        except Exception as exc:  # name the input that crashed main
            pytest.fail(f"{argv}: {exc!r} on {prog.read_bytes()[:200]!r}")
        assert code in {0, 1, 2, 3}, argv
        assert code != 2 or command == "run", argv
        assert code != 3 or command == "cert", argv
        if code == 1:
            rejected = command == "validate" and not err and "=no" in out
            assert rejected or re.search(r"line \d+, column \d+", err) or _UNPOSITIONED.search(err), (argv, err)


def _fresh(code, *argv):
    """`code` run with `argv` by a fresh interpreter at the repository root."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, cwd=ROOT, env=env, timeout=60)


def test_in_process_calls_match_fresh_processes(capsys, monkeypatch, samples_dir):
    """`main` builds its parser once per process; calls made one after
    another in one process, a usage error among them, print the same bytes
    and exit with the same codes as each call in a fresh process."""
    from urm.cli import _build_parser

    monkeypatch.setenv("COLUMNS", "80")
    minus = str(samples_dir / "minus.urm")
    calls = [
        ["run", minus, "--init", "5,3,0"],
        ["run", minus, "--fuel", "lots"],
        ["run", minus, "--init", "5,3,0", "--show-steps"],
        ["bogus"],
        ["validate", minus],
        ["run"],
        ["cert", minus, str(samples_dir / "minus-term.cert")],
        ["abstract", str(samples_dir / "b.urm"), "--init", "0,0"],
        ["run", minus, "--init", "5,3,0"],
    ]
    in_process = [_run(capsys, *argv) for argv in calls]
    assert _build_parser() is _build_parser()
    for argv, (code, out, err) in zip(calls, in_process):
        child = _fresh("import sys; from urm.cli import main; sys.exit(main())", *argv)
        assert (code, out.encode(), err.encode()) == (child.returncode, child.stdout, child.stderr), argv
    assert [code for code, _, _ in in_process] == [0, 1, 0, 1, 0, 1, 0, 0, 0]
    assert in_process[0] == in_process[-1]


_LOADED = """
import sys
CHECKER = ("dataclasses", "urm.certificates", "urm.constraints")
def loaded():
    return [name for name in CHECKER if name in sys.modules]
"""


def test_only_the_certificate_path_loads_the_checker():
    """A fresh `urm` imports neither `dataclasses` nor the checker's modules
    to run, decide or validate a program; `cert`, or reading one of the
    checker's names from the package, loads them, and they work."""
    child = _fresh(_LOADED + """
import contextlib, io, urm
from urm.cli import main
assert loaded() == [], loaded()
assert main(["run", "samples/minus.urm", "--init", "5,3,0"]) == 0
assert main(["abstract", "samples/b.urm", "--init", "0,0"]) == 0
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["validate", "samples/minus.urm"]) == 0
    assert main(["run", "samples/minus.urm", "--init", "5,3,0", "--finite", "--show-steps"]) == 0
assert {"check_divergence", "SymValue", "certificates"} <= set(dir(urm))
print(loaded())
assert main(["cert", "samples/minus.urm", "samples/minus-div.cert"]) == 0
print(loaded())
""")
    assert child.returncode == 0, child.stderr.decode()
    assert child.stdout.decode().splitlines() == [
        "halted: 2,5,2", "steps: 10", "diverges: cycle at pc 2, length 1", "[]",
        "Accepted", "trail: 1(jf·r) 2(s·r) 3(s·r) 4(jt·r)",
        "['dataclasses', 'urm.certificates', 'urm.constraints']",
    ]
    child = _fresh(_LOADED + """
import urm
p = urm.parse_program(open("samples/minus.urm").read())
assert loaded() == [], loaded()
check = urm.check_divergence
assert loaded() == list(CHECKER), loaded()
assert check is urm.certificates.check_divergence is urm.check_divergence
report = check(p, urm.parse_cert(open("samples/minus-div.cert").read()))
assert report.accepted, report
assert urm.entails(urm.ConstraintSet.of(urm.Atom("m", "n", "<", 0)), urm.Atom("n", "m", ">", 0))
try:
    urm.no_such_name
except AttributeError as err:
    print(err)
""")
    assert child.returncode == 0, child.stderr.decode()
    assert child.stdout.decode() == "module 'urm' has no attribute 'no_such_name'\n"


def test_reading_a_checker_module_from_the_package_loads_it_alone():
    """In a fresh `urm`, `urm.constraints` is the module itself, and reading
    it leaves `urm.certificates` unloaded."""
    child = _fresh(_LOADED + """
import urm
assert urm.constraints is sys.modules["urm.constraints"]
print(loaded())
""")
    assert child.returncode == 0, child.stderr.decode()
    assert child.stdout.decode() == "['dataclasses', 'urm.constraints']\n"
