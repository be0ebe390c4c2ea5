"""Command-line behavior: output lines and exit codes."""

from __future__ import annotations

import os
import pathlib
import random
import shlex
import subprocess
import sys

import pytest

from urm import print_program
from urm.cli import main
from oracles import apply_instr, naive_run, random_program

ROOT = pathlib.Path(__file__).resolve().parent.parent

# More digits than CPython converts to int by default (4300)
LONG = "9" * 5000


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


def _expected_show_steps(p, init, fuel):
    """Exit code and `--show-steps` text, stepped by the oracle."""
    regs = {i: v for i, v in enumerate(init, start=1) if v}

    def registers():
        return ",".join(str(regs.get(i, 0)) for i in range(1, p.rho + 1))

    lines = []
    pc = 1
    for steps in range(1, fuel + 1):
        lines.append(f"{pc} {registers()}")
        pc = apply_instr(p.at(pc), pc, regs)
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


def test_run_rejects_nonstandard_programs(capsys, tmp_path):
    bad = tmp_path / "bad.urm"
    bad.write_text("J 1 1 9\n")
    code, _, err = _run(capsys, "run", str(bad))
    assert code == 1
    assert "standard form" in err


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


def test_cert_reports_offending_atoms(capsys, samples_dir, tmp_path):
    cert = tmp_path / "bad-inv.cert"
    cert.write_text(
        "kind: diverges\nparams: m n z\nconstraint: m < n\ninit: m, n, z\n"
        "head: 1\ninvariant: r1 > r2\nbound: 8\n"
    )
    code, out, _ = _run(capsys, "cert", str(samples_dir / "minus.urm"), str(cert))
    assert code == 3
    assert out == "Rejected: InvariantNotEstablished atom=r1 - r2 >= 1\n"


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


def test_cert_head_outside_program_exits_1(capsys, samples_dir, tmp_path):
    cert = tmp_path / "far.cert"
    cert.write_text("kind: diverges\nhead: 9\nbound: 4\n")
    code, _, err = _run(capsys, "cert", str(samples_dir / "minus.urm"), str(cert))
    assert code == 1
    assert "head" in err.lower()


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
