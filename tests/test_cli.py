import ast
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import load_benchmark_oracle

import qheis.cartan as cartan
import qheis.cli as cli
from qheis.cli import run
from qheis.linalg import invert
from qheis.qscalar import ONE, ZERO, _pdiv_exact, s_power, specialize_q1

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    "cartan_c2.json": ["cartan", "--type", "C", "--rank", "2", "--roots"],
    "qnum_scalar.json": ["qnum", "--n", "3", "--d", "2"],
    "qnum_at_q1.json": ["qnum", "--n", "3", "--d", "2", "--at-q1"],
    "heis_verify_a1.json": ["heis-verify", "--type", "A", "--rank", "1", "--max-k", "2"],
    "heis_verify_g2_table.txt": ["heis-verify", "--type", "G", "--rank", "2", "--max-k", "1",
                                 "--convention", "drinfeld", "--format", "table"],
    "weyl_verify_a1.json": ["weyl-verify", "--type", "A", "--rank", "1", "--level", "2",
                            "--max-k", "2"],
    "weyl_verify_b3_table.txt": ["weyl-verify", "--type", "B", "--rank", "3", "--level", "-2",
                                 "--max-k", "2", "--convention", "drinfeld",
                                 "--format", "table"],
    "verma_dims_plus.json": ["verma-dims", "--phi", "+", "--level", "1", "--max-index", "4",
                             "--max-exp", "4", "--from-degree", "-4", "--to-degree", "1"],
    "verma_dims_mixed.json": ["verma-dims", "--phi", "+-:+", "--level", "1",
                              "--max-index", "3", "--max-exp", "2"],
    "verma_dims_mixed_table.txt": ["verma-dims", "--phi", "+-:+", "--level", "1",
                                   "--max-index", "3", "--max-exp", "2",
                                   "--from-degree", "-2", "--to-degree", "2",
                                   "--format", "table"],
    "verma_irred_level0.json": ["verma-irred", "--phi", "+", "--level", "0",
                                "--max-index", "3", "--max-exp", "2"],
    "verma_irred_plus_level2.json": ["verma-irred", "--phi", "+", "--level", "2",
                                     "--max-index", "4", "--max-exp", "4"],
    "verma_irred_mixed_table.txt": ["verma-irred", "--phi", "+-:+", "--level", "-2",
                                    "--max-index", "3", "--max-exp", "3",
                                    "--format", "table"],
    "loop_mult_sweep.json": ["loop-mult", "--type", "A", "--rank", "1", "--beta", "1",
                             "--k-sweep=-1:1", "--window", "2", "--phi", "+", "--level", "1"],
    "loop_mult_table.txt": ["loop-mult", "--type", "A", "--rank", "2", "--beta", "1,0",
                            "--k-sweep=0:2", "--window", "2", "--vdims", '{"0": 1}',
                            "--format", "table"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_outputs_and_determinism(name, capsys):
    argv = CASES[name]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second  # byte-identical stdout on identical argv
    assert first == (GOLDEN / name).read_text()


def test_json_outputs_are_valid_json():
    for name, argv in CASES.items():
        if name.endswith(".json"):
            json.loads((GOLDEN / name).read_text())


def test_qnum_spec_example(capsys):
    assert run(["qnum", "--n", "3", "--d", "2", "--at-q1"]) == 0
    assert capsys.readouterr().out == "3\n"


@pytest.mark.parametrize("n", [10**12, -10**12])
def test_qnum_at_q1_of_a_huge_n_is_n_at_once(n, capsys):
    # [n] is n at q = 1: the |n| terms of the q-integer are never built
    start = time.perf_counter()
    assert run(["qnum", "--n", str(n), "--d", "3", "--at-q1"]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == f"{n}\n"
    # a base exponent below 1 stays a usage error
    assert run(["qnum", "--n", str(n), "--d", "0", "--at-q1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "base exponent" in captured.err


def test_usage_error_names_offending_flag(capsys):
    assert run(["heis-verify", "--type", "A", "--rank", "2", "--bogus", "1"]) == 2
    err = capsys.readouterr().err
    assert "--bogus" in err


def test_usage_error_on_unknown_subcommand(capsys):
    assert run(["nonsense"]) == 2


def test_usage_error_on_invalid_type(capsys):
    assert run(["cartan", "--type", "B", "--rank", "2"]) == 2
    assert "B_2" in capsys.readouterr().err


def test_verify_pass_exit_zero(capsys):
    assert run(["heis-verify", "--type", "A", "--rank", "2", "--max-k", "2"]) == 0
    capsys.readouterr()


def test_verma_irred_level_zero_exits_zero(capsys):
    assert run(["verma-irred", "--phi", "+", "--level", "0", "--max-index", "4"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["verdict"] == "REDUCIBLE"
    assert obj["witness_degree"] in (1, -1)


def test_format_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QAFF_FORMAT", "table")
    assert run(["qnum", "--n", "2"]) == 0
    assert capsys.readouterr().out == "s^2 + s^-2 / 1\n"
    # an explicit flag wins over the environment
    assert run(["qnum", "--n", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out == '"s^2 + s^-2 / 1"\n'


@pytest.mark.parametrize("value", ["JSON", "xml", ""])
def test_invalid_format_env_is_a_usage_error(value, capsys, monkeypatch):
    monkeypatch.setenv("QAFF_FORMAT", value)
    assert run(["qnum", "--n", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "QAFF_FORMAT" in captured.err
    # an explicit flag does not consult the environment
    assert run(["qnum", "--n", "2", "--format", "table"]) == 0


@pytest.mark.parametrize("argv", [
    ["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--k-sweep=3:1"],
    ["verma-dims", "--phi", "+", "--level", "1", "--from-degree", "3", "--to-degree", "1"],
    ["verma-dims", "--phi", "+", "--level", "1", "--max-index", "2", "--from-degree", "3"],
])
def test_reversed_range_is_a_usage_error(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "reversed" in captured.err


@pytest.mark.parametrize("split,joined", [
    (["verma-dims", "--phi", "-+", "--level", "1", "--max-index", "3", "--max-exp", "2"],
     ["verma-dims", "--phi=-+", "--level", "1", "--max-index", "3", "--max-exp", "2"]),
    (["verma-irred", "--phi", "-:+", "--level", "1", "--max-index", "3", "--max-exp", "2"],
     ["verma-irred", "--phi=-:+", "--level", "1", "--max-index", "3", "--max-exp", "2"]),
    (["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--phi", "-:+",
      "--k-sweep", "-1:1", "--window", "2", "--max-index", "3", "--max-exp", "2"],
     ["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--phi=-:+",
      "--k-sweep=-1:1", "--window", "2", "--max-index", "3", "--max-exp", "2"]),
])
def test_value_starting_with_a_dash_may_follow_its_flag(split, joined, capsys):
    assert run(joined) == 0
    expected = capsys.readouterr().out
    assert run(split) == 0
    assert capsys.readouterr().out == expected != ""


@pytest.mark.parametrize("abbreviated,full", [
    (["verma-dims", "--ph", "-:+", "--level", "1"], ["verma-dims", "--phi=-:+", "--level", "1"]),
    (["verma-irred", "--p", "-", "--level", "1", "--max-index", "3", "--max-exp", "2"],
     ["verma-irred", "--phi=-", "--level", "1", "--max-index", "3", "--max-exp", "2"]),
    (["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--k-sw", "-1:1",
      "--window", "2", "--ph", "-:+", "--max-index", "3", "--max-exp", "2"],
     ["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--k-sweep=-1:1",
      "--window", "2", "--phi=-:+", "--max-index", "3", "--max-exp", "2"]),
    # an exact option name wins over the longer options it is a prefix of
    (["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--k", "-1"],
     ["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--k=-1"]),
])
def test_abbreviated_flag_takes_a_value_starting_with_a_dash(abbreviated, full, capsys):
    assert run(full) == 0
    expected = capsys.readouterr().out
    assert run(abbreviated) == 0
    assert capsys.readouterr().out == expected != ""


@pytest.mark.parametrize("argv", [
    ["verma-dims", "--phi", "--", "--level", "1"],
    ["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--k-sweep", "--", "0:1"],
])
def test_double_dash_ends_the_options_and_is_no_value(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "expected one argument" in captured.err


def test_ambiguous_abbreviation_is_a_usage_error(capsys):
    assert run(["verma-dims", "--phi", "+", "--level", "1", "--max", "3"]) == 2
    assert "ambiguous" in capsys.readouterr().err


def test_large_mixed_verma_irred_output_is_pinned(capsys):
    # 522,249 bytes of Gram determinants, pinned before the Kronecker product
    # and the one-power-per-index determinant replaced the diagonal product
    assert run(["verma-irred", "--phi=+-:+", "--level", "3", "--max-index", "4",
                "--max-exp", "4"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == 522_249
    assert hashlib.sha256(out).hexdigest() == (
        "de8fbe0b46a170e7245be9b013aa76fa23624881480ddffe6d5154342010d1e2")


def test_verma_irred_sweep_is_pinned(capsys):
    # 60 commands over five signatures, levels -3..3, truncations (3,3), (4,2)
    # and (2,4) and both formats: exit code, length and sha256 of stdout, pinned
    # before the Gram determinants moved to one integer power product
    sweep = json.loads((GOLDEN / "verma_irred_sweep.json").read_text())
    assert len(sweep) == 60
    for case in sweep:
        code = run(case["argv"])
        out = capsys.readouterr().out.encode()
        assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
            case["exit"], case["bytes"], case["sha256"]), case["argv"]


def test_counting_sweep_is_pinned(capsys):
    # 72 verma-dims and loop-mult commands: five signatures, truncations up to
    # 12x12, windows up to +-200 degrees, types of rank 1-4 with constant and
    # mixed signatures, --k and --k-sweep.  Exit code, length and sha256 of
    # stdout, pinned before the counts were built one geometric factor at a time
    sweep = json.loads((GOLDEN / "counting_sweep.json").read_text())
    assert len(sweep) == 72
    for case in sweep:
        code = run(case["argv"])
        out = capsys.readouterr().out.encode()
        assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
            case["exit"], case["bytes"], case["sha256"]), case["argv"]


def test_cli_argv_sweep_is_pinned(capsys):
    # 300 distinct command lines drawn from _argv with a fixed seed, among them
    # abbreviated flags and values starting with '-' given as their own token:
    # exit code, length and sha256 of stdout, pinned before argparse alone
    # took over binding such values
    sweep = json.loads((GOLDEN / "cli_argv_sweep.json").read_text())
    assert len(sweep) == 300
    for case in sweep:
        code = run(case["argv"])
        out = capsys.readouterr().out.encode()
        assert (code, len(out), hashlib.sha256(out).hexdigest()) == (
            case["exit"], case["bytes"], case["sha256"]), case["argv"]


def _arithmetic_failures():
    yield "DivisionByZero", lambda: ONE / ZERO
    yield "PoleAtOne", lambda: specialize_q1(ONE / (s_power(2) - ONE))
    yield "SingularMatrix", lambda: invert([[ZERO]])
    yield "inexact polynomial division", \
        lambda: _pdiv_exact({1: Fraction(1)}, {1: Fraction(1), 0: Fraction(1)})


@pytest.mark.parametrize("needle,failure", list(_arithmetic_failures()),
                         ids=["DivisionByZero", "PoleAtOne", "SingularMatrix", "inexact"])
@pytest.mark.parametrize("argv", [
    ["cartan", "--type", "A", "--rank", "1"],
    ["qnum", "--n", "2"],
    ["heis-verify", "--type", "A", "--rank", "1", "--max-k", "1"],
    ["weyl-verify", "--type", "A", "--rank", "1", "--level", "1", "--max-k", "1"],
    ["verma-dims", "--phi", "+", "--level", "1"],
    ["verma-irred", "--phi", "+", "--level", "1"],
    ["loop-mult", "--type", "A", "--rank", "1", "--beta", "1"],
], ids=lambda argv: argv[0])
def test_arithmetic_failure_exits_three_without_a_traceback(argv, needle, failure,
                                                            capsys, monkeypatch):
    handler = "_cmd_" + argv[0].replace("-", "_")
    monkeypatch.setattr(cli, handler, lambda args: failure())
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: arithmetic failure") and needle in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_stdout_exits_quietly(unbuffered):
    # the read end is closed before the child writes, as "| head -3" does
    # once it has its lines; unbuffered, print fails, else the final flush
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
    child = subprocess.Popen([sys.executable, "-m", "qheis.cli", "qnum", "--n", "3"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 141
    assert err == b""


# dataclasses imports inspect, which imports ast, dis and tokenize; no command
# needs them or typing, and every fresh interpreter would pay for their import
STARTUP_UNUSED = {"dataclasses", "inspect", "typing", "ast", "dis", "tokenize"}


def test_a_command_starts_without_the_introspection_modules():
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    code = ("import sys, qheis.cli\nqheis.cli.build_parser()\n"
            "print(' '.join(sorted(sys.modules)))")
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert child.returncode == 0, child.stderr
    assert STARTUP_UNUSED & set(child.stdout.split()) == set()


def _address_space_of_512_mb():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds memory on Linux only")
@pytest.mark.parametrize("argv", [["cartan", "--type", "A", "--rank", "100000"],
                                  ["qnum", "--n", "100000000000"]], ids=lambda argv: argv[0])
def test_running_out_of_memory_exits_four_without_a_traceback(argv):
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    child = subprocess.run([sys.executable, "-m", "qheis.cli", *argv], capture_output=True,
                           text=True, env=env, timeout=120, preexec_fn=_address_space_of_512_mb)
    assert child.returncode == 4
    assert child.stdout == ""
    assert child.stderr.startswith("error: out of memory") and child.stderr.count("\n") == 1
    assert "Traceback" not in child.stderr


def test_package_has_no_assert_statement():
    # python -O strips assert, so no validation may rest on one
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name} asserts on lines {lines}"


@pytest.mark.parametrize("argv,code", [
    (["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--vdims", "{}"], 2),
    (["heis-verify", "--type", "A", "--rank", "1", "--max-k", "2"], 0),
], ids=["usage-error", "heis-verify"])
def test_python_O_gives_the_same_exit_code_and_stdout(argv, code):
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "qheis.cli", *argv],
                       capture_output=True, env=env, timeout=120)
        for flags in ([], ["-O"]))
    assert plain.returncode == optimized.returncode == code
    assert plain.stdout == optimized.stdout


def test_verification_failure_exits_one(capsys, monkeypatch):
    from qheis.heisenberg import RelationCheck
    from qheis.termalg import AlgebraElement

    one = AlgebraElement.from_scalar(ONE)
    bad = RelationCheck("pairing[i=1,j=1,k=1,l=1]", one, AlgebraElement.zero(), one)
    monkeypatch.setattr(cli, "verify_canonical_relations", lambda alg, mk: [bad])
    assert run(["heis-verify", "--type", "A", "--rank", "1", "--max-k", "1"]) == 1
    out = capsys.readouterr().out
    assert '"pass": false' in out and "residue" in out


def test_beta_length_validated(capsys):
    assert run(["loop-mult", "--type", "A", "--rank", "2", "--beta", "1",
                "--k", "0"]) == 2
    assert "--beta" in capsys.readouterr().err


@pytest.mark.parametrize("vdims,needle", [
    ("[1]", "JSON object"),
    ("{}", "nonempty"),
    ('{"0": [1]}', "degree 0"),
    ('{"0": -5}', "nonnegative"),
    ('{"0": 1.5}', "nonnegative"),
    ('{"0": true}', "nonnegative"),
    ('{"x": 1}', "not an integer"),
    ("{", "Expecting"),
    ("", "nonempty JSON object"),
    ("x", "nonempty JSON object"),
    ("[" * 100_000, "nested too deeply"),
    ('{"1": 1, "01": 5}', "degree 1 is given twice"),
    ('{"0": 1, "0": 7}', "'0' is given twice"),
    # int() takes all three; a degree is plain ASCII decimal
    ('{"1_0": 4}', "degree '1_0' is not an integer"),
    ('{" +10 ": 4}', "degree ' +10 ' is not an integer"),
    ('{"\u0661\u0660": 4}', "is not an integer"),
])
def test_invalid_vdims_is_a_usage_error(vdims, needle, capsys):
    assert run(["loop-mult", "--type", "A", "--rank", "1", "--beta", "1",
                "--vdims", vdims]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and needle in captured.err


@pytest.mark.parametrize("argv,needle", [
    (["loop-mult", "--type", "A", "--rank", "1", "--beta", "1_0"], "'1_0'"),
    (["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--k-sweep=1_0:11"], "'1_0'"),
    (["loop-mult", "--type", "A", "--rank", "1", "--beta", "1,+1"], "'+1'"),
    (["verma-dims", "--phi", "+", "--level", "1_0"], "argument --level"),
    # argparse reads -1:1 as a value, so it reaches integer() and fails there
    (["verma-dims", "--phi", "+", "--level", "-1:1"], "invalid integer value: '-1:1'"),
    (["qnum", "--n", " 3"], "argument --n"),
    (["cartan", "--type", "A", "--rank", "\u0662"], "argument --rank"),
    (["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--k-sweep=1"],
     "--k-sweep must be LO:HI, got '1'"),
    (["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--k-sweep=1:2:3"],
     "--k-sweep must be LO:HI, got '1:2:3'"),
], ids=["beta", "k-sweep", "beta-plus", "level", "level-sweep", "space", "non-ascii",
        "k-sweep-one-bound", "k-sweep-three-bounds"])
def test_integer_that_is_not_plain_decimal_is_a_usage_error(argv, needle, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and needle in captured.err


@pytest.mark.parametrize("k", ["5", "0"])
def test_k_with_k_sweep_is_a_usage_error(k, capsys):
    # "--k 0" equals the default of --k, and is refused all the same
    assert run(["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--k", k,
                "--k-sweep=0:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--k " in captured.err and "--k-sweep" in captured.err


@pytest.mark.parametrize("inducing", [
    ["--phi", "+"],
    ["--phi=+-:+", "--max-index", "3", "--max-exp", "3"],
    ["--vdims", '{"-2": 1, "0": 2, "1": "inf"}'],
], ids=["constant", "mixed", "vdims"])
def test_k_sweep_entries_equal_single_k_runs(inducing, capsys):
    # a sweep shares its k-independent tables between k, and single runs
    # after it read the same cached tables: neither may change them
    base = ["loop-mult", "--type", "A", "--rank", "2", "--beta", "1,1", "--window", "2",
            *inducing]
    assert run(base + ["--k-sweep=-3:3"]) == 0
    sweep = json.loads(capsys.readouterr().out)
    singles = []
    for k in range(-3, 4):
        assert run(base + [f"--k={k}"]) == 0
        singles.append(json.loads(capsys.readouterr().out))
    assert sweep == singles


@pytest.mark.parametrize("phi", ["+", "+-:+"], ids=["constant", "mixed"])
def test_loop_mult_counts_do_not_depend_on_the_level(phi, capsys):
    # the inducing module's graded counts are a function of phi and the truncation
    argv = ["loop-mult", "--type", "A", "--rank", "2", "--beta", "1,1", "--k-sweep=-2:2",
            "--window", "2", f"--phi={phi}", "--max-index", "4", "--max-exp", "3"]
    outputs = set()
    for level in ("-3", "0", "1", "2"):
        assert run(argv + ["--level", level]) == 0
        outputs.add(capsys.readouterr().out)
    assert len(outputs) == 1 and outputs != {""}


def test_negative_and_zero_padded_integers_are_accepted(capsys):
    assert run(["verma-dims", "--phi", "+", "--level", "-1", "--max-index", "2",
                "--max-exp", "2", "--format", "table"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "-2,2,FINITE(2)"
    assert run(["loop-mult", "--type", "A", "--rank", "1", "--beta", "1",
                "--k-sweep", "-3:3", "--format", "table"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1] == "-3,30,INFINITE" and rows[-1] == "3,1,INFINITE"
    assert run(["qnum", "--n", "003", "--d", "02"]) == 0
    assert capsys.readouterr().out == '"s^8 + 1 + s^-8 / 1"\n'


def test_vdims_accepts_inf_and_zero(capsys):
    assert run(["loop-mult", "--type", "A", "--rank", "1", "--beta", "0",
                "--vdims", '{"0": "inf", "1": 0}', "--format", "table"]) == 0
    assert capsys.readouterr().out == "k,count,verdict\n0,0,INFINITE\n"


@pytest.mark.parametrize("inducing", [[], ["--vdims", '{"0": 1}']], ids=["phi", "vdims"])
def test_invalid_phi_is_a_usage_error_with_or_without_vdims(inducing, capsys):
    # --phi is checked even where --vdims gives the inducing dimensions
    assert run(["loop-mult", "--type", "A", "--rank", "1", "--beta", "1", "--phi=x",
                *inducing]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad sign character in 'x'" in captured.err


def test_negative_window_is_a_usage_error(capsys):
    argv = ["loop-mult", "--type", "A", "--rank", "1", "--beta", "0", "--window"]
    assert run(argv + ["-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "window" in captured.err
    assert run(argv + ["0", "--format", "table"]) == 0
    assert capsys.readouterr().out == "k,count,verdict\n0,1,FINITE(1)\n"


_LEVELS = st.integers(-3, 3)
_SIGNS = st.text("+-", max_size=2)
_PHI = (st.text("+-:x", max_size=5)
        | st.tuples(_SIGNS, _SIGNS.filter(bool)).map(":".join) | _SIGNS.filter(bool))
_TYPE_RANK = (st.tuples(st.sampled_from("ABCDEFG"), st.integers(0, 3))
              | st.sampled_from([("A", 1), ("A", 2), ("A", 3), ("B", 3), ("C", 2),
                                 ("C", 3), ("G", 2)]))
_DIM = st.integers(-1, 3) | st.just("inf")
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-2, 3) | st.just("inf")
    | st.text(max_size=2),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.integers(-3, 3).map(str) | st.text(max_size=2), kids, max_size=3),
    max_leaves=6)
_VDIMS = (_JSON | st.dictionaries(st.integers(-3, 3).map(str), _DIM, max_size=3)).map(json.dumps)


@st.composite
def _argv(draw):
    """One command line of any subcommand, from small bounded values.  Each
    value is drawn valid or arbitrary: bounds below 1, reversed ranges, a
    mismatched --beta and malformed text reach the validation on purpose.
    Flags may be abbreviated.  --phi and --k-sweep and their abbreviations
    come as one token or two, since their values may start with '-'."""
    def flag(name, strategy):
        value = draw(strategy)
        spelled = name
        if draw(st.booleans()):  # abbreviated, perhaps ambiguously
            spelled = name[:draw(st.integers(1, len(name)))]
        if name in ("phi", "k-sweep") and draw(st.booleans()):
            return [f"--{spelled}", value]
        return [f"--{spelled}={value}"]

    def maybe(name, strategy):
        return flag(name, strategy) if draw(st.booleans()) else []

    series, rank = draw(_TYPE_RANK)
    type_rank = [f"--type={series}", f"--rank={rank}"]
    truncation = flag("max-index", st.integers(0, 3)) + flag("max-exp", st.integers(0, 3))
    ints = st.integers(-4, 4)
    cmd = draw(st.sampled_from(["cartan", "qnum", "heis-verify", "weyl-verify",
                                "verma-dims", "verma-irred", "loop-mult"]))
    if cmd == "cartan":
        args = type_rank + draw(st.sampled_from([[], ["--roots"]]))
    elif cmd == "qnum":
        args = flag("n", ints) + maybe("d", st.integers(-1, 3)) \
            + draw(st.sampled_from([[], ["--at-q1"]]))
    elif cmd in ("heis-verify", "weyl-verify"):
        args = type_rank + flag("max-k", st.integers(-1, 2)) \
            + maybe("convention", st.sampled_from(["paper", "drinfeld"]))
        args += flag("level", _LEVELS) if cmd == "weyl-verify" else maybe("level", _LEVELS)
    elif cmd == "verma-dims":
        args = flag("phi", _PHI) + flag("level", _LEVELS) + truncation \
            + maybe("from-degree", ints) + maybe("to-degree", ints)
    elif cmd == "verma-irred":
        args = flag("phi", _PHI) + flag("level", _LEVELS) + truncation
    else:
        length = draw(st.integers(0, 3) | st.just(rank))
        beta = st.lists(st.integers(-1, 2), min_size=length, max_size=length)
        sweep = st.tuples(ints, ints).map(lambda r: f"{r[0]}:{r[1]}")
        args = type_rank + flag("beta", beta.map(lambda b: ",".join(map(str, b)))) \
            + flag("window", st.integers(-1, 2)) + truncation + maybe("phi", _PHI) \
            + maybe("level", _LEVELS) + maybe("vdims", _VDIMS) \
            + draw(st.sampled_from([[], flag("k", ints), flag("k-sweep", sweep)]))
    return [cmd] + args + maybe("format", st.sampled_from(["json", "table", "xml"]))


@settings(max_examples=80, deadline=None)
@given(_argv())
def test_run_fuzz_exits_with_a_contract_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert run(argv) in (0, 1, 2)


oracle = load_benchmark_oracle()

_SIGNS = st.text("+-", min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_SIGNS, st.tuples(_SIGNS, _SIGNS).map(":".join)), st.integers(-3, 3),
       st.integers(1, 4), st.integers(1, 4))
def test_verma_irred_agrees_with_the_wick_oracle(phi, level, n_max, e_max):
    # the benchmark's independent check of every exit-0 run: each Gram
    # determinant at s0 = 3/2 against the Wick closed form over a brute-force basis
    argv = ["verma-irred", f"--phi={phi}", "--level", str(level), "--max-index", str(n_max),
            "--max-exp", str(e_max), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run(argv)
    assert rc == 0
    assert oracle.check(argv, rc, out.getvalue(), cartan) is None


def _checked_run(argv):
    """Run argv with --format json; it must exit 0 and pass the benchmark's
    independent check."""
    argv = argv + ["--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = run(argv)
    assert rc == 0, argv
    assert oracle.check(argv, rc, out.getvalue(), cartan) is None, argv


_PHIS = st.one_of(_SIGNS, st.tuples(_SIGNS, _SIGNS).map(":".join))


@settings(max_examples=100, deadline=None)
@given(_PHIS, st.integers(-3, 3), st.integers(1, 6), st.integers(1, 6),
       st.none() | st.tuples(st.integers(-25, 25), st.integers(0, 25)))
def test_verma_dims_agrees_with_the_oracle(phi, level, n_max, e_max, window):
    # every count against a brute-force product of the index factors, the
    # verdicts against the signature, and the partition numbers
    argv = ["verma-dims", f"--phi={phi}", "--level", str(level), "--max-index", str(n_max),
            "--max-exp", str(e_max)]
    if window is not None:
        lo, width = window
        argv += ["--from-degree", str(lo), "--to-degree", str(lo + width)]
    _checked_run(argv)


_SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 3), ("C", 2), ("C", 3), ("G", 2),
                ("A", 4), ("D", 4)]


@st.composite
def _loop_mult_argv(draw):
    series, rank = draw(st.sampled_from(_SMALL_TYPES))
    beta = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank)
                .filter(lambda b: sum(b) <= 3))
    argv = ["loop-mult", "--type", series, "--rank", str(rank),
            "--beta", ",".join(map(str, beta)), "--window", str(draw(st.integers(0, 2))),
            "--max-index", str(draw(st.integers(1, 4))),
            "--max-exp", str(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        dims = draw(st.dictionaries(st.integers(-4, 4).map(str), st.integers(0, 3),
                                    min_size=1, max_size=4))
        argv += ["--vdims", json.dumps(dims)]
    else:
        argv += [f"--phi={draw(_PHIS)}", "--level", str(draw(st.integers(-2, 2)))]
    lo = draw(st.integers(-4, 4))
    if draw(st.booleans()):
        return argv + [f"--k-sweep={lo}:{lo + draw(st.integers(0, 3))}"]
    return argv + ["--k", str(lo)]


@settings(max_examples=100, deadline=None)
@given(_loop_mult_argv())
def test_loop_mult_agrees_with_the_oracle(argv):
    # every count against multisets of (root, shift) pairs enumerated one root
    # multiset at a time, over an inducing module counted by brute force
    _checked_run(argv)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(s, r) for s, ranks in [("A", range(1, 8)), ("B", range(3, 7)),
                                                 ("C", range(2, 7)), ("D", range(4, 7)),
                                                 ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))]
                        for r in ranks]))
def test_cartan_roots_agree_with_the_oracle(type_rank):
    # symmetrizability, the number of positive roots and the reflection closure
    series, rank = type_rank
    _checked_run(["cartan", "--type", series, "--rank", str(rank), "--roots"])


_VERIFY_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 3), ("C", 2), ("C", 3), ("G", 2)]
_NONZERO_LEVELS = st.integers(-3, 3).filter(bool)


def _verify_argv(draw, cmd, level):
    series, rank = draw(st.sampled_from(_VERIFY_TYPES))
    max_k = draw(st.integers(1, 3 if rank == 1 else 2))
    argv = [cmd, "--type", series, "--rank", str(rank), "--max-k", str(max_k),
            "--convention", draw(st.sampled_from(["paper", "drinfeld"]))]
    return argv if level is None else argv + ["--level", str(level)]


@settings(max_examples=40, deadline=None)
@given(st.data(), st.none() | _NONZERO_LEVELS)
def test_heis_verify_agrees_with_the_oracle(data, level):
    # all 3*n^2*K^2 relations pass with residue 0, and one pairing equals
    # C(s0)^-1 at s0 = 3/2, from the Cartan data alone
    _checked_run(_verify_argv(data.draw, "heis-verify", level))


@settings(max_examples=40, deadline=None)
@given(st.data(), _NONZERO_LEVELS)
def test_weyl_verify_agrees_with_the_oracle(data, level):
    # the same check on both sides of each relation in the Weyl realization
    _checked_run(_verify_argv(data.draw, "weyl-verify", level))


@settings(max_examples=60, deadline=None)
@given(st.integers(-8, 8), st.none() | st.integers(1, 4), st.booleans())
def test_qnum_agrees_with_the_oracle(n, d, at_q1):
    # [n] in base q^d at s0 = 3/2 against (q^dn - q^-dn) / (q^d - q^-d), or n at q = 1
    argv = ["qnum", "--n", str(n)] + ([] if d is None else ["--d", str(d)])
    _checked_run(argv + (["--at-q1"] if at_q1 else []))


@pytest.mark.parametrize("cmd", [
    ["verma-dims", "--level", "1", "--max-index", "4", "--max-exp", "3"],
    ["verma-irred", "--level", "2", "--max-index", "3", "--max-exp", "2"],
    ["loop-mult", "--type", "A", "--rank", "2", "--beta", "0,0", "--k-sweep=-2:2"],
])
def test_double_dash_is_a_signature_within_its_token(cmd, capsys):
    # --phi=-- is the constant signature --: what :-- gives, with its period
    # echoed as given, and otherwise what - gives
    outs = {}
    for phi in ["--", ":--", "-"]:
        assert run(cmd + [f"--phi={phi}"]) == 0
        outs[phi] = capsys.readouterr().out
    assert outs["--"] == outs[":--"]
    if cmd[0] == "loop-mult":
        assert outs["--"] == outs["-"]
    else:
        assert outs["--"].replace('"period": "--"', '"period": "-"', 1) == outs["-"]
    assert run(cmd[:1] + ["--p=--"] + cmd[1:]) == 0
    assert capsys.readouterr().out == outs["--"]
