import json
import pathlib

import pytest

from qheis.cli import run

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


def test_verification_failure_exits_one(capsys, monkeypatch):
    import qheis.cli as cli
    from qheis.heisenberg import RelationCheck
    from qheis.termalg import AlgebraElement

    bad = RelationCheck("pairing[i=1,j=1,k=1,l=1]", AlgebraElement.one(),
                        AlgebraElement.zero(), AlgebraElement.one())
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
])
def test_invalid_vdims_is_a_usage_error(vdims, needle, capsys):
    assert run(["loop-mult", "--type", "A", "--rank", "1", "--beta", "1",
                "--vdims", vdims]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and needle in captured.err


def test_vdims_accepts_inf_and_zero(capsys):
    assert run(["loop-mult", "--type", "A", "--rank", "1", "--beta", "0",
                "--vdims", '{"0": "inf", "1": 0}', "--format", "table"]) == 0
    assert capsys.readouterr().out == "k,count,verdict\n0,0,INFINITE\n"


def test_negative_window_is_a_usage_error(capsys):
    argv = ["loop-mult", "--type", "A", "--rank", "1", "--beta", "0", "--window"]
    assert run(argv + ["-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "window" in captured.err
    assert run(argv + ["0", "--format", "table"]) == 0
    assert capsys.readouterr().out == "k,count,verdict\n0,1,FINITE(1)\n"
