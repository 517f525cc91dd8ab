"""Acceptance suite: one test per criterion, exact (no numeric tolerance).

Run with `pytest tests/test_acceptance.py -v -s` to see one status line per
criterion.
"""

import itertools
import json
import pathlib
import random
import time
from fractions import Fraction

from qheis.cartan import load_type, positive_roots
from qheis.cli import run
from qheis.heisenberg import (
    HeisenbergAlgebra,
    StructureConvention,
    inverse_structure_matrix,
    oscillator_table,
    single_heisenberg_table,
    structure_constant,
    structure_matrix,
    verify_canonical_relations,
)
from qheis.qscalar import specialize_q1
from qheis.linalg import identity, mat_mul
from qheis.loopweights import GradedDims, weight_multiplicity
from qheis.termalg import a_gen, d_gen, h_gen, hp_gen, normal_order, render_element, x_gen
from qheis.verma import PhiSignature, Truncation, build_module
from qheis.weyliso import WeylIsomorphism, verify_weyl_iso, weyl_relation_table

TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 3), ("C", 2), ("G", 2)]
CONVENTIONS = (StructureConvention.QJ_BRACKET, StructureConvention.PLAIN_Q)


def _criterion(num, desc, ok):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_canonical_relations_suite():
    start = time.monotonic()
    ok = True
    for series, rank in TYPES:
        cd = load_type(series, rank)
        for conv in CONVENTIONS:
            checks = verify_canonical_relations(HeisenbergAlgebra(cd, conv), 6)
            ok = ok and all(c.passed for c in checks)
    elapsed = time.monotonic() - start
    _criterion(1, f"decoupled relations, 6 types x 2 conventions, k,l <= 6, "
                  f"formal gamma ({elapsed:.1f}s)", ok and elapsed < 60)


def test_criterion_2_q1_limit_of_structure_constants():
    ok = True
    for series, rank in TYPES:
        cd = load_type(series, rank)
        alg = HeisenbergAlgebra(cd, StructureConvention.QJ_BRACKET)
        for i in range(1, rank + 1):
            for j in range(1, rank + 1):
                target = Fraction(cd.bilinear(i, j), cd.d[i] * cd.d[j])
                for k in range(1, 7):
                    ok = ok and specialize_q1(structure_constant(alg, i, j, k)) == target
    _criterion(2, "q -> 1 limit of structure constants equals the normalized "
                  "bilinear form, all pairs, k <= 6", ok)


def _random_decoupled_element(rng, nodes, table):
    gens = [h_gen(i, k) for i in range(1, nodes + 1) for k in (1, 2, 3)]
    gens += [hp_gen(i, -k) for i in range(1, nodes + 1) for k in (1, 2, 3)]
    while True:
        word = [rng.choice(gens) for _ in range(rng.randint(0, 4))]
        if abs(sum(g.degree for g in word)) <= 6:
            return normal_order(word, table)


def test_criterion_3_weyl_isomorphism_suite():
    ok = True
    for series, rank in [("A", 2), ("B", 3)]:
        cd = load_type(series, rank)
        for level in (-2, -1, 1, 2, 3):
            checks = verify_weyl_iso(cd, level, 6)
            ok = ok and all(c.passed for c in checks)
    rng = random.Random(1123)
    for level in (-2, -1, 1, 2, 3):
        table = oscillator_table(level)
        iso = WeylIsomorphism(level)
        for _ in range(40):
            x = _random_decoupled_element(rng, 2, table)
            ok = ok and iso.inverse_image(iso.image(x)) == x
    _criterion(3, "Weyl realization verified for levels {-2,-1,1,2,3}, k,l <= 6, "
                  "A_2 and B_3; 200 exact round-trips", ok)


def test_criterion_4_confluence_byte_for_byte():
    rng = random.Random(40404)
    alphabets = [
        ([a_gen(k) for k in (-4, -3, -2, -1, 1, 2, 3, 4)], single_heisenberg_table()),
        ([a_gen(k) for k in (-3, -2, -1, 1, 2, 3)], single_heisenberg_table(2)),
        ([x_gen(i, k) for i in (1, 2) for k in (1, 2)]
         + [d_gen(i, k) for i in (1, 2) for k in (1, 2)], weyl_relation_table()),
    ]
    ok = True
    for n in range(1000):
        gens, table = alphabets[n % len(alphabets)]
        word = [rng.choice(gens) for _ in range(rng.randint(0, 8))]
        left = render_element(normal_order(word, table, strategy="leftmost"))
        right = render_element(normal_order(word, table, strategy="rightmost"))
        ok = ok and left == right
    _criterion(4, "1000 random words (length <= 8), two reduction strategies, "
                  "byte-identical normal forms", ok)


def _brute_force_partitions(n, max_part, max_mult):
    def rec(remaining, part):
        if remaining == 0:
            return 1
        if part > max_part:
            return 0
        total = 0
        for mult in range(0, max_mult + 1):
            if mult * part > remaining:
                break
            total += rec(remaining - mult * part, part + 1)
        return total

    return rec(n, 1)


def test_criterion_5_partition_graded_dimensions():
    module = build_module(PhiSignature.parse("+"), 1, Truncation(10, 10))
    known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    ok = True
    for n, expected in enumerate(known):
        got = module.graded_dim(-n)
        brute = _brute_force_partitions(n, 10, 10)
        ok = ok and got.truncated_dim == expected == brute
        ok = ok and got.verdict.render() == f"FINITE({expected})"
    _criterion(5, "graded dimensions at degrees 0..-9 equal the partition numbers "
                  "and the brute-force enumerator", ok)


def test_criterion_6_infinite_dimension_witness():
    phi = PhiSignature.parse("+-:+")
    dims = [build_module(phi, 1, Truncation(6, e)).truncated_dim(0)
            for e in range(1, 7)]
    strictly = all(a < b for a, b in zip(dims, dims[1:]))
    verdict = build_module(phi, 1, Truncation(6, 6)).graded_dim(0).verdict.kind
    _criterion(6, f"mixed signature degree-0 dims strictly increase with the "
                  f"exponent bound ({dims}) and the verdict is INFINITE",
               strictly and verdict == "INFINITE")


def test_criterion_7_irreducibility_dichotomy():
    phi = PhiSignature.parse("+")
    ok = True
    for level in (-3, -2, -1, 1, 2, 3):
        rep = build_module(phi, level, Truncation(6, 6)).irreducible_at_truncation()
        ok = ok and rep.verdict == "IRREDUCIBLE-CONSISTENT"
        ok = ok and all(not d.is_zero for n, d in rep.gram_dets if n != 0)
    rep0 = build_module(phi, 0, Truncation(6, 6)).irreducible_at_truncation()
    dets0 = dict(rep0.gram_dets)
    ok = ok and rep0.verdict == "REDUCIBLE" and rep0.witness_degree in (1, -1)
    ok = ok and dets0[-1].is_zero
    _criterion(7, "Gram determinants nonzero for |n| <= 6 at nonzero levels; "
                  "degree +-1 determinant vanishes at level 0", ok)


def _brute_force_multisets(cartan, beta, k, vdims, window):
    items = sorted((r.coeffs, m) for r in positive_roots(cartan)
                   for m in range(-window, window + 1))
    total = 0

    def rec(idx, remaining, shift):
        nonlocal total
        if all(c == 0 for c in remaining):
            total += vdims.dim(k - shift)[0]
            return
        if idx == len(items):
            return
        alpha, m = items[idx]
        for mult in itertools.count():
            rest = tuple(rc - mult * ac for rc, ac in zip(remaining, alpha))
            if any(c < 0 for c in rest):
                break
            rec(idx + 1, rest, shift + mult * m)

    rec(0, tuple(beta), 0)
    return total


def test_criterion_8_multiplicity_oracle_agreement():
    ok = True
    vdims_cases = [
        GradedDims.line(0),
        GradedDims.constant_line(-4, 4),
        GradedDims({m: max(0, 3 - abs(m)) for m in range(-3, 4)}, frozenset()),
    ]
    for series, rank in [("A", 1), ("A", 2)]:
        cd = load_type(series, rank)
        betas = [b for b in itertools.product(range(4), repeat=rank) if sum(b) <= 3]
        for vdims in vdims_cases:
            for beta in betas:
                for k in range(-3, 4):
                    for window in (1, 2, 3):
                        rep = weight_multiplicity(cd, beta, k, vdims, window)
                        brute = _brute_force_multisets(cd, beta, k, vdims, window)
                        ok = ok and rep.truncated_count == brute
                        if beta == tuple([0] * rank):
                            ok = ok and rep.truncated_count == vdims.dim(k)[0]
    _criterion(8, "window multiplicities equal brute-force multiset enumeration "
                  "(A_1, A_2, heights <= 3, |k| <= 3, window <= 3); zero finite "
                  "part reproduces the inducing dimensions", ok)


def test_criterion_9_structure_matrix_inverse_identity():
    ok = True
    types = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 3), ("B", 4),
             ("C", 2), ("C", 3), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]
    for series, rank in types:
        cd = load_type(series, rank)
        for conv in CONVENTIONS:
            alg = HeisenbergAlgebra(cd, conv)
            for k in [k for k in range(-6, 7) if k]:
                a = structure_matrix(alg, k)
                b = inverse_structure_matrix(alg, k)  # must never raise
                ok = ok and mat_mul(a, b) == identity(rank)
    _criterion(9, "structure matrix times its inverse is the identity, rank <= 4, "
                  "0 < |k| <= 6, both conventions", ok)


CLI_CASES = {
    "cartan_c2.json": ["cartan", "--type", "C", "--rank", "2", "--roots"],
    "qnum_at_q1.json": ["qnum", "--n", "3", "--d", "2", "--at-q1"],
    "heis_verify_a1.json": ["heis-verify", "--type", "A", "--rank", "1", "--max-k", "2"],
    "weyl_verify_a1.json": ["weyl-verify", "--type", "A", "--rank", "1", "--level", "2",
                            "--max-k", "2"],
    "verma_dims_plus.json": ["verma-dims", "--phi", "+", "--level", "1", "--max-index", "4",
                             "--max-exp", "4", "--from-degree", "-4", "--to-degree", "1"],
    "verma_irred_level0.json": ["verma-irred", "--phi", "+", "--level", "0",
                                "--max-index", "3", "--max-exp", "2"],
    "loop_mult_sweep.json": ["loop-mult", "--type", "A", "--rank", "1", "--beta", "1",
                             "--k-sweep=-1:1", "--window", "2", "--phi", "+", "--level", "1"],
}


def test_criterion_10_cli_determinism_and_exit_codes(capsys):
    golden = pathlib.Path(__file__).parent / "golden"
    ok = True
    for name, argv in CLI_CASES.items():
        ok = ok and run(argv) == 0
        first = capsys.readouterr().out
        ok = ok and run(argv) == 0
        ok = ok and capsys.readouterr().out == first == (golden / name).read_text()
        if name.endswith(".json"):
            json.loads(first)
    ok = ok and run(["heis-verify", "--type", "A", "--rank", "1", "--nope"]) == 2
    capsys.readouterr()
    ok = ok and run(["verma-irred", "--phi", "+", "--level", "0", "--max-index", "4"]) == 0
    capsys.readouterr()
    _criterion(10, "golden-file determinism and the exit-code contract on "
                   "every subcommand", ok)
