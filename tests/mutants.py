"""Replayable mutants: deliberate faults in src/qheis and the tests that catch them.

    python tests/mutants.py

Every entry is (file under src/qheis, exact old text, new text, test node ids).
The named tests of every entry must first pass on an unmutated copy of src/.
Then, for each entry, src/ is copied to a temporary directory, the old text,
which must occur exactly once, is replaced by the new text, and the entry's
tests run against that copy in one `pytest -x -q` process; the mutant is
killed when that run does not pass (a test fails, or the test module no
longer imports).  The script names every mutant that survives or whose old
text no longer matches, and then exits 1.
pytest does not collect this file.  A change that rewrites guarded code
re-anchors its entries here and adds its own.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2

QSCALAR = "tests/test_qscalar.py::"
VERMA = "tests/test_verma.py::"
LOOP = "tests/test_loopweights.py::"
CARTAN = "tests/test_cartan.py::"
HEIS = "tests/test_heisenberg.py::"
WEYL = "tests/test_weyliso.py::"
LINALG = "tests/test_linalg.py::"

MUTANTS = [
    # Gram determinants read off the degree counts: E_i off by one in e, and
    # index k's complement series keeping index k; the witness nearest degree
    # 0 taken positive first
    ("verma.py", "total = sum(e * m for e, m in enumerate(with_e))",
     "total = sum((e + 1) * m for e, m in enumerate(with_e))",
     [VERMA + "test_gram_dets_from_the_counts_equal_the_enumerated_blocks"]),
    ("verma.py", "degs[:k] + degs[k + 1:]", "degs[:k] + degs[k:]",
     [VERMA + "test_gram_dets_from_the_counts_equal_the_enumerated_blocks"]),
    ("verma.py", "abs(n), n)", "abs(n), -n)",
     [VERMA + "test_the_witness_is_the_first_zero_block_in_the_scan_order"]),
    # one digit byte short in the one-pack and in the chained Kronecker product
    ("qscalar.py", "out = _kronecker(ints, nbytes)", "out = _kronecker(ints, nbytes - 1)",
     [QSCALAR + "test_power_product_of_monomials_at_the_width_bound",
      QSCALAR + "test_power_product_on_both_sides_of_the_width_limit"]),
    ("qscalar.py", "q = _kronecker(pair, _digit_bytes(pair))",
     "q = _kronecker(pair, _digit_bytes(pair) - 1)",
     [QSCALAR + "test_power_product_of_monomials_at_the_width_bound",
      QSCALAR + "test_power_product_on_both_sides_of_the_width_limit"]),
    # one geometric factor in place: the numerator shift and the backward pass
    ("verma.py", "L, s = len(coeffs), (E + 1) * deg", "L, s = len(coeffs), E * deg",
     [VERMA + "test_multiplying_in_a_factor_equals_the_convolution"]),
    ("verma.py", "for j in range(deg, L):", "for j in range(deg + 1, L):",
     [VERMA + "test_multiplying_in_a_factor_equals_the_convolution"]),
    # the integer schoolbook product: one denominator only, and zero
    # coefficients stored
    ("qscalar.py", "    den = da * db\n", "    den = da\n",
     [QSCALAR + "test_integer_product_equals_the_fraction_schoolbook"]),
    ("qscalar.py", "return {e: Fraction(c, den) for e, c in out.items() if c}",
     "return {e: Fraction(c, den) for e, c in out.items()}",
     [QSCALAR + "test_integer_product_equals_the_fraction_schoolbook"]),
    # the digit width one byte short of its bound
    ("qscalar.py", "return (bound.bit_length() + 8) // 8", "return (bound.bit_length() + 7) // 8",
     [QSCALAR + "test_kronecker_product_at_the_digit_bound"]),
    # power_product: a zero count or a float exponent let through, and the gcd
    # skipped for two pairs with k > 0
    ("qscalar.py", "if not isinstance(count, int) or not count:", "if not isinstance(count, int):",
     [QSCALAR + "test_power_product_of_laurent_factors_and_its_validation"]),
    ("qscalar.py", "if any(not isinstance(k, int) or k < 0 for _, k in pairs):",
     "if any(k < 0 for _, k in pairs):",
     [QSCALAR + "test_power_product_of_laurent_factors_and_its_validation"]),
    ("qscalar.py", "if len(live) > 1 and num:", "if len(live) > 2 and num:",
     [QSCALAR + "test_power_product_of_laurent_factors_and_its_validation"]),
    # a sum over a shared denominator: the cancel skipped, and a zero sum sent
    # into the cancel step
    ("qscalar.py", "return Scalar._reduced(*_coprime(num, d1))", "return Scalar._reduced(num, d1)",
     [QSCALAR + "test_a_sum_over_a_shared_denominator_equals_the_general_sum"]),
    ("qscalar.py", "            if not num:\n                return ZERO\n", "",
     [QSCALAR + "test_a_sum_over_a_shared_denominator_equals_the_general_sum"]),
    # a sum over unequal denominators: Henrici's cancel step skipped
    ("qscalar.py", "        num, g = _coprime(num, g)\n", "",
     [QSCALAR + "test_a_sum_over_unequal_denominators_equals_the_unreduced_quotient"]),
    # the pairing through act: a vector that does not reach the highest
    # vector pairs to its product all the same
    ("verma.py", "return ZERO if any(vec) else out", "return out",
     [VERMA + "test_vacuum_pairing_factored_equals_full_reduction"]),
    # the one cancel step divides the numerator by the gcd too
    ("qscalar.py", "flat, den = _pdiv_exact(flat, g), _pdiv_exact(den, g)",
     "den = _pdiv_exact(den, g)",
     [QSCALAR + "test_field_operation_examples"]),
    # graded counts: one degree short, the mixed branch over its first node
    # only, and the shared cache gone
    ("verma.py", "for i in range(1, truncation.max_index + 1))",
     "for i in range(1, truncation.max_index))",
     [VERMA + "test_degree_counts_equal_the_benchmark_oracle"]),
    ("loopweights.py", "degs = tuple(phi.lowering_degree(i) for phi in phis\n",
     "degs = tuple(phi.lowering_degree(i) for phi in phis[:1]\n",
     [LOOP + "test_mixed_series_is_the_product_of_the_node_counts"]),
    ("verma.py", "@lru_cache(maxsize=None)\ndef _factor_product", "def _factor_product",
     [VERMA + "test_one_signature_spelled_two_ways_shares_one_count_table"]),
    # the one partition table: Miller's factor (1 - rank) with the sign
    # flipped, the pentagonal signs flipped and every second pentagonal number
    # dropped; and the constant-sign window read one short
    ("verma.py", "(1 - rank) * k - t", "(1 + rank) * k - t",
     [VERMA + "test_power_recurrence_table_equals_the_divisor_sum_table",
      LOOP + "test_constant_series_table_equals_the_product_cut_at_each_window"]),
    ("verma.py", "p = -1 if j % 2 else 1", "p = 1 if j % 2 else -1",
     [VERMA + "test_power_recurrence_table_equals_the_divisor_sum_table",
      VERMA + "test_pentagonal_partition_table_equals_the_part_by_part_table"]),
    ("verma.py", "euler += [(k, p), (k + j, p)]", "euler += [(k, p)]",
     [VERMA + "test_power_recurrence_table_equals_the_divisor_sum_table",
      LOOP + "test_constant_series_table_equals_the_product_cut_at_each_window"]),
    ("loopweights.py", "for t in range(max(near, 0), far + 1)}", "for t in range(max(near, 0), far)}",
     [LOOP + "test_constant_series_table_equals_the_product_cut_at_each_window"]),
    # the same table by the divisor-sum recurrence: equal values at O(n^2),
    # which only the scaling pin sees
    ("verma.py", "    for t in range(len(a), far + 1):\n"
     "        a.append(sum(((1 - rank) * k - t) * p * a[t - k] for k, p in euler if k <= t) // t)\n",
     "    sigma = [0] * (far + 1)\n"
     "    for d in range(1, far + 1):\n"
     "        sigma[d::d] = [s + d for s in sigma[d::d]]\n"
     "    for t in range(len(a), far + 1):\n"
     "        a.append(rank * sum(sigma[k] * a[t - k] for k in range(1, t + 1)) // t)\n",
     ["tests/test_scaling.py::test_a_fresh_partition_table_grows_at_most_as_n_to_the_1_75"]),
    # the one phi-verdict override: a nonzero finite part left to the window
    ("loopweights.py", "if any(report.beta):", "if False:",
     [LOOP + "test_phi_verma_nonzero_beta_infinite"]),
    # root systems: one closure per type, and the highest root
    ("cartan.py", "@cache\ndef _positive_roots", "def _positive_roots",
     [CARTAN + "test_one_root_closure_per_finite_type"]),
    ("cartan.py", "return tuple(pos)\n", "return tuple(pos[:-1])\n",
     [CARTAN + "test_positive_root_counts"]),
    # the affine node in closed form
    ("cartan.py", "fd[j] * col0[j] // d[0]", "fd[j] * col0[j] // 1",
     [CARTAN + "test_every_supported_type_of_rank_at_most_8_is_pinned"]),
    # integer cancellation: dn and dd swapped, the content dropped from the
    # scale, the leftover and the step remainder ignored
    ("qscalar.py", "Fraction(q * dd, scale)", "Fraction(q * dn, dd * content)",
     [QSCALAR + "test_integer_division_equals_the_fraction_oracle"]),
    ("qscalar.py", "scale = dn * content", "scale = dn",
     [QSCALAR + "test_integer_division_equals_the_fraction_oracle"]),
    ("qscalar.py", "    if rem:\n        raise", "    if False:\n        raise",
     [QSCALAR + "test_a_non_multiple_raises_in_both_routes"]),
    ("qscalar.py", "            if r:\n                raise", "            if False:\n                raise",
     [QSCALAR + "test_inexact_polynomial_division_is_an_explicit_error"]),
    # the primitive gcd: the pseudo-remainder exponent, its content, the sign
    # of the gcd and the constant shortcut
    ("qscalar.py", "(max(a) - max(b) + 1)", "(max(a) - max(b))",
     [QSCALAR + "test_pseudo_remainder_equals_the_step_by_step_oracle"]),
    ("qscalar.py", "return {e: c // content for e, c in r.items()}", "return r",
     [QSCALAR + "test_pseudo_remainder_equals_the_step_by_step_oracle"]),
    ("qscalar.py", "    if A[max(A)] < 0:\n        return _pneg(A)\n", "",
     [QSCALAR + "test_gcd_is_primitive_and_divides_both_operands"]),
    ("qscalar.py", "    if max(a) == 0 or max(b) == 0:\n        return {0: 1}\n", "",
     [QSCALAR + "test_a_constant_operand_skips_the_remainder_sequence"]),
    # an index out of range is a ValueError, which cli.run reports in one line
    ("cartan.py", "class IndexOutOfRange(ValueError, IndexError):", "class IndexOutOfRange(IndexError):",
     [CARTAN + "test_bilinear_out_of_range",
      HEIS + "test_structure_constant_rejects_nodes_out_of_range"]),
    # the one Dynkin table: E's node 2 hung on node 3, and B's multiple bond
    # written as C's
    ("cartan.py", "(2, 4)", "(2, 3)",
     [CARTAN + "test_cartan_data_has_the_invariants_of_its_type"]),
    ("cartan.py", '"B": (n >= 3, None, (n, n - 1, -2)),', '"B": (n >= 3, None, (n - 1, n, -2)),',
     [CARTAN + "test_affine_matrices_against_tables"]),
    # one bracket branch per presentation: the structure constant read in the
    # order given; the decoupled presentation admitting any loop generator, and
    # the engine admitting every generator at the entry of a reduction
    ("heisenberg.py", "pos, neg = (a, b) if a.degree > 0 else (b, a)", "pos, neg = a, b",
     [HEIS + "test_loop_table_antisymmetric_including_mixed_lengths"]),
    ("heisenberg.py", "lambda g: g.flavor == (FLAVOR_H if g.degree > 0 else FLAVOR_HP)",
     "lambda g: g.flavor in (FLAVOR_H, FLAVOR_HP)",
     [HEIS + "test_oscillator_table_rejects_a_generator_on_the_wrong_side"]),
    ("termalg.py", "        if not table.admits(gen):\n            raise", "        if False:\n            raise",
     ["tests/test_termalg.py::test_every_entry_point_checks_its_generators"]),
    # one residue rule: the sum of the side residues, where opposite errors
    # cancel, and the first side read alone
    ("heisenberg.py", "residue = next((r for r in residues if not r.is_zero), residues[0])",
     "residue = sum(residues[1:], residues[0])",
     [WEYL + "test_errors_on_the_two_sides_of_a_pairing_do_not_cancel"]),
    ("heisenberg.py", "residues = [side - expected for side in computed]",
     "residues = [computed[0] - expected]",
     [WEYL + "test_verify_weyl_iso_checks_the_shipped_map"]),
    # a convention string becomes its member; the one driver expects the
    # pairing's bracket on the diagonal only, in both verifiers
    ("heisenberg.py", "        convention = StructureConvention(convention)\n", "",
     [HEIS + "test_a_convention_string_is_its_member_in_either_call_order",
      HEIS + "test_an_unknown_convention_is_rejected",
      WEYL + "test_a_convention_string_verifies_as_its_member"]),
    ("heisenberg.py", "bracket[k] if (i, k) == (j, l) else zero", "bracket[k] if i == j else zero",
     [HEIS + "test_verify_canonical_relations_a2", WEYL + "test_verify_weyl_iso_small"]),
    # the one nonzero-level check, and the one formal-gamma check of the
    # pairing scalar
    ("heisenberg.py", '    if level == 0:\n        raise ZeroLevel("level must be nonzero when specialized")\n',
     "", [HEIS + "test_level_zero_rejected"]),
    ("verma.py", "        if self.level is None:\n            raise UnspecializedGamma(",
     "        if False:\n            raise UnspecializedGamma(",
     [VERMA + "test_unspecialized_gamma_is_rejected"]),
    # the loop presentation's node range, and the degree-zero brackets
    ("heisenberg.py", "if not (1 <= i <= n and 1 <= j <= n):", "if not (1 <= i <= n or 1 <= j <= n):",
     [HEIS + "test_structure_constant_rejects_nodes_out_of_range"]),
    ("heisenberg.py", '    if k == 0:\n        raise ZeroK("degree k must be nonzero")\n    if level is None:',
     "    if level is None:",
     [HEIS + "test_brackets_at_degree_zero_raise_zero_k"]),
    # pivoting: the identity's rows left unswapped, and the swap's sign dropped
    ("linalg.py", "            inv[col], inv[pivot] = inv[pivot], inv[col]\n", "",
     [LINALG + "test_inverse_and_determinant_with_a_row_swap"]),
    ("linalg.py", "            out = -out\n", "",
     [LINALG + "test_inverse_and_determinant_with_a_row_swap"]),
    # the checks of the value constructors: a degree-0 loop generator, each
    # truncation bound one short, and an empty period let through
    ("termalg.py", "            if degree == 0:\n                raise",
     "            if False:\n                raise",
     ["tests/test_termalg.py::test_genid_validation"]),
    ("verma.py", "if max_index < 1 or", "if max_index < 0 or",
     [VERMA + "test_truncation_validation"]),
    ("verma.py", "or max_exponent < 1:", "or max_exponent < 0:",
     [VERMA + "test_truncation_validation"]),
    ("verma.py", "        if not period:\n            raise", "        if False:\n            raise",
     [VERMA + "test_phi_signature_parse_render_eval"]),
    # _make, which _replace calls, skipping those checks
    ("weyliso.py", "    _make = classmethod(lambda cls, it: cls(*it))\n", "",
     ["tests/test_public_api.py::test_make_and_replace_run_the_constructor_checks"]),
    # the one lowering-degree rule with its sign flipped, and the Weyl image's
    # scale [k*level]_q read as [k+level]_q
    ("verma.py", "return -self(i) * i", "return self(i) * i",
     [VERMA + "test_phi_signature_parse_render_eval"]),
    ("weyliso.py", "return qint(gen.degree * self.level)", "return qint(gen.degree + self.level)",
     [WEYL + "test_image_generator_assignments"]),
    # the Weyl map's formal-level check, and its one gamma check, in both
    # directions
    ("weyliso.py", "        if level is None:\n            raise UnspecializedGamma(",
     "        if False:\n            raise UnspecializedGamma(",
     [WEYL + "test_a_formal_level_is_rejected_before_any_commutator"]),
    ("weyliso.py", "    if any(g for (_, g), _ in x.items()):\n"
     '        raise UnspecializedGamma("gamma is still formal; specialize it first")\n', "",
     [WEYL + "test_inverse_image_rejects_gamma_as_image_does"]),
    # --flag=-- keeps "--" as its value
    ("cli.py", 'if action.option_strings and arg_strings == ["--"]:', "if False:",
     ["tests/test_cli.py::test_double_dash_is_a_signature_within_its_token"]),
]


def _copy_src(tmp):
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src, tests, cwd):
    # the copy is the code imported: PYTHONPATH names it and the ini setting
    # pythonpath = ["src"] is switched off; the run writes only under cwd
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "-o", "pythonpath=", *(str(ROOT / t) for t in tests)]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True)


def _replay(entry):
    path, old, new, tests = entry
    with tempfile.TemporaryDirectory() as tmp:
        src = _copy_src(tmp)
        target = src / "qheis" / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"old text matches {text.count(old)} times"
        target.write_text(text.replace(old, new))
        # the unmutated run has checked every node id, so any exit but 0
        # comes from the edit
        return None if _pytest(src, tests, tmp).returncode else "survived"


def main():
    tests = sorted({t for *_, named in MUTANTS for t in named})
    with tempfile.TemporaryDirectory() as tmp:
        run = _pytest(_copy_src(tmp), tests, tmp)
        if run.returncode:
            print(run.stdout[-3000:])
            print("the unmutated copy fails the named tests")
            return 1
    with ThreadPoolExecutor(WORKERS) as pool:
        verdicts = list(pool.map(_replay, MUTANTS))
    bad = 0
    for (path, old, new, _), verdict in zip(MUTANTS, verdicts):
        if verdict:
            bad += 1
            print(f"{verdict}: {path}: {old.strip()!r} -> {new.strip()!r}")
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
