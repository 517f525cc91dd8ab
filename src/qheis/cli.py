"""Command-line front end: every verification and computation, machine-readable.

Exit codes: 0 on success and on verification PASS, 1 on verification FAIL
(residues are printed), 2 on usage errors, 3 when exact arithmetic fails (a
division by zero, a pole at q = 1, a singular matrix or an inexact polynomial
division; no valid input is known to reach it), 4 when memory runs out, and
141 (128 + SIGPIPE) when the reader closes stdout early.  Output goes to stdout
in the requested format (json or table); diagnostics go to stderr.  The
QAFF_FORMAT environment variable overrides the default output format.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .cartan import load_type, positive_roots
from .heisenberg import (
    HeisenbergAlgebra,
    StructureConvention,
    report_to_json,
    verify_canonical_relations,
)
from .loopweights import GradedDims, phi_verma_weight_dim, weight_multiplicity
from .qscalar import qint
from .verma import PhiSignature, Truncation, VermaModule
from .weyliso import verify_weyl_iso


def integer(text):
    """An integer written in plain ASCII decimal: an optional '-', then the
    digits 0-9.  int() alone would also take '_', spaces, '+' and non-ASCII
    digits.  As an argparse type, its name makes the "invalid integer value"
    message."""
    if re.fullmatch("-?[0-9]+", text) is None:
        raise ValueError(f"{text!r} is not a plain decimal integer")
    return int(text)


def _emit(obj, fmt, table_renderer):
    if fmt == "json":
        print(json.dumps(obj, indent=2))
    else:
        for line in table_renderer(obj):
            print(line)


def _cmd_cartan(args):
    cd = load_type(args.type, args.rank)
    obj = cd.to_json()
    if args.roots:
        obj["positive_roots"] = [list(r.coeffs) for r in positive_roots(cd)]

    def table(o):
        yield f"series\t{o['series']}"
        yield f"rank\t{o['rank']}"
        for row in o["gcm"]:
            yield "gcm\t" + "\t".join(str(x) for x in row)
        yield "d\t" + "\t".join(str(x) for x in o["d"])
        for r in o.get("positive_roots", []):
            yield "root\t" + "\t".join(str(x) for x in r)

    _emit(obj, args.format, table)
    return 0


def _cmd_qnum(args):
    if args.at_q1 and args.d >= 1:
        # [n] in base q^d is n at q = 1: its |n| terms are never built
        obj = args.n
    else:
        # qint rejects d < 1, with or without --at-q1
        obj = str(qint(args.n, args.d))
    _emit(obj, args.format, lambda o: [o])
    return 0


def _verify_table(rows):
    for r in rows:
        status = "pass" if r["pass"] else "FAIL"
        yield f"{r['relation-id']}\t{status}\t{r['residue']}"
    bad = sum(1 for r in rows if not r["pass"])
    yield f"summary\t{len(rows) - bad}/{len(rows)} passed"


def _emit_checks(checks, args):
    rows = report_to_json(checks)
    _emit(rows, args.format, _verify_table)
    return 0 if all(r["pass"] for r in rows) else 1


def _cmd_heis_verify(args):
    cd = load_type(args.type, args.rank)
    alg = HeisenbergAlgebra(cd, StructureConvention(args.convention), args.level)
    return _emit_checks(verify_canonical_relations(alg, args.max_k), args)


def _cmd_weyl_verify(args):
    cd = load_type(args.type, args.rank)
    return _emit_checks(verify_weyl_iso(cd, args.level, args.max_k,
                                        StructureConvention(args.convention)), args)


def _module(args):
    return VermaModule(PhiSignature.parse(args.phi), args.level,
                       Truncation(args.max_index, args.max_exp))


def _cmd_verma_dims(args):
    module = _module(args)
    lo = args.from_degree if args.from_degree is not None else -args.max_index
    hi = args.to_degree if args.to_degree is not None else args.max_index
    if lo > hi:
        raise ValueError(f"degree range {lo}..{hi} is reversed")
    obj = {**module.header(),
           "degrees": [module.graded_dim(n).to_json() for n in range(lo, hi + 1)]}

    def table(o):
        yield "n,dim,verdict"
        for row in o["degrees"]:
            yield f"{row['n']},{row['dim']},{row['verdict']}"

    _emit(obj, args.format, table)
    return 0


def _cmd_verma_irred(args):
    obj = _module(args).report()

    def table(o):
        yield f"verdict\t{o['verdict']}"
        if o["witness_degree"] is not None:
            yield f"witness-degree\t{o['witness_degree']}"
        for row in o["gram"]:
            yield f"gram\t{row['n']}\t{'nonzero' if row['nonzero'] else 'ZERO'}\t{row['det']}"

    _emit(obj, args.format, table)
    return 0


def _unique_keys(pairs):
    # json.loads keeps the last of repeated keys; here a repeat is an error
    obj = {}
    for key, val in pairs:
        if key in obj:
            raise ValueError(f"--vdims: key {key!r} is given twice")
        obj[key] = val
    return obj


def _parse_vdims(text):
    shape = '--vdims must be a nonempty JSON object {"degree": dim}'
    try:
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("--vdims is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{shape}: {exc}") from None
    if not isinstance(raw, dict) or not raw:
        raise ValueError(shape)
    counts = {}
    infinite = set()
    for key, val in raw.items():
        try:
            m = integer(key)
        except ValueError:
            raise ValueError(f"--vdims: degree {key!r} is not an integer") from None
        if m in counts:
            raise ValueError(f"--vdims: degree {m} is given twice (as {key!r})")
        if val == "inf":
            infinite.add(m)
            counts[m] = 0
        elif type(val) is int and val >= 0:
            counts[m] = val
        else:
            raise ValueError(f'--vdims: dimension at degree {key} must be a nonnegative '
                             f'integer or "inf", got {val!r}')
    return GradedDims(counts, frozenset(infinite))


def _cmd_loop_mult(args):
    cd = load_type(args.type, args.rank)
    beta = tuple(integer(x) for x in args.beta.split(","))
    if len(beta) != cd.rank:
        raise ValueError(f"--beta needs {cd.rank} comma-separated coefficients")
    if args.k_sweep is not None:
        if args.k is not None:
            raise ValueError("--k and --k-sweep cannot be given together")
        bounds = args.k_sweep.split(":")
        if len(bounds) != 2:
            raise ValueError(f"--k-sweep must be LO:HI, got {args.k_sweep!r}")
        lo, hi = (integer(x) for x in bounds)
        if lo > hi:
            raise ValueError(f"--k-sweep {lo}:{hi} is reversed")
        ks = range(lo, hi + 1)
    else:
        ks = [0 if args.k is None else args.k]
    trunc = Truncation(args.max_index, args.max_exp)
    phi = PhiSignature.parse(args.phi)
    if args.vdims is not None:
        vdims = _parse_vdims(args.vdims)
        reports = [weight_multiplicity(cd, beta, k, vdims, args.window).to_json()
                   for k in ks]
    else:
        reports = [phi_verma_weight_dim(cd, phi, beta, k, args.window, trunc).to_json()
                   for k in ks]
    obj = reports if args.k_sweep is not None else reports[0]

    def table(o):
        rows = o if isinstance(o, list) else [o]
        yield "k,count,verdict"
        for row in rows:
            yield f"{row['mu']['k']},{row['truncated_count']},{row['verdict']}"

    _emit(obj, args.format, table)
    return 0


def _keeping_double_dash(parser):
    """parser._get_values, except that --flag=-- keeps "--" as the value:
    argparse in Python 3.11 strips it as if it ended the options, which leaves
    an empty list in place of the value."""
    get_values = parser._get_values

    def values(action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            value = parser._get_value(action, "--")
            parser._check_value(action, value)
            return value
        return get_values(action, arg_strings)
    return values


@functools.cache
def build_parser():
    """The parser of every subcommand, built once per process: parsing leaves
    no state on it.  Each subcommand's handler is _cmd_<command>, looked up
    when it runs."""
    parser = argparse.ArgumentParser(
        prog="qheis",
        description="Exact desk-scale computations for quantum Heisenberg algebras, "
                    "their Weyl-algebra realization, imaginary Verma-type modules, "
                    "and loop-module weight multiplicities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["json", "table"],
                       help="output format (default json; QAFF_FORMAT overrides)")

    def add_type_rank(p):
        p.add_argument("--type", required=True, choices=list("ABCDEFG"))
        p.add_argument("--rank", required=True, type=integer)

    def add_convention(p):
        p.add_argument("--convention", choices=["paper", "drinfeld"], default="paper",
                       help="structure-constant normalization for non-simply-laced nodes")

    p = sub.add_parser("cartan", help="affine Cartan data and finite positive roots")
    add_type_rank(p)
    p.add_argument("--roots", action="store_true", help="include the finite positive roots")
    add_format(p)

    p = sub.add_parser("qnum", help="quantum integer [n] in base q^d")
    p.add_argument("--n", required=True, type=integer)
    p.add_argument("--d", type=integer, default=1)
    p.add_argument("--at-q1", action="store_true", help="specialize q to 1")
    add_format(p)

    p = sub.add_parser("heis-verify",
                       help="verify the decoupled relations through the defining ones")
    add_type_rank(p)
    p.add_argument("--max-k", type=integer, default=6)
    p.add_argument("--level", type=integer, default=None,
                   help="specialize gamma = q^level (default: formal gamma)")
    add_convention(p)
    add_format(p)

    p = sub.add_parser("weyl-verify",
                       help="verify the level-specialized Weyl realization")
    add_type_rank(p)
    p.add_argument("--level", required=True, type=integer)
    p.add_argument("--max-k", type=integer, default=6)
    add_convention(p)
    add_format(p)

    p = sub.add_parser("verma-dims", help="truncated graded dimensions")
    p.add_argument("--phi", required=True, help="sign signature, e.g. '+' or '+-:+'")
    p.add_argument("--level", required=True, type=integer)
    p.add_argument("--max-index", type=integer, default=6)
    p.add_argument("--max-exp", type=integer, default=6)
    p.add_argument("--from-degree", type=integer, default=None)
    p.add_argument("--to-degree", type=integer, default=None)
    add_format(p)

    p = sub.add_parser("verma-irred", help="truncation-scale irreducibility verdict")
    p.add_argument("--phi", required=True)
    p.add_argument("--level", required=True, type=integer)
    p.add_argument("--max-index", type=integer, default=6)
    p.add_argument("--max-exp", type=integer, default=6)
    add_format(p)

    p = sub.add_parser("loop-mult", help="truncated loop-module weight multiplicities")
    add_type_rank(p)
    p.add_argument("--beta", required=True, help="comma-separated simple-root coefficients")
    p.add_argument("--k", type=integer, default=None,
                   help="delta shift of the target weight (default 0)")
    p.add_argument("--k-sweep", default=None, help="LO:HI sweep over the delta shift (CSV in table mode)")
    p.add_argument("--window", type=integer, default=3, help="bound on each monomial shift")
    p.add_argument("--phi", default="+", help="sign signature for the inducing module")
    p.add_argument("--level", type=integer, default=1,
                   help="ignored: the counts depend on --phi and the truncation only")
    p.add_argument("--vdims", default=None,
                   help='JSON {"degree": dim} for a user-supplied inducing module '
                        '("inf" marks a degree as infinite-dimensional)')
    p.add_argument("--max-index", type=integer, default=6)
    p.add_argument("--max-exp", type=integer, default=6)
    add_format(p)

    # argparse binds a "number" after a flag as its value: let -:+ and -1:1 be
    # numbers; and let --phi=-- mean the signature --
    for p in sub.choices.values():
        p._negative_number_matcher = re.compile(r"^-[-+:0-9]*$")
        p._get_values = _keeping_double_dash(p)
    return parser


def run(argv) -> int:
    """Parse and execute; returns the exit code instead of raising SystemExit."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.format = args.format or os.environ.get("QAFF_FORMAT", "json")
        if args.format not in ("json", "table"):
            raise ValueError(f"QAFF_FORMAT must be json or table, got {args.format!r}")
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: arithmetic failure ({type(exc).__name__}): {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory: the input needs more memory than is available", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (as "| head" does): stop quietly, and
        # point stdout at devnull so the flush at interpreter exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
