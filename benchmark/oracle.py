"""Independent checks of every benchmark job's output.

Each check re-derives what the job printed by another route, in plain
``Fraction`` and integer arithmetic: rational functions of s are compared by
evaluating them at the fixed point ``S0``; graded dimensions, multiplicities
and root systems are recounted by brute-force enumeration.  The Cartan
matrices themselves are taken from ``qheis.cartan`` and are checked on their
own by the ``cartan`` jobs (symmetrizability, root counts, reflection closure).

``check(argv, rc, text, cartan)`` returns None when the output is right and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import random
import re
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

S0 = Fraction(3, 2)
Q0 = S0 * S0

# Number of positive roots of each finite type.
_ROOT_COUNT = {
    "A": lambda n: n * (n + 1) // 2, "B": lambda n: n * n, "C": lambda n: n * n,
    "D": lambda n: n * (n - 1), "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24, "G": lambda n: 6,
}


# -- rational functions of s, evaluated at S0 ---------------------------------

def _term(tok):
    """(coefficient, exponent) of one unsigned term: ``c``, ``s^e`` or ``c*s^e``."""
    if "s" not in tok:
        return Fraction(tok), 0
    coeff, _, sym = tok.rpartition("*")
    if sym == "s":
        exp = 1
    elif re.fullmatch(r"s\^-?\d+", sym):
        exp = int(sym[2:])
    else:
        raise ValueError(f"bad polynomial term {tok!r}")
    return (Fraction(coeff) if coeff else Fraction(1)), exp


def _poly_at(text, s):
    text = text.strip()
    if text == "0":
        return Fraction(0)
    total = Fraction(0)
    sign = 1
    for tok in re.split(r" ([+-]) ", text):
        if tok in ("+", "-"):
            sign = 1 if tok == "+" else -1
            continue
        if tok.startswith("-"):
            sign, tok = -sign, tok[1:]
        coeff, exp = _term(tok)
        total += sign * coeff * s ** exp
        sign = 1
    return total


def scalar_at(text, s=S0):
    """Value at s of a printed Scalar ``"num / den"``."""
    num, den = text.rsplit(" / ", 1)
    return _poly_at(num, s) / _poly_at(den, s)


def _split_terms(text):
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        depth += (c == "(") - (c == ")")
        if depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            start = i + 3
    parts.append(text[start:])
    return parts


def central_at(text, s=S0):
    """A printed central element (no generator words) as {gamma half-exponent: value}."""
    if text == "0":
        return {}
    out = {}
    for part in _split_terms(text):
        close = part.index(") ") if ") " in part else len(part) - 1
        value = scalar_at(part[1:close], s)
        rest = part[close + 1:].strip()
        half = 0
        if rest:
            m = re.fullmatch(r"\* gamma\^\{(-?\d+)(/2)?\}", rest)
            if not m:
                raise ValueError(f"unexpected word in central element: {rest!r}")
            half = int(m.group(1)) if m.group(2) else 2 * int(m.group(1))
        out[half] = out.get(half, Fraction(0)) + value
    return {k: v for k, v in out.items() if v}


def qint_at(n, d=1, q=Q0):
    """[n] in base q^d at a numeric q."""
    return (q ** (d * n) - q ** (-d * n)) / (q ** d - q ** (-d))


# -- small exact linear algebra over Fraction ---------------------------------

def _inverse(m):
    n = len(m)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def _arg(argv, flag, default=None):
    if flag in argv:
        return argv[argv.index(flag) + 1]
    for tok in argv:
        if tok.startswith(flag + "="):
            return tok.split("=", 1)[1]
    return default


# -- verify jobs --------------------------------------------------------------

def _structure_at(cd, k, convention):
    n = cd.rank
    out = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            num = qint_at(k * cd.gcm[i][j], cd.d[i])
            den = qint_at(cd.d[j], cd.d[j] if convention == "paper" else 1) * k
            row.append(num / den)
        out.append(row)
    return out


def check_verify(argv, text, cartan):
    kind = argv[0]
    t, r = _arg(argv, "--type"), int(_arg(argv, "--rank"))
    max_k = int(_arg(argv, "--max-k", "6"))
    level = _arg(argv, "--level")
    level = None if level is None else int(level)
    convention = _arg(argv, "--convention", "paper")
    rows = json.loads(text)
    prefix = "" if kind == "heis-verify" else "weyl-"
    want = {f"{prefix}{rel}[i={i},j={j},k={k},l={l}]"
            for rel in ("pairing", "pos-commute", "neg-commute")
            for i in range(1, r + 1) for j in range(1, r + 1)
            for k in range(1, max_k + 1) for l in range(1, max_k + 1)}
    if len(rows) != 3 * r * r * max_k * max_k or {row["relation-id"] for row in rows} != want:
        return f"expected the {len(want)} relations 3*n^2*K^2, got {len(rows)}"
    if not all(row["pass"] and row["residue"] == "0" for row in rows):
        return "a relation failed"
    # spot-check one pairing per job through C(s0) and its inverse
    rng = random.Random(" ".join(argv))
    i, j, k = rng.randint(1, r), rng.randint(1, r), rng.randint(1, max_k)
    c = _structure_at(cartan.load_type(t, r), k, convention)
    delta = sum(c[i - 1][m] * _inverse(c)[m][j - 1] for m in range(r))
    if level is None:
        inv = 1 / (Q0 - 1 / Q0)
        expected = {2 * k: delta * inv, -2 * k: -delta * inv}
    else:
        expected = {0: delta * qint_at(k * level)}
    expected = {g: v for g, v in expected.items() if v}
    by_id = {row["relation-id"]: row for row in rows}
    row = by_id[f"{prefix}pairing[i={i},j={j},k={k},l={k}]"]
    sides = [row["lhs"]] + ([row["rhs"]] if kind == "weyl-verify" else [])
    for side in sides:
        if central_at(side) != expected:
            return f"pairing i={i} j={j} k={k} disagrees with C(s0)^-1 at s0={S0}"
    return None


# -- gram jobs ----------------------------------------------------------------

def _sign(phi_text, i):
    pre, per = phi_text.split(":", 1) if ":" in phi_text else ("", phi_text)
    ch = pre[i - 1] if i <= len(pre) else per[(i - len(pre) - 1) % len(per)]
    return 1 if ch == "+" else -1


def _lowering(phi_text, i):
    return -i if _sign(phi_text, i) > 0 else i


def basis(phi_text, n_max, e_max, degree):
    """Exponent vectors in [0, e_max]^n_max of total degree `degree`, by brute force."""
    degs = [_lowering(phi_text, i) for i in range(1, n_max + 1)]
    reach = [sum(abs(d) * e_max for d in degs[i:]) for i in range(n_max + 1)]
    out = []

    def rec(i, rest, vec):
        if abs(rest) > reach[i]:
            return
        if i == n_max:
            out.append(tuple(vec))
            return
        for e in range(e_max + 1):
            rec(i + 1, rest - e * degs[i], vec + [e])

    rec(0, degree, [])
    return out


def degree_counts(phi_text, n_max, e_max):
    """{degree: number of exponent vectors}, from the product over i of
    1 + x^d_i + ... + x^(e_max d_i) with d_i the lowering degree."""
    counts = {0: 1}
    for i in range(1, n_max + 1):
        d = _lowering(phi_text, i)
        counts = _convolve(counts, {e * d: 1 for e in range(e_max + 1)})
    return counts


def partitions(n):
    """Partition numbers p(0..n) by Euler's pentagonal recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while True:
            g1, g2 = k * (3 * k - 1) // 2, k * (3 * k + 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p


def _dim_verdict(phi_text, n_max, n):
    signs = {_sign(phi_text, i) for i in range(1, n_max + 1)}
    if len(signs) > 1:
        return "INFINITE"
    if len(set(phi_text.replace(":", ""))) > 1:
        return "UNKNOWN_AT_TRUNCATION"
    side = -signs.pop()
    if n == 0:
        return "FINITE(1)"
    if n * side < 0:
        return "FINITE(0)"
    return f"FINITE({partitions(abs(n))[-1]})"


def check_degrees(rows, phi_text, n_max, e_max, lo, hi):
    if [row["n"] for row in rows] != list(range(lo, hi + 1)):
        return "wrong degree range"
    constant = len(set(phi_text.replace(":", ""))) == 1
    p = partitions(max(abs(lo), abs(hi)))
    counts = degree_counts(phi_text, n_max, e_max)
    for row in rows:
        n = row["n"]
        dim = counts.get(n, 0)
        if row["dim"] != dim:
            return f"dim({n}) = {row['dim']}, the generating function gives {dim}"
        if constant and abs(n) <= min(n_max, e_max) and dim not in (0, p[abs(n)]):
            return f"dim({n}) = {dim} is not the partition number {p[abs(n)]}"
        if row["verdict"] != _dim_verdict(phi_text, n_max, n):
            return f"verdict of degree {n} is {row['verdict']}"
    return None


def wick_det(phi_text, level, n_max, e_max, degree, s=S0):
    """Closed form of a Gram determinant: the product over basis monomials of
    prod_i e_i! c_i^e_i, with c_i = phi(i) [2i]/i [i*level] (Wick)."""
    q = s * s
    c = [_sign(phi_text, i) * qint_at(2 * i, 1, q) / i * qint_at(i * level, 1, q)
         for i in range(1, n_max + 1)]
    powers = [0] * n_max
    fact = 1
    for vec in basis(phi_text, n_max, e_max, degree):
        for i, e in enumerate(vec):
            powers[i] += e
            fact *= factorial(e)
    out = Fraction(fact)
    for ci, a in zip(c, powers):
        out *= ci ** a
    return out


def check_gram(argv, text):
    phi_text = _arg(argv, "--phi")
    level = int(_arg(argv, "--level"))
    n_max, e_max = int(_arg(argv, "--max-index", "6")), int(_arg(argv, "--max-exp", "6"))
    obj = json.loads(text)
    if obj["level"] != level or obj["truncation"] != {"max_index": n_max,
                                                     "max_exponent": e_max}:
        return "report echoes the wrong module"
    bad = check_degrees(obj["degrees"], phi_text, n_max, e_max, -n_max, n_max)
    if bad:
        return bad
    if level == 0:
        if obj["verdict"] != "REDUCIBLE" or obj["witness_degree"] not in (-1, 1):
            return "level 0 must be REDUCIBLE with witness degree +-1"
    elif obj["verdict"] != "IRREDUCIBLE-CONSISTENT" or obj["witness_degree"] is not None:
        return f"level {level} must be IRREDUCIBLE-CONSISTENT"
    counts = degree_counts(phi_text, n_max, e_max)
    want = [n for n in range(-n_max, n_max + 1) if counts.get(n)]
    if [row["n"] for row in obj["gram"]] != want:
        return "Gram blocks cover the wrong degrees"
    for row in obj["gram"]:
        value = wick_det(phi_text, level, n_max, e_max, row["n"])
        if scalar_at(row["det"]) != value or row["nonzero"] != (value != 0):
            return f"det of degree {row['n']} differs from the Wick closed form"
    return None


# -- count jobs ---------------------------------------------------------------

def _shift_sums(copies, window):
    """{total shift: number of multisets of `copies` shifts in [-window, window]}."""
    out = {}
    for combo in combinations_with_replacement(range(-window, window + 1), copies):
        out[sum(combo)] = out.get(sum(combo), 0) + 1
    return out


def _convolve(a, b):
    out = {}
    for x, cx in a.items():
        for y, cy in b.items():
            out[x + y] = out.get(x + y, 0) + cx * cy
    return out


def multiset_shifts(roots, beta, window):
    """{total shift d: number of multisets of (root, shift) pairs with roots
    summing to beta}, enumerated root multiset by root multiset."""
    roots = [r for r in roots if all(a <= b for a, b in zip(r, beta))]
    out = {}

    def rec(idx, rest, dist):
        if not any(rest):
            for d, cnt in dist.items():
                out[d] = out.get(d, 0) + cnt
            return
        if idx == len(roots):
            return
        alpha = roots[idx]
        copies = 0
        while True:
            rec(idx + 1, rest, _convolve(dist, _shift_sums(copies, window)) if copies else dist)
            rest = tuple(x - a for x, a in zip(rest, alpha))
            copies += 1
            if any(x < 0 for x in rest):
                break

    rec(0, tuple(beta), {0: 1})
    return out


def _inducing_dims(phi_text, rank, n_max, e_max, lo, hi):
    constant = len(set(phi_text.replace(":", ""))) == 1
    if constant:
        side = -_sign(phi_text, 1)
        reach = max(abs(lo), abs(hi))
        p = partitions(reach)
        node = {side * t: p[t] for t in range(reach + 1)}
    else:
        node = degree_counts(phi_text, n_max, e_max)
    conv = {0: 1}
    for _ in range(rank):
        conv = _convolve(conv, node)
    return {m: c for m, c in conv.items() if lo <= m <= hi}, not constant


def check_loop_mult(argv, text, cartan):
    t, r = _arg(argv, "--type"), int(_arg(argv, "--rank"))
    beta = tuple(int(x) for x in _arg(argv, "--beta").split(","))
    window = int(_arg(argv, "--window", "3"))
    sweep = _arg(argv, "--k-sweep")
    ks = (range(int(sweep.split(":")[0]), int(sweep.split(":")[1]) + 1) if sweep
          else [int(_arg(argv, "--k", "0"))])
    roots = [root.coeffs for root in cartan.positive_roots(cartan.load_type(t, r))]
    shifts = multiset_shifts(roots, beta, window)
    vdims_text = _arg(argv, "--vdims")
    phi_text = _arg(argv, "--phi", "+")
    n_max, e_max = int(_arg(argv, "--max-index", "6")), int(_arg(argv, "--max-exp", "6"))
    got = json.loads(text)
    got = got if sweep else [got]
    if len(got) != len(ks):
        return "wrong number of sweep entries"
    zero = not any(beta)
    for k, rep in zip(ks, got):
        if vdims_text:
            dims = {int(key): int(v) for key, v in json.loads(vdims_text).items()}
            mixed = False
        else:
            reach = window * max(sum(beta), 1)
            dims, mixed = _inducing_dims(phi_text, r, n_max, e_max, k - reach, k + reach)
        total = sum(cnt * dims.get(k - d, 0) for d, cnt in shifts.items())
        seen = any(dims.get(k - d, 0) for d in shifts)
        if vdims_text:
            verdict = (f"FINITE({total})" if zero
                       else "INFINITE" if seen else "UNKNOWN_AT_TRUNCATION")
        else:
            verdict = "INFINITE" if mixed or not zero else f"FINITE({total})"
        want = {"mu": {"beta": list(beta), "k": k}, "truncated_count": total,
                "verdict": verdict, "bounds": {"max_abs_k": window}}
        if rep != want:
            return f"k={k}: got {rep}, enumeration gives {want}"
    return None


def check_verma_dims(argv, text):
    phi_text = _arg(argv, "--phi")
    n_max, e_max = int(_arg(argv, "--max-index", "6")), int(_arg(argv, "--max-exp", "6"))
    lo = int(_arg(argv, "--from-degree", str(-n_max)))
    hi = int(_arg(argv, "--to-degree", str(n_max)))
    obj = json.loads(text)
    if obj["truncation"] != {"max_index": n_max, "max_exponent": e_max}:
        return "report echoes the wrong truncation"
    return check_degrees(obj["degrees"], phi_text, n_max, e_max, lo, hi)


def _closure(finite, transpose):
    n = len(finite)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found, todo = set(simple), list(simple)
    while todo:
        beta = todo.pop()
        for i in range(n):
            pair = sum((finite[j][i] if transpose else finite[i][j]) * beta[j]
                       for j in range(n))
            image = tuple(b - pair * (j == i) for j, b in enumerate(beta))
            if all(x >= 0 for x in image) and any(image) and image not in found:
                found.add(image)
                todo.append(image)
    return found


def check_cartan(argv, text):
    t, r = _arg(argv, "--type"), int(_arg(argv, "--rank"))
    obj = json.loads(text)
    a, d = obj["gcm"], obj["d"]
    m = len(a)
    if obj["series"] != t or obj["rank"] != r or m != r + 1:
        return "wrong type echoed"
    if any(a[i][i] != 2 for i in range(m)) or any(
            d[i] * a[i][j] != d[j] * a[j][i] for i in range(m) for j in range(m)):
        return "gcm is not symmetrized by d"
    roots = {tuple(x) for x in obj["positive_roots"]}
    if len(roots) != len(obj["positive_roots"]) or len(roots) != _ROOT_COUNT[t](r):
        return f"expected {_ROOT_COUNT[t](r)} positive roots"
    finite = [row[1:] for row in a[1:]]
    if roots not in (_closure(finite, False), _closure(finite, True)):
        return "roots are not the reflection closure of the simple roots"
    return None


def check_qnum(argv, text):
    n, d = int(_arg(argv, "--n")), int(_arg(argv, "--d", "1"))
    value = json.loads(text)
    if "--at-q1" in argv:
        return None if value == n else f"[{n}] at q=1 is {value}"
    return None if scalar_at(value) == qint_at(n, d) else f"[{n}]_(q^{d}) differs at s0"


def check(argv, rc, text, cartan):
    """None when the job's exit code and output are right, else the reason."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        kind = argv[0]
        if kind in ("heis-verify", "weyl-verify"):
            return check_verify(argv, text, cartan)
        if kind == "verma-irred":
            return check_gram(argv, text)
        if kind == "loop-mult":
            return check_loop_mult(argv, text, cartan)
        if kind == "verma-dims":
            return check_verma_dims(argv, text)
        if kind == "cartan":
            return check_cartan(argv, text)
        if kind == "qnum":
            return check_qnum(argv, text)
        return f"no oracle for {kind}"
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
