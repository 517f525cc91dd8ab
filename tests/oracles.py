"""Slow, independent routes that the tests compare the package against."""

import importlib.util
import pathlib
from fractions import Fraction
from math import gcd


def convolve(a, b):
    """The product of two {degree: count} series, by dense convolution."""
    out = {}
    for m, c in a.items():
        for n, d in b.items():
            out[m + n] = out.get(m + n, 0) + c * d
    return out


def pmul_schoolbook(a, b):
    """The product of two Laurent polynomials {exponent: Fraction or int}, term
    by term over Fraction; zero coefficients are not stored."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            v = out.get(e, Fraction(0)) + ca * cb
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def pdiv_exact(num, den):
    """The quotient of ordinary polynomials {exponent: Fraction} (min exponent
    >= 0), den nonzero, by long division over Fraction; a nonzero remainder
    raises ArithmeticError("inexact polynomial division")."""
    num = dict(num)
    quo = {}
    dtop = max(den)
    lead = den[dtop]
    while num and max(num) >= dtop:
        e = max(num)
        c = num[e] / lead
        quo[e - dtop] = c
        for de, dc in den.items():
            ne = e - dtop + de
            v = num.get(ne, Fraction(0)) - c * dc
            if v:
                num[ne] = v
            else:
                num.pop(ne, None)
    if num:
        raise ArithmeticError("inexact polynomial division")
    return quo


def pseudo_rem(a, b):
    """The primitive pseudo-remainder of integer polynomials {exponent: int},
    one step at a time: multiply the running remainder by b's leading
    coefficient, cancel its top term, and strip the content after every step."""
    dtop = max(b)
    lead = b[dtop]
    r = dict(a)
    while r and max(r) >= dtop:
        e = max(r)
        c = r[e]
        new = {ee: cc * lead for ee, cc in r.items()}
        for de, dc in b.items():
            ne = e - dtop + de
            v = new.get(ne, 0) - c * dc
            if v:
                new[ne] = v
            else:
                new.pop(ne, None)
        content = gcd(*new.values())
        r = {ee: cc // content for ee, cc in new.items()} if content else {}
    return r


def inverse_euler_cut(rank, far):
    """[a(0), ..., a(far)] of prod_{m=1..far} (1 - x^m)^(-rank) cut at degree
    far: rank geometric series per part size, each multiplied in densely."""
    coeffs = [1] + [0] * far
    for m in range(1, far + 1):
        for _ in range(rank):
            for t in range(m, far + 1):
                coeffs[t] += coeffs[t - m]
    return coeffs


def inverse_euler_divisor_sums(rank, far):
    """[a(0), ..., a(far)] of prod_{m >= 1} (1 - x^m)^(-rank) from
    t a(t) = rank * sum_{j=1..t} sigma(j) a(t - j), sigma the divisor sum
    found by trial division: O(far^2) steps."""
    sigma = [0] + [sum(d for d in range(1, j + 1) if j % d == 0) for j in range(1, far + 1)]
    a = [1]
    for t in range(1, far + 1):
        a.append(rank * sum(sigma[j] * a[t - j] for j in range(1, t + 1)) // t)
    return a


def partition_table(n):
    """[p(0), ..., p(n)], the partition numbers, by adding one part size at a time."""
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for m in range(part, n + 1):
            table[m] += table[m - part]
    return table


def partition_pentagonal(n):
    """[p(0), ..., p(n)] by Euler's pentagonal recurrence
    p(m) = sum_k (-1)^(k+1) (p(m - g_k) + p(m - g_k - k)) with g_k = k(3k-1)/2."""
    p = [1]
    for m in range(1, n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            term = p[m - g] + (p[m - g - k] if g + k <= m else 0)
            total += term if k % 2 else -term
            k += 1
        p.append(total)
    return p


def load_benchmark_oracle():
    """benchmark/oracle.py: the benchmark's independent check of every CLI output."""
    path = pathlib.Path(__file__).resolve().parent.parent / "benchmark" / "oracle.py"
    spec = importlib.util.spec_from_file_location("qheis_bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
