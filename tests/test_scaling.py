"""Scaling pins: the growth of a kernel's cost as the ratio of its work at 2n to n.

Work is counted in sys.settrace line events inside the file that holds the
kernel, so machine load does not move it.  Line tables differ between CPython
versions, so the pins bound ratios, not counts.  Each bound must fail on the
known slower route, or it could not see a change of exponent.
"""

import sys

import oracles
import test_loopweights

import qheis.loopweights as loopweights
import qheis.verma as verma
from qheis.cartan import load_type
from qheis.loopweights import GradedDims

# O(sqrt t) steps per coefficient: a table of n coefficients costs O(n^1.5)
PARTITION_BOUND = 2 ** 1.75
# one geometric factor multiplied into a series costs O(len) whatever its E
FACTOR_BOUND = 2 ** 0.25
# today's exponent of the shift-series DP: about 9.4 per doubling of beta
SHIFT_SERIES_BOUND = 2 ** 4
SERIES = list(range(4000))


def _line_events(path, call, n):
    """The line events that call(n) runs in the code of the file at path."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code.co_filename == path else None)
    try:
        call(n)
    finally:
        sys.settrace(previous)
    return count


def _doubling_ratio(path, call, n):
    return _line_events(path, call, 2 * n) / _line_events(path, call, n)


def test_a_fresh_partition_table_grows_at_most_as_n_to_the_1_75(monkeypatch):
    def fresh_table(far):
        monkeypatch.setattr(verma, "_PARTITION_SERIES", {})
        verma.partition_series(1, far)

    assert _doubling_ratio(verma.__file__, fresh_table, 500) <= PARTITION_BOUND


def test_the_divisor_sum_route_breaks_the_partition_bound():
    # O(n^2): about 3.96 per doubling
    ratio = _doubling_ratio(oracles.__file__,
                            lambda far: oracles.inverse_euler_divisor_sums(1, far), 500)
    assert ratio > PARTITION_BOUND


def test_multiplying_in_a_factor_does_not_grow_with_the_exponent_bound():
    ratio = _doubling_ratio(verma.__file__, lambda E: verma._multiply_in(list(SERIES), 3, E), 8)
    assert ratio <= FACTOR_BOUND


def test_the_convolution_route_breaks_the_factor_bound():
    # O(len * E): about 1.8 per doubling of E
    series = dict(enumerate(SERIES))
    ratio = _doubling_ratio(oracles.__file__,
                            lambda E: oracles.convolve(series, {e * 3: 1 for e in range(E + 1)}), 8)
    assert ratio > FACTOR_BOUND


def _shift_series(n):
    # uncached, so that every call does the work
    loopweights._shift_series.__wrapped__(load_type("A", 2), (n, n), 2)


def test_the_shift_series_grows_at_most_as_its_bound():
    assert _doubling_ratio(loopweights.__file__, _shift_series, 2) <= SHIFT_SERIES_BOUND


def test_the_multiset_enumeration_breaks_the_shift_series_bound():
    # one count at k = 0 by recursion over the (root, shift) items: about 56
    # per doubling
    cd = load_type("A", 2)
    ratio = _doubling_ratio(
        test_loopweights.__file__,
        lambda n: test_loopweights.brute_force_count(cd, (n, n), 0, GradedDims.line(0), 2), 2)
    assert ratio > SHIFT_SERIES_BOUND
