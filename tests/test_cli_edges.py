"""Argument edges of every subcommand, and the refusals that keep each one fast.

The edge tests draw each flag from its edges: 0, 1, negative values, each
cap and the values next to it, 40-digit integers and malformed specs. Every
call must exit 0, 1 or 2 without a traceback. Sizes that take seconds by
design are left out where noted: basis at BASIS_MAX_N and minvec at
MINVEC_MAX_N print hundreds of MB, and covering at N <= 10 with 100000
trials takes about 1.2 s at N = 2 and up to about 4 s at N = 10. The node
budget SEARCH_MAX_NODES is the only limit of the oracle and of a covering
check, with no dimension cap; at N nodes per trial it does not bound the
trials at small N, where a trial costs few nodes but real time, so
COVERING_MAX_TRIALS stays.
"""

import contextlib
import io
import os
import subprocess
import sys
import time
from math import isqrt
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eclat.cli import BASIS_MAX_N, COVERING_MAX_TRIALS, DENSITY_MAX_N, MINVEC_MAX_N, main
from eclat.curves import MAX_P_CAP
from eclat.errors import BadSize, SearchBoundExceeded
from eclat.groups import AbelianGroup
from eclat.lattice import SEARCH_MAX_NODES, Lattice, _enumerate

BIG = 10**39 + 3  # 40 digits
MALFORMED_GROUPS = ["", "x", "3", "2x", "x3", "2x3x4", "a x b", "1e3x2", "-1x5", "2.0x4", "٣x٤"]
MALFORMED_INTS = ["", "abc", "1.5", "1e3", "0x10"]
EDGE_SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), mock.patch.dict(os.environ):
        os.environ.pop("EC_LATTICE_MAX_P", None)
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def check_edge_call(argv):
    code, out, err = call(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "" and "error" in err, argv


def ints(*values):
    """An argument drawn from the given integers and the malformed integers."""
    return st.sampled_from([str(v) for v in values] + MALFORMED_INTS)


def groups(*orders):
    """A group spec MxN with M from the small edges and N from the given orders, or a malformed one."""
    shapes = st.builds(
        lambda m, n: f"{m}x{n}", st.sampled_from([0, 1, 2, -1, BIG]), st.sampled_from([0, 1, -1, BIG, *orders])
    )
    return st.one_of(shapes, st.sampled_from(MALFORMED_GROUPS))


def order_of(spec):
    try:
        m, n = (int(x) for x in spec.split("x"))
    except ValueError:
        return None
    return m * n


SMALL = [2, 3, 4, 5, 12, 13]
FORMATS = st.sampled_from([(), ("--json",), ("--csv",)])


@given(groups(*SMALL, MINVEC_MAX_N - 1, MINVEC_MAX_N, MINVEC_MAX_N + 1, BASIS_MAX_N, BASIS_MAX_N + 1), FORMATS)
@EDGE_SETTINGS
def test_group_edges(spec, fmt):
    check_edge_call(["group", "--group", spec, *fmt])


@given(groups(*SMALL, BASIS_MAX_N - 1, BASIS_MAX_N, BASIS_MAX_N + 1), FORMATS)
@EDGE_SETTINGS
def test_verify_edges(spec, fmt):
    check_edge_call(["verify", "--group", spec, *fmt])


@given(groups(*SMALL, BASIS_MAX_N + 1), FORMATS)
@EDGE_SETTINGS
def test_basis_edges(spec, fmt):
    check_edge_call(["basis", "--group", spec, *fmt])


@given(groups(*SMALL, MINVEC_MAX_N + 1), FORMATS)
@EDGE_SETTINGS
def test_minvec_edges(spec, fmt):
    check_edge_call(["minvec", "--group", spec, *fmt])


@given(
    groups(*SMALL, 10**200, 10**400),
    ints(0, 1, -1, 2, COVERING_MAX_TRIALS, COVERING_MAX_TRIALS + 1, BIG),
    ints(0, -1, 2**64, BIG),
    FORMATS,
)
@EDGE_SETTINGS
def test_covering_edges(spec, trials, seed, fmt):
    N = order_of(spec)
    if trials == str(COVERING_MAX_TRIALS) and N is not None and 1 <= N <= 10:
        trials = "2"  # the largest run takes up to about 4 s by design
    check_edge_call(["covering", "--group", spec, "--trials", trials, "--seed", seed, *fmt])


@given(
    groups(*SMALL, 20, 182, 183),
    st.sampled_from([None, "0", "1", "2", "3", "4", "20", "-1", str(BIG), "abc"]),
    FORMATS,
)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_oracle_edges(spec, bound, fmt):
    argv = ["oracle", "--group", spec, *fmt]
    check_edge_call(argv if bound is None else [*argv, "--oracle-bound", bound])


@given(
    ints(0, 1, 3, 4, 5, 47, 48, -1, DENSITY_MAX_N, BIG),
    ints(0, 3, 4, 48, -1, DENSITY_MAX_N, DENSITY_MAX_N + 1, BIG),
    FORMATS,
)
@EDGE_SETTINGS
def test_density_edges(start, stop, fmt):
    check_edge_call(["density", "--from", start, "--to", stop, *fmt])


CURVE_PRIMES = [-1, 0, 1, 2, 3, 4, 5, 7, 13, 9973, 10007, BIG]


@given(
    st.one_of(
        st.builds(
            lambda p, a, b: f"{p},{a},{b}",
            st.sampled_from(CURVE_PRIMES),
            st.sampled_from([0, 1, -1, BIG]),
            st.sampled_from([0, 1, -1, BIG]),
        ),
        st.sampled_from(["", "7", "7,1", "7,1,1,1", "a,b,c", "7,,1", "1e3,1,1"]),
    ),
    st.sampled_from([None, "0", "1", "-1", "4", "13", "10007", str(MAX_P_CAP), str(MAX_P_CAP + 1), str(BIG), "abc"]),
    st.sampled_from([None, "0", "1", "-1", str(BIG), "abc"]),
    st.sampled_from([(), ("--json",)]),
)
@EDGE_SETTINGS
def test_curve_edges(spec, max_p, max_basis_n, fmt):
    argv = ["curve", "--curve", spec, *fmt]
    argv += [] if max_p is None else ["--max-p", max_p]
    argv += [] if max_basis_n is None else ["--max-basis-n", max_basis_n]
    check_edge_call(argv)


def test_lattice_refuses_order_one():
    with pytest.raises(BadSize, match=r"^the lattice needs a group of order at least 2$"):
        Lattice(AbelianGroup(1, 1))


def run_cli(*argv, timeout=20):
    env = dict(os.environ)
    env.pop("EC_LATTICE_MAX_P", None)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "eclat.cli", *argv], capture_output=True, text=True, timeout=timeout, env=env
    )
    return proc, time.perf_counter() - start


def test_curve_huge_prime_is_refused_before_the_primality_test():
    # trial division of this prime does not finish; the --max-p bound is checked first
    proc, elapsed = run_cli("curve", "--curve", "1000000000000000000000000000057,1,1", "--json")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: p = 1000000000000000000000000000057 exceeds the enumeration bound 10000\n"
    assert elapsed < 5


@pytest.mark.parametrize(
    "spec,message",
    [
        ("5,0,0", "error: 4a^3 + 27b^2 = 0 mod 5: curve is singular\n"),
        ("9,1,1", "error: p must be a prime greater than 3, got 9\n"),
    ],
)
def test_curve_errors_carry_the_library_message(spec, message):
    # these are refused in cmd_curve, not by argparse as "invalid _curve_arg value"
    code, out, err = call(["curve", "--curve", spec])
    assert (code, out, err) == (2, "", message)


def test_oracle_work_budget_refuses_large_searches():
    # without a budget, bound 20 at N = 12 searches for about 15 s and exits 0
    proc, elapsed = run_cli("oracle", "--group", "1x12", "--oracle-bound", "20", "--json")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--oracle-bound" in proc.stderr and "--group" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 10


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--group", "1x183"),  # the smallest N refused up front at the minimal norm
        ("oracle", "--group", f"1x{10**39}"),
        ("oracle", "--group", "1x8", "--oracle-bound", str(BIG)),
        # N = 2 and 3 pass the up-front count at any bound without a budget on the candidates
        ("oracle", "--group", "1x2", "--oracle-bound", str(BIG)),
        ("oracle", "--group", "1x3", "--oracle-bound", str(BIG)),
        ("oracle", "--group", "1x3", "--oracle-bound", str(10**8)),
    ],
)
def test_oracle_budget_refusals_are_fast(argv):
    start = time.perf_counter()
    code, out, err = call([*argv, "--json"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--oracle-bound" in err
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "spec,bound,count",
    [
        ("1x12", 10, 23736),  # the benchmark's largest oracle call
        ("1x2", 10**8, 7070),  # (x, -x) with x even and 2x^2 <= 10^8
    ],
)
def test_oracle_budget_admits_small_searches(spec, bound, count):
    start = time.perf_counter()
    code, out, err = call(["oracle", "--group", spec, "--oracle-bound", str(bound), "--json"])
    assert code == 0 and f'"oracle_count": {count}' in out
    assert time.perf_counter() - start < 5


def test_oracle_below_the_smallest_norm_is_empty():
    # a nonzero zero-sum vector has squared norm at least 2, at any dimension
    code, out, err = call(["oracle", "--group", "1x5000", "--oracle-bound", "1", "--json"])
    assert code == 0 and '"oracle_count": 0' in out


def least_oracle_nodes(N, bound):
    # the count svp_oracle refuses up front when it passes the budget
    r, t, s = isqrt(bound), (isqrt(4 * bound + 1) - 1) // 2, isqrt(bound // 2)
    return (N - 1) * (2 * r + 1 + t * (N - 2)) + s * (N - 1) * (N - 2) * (N - 3) // 3


@pytest.mark.parametrize("shape", [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (1, 9), (3, 3)])
@pytest.mark.parametrize("bound", [2, 3, 4, 6, 9])
def test_oracle_node_count_is_a_lower_bound(shape, bound):
    # the search must spend at least that many nodes, so it cannot finish with one fewer
    N = shape[0] * shape[1]
    count = least_oracle_nodes(N, bound)
    group = AbelianGroup(*shape)
    assert _enumerate(group, [0] * N, 1, bound, lambda c, v: bound, count - 1) < 0
    assert _enumerate(group, [0] * N, 1, bound, lambda c, v: bound, SEARCH_MAX_NODES) >= 0


def test_oracle_budget_fits_the_recursion():
    # the largest N the up-front count admits, searched until the budget runs out, in process
    assert least_oracle_nodes(182, 2) <= SEARCH_MAX_NODES < least_oracle_nodes(183, 2)
    with pytest.raises(SearchBoundExceeded):
        Lattice(AbelianGroup(1, 182)).svp_oracle(2)
    start = time.perf_counter()
    with pytest.raises(SearchBoundExceeded):
        Lattice(AbelianGroup(1, 183)).svp_oracle(2)
    assert time.perf_counter() - start < 1


def test_basis_cap_admits_every_default_curve_group():
    assert BASIS_MAX_N >= 10173  # the Hasse maximum p + 1 + 2 sqrt(p) at p = 9973
    code, out, err = call(["verify", "--group", f"1x{BASIS_MAX_N}", "--json"])
    assert code == 0 and '"certified": true' in out


@pytest.mark.parametrize("command", ["basis", "verify"])
@pytest.mark.parametrize("spec", [f"1x{BASIS_MAX_N + 1}", f"2x{BASIS_MAX_N}", f"1x{10**39}"])
def test_basis_cap_is_a_usage_error(command, spec):
    for fmt in ((), ("--json",)):
        start = time.perf_counter()
        code, out, err = call([command, "--group", spec, *fmt])
        assert code == 2 and out == ""
        assert err.count("error") == 1 and "--group" in err and "Traceback" not in err
        assert time.perf_counter() - start < 2
