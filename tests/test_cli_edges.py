"""Argument edges of every subcommand, and the refusals that keep each one fast.

The edge tests draw each flag from its edges: 0, 1, negative values, each
cap and the values next to it, 40-digit integers and malformed specs; curve
primes run up to the prime just above curves.MAX_P. Every call must exit 0,
1 or 2 without a traceback. Sizes that take seconds by design are left out
where noted: basis at BASIS_MAX_N and minvec at MINVEC_MAX_N print hundreds
of MB. The node budget SEARCH_MAX_NODES is the only limit of the oracle and
of a covering check, with no dimension cap and no cap on --trials: a
covering trial is charged 4N + 10 nodes, about its time, so a check at the
edge of the budget takes about as long as a whole search.
"""

import contextlib
import io
import subprocess
import sys
import time
from math import comb, isqrt

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eclat import basis
from eclat.cli import BASIS_MAX_N, DENSITY_MAX_N, GROUP_MAX_N, MINVEC_MAX_N, VERIFY_MAX_N, main
from eclat.errors import BadSize, SearchBoundExceeded
from eclat.groups import AbelianGroup
from eclat.lattice import SEARCH_MAX_NODES, Lattice, _enumerate

BIG = 10**39 + 3  # 40 digits
MALFORMED_GROUPS = ["", "x", "3", "2x", "x3", "2x3x4", "a x b", "1e3x2", "-1x5", "2.0x4", "٣x٤"]
MALFORMED_INTS = ["", "abc", "1.5", "1e3", "0x10"]
MOST_TRIALS = SEARCH_MAX_NODES // (4 * 2 + 10)  # the most covering trials the charge admits, at N = 2
EDGE_SETTINGS = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
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


SMALL = [2, 3, 4, 5, 12, 13]
FORMATS = st.sampled_from([(), ("--json",), ("--csv",)])


@given(groups(*SMALL, MINVEC_MAX_N - 1, MINVEC_MAX_N, MINVEC_MAX_N + 1, BASIS_MAX_N, BASIS_MAX_N + 1), FORMATS)
@EDGE_SETTINGS
def test_group_edges(spec, fmt):
    check_edge_call(["group", "--group", spec, *fmt])


@given(groups(*SMALL, VERIFY_MAX_N - 1, VERIFY_MAX_N, VERIFY_MAX_N + 1), FORMATS)
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
    ints(0, 1, -1, 2, MOST_TRIALS, MOST_TRIALS + 1, BIG),
    ints(0, -1, 2**64, BIG),
    FORMATS,
)
@EDGE_SETTINGS
def test_covering_edges(spec, trials, seed, fmt):
    check_edge_call(["covering", "--group", spec, "--trials", trials, "--seed", seed, *fmt])


@given(
    groups(*SMALL, 20, 229, 230),
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


CURVE_PRIMES = [-1, 0, 1, 2, 3, 4, 5, 7, 13, 9973, 10007, 100003, BIG]


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
    st.sampled_from([(), ("--json",)]),
)
@EDGE_SETTINGS
def test_curve_edges(spec, fmt):
    check_edge_call(["curve", "--curve", spec, *fmt])


def test_lattice_refuses_order_one():
    with pytest.raises(BadSize, match=r"^the lattice needs a group of order at least 2$"):
        Lattice(AbelianGroup(1, 1))


def run_cli(*argv, timeout=20):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "eclat.cli", *argv], capture_output=True, text=True, timeout=timeout)
    return proc, time.perf_counter() - start


def test_curve_huge_prime_is_refused_before_the_primality_test():
    # trial division of this prime does not finish; the bound curves.MAX_P is checked first
    proc, elapsed = run_cli("curve", "--curve", "1000000000000000000000000000057,1,1", "--json")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "error: p = 1000000000000000000000000000057 exceeds the enumeration bound 100000\n"
    assert elapsed < 5


@pytest.mark.parametrize(
    "spec,message",
    [
        ("5,0,0", "error: 4a^3 + 27b^2 = 0 mod 5: curve is singular\n"),
        ("9,1,1", "error: p must be a prime greater than 3, got 9\n"),
    ],
)
def test_curve_errors_carry_the_library_message(spec, message):
    # these are refused in cmd_curve, after the spec is parsed
    code, out, err = call(["curve", "--curve", spec])
    assert (code, out, err) == (2, "", message)


def test_curve_arithmetic_fault_is_not_a_usage_error():
    # a fault in the group law, here inverting 0 mod p, is a bug: it ends with a traceback and exit 1, not "error:" and 2
    script = (
        "import sys\n"
        "from eclat import cli, curves\n"
        "curves.Curve.add = lambda self, P, Q: pow(0, -1, self.p)\n"
        "sys.exit(cli.main(['curve', '--curve', '13,2,2']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1 and proc.stdout == ""
    assert "Traceback" in proc.stderr and "ValueError" in proc.stderr
    assert not any(line.startswith("error: ") for line in proc.stderr.splitlines())


@pytest.mark.parametrize(
    "argv", [["minvec", "--group", "1x96", "--json"], ["density", "--from", "4", "--to", "100000"]], ids=["minvec", "density"]
)
def test_a_reader_that_closes_stdout_ends_the_run_with_status_141(argv):
    # as in `eclat minvec --group 1x96 --json | head -c 20`: the report is far larger than a pipe buffer, so a
    # later write meets the closed pipe; that is 128 + SIGPIPE, as a shell reports, and no traceback
    with subprocess.Popen(
        [sys.executable, "-m", "eclat.cli", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        try:
            head = proc.stdout.read(20)
            proc.stdout.close()
            _, err = proc.communicate(timeout=20)
        finally:
            proc.kill()
    assert len(head) == 20 and proc.returncode == 141
    assert b"Traceback" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["group", "--group", "abc"], "invalid group spec 'abc'; expected the form MxN, e.g. 3x6"),
        (["verify", "--group", "0x5"], "group spec must have positive factors, got '0x5'"),
        (["curve", "--curve", "7,a,1"], "invalid curve spec '7,a,1'; expected p,a,b with integers p, a and b"),
        (["curve", "--curve", "7,1"], "invalid curve spec '7,1'; expected p,a,b with integers p, a and b"),
    ],
    ids=["group-letters", "group-zero", "curve-letter", "curve-short"],
)
def test_malformed_specs_carry_the_library_message(argv, message):
    code, out, err = call(argv)
    assert code == 2 and out == ""
    assert message in err
    assert "_group_arg" not in err and "_curve_arg" not in err


GROUP_COMMANDS = ["group", "basis", "verify", "minvec", "covering", "oracle"]


@pytest.mark.parametrize("command", GROUP_COMMANDS)
@pytest.mark.parametrize("spec", [f"1x{GROUP_MAX_N}", f"{10**500}x{10**500}"])
def test_group_order_cap_admits_its_edge(command, spec):
    # at the cap N^3 still prints: group reports it, and every other command refuses the size itself
    code, out, err = call([command, "--group", spec, "--json"])
    assert code == (0 if command == "group" else 2), (command, err[:200])
    assert "GROUP_MAX_N" not in err
    if command == "group":
        assert f'"det_sq": {GROUP_MAX_N**3}' in out


@pytest.mark.parametrize("command", GROUP_COMMANDS)
@pytest.mark.parametrize(
    "spec",
    # cap + 1; a cube past 4300 digits; an order of 5001 digits from two factors argparse can parse
    [f"1x{GROUP_MAX_N + 1}", f"2x{GROUP_MAX_N // 2 + 1}", f"1x{10**2000}", f"{10**2500}x{10**2500}"],
)
def test_group_order_above_the_cap_is_a_usage_error(command, spec):
    code, out, err = call([command, "--group", spec, "--json"])
    assert code == 2 and out == ""
    assert err.splitlines()[-1].endswith("has order above GROUP_MAX_N = 10^1000"), err[-200:]


def test_oracle_work_budget_refuses_large_searches():
    # without a budget, bound 20 at N = 12 searches for about 15 s and exits 0
    proc, elapsed = run_cli("oracle", "--group", "1x12", "--oracle-bound", "20", "--json")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "--oracle-bound" in proc.stderr and "--group" in proc.stderr and "Traceback" not in proc.stderr
    assert elapsed < 10


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--group", "1x230"),  # the smallest N refused up front at the minimal norm
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


def least_oracle_nodes(group, bound):
    # the count svp_oracle refuses up front when it passes the budget: the zero prefix's candidates, and a
    # call after each prefix x > 0 or x, -x that the row test at coordinate R cannot cut off
    N, R = group.order, (group.m - 1) * group.n if group.n > 1 else 0
    r, t, s = isqrt(bound), (isqrt(4 * bound + 1) - 1) // 2, isqrt(bound // 2)
    return (N - 1) * (2 * r + 1) + t * (comb(N - 1 - R, 2) + comb(R, 2)) + s * (comb(N - 1 - R, 3) + comb(R, 3))


def oracle_nodes(group, bound, symmetric=True):
    # the nodes spent by the search svp_oracle runs; symmetric=False searches both vectors of each pair
    N = group.order
    return SEARCH_MAX_NODES - _enumerate(group, [0] * N, 1, bound, lambda c, v: bound, SEARCH_MAX_NODES, symmetric=symmetric)


ORACLE_SHAPES = [(1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (1, 9), (3, 3), (3, 1), (4, 1), (3, 2), (2, 6), (4, 2)]


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
@pytest.mark.parametrize("bound", [2, 3, 4, 6, 9])
def test_oracle_node_count_is_a_lower_bound(shape, bound):
    # the search must spend at least that many nodes, so it cannot finish with one fewer; the count is at
    # most the one that held for the search of both vectors of each pair, so no search admitted then is refused
    group = AbelianGroup(*shape)
    N = group.order
    count = least_oracle_nodes(group, bound)
    r, t, s = isqrt(bound), (isqrt(4 * bound + 1) - 1) // 2, isqrt(bound // 2)
    assert count <= (N - 1) * (2 * r + 1 + t * (N - 2)) + s * (N - 1) * (N - 2) * (N - 3) // 3
    assert _enumerate(group, [0] * N, 1, bound, lambda c, v: bound, count - 1, symmetric=True) < 0
    assert oracle_nodes(group, bound) <= SEARCH_MAX_NODES


@pytest.mark.parametrize("shape", ORACLE_SHAPES)
def test_oracle_search_spends_at_most_the_full_search(shape):
    # one vector of each pair never costs more nodes than both
    group = AbelianGroup(*shape)
    for bound in (2, 3, 4, 6, 9):
        assert oracle_nodes(group, bound) <= oracle_nodes(group, bound, symmetric=False), bound


def test_oracle_budget_fits_the_recursion():
    # the largest N the up-front count admits, searched until the budget runs out, in process
    assert least_oracle_nodes(AbelianGroup(1, 229), 2) <= SEARCH_MAX_NODES < least_oracle_nodes(AbelianGroup(1, 230), 2)
    with pytest.raises(SearchBoundExceeded):
        Lattice(AbelianGroup(1, 229)).svp_oracle(2)
    start = time.perf_counter()
    with pytest.raises(SearchBoundExceeded):
        Lattice(AbelianGroup(1, 230)).svp_oracle(2)
    assert time.perf_counter() - start < 1


def test_basis_cap_admits_every_default_curve_group():
    # the Hasse maximum p + 1 + 2 sqrt(p) at p = 99991, the largest prime curve admits, is 100624
    assert VERIFY_MAX_N >= 100624
    code, out, err = call(["verify", "--group", f"1x{VERIFY_MAX_N}", "--json"])
    assert code == 0 and '"certified": true' in out


def test_basis_failing_its_certificate_exits_one(monkeypatch):
    # a last row 3e_0 - 3e_1, off the lattice and no quadruple, is reported as a failed certificate, not a usage error
    cyclic_basis = basis.cyclic_basis
    monkeypatch.setattr(basis, "cyclic_basis", lambda n: [*cyclic_basis(n)[:-1], {0: 3, 1: -3}])
    for fmt in ((), ("--json",), ("--csv",)):
        code, out, err = call(["basis", "--group", "1x7", *fmt])
        assert code == 1 and out == "", fmt
        assert err.startswith("certification failed for 1x7") and "error" not in err, fmt
    code, out, err = call(["verify", "--group", "1x7", "--json"])
    assert code == 1 and '"all_in_lattice": false' in out


@pytest.mark.parametrize(
    "spec,command",
    [
        (spec, command)
        for command, cap in (("basis", BASIS_MAX_N), ("verify", VERIFY_MAX_N))
        for spec in (f"1x{cap + 1}", f"2x{cap}", f"1x{10**39}")
    ],
)
def test_basis_cap_is_a_usage_error(spec, command):
    for fmt in ((), ("--json",)):
        start = time.perf_counter()
        code, out, err = call([command, "--group", spec, *fmt])
        assert code == 2 and out == ""
        assert err.count("error") == 1 and "--group" in err and "Traceback" not in err
        assert time.perf_counter() - start < 2


def test_covering_budget_edges_take_about_one_search():
    # the most trials at N = 2 and the default 50 trials at the largest N, each against a whole search
    start = time.perf_counter()
    assert _enumerate(AbelianGroup(1, 12), [0] * 12, 1, 14, lambda c, v: 14, SEARCH_MAX_NODES) < 0
    search = time.perf_counter() - start
    # MOST_TRIALS leaves 2 nodes for the searches, too few for the 11 they take at the default seed
    for argv in (["--group", "1x2", "--trials", str(MOST_TRIALS - 1)], ["--group", "1x9997"]):
        start = time.perf_counter()
        code, out, err = call(["covering", *argv, "--json"])
        assert code == 0 and '"all_within_upper": true' in out, argv
        assert time.perf_counter() - start < 2 * search, argv
    for argv in (["--group", "1x2", "--trials", str(MOST_TRIALS)], ["--group", "1x9998"]):
        assert call(["covering", *argv, "--json"])[0] == 2, argv
