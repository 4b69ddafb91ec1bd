"""Seeded random inputs through the CLI, each report checked by perfbench/checks.py.

The benchmark's checks recompute every expected value from the operation's
own arguments with arithmetic of their own (|det B'| = N modulo large primes,
point counts by Euler's criterion, short-vector counts by a dynamic program),
independently of eclat's echelon, curve certificate and searches. The
benchmark runs them on its fixed workloads only; here they run on a fixed,
seeded draw of about 200 admitted inputs of every command they check. Every
input lies in the checks' domain: the cyclic group of order 4, whose fallback
basis is not certified, is left out of basis and curve.
"""

import contextlib
import io
import random
import sys
from math import isqrt
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import checks  # noqa: E402
from eclat import cli  # noqa: E402


def shapes(lo: int, hi: int) -> list[str]:
    """Every canonical shape MxN with m | n and lo <= m*n <= hi."""
    return [f"{m}x{N // m}" for N in range(lo, hi + 1) for m in range(1, isqrt(N) + 1) if N % (m * m) == 0]


def random_curve(rng: random.Random, primes: list[int]) -> str:
    """A nonsingular curve y^2 = x^3 + ax + b whose group is not cyclic of order 4."""
    while True:
        p = rng.choice(primes)
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p == 0:
            continue
        # order 4 is 2x2 exactly when all three roots of the cubic are rational
        if checks.point_count(p, a, b) != 4 or sum((x**3 + a * x + b) % p == 0 for x in range(p)) == 3:
            return f"{p},{a},{b}"


def draw_operations(seed: int) -> list[tuple[str, ...]]:
    rng = random.Random(seed)
    basis = [s for s in shapes(4, 200) if s != "1x4"]
    primes = [p for p in range(5, 3000) if all(p % d for d in range(2, isqrt(p) + 1))]
    ops = [("basis", "--group", s, "--json") for s in rng.sample(basis, 50)]
    # half the curves are drawn over primes below 300, where curve mostly certifies the basis as well
    small = [p for p in primes if p < 300]
    ops += [("curve", "--curve", random_curve(rng, small if k % 2 else primes), "--json") for k in range(50)]
    ops += [("minvec", "--group", s, "--json") for s in rng.sample(shapes(4, 40), 30)]
    for s in rng.sample(shapes(4, 30), 30):
        trials, seed = rng.randint(0, 60), rng.getrandbits(32)
        ops.append(("covering", "--group", s, "--trials", str(trials), "--seed", str(seed), "--json"))
    for s, bound in rng.sample([(s, bound) for s in shapes(4, 10) for bound in range(5, 9)], 20):
        ops.append(("oracle", "--group", s, "--oracle-bound", str(bound), "--json"))
    for lo, hi in rng.sample([(lo, hi) for lo in range(4, 81) for hi in range(lo, 81)], 20):
        ops.append(("density", "--from", str(lo), "--to", str(hi), "--json"))
    return ops


OPERATIONS = draw_operations(45)


@pytest.mark.parametrize("argv", OPERATIONS, ids=" ".join)
def test_report_passes_the_independent_checks(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    checks.check_report(argv, io.BytesIO(out.getvalue().encode("utf-8")))
