"""Seeded operation lists for the four benchmark workloads.

A workload is a sequence of rounds (endless, except for search, whose inputs
run out after three). Every round has the same slots, and each slot draws an
input from a fixed band of sizes, so every round costs about the same
whatever the seed. Within one run no input is drawn twice: a slot whose band
is used up takes the unused input nearest to the band.

A run is a fixed number of whole rounds, ``round_count(workload, seconds)``,
so two runs with one seed make exactly the same operations, and the parent
and child commits of a change run the same operation list.
The generators use the benchmark's own arithmetic; nothing is imported from
``eclat``, so the program under test never chooses its own inputs.
"""

from __future__ import annotations

import random
from itertools import count
from math import gcd, isqrt

from checks import point_count

Argv = tuple[str, ...]


class Exhausted(Exception):
    """No unused input is left for a slot."""


def canonical_groups(lo: int, hi: int) -> list[tuple[int, int]]:
    """Every canonical shape (m, n) with m | n and lo <= m*n <= hi."""
    return [(m, N // m) for N in range(lo, hi + 1) for m in range(1, isqrt(N) + 1) if N % (m * m) == 0]


def pick(rng: random.Random, pool: list[tuple[int, object]], band: tuple[int, int], used: set) -> object:
    """Draw an unused item of (size, item) pairs with size in the band.

    When the band holds no unused item, take one of the unused items nearest
    to the band's centre.
    """
    lo, hi = band
    free = [(size, item) for size, item in pool if item not in used]
    if not free:
        raise Exhausted(f"no unused input near {band}")
    inside = [item for size, item in free if lo <= size <= hi]
    if not inside:
        centre = (lo + hi) / 2
        nearest = min(abs(size - centre) for size, _ in free)
        inside = [item for size, item in free if abs(size - centre) == nearest]
    item = rng.choice(inside)
    used.add(item)
    return item


def _spec(shape: tuple[int, int]) -> str:
    return f"{shape[0]}x{shape[1]}"


# certify: one slot per shape class; the class visiting each band rotates by
# round, so over five rounds every class meets every band. The middle band is
# where the median operation falls, so it is kept narrow.
CERTIFY_BANDS = [(200, 210), (220, 230), (248, 252), (270, 280), (290, 300)]
CERTIFY_CLASSES = ["cyclic", "2xn", "3xn", "4xn", "m>=5"]


def _certify_class(shape: tuple[int, int]) -> str:
    m = shape[0]
    return CERTIFY_CLASSES[min(m, 5) - 1]


def certify_rounds(rng: random.Random):
    pools: dict[str, list] = {c: [] for c in CERTIFY_CLASSES}
    for shape in canonical_groups(200, 300):
        pools[_certify_class(shape)].append((shape[0] * shape[1], shape))
    used: set = set()
    for r in count():
        yield [
            ("basis", "--group", _spec(pick(rng, pools[c], CERTIFY_BANDS[(k + r) % 5], used)), "--json")
            for k, c in enumerate(CERTIFY_CLASSES)
        ]


# minvec: four slots with fixed band and kind (cyclic or not), then a top slot
# that takes the groups of order 96 in a fixed order, then the nearest unused
# ones. The largest operation sets the peak RSS, which differs between 2x48
# and 4x24 by a tenth, so the seed must not choose it. The third slot holds the
# median operation; it is cyclic in every round so its band can be narrow.
MINVEC_SLOTS = [((48, 54), True), ((60, 66), False), ((77, 79), True), ((86, 90), False)]
MINVEC_TOP = [(1, 96), (2, 48), (4, 24)]


def minvec_rounds(rng: random.Random):
    pools: dict[bool, list] = {True: [], False: []}
    for m, n in canonical_groups(48, 96):
        pools[gcd(m, n) == 1].append((m * n, (m, n)))
    used: set = set(MINVEC_TOP)
    for r in count():
        shapes = [pick(rng, pools[cyclic], band, used) for band, cyclic in MINVEC_SLOTS]
        shapes.append(MINVEC_TOP[r] if r < len(MINVEC_TOP) else pick(rng, pools[r % 2 == 0], (96, 96), used))
        yield [("minvec", "--group", _spec(shape), "--json") for shape in shapes]


# curve: four curves over primes near 10^4 (N > 300, so the basis is skipped)
# and one over a prime near 150 whose point count lies in a narrow band, so its
# certified basis costs the same in every round. Half the curves are built with
# full 2-torsion (three distinct roots), which makes their group non-cyclic.
# The time group_structure takes grows with the number of prime factors of N
# (N prime costs a tenth of N = 2^2 * q * r), so every large curve has N with
# exactly three distinct prime factors, four counted with multiplicity.
BIG_PRIMES = (9000, 10000)
BIG_N_FACTORS = (3, 4)
SMALL_PRIMES = (131, 173)
SMALL_N_BAND = (145, 155)


def _factor_shape(n: int) -> tuple[int, int]:
    """(distinct prime factors, prime factors with multiplicity) of n."""
    distinct = total = 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            distinct += 1
            while n % d == 0:
                n //= d
                total += 1
        d += 1
    return (distinct + 1, total + 1) if n > 1 else (distinct, total)


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 5), hi + 1) if all(p % d for d in range(2, isqrt(p) + 1))]


def _random_curve(rng: random.Random, p: int, two_torsion: bool) -> tuple[int, int]:
    while True:
        if two_torsion:
            r1, r2 = rng.randrange(p), rng.randrange(p)
            r3 = -(r1 + r2) % p
            if len({r1, r2, r3}) < 3:
                continue
            a, b = (r1 * r2 + r1 * r3 + r2 * r3) % p, (-r1 * r2 * r3) % p
        else:
            a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p:
            return a, b


def curve_rounds(rng: random.Random):
    big, small = _primes(*BIG_PRIMES), _primes(*SMALL_PRIMES)
    used: set = set()

    def draw(primes: list[int], two_torsion: bool, accept) -> Argv:
        while True:
            p = rng.choice(primes)
            a, b = _random_curve(rng, p, two_torsion)
            if (p, a, b) not in used and accept(point_count(p, a, b)):
                used.add((p, a, b))
                return ("curve", "--curve", f"{p},{a},{b}", "--json")

    def big_ok(N: int) -> bool:
        return _factor_shape(N) == BIG_N_FACTORS

    def small_ok(N: int) -> bool:
        return SMALL_N_BAND[0] <= N <= SMALL_N_BAND[1]

    for r in count():
        yield [
            draw(big, False, big_ok),
            draw(big, True, big_ok),
            draw(big, False, big_ok),
            draw(big, True, big_ok),
            draw(small, r % 2 == 1, small_ok),
        ]


# search: a covering check for every canonical group of order 2..10, an SVP
# oracle count for each group of order 11..12 with bounds 6, 8 and 10 rotated
# across the groups (so each round holds each bound once), and one density scan
# across the 47/48 edge. The rotation gives nine distinct oracle inputs of
# matched cost, so the workload has three rounds.
COVERING_TRIALS = 2500
SEARCH_ROUNDS = 3
ORACLE_GROUPS = [(1, 11), (1, 12), (2, 6)]


def search_rounds(rng: random.Random):
    covering = canonical_groups(2, 10)
    seeds: set = set()
    scans: set = set()
    for r in range(SEARCH_ROUNDS):
        ops: list[Argv] = []
        for shape in covering:
            seed = rng.getrandbits(32)
            while seed in seeds:
                seed = rng.getrandbits(32)
            seeds.add(seed)
            ops.append(("covering", "--group", _spec(shape), "--trials", str(COVERING_TRIALS), "--seed", str(seed), "--json"))
        for k, shape in enumerate(ORACLE_GROUPS):
            bound = 6 + 2 * ((k + r) % 3)
            ops.append(("oracle", "--group", _spec(shape), "--oracle-bound", str(bound), "--json"))
        while True:
            scan = (rng.randint(4, 47), rng.randint(48, 64))
            if scan not in scans:
                break
        scans.add(scan)
        ops.append(("density", "--from", str(scan[0]), "--to", str(scan[1]), "--json"))
        yield ops


WORKLOADS = {
    "certify": certify_rounds,
    "curve": curve_rounds,
    "search": search_rounds,
    "minvec": minvec_rounds,
}

# Seconds one round took on the reference machine (2-core Xeon VM, Python
# 3.11) at the commit that added the benchmark. They only size runs.
ROUND_SECONDS = {"certify": 8.5, "curve": 7.0, "search": 6.5, "minvec": 8.5}


def round_count(workload: str, seconds: float) -> int:
    """Whole rounds in a run meant to measure about the given seconds."""
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def rounds(workload: str, seed: int):
    """Rounds of argv tuples for the workload, drawn from the seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
