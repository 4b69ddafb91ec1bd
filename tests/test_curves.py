import random
from math import lcm

import pytest
from reference import first_complement, full_walk_points, subgroup

from eclat.curves import Curve, CurveGroup, _enumeration, curve_group, group_structure, point_order
from eclat.errors import BadInput, CurveTooLarge, InternalInconsistency, PointNotOnCurve, SingularCurve
from eclat.exact import is_prime, xgcd
from eclat.groups import AbelianGroup


def test_curve_validation():
    # BadInput is a ValueError too, so library callers that catch ValueError keep working
    assert issubclass(BadInput, ValueError)
    with pytest.raises(BadInput, match="^p must be a prime greater than 3, got 4$"):
        Curve(4, 1, 1)  # not prime
    with pytest.raises(BadInput):
        Curve(3, 1, 1)  # p must exceed 3
    with pytest.raises(SingularCurve):
        Curve(5, 0, 0)


def test_point_add_identity_and_inverse():
    c = Curve(7, 2, 3)
    P = next(pt for pt in c.points() if pt is not None)
    assert c.add(P, None) == P
    assert c.add(None, P) == P
    assert c.add(P, c.neg(P)) is None


def test_addition_table_abelian_and_associative():
    # exhaustive over all point pairs (and triples for associativity)
    c = Curve(7, 2, 3)
    pts = c.points()
    for P in pts:
        for Q in pts:
            s = c.add(P, Q)
            assert s in pts
            assert s == c.add(Q, P)
    for P in pts:
        for Q in pts:
            for R in pts:
                assert c.add(c.add(P, Q), R) == c.add(P, c.add(Q, R))


# (a, b) per prime; y^2 = x^3 + x has three roots x at each of these p = 1 mod 4, so y = 0 occurs three times
POINTS_CURVES = {
    5: [(1, 0), (0, 1), (1, 1), (2, 1)],
    13: [(1, 0), (2, 2), (0, 5), (7, 11)],
    101: [(1, 0), (21, 89), (0, 3), (100, 0)],
    1009: [(1, 0), (2, 3), (0, 7)],
}


def test_curve_points_brute_force_count():
    # every point once and in order: infinity, then (x, y) ascending
    for p, params in POINTS_CURVES.items():
        for a, b in params:
            on_curve = sorted((x, y) for x in range(p) for y in range(p) if (y * y - x**3 - a * x - b) % p == 0)
            assert Curve(p, a, b).points() == [None, *on_curve], (p, a, b)
        assert sum(pt[1] == 0 for pt in Curve(p, 1, 0).points()[1:]) == 3


@pytest.mark.parametrize("p", [5, 7, 11])
def test_hasse_bound_and_on_curve(p):
    for a in range(p):
        for b in range(p):
            try:
                c = Curve(p, a, b)
            except SingularCurve:
                continue
            pts = c.points()
            assert (len(pts) - p - 1) ** 2 <= 4 * p
            assert all(c.contains_point(pt) for pt in pts)


def test_curve_too_large():
    with pytest.raises(CurveTooLarge):
        Curve(100003, 1, 1).points()


def test_point_order_matches_repeated_addition():
    c = Curve(11, 3, 5)
    pts = c.points()
    for P in pts:
        k = point_order(c, P, len(pts))
        acc = None
        steps = 0
        while True:
            acc = c.add(acc, P)
            steps += 1
            if acc is None:
                break
        assert steps == k or (P is None and k == 1)


def test_group_structure_prime_order_is_cyclic():
    c = Curve(5, 1, 1)  # 9 points; n1 must divide p - 1 = 4, so cyclic
    cg = curve_group(c)
    assert (cg.structure.m, cg.structure.n) == (1, 9)


def test_group_structure_full_two_torsion():
    c = Curve(5, 1, 0)  # y^2 = x^3 + x: four points, all 2-torsion
    cg = curve_group(c)
    assert (cg.structure.m, cg.structure.n) == (2, 2)
    assert all(point_order(c, P, 4) <= 2 for P in full_walk_points(c, 2, 2, *cg.generators))


def test_group_structure_divisibility_constraints():
    for p in (5, 7, 13):
        for a in range(p):
            for b in range(p):
                try:
                    c = Curve(p, a, b)
                except SingularCurve:
                    continue
                cg = curve_group(c)
                n1, n2 = cg.structure.m, cg.structure.n
                assert n2 % n1 == 0
                assert (p - 1) % n1 == 0


def test_label_is_isomorphism_exhaustive():
    c = Curve(7, 1, 0)
    cg = curve_group(c)
    g = cg.structure
    points = full_walk_points(c, g.m, g.n, *cg.generators)
    label = dict(zip(points, g.elements()))
    assert len(label) == g.order
    assert label[None] == (0, 0)
    for P in points:
        for Q in points:
            assert label[c.add(P, Q)] == g.add(label[P], label[Q])


def test_group_structure_independent_of_point_order():
    c = Curve(13, 2, 2)
    pts = c.points()
    cg1 = group_structure(pts, c)
    shuffled = list(pts)
    random.Random(5).shuffle(shuffled)
    cg2 = group_structure(shuffled, c)
    assert cg1.structure == cg2.structure
    assert _walk_points(cg1) == _walk_points(cg2)


def _walk_points(cg):
    return full_walk_points(cg.curve, cg.structure.m, cg.structure.n, *cg.generators)


def test_xgcd_coefficient_is_the_modular_inverse():
    for m in range(1, 60):
        for a in range(-70, 71):
            g, x, _ = xgcd(a % m, m)
            if g == 1:
                assert pow(a, -1, m) == x % m
            else:
                with pytest.raises(ValueError):
                    pow(a, -1, m)


def test_mul_matches_repeated_addition():
    c = Curve(13, 2, 2)
    N = len(c.points())
    for P in c.points():
        multiples = {0: None}
        for k in range(1, 2 * N + 1):
            multiples[k] = c.add(multiples[k - 1], P)
            multiples[-k] = c.neg(multiples[k])
        for k, expected in multiples.items():
            assert c.mul(k, P) == expected


# The all-orders scan group_structure used before the Sylow search, kept as a
# reference: it computes every point's order, takes n2 as their lcm, picks the
# generators by the same rules, and labels every point by a*g1 + b*g2, which
# must be a bijection; it returns the CurveGroup and the labelled points.
def _all_orders_group_structure(points, curve):
    pts = set(points)
    if None not in pts:
        raise PointNotOnCurve("the point list must contain the identity (point at infinity)")
    for pt in pts:
        curve.require_point(pt)
    count = len(pts)
    ordered = [None] + sorted(pt for pt in pts if pt is not None)

    orders = {pt: point_order(curve, pt, count) for pt in ordered}
    n2 = 1
    for o in orders.values():
        n2 = lcm(n2, o)
    if count % n2 != 0:
        raise InternalInconsistency("group exponent does not divide the group order")
    n1 = count // n2

    g2 = next((pt for pt in ordered if orders[pt] == n2), None)
    if g2 is None and n2 > 1:
        raise InternalInconsistency("no point realizes the group exponent")
    span_g2 = _cyclic_span(curve, g2, n2)
    if len(span_g2) != n2:
        raise InternalInconsistency("generator span smaller than its order")

    g1 = None
    if n1 > 1:
        for candidate in ordered:
            if orders[candidate] != n1:
                continue
            if _span_meets_trivially(curve, candidate, n1, span_g2):
                g1 = candidate
                break
        else:
            raise InternalInconsistency("no complementary generator found")

    structure = AbelianGroup(n1, n2)
    labels = {}
    indexed = []
    row_start = None
    for a in range(n1):
        pt = row_start
        for b in range(n2):
            labels[pt] = (a, b)
            indexed.append(pt)
            pt = curve.add(pt, g2)
        row_start = curve.add(row_start, g1)
    if len(labels) != count or set(indexed) != pts:
        raise InternalInconsistency("generator pair does not label the group bijectively")
    if n1 > 1 and (curve.p - 1) % n1 != 0:
        raise InternalInconsistency(f"n1 = {n1} does not divide p - 1 = {curve.p - 1}")
    return CurveGroup(curve, structure, (g1, g2)), tuple(indexed)


def _cyclic_span(curve, point, order):
    span = set()
    acc = None
    for _ in range(order):
        span.add(acc)
        acc = curve.add(acc, point)
    return span


def _span_meets_trivially(curve, point, order, other_span):
    acc = point
    for _ in range(order - 1):
        if acc in other_span:
            return False
        acc = curve.add(acc, point)
    return True


def _assert_matches_oracle(cg):
    expected, points = _all_orders_group_structure(cg.curve.points(), cg.curve)
    assert (cg.structure.m, cg.structure.n) == (expected.structure.m, expected.structure.n)
    assert cg.generators == expected.generators
    assert _walk_points(cg) == points


def test_group_structure_matches_all_orders_oracle():
    # every nonsingular curve over 5 <= p <= 31, where the all-orders scan of every point stays cheap
    curves_seen = 0
    for p in filter(is_prime, range(5, 32)):
        for a in range(p):
            for b in range(p):
                try:
                    c = Curve(p, a, b)
                except SingularCurve:
                    continue
                cg = curve_group(c)
                _assert_matches_oracle(cg)
                curves_seen += 1
    assert curves_seen == 3190


def test_group_structure_rejects_non_group():
    c = Curve(101, 21, 89)
    P = next(pt for pt in c.points() if pt is not None and c.add(pt, pt) is not None)
    with pytest.raises(InternalInconsistency):
        group_structure([None, P], c)


def test_group_structure_rejects_points_off_the_curve():
    c = Curve(101, 21, 89)
    message = r"^\(0, 1\) is not on y\^2 = x\^3 \+ 21x \+ 89 over F_101$"
    with pytest.raises(PointNotOnCurve, match=message):
        group_structure([None, (0, 1)], c)
    with pytest.raises(PointNotOnCurve, match=message):
        group_structure([*c.points(), (0, 1)], c)


def test_group_structure_accepts_exactly_the_curve_group():
    # subgroups (the proper ones refused), each possibly with one point dropped or one added, and random point sets
    rng = random.Random(7)
    accepted = rejected = 0
    for p, a, b in ((101, 21, 89), (103, 1, 0), (109, 3, 7), (127, 0, 5), (13, 2, 2), (31, 1, 0)):
        c = Curve(p, a, b)
        cg = curve_group(c)
        points = c.points()
        for _ in range(60):
            if rng.random() < 0.5:
                sub = subgroup(c, rng.sample(points, rng.randint(1, 2)))
                tweak = rng.choice(("none", "drop", "add"))
                if tweak == "drop" and len(sub) > 1:
                    sub.discard(rng.choice(sorted(pt for pt in sub if pt is not None)))
                elif tweak == "add":
                    sub.add(rng.choice(points))
            else:
                sub = {None, *rng.sample(points, rng.randint(1, 12))}
            if sub == set(points):
                result = group_structure(list(sub), c)
                assert (result.structure, result.generators) == (cg.structure, cg.generators)
                accepted += 1
            else:
                with pytest.raises(InternalInconsistency):
                    group_structure(list(sub), c)
                rejected += 1
        # E(F_p) with one point dropped, for each affine point
        for P in points[1:]:
            with pytest.raises(InternalInconsistency):
                group_structure([pt for pt in points if pt != P], c)
    assert accepted > 0 and rejected > 0


@pytest.mark.parametrize("spec", [(101, 21, 89), (9973, 1, 0)], ids=lambda s: "%d,%d,%d" % s)
def test_group_structure_refuses_e_fp_less_one_point_by_its_count(spec):
    # every point is on the curve, so the count alone refuses the list, whichever point is dropped
    c = Curve(*spec)
    points = c.points()
    message = rf"^the {len(points) - 1} points are not all of E\(F_p\)$"
    for P in (points[1], points[len(points) // 2], points[-1]):
        with pytest.raises(InternalInconsistency, match=message):
            group_structure([pt for pt in points if pt != P], c)


def test_group_structure_refuses_a_proper_subgroup_by_its_count():
    # E(F_37) for y^2 = x^3 + 1 is Z/4 x Z/12; its 2-torsion E[2] is a subgroup of 4 points
    c = Curve(37, 0, 1)
    assert curve_group(c).structure == AbelianGroup(4, 12)
    two_torsion = subgroup(c, [pt for pt in c.points() if pt is not None and pt[1] == 0])
    assert len(two_torsion) == 4
    with pytest.raises(InternalInconsistency, match=r"^the 4 points are not all of E\(F_p\)$"):
        group_structure(list(two_torsion), c)


@pytest.mark.parametrize(
    "spec", [(13, 0, 5), (29, 4, 7), (31, 0, 1), (37, 1, 0), (37, 0, 1), (43, 0, 3)], ids=lambda s: "%d,%d,%d" % s
)
def test_group_structure_refuses_every_proper_subgroup(spec):
    # groups 4x4, 4x8, 6x6 over p <= 31 and 6x6, 4x12, 7x7 over p = 37 and 43; every subgroup is generated by
    # two points
    c = Curve(*spec)
    points = c.points()
    expected = curve_group(c)
    subgroups = {frozenset(subgroup(c, [P, Q])) for P in points for Q in points}
    assert len(subgroups) > 4
    for sub in subgroups:
        if len(sub) == len(points):
            result = group_structure(list(sub), c)
            assert (result.structure, result.generators) == (expected.structure, expected.generators)
        else:
            with pytest.raises(InternalInconsistency):
                group_structure(list(sub), c)


# The list-free path: curve_group counts E(F_p) from a square-root table and scans it lazily, and takes g1 from
# the sorted n1-torsion; group_structure checks a list against that count and returns curve_group's result. Each
# check below compares the two, the count and the lazy scan with points(), and g1 with reference.first_complement,
# the scan of every point.
def _check_list_free(c):
    count, scan = _enumeration(c)
    points = c.points()
    assert list(scan()) == points and count == len(points)
    cg = curve_group(c)
    listed = group_structure(points, c)
    assert (cg.structure, cg.generators) == (listed.structure, listed.generators)
    assert cg.generators[0] == first_complement(c, points, cg.structure.m, cg.structure.n, cg.generators[1])
    return cg


def test_list_free_path_on_every_small_curve():
    shapes = set()
    for p in filter(is_prime, range(5, 24)):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b * b) % p:
                    shapes.add(_check_list_free(Curve(p, a, b)).structure.m)
    assert max(shapes) >= 4


def _random_curves(rng, count):
    # half with three distinct roots x, so full 2-torsion and n1 >= 2
    primes = list(filter(is_prime, range(37, 10**4)))
    while count:
        p = rng.choice(primes)
        if count % 2:
            r1, r2 = rng.sample(range(p), 2)
            r3 = -(r1 + r2) % p
            if r3 in (r1, r2):
                continue
            a, b = (r1 * r2 + r1 * r3 + r2 * r3) % p, -r1 * r2 * r3 % p
        else:
            a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p:
            count -= 1
            yield Curve(p, a, b)


def test_list_free_path_on_random_curves():
    n1s = [_check_list_free(c).structure.m for c in _random_curves(random.Random(41), 300)]
    assert n1s.count(1) > 50 and n1s.count(2) > 100 and max(n1s) >= 4


@pytest.mark.parametrize(
    "spec,shape",
    [((99991, 0, 1), (6, 16758)), ((99991, 12, 3), (5, 20030)), ((10009, 0, 1), (6, 1638)), ((1013, 39, 0), (23, 46))],
    ids=lambda s: "%d,%d,%d" % s if len(s) == 3 else "%dx%d" % s,
)
def test_list_free_path_on_n1_at_least_three(spec, shape):
    # 23x46 has a Sylow 23-subgroup of exponent 23, which is its own 23-torsion
    cg = _check_list_free(Curve(*spec))
    assert (cg.structure.m, cg.structure.n) == shape
