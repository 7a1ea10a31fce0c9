"""Cone membership, thresholds, and the brute-force refuter.

The refuter is the independent oracle here: it enumerates multisets of
interior lattice points and never consults the threshold formula, so
agreement between the two is evidence, not circularity.
"""

from __future__ import annotations

import itertools
import random

import pytest

from confn.cones import (
    Cone,
    ConeError,
    InconclusiveSearchError,
    NonPointedConeError,
    brute_force_refute,
    lattice_points_by_shell,
    product_cone,
)
from confn.lattice import PicardLattice

F1 = PicardLattice(("S", "F"))
F1_NEF = Cone(F1, ((1, 0), (-1, 1)))  # a >= 0 and b - a >= 0 on a*S + b*F
DP7 = PicardLattice(("H", "E1", "E2"))
DP7_NEF = Cone(DP7, ((0, -1, 0), (0, 0, -1), (1, 1, 1)))
LINE = PicardLattice(("H",))
RAY = Cone(LINE, ((1,),))


def interior_by_refuter(cone, canonical, max_m=8, radius=6):
    """Least m with no refutation, checked monotonically: the oracle value."""
    for m in range(max_m + 1):
        if brute_force_refute(cone, canonical, m, radius) is None:
            for later in range(m, max_m + 1):
                assert brute_force_refute(cone, canonical, later, radius) is None
            return m
    raise AssertionError("oracle exhausted without stabilizing")


def test_shell_order_is_deterministic_and_complete():
    points = list(lattice_points_by_shell(2, 2))
    assert points[0] == (0, 0)
    assert len(points) == 25
    assert len(set(points)) == 25
    # shell radius never decreases along the stream
    radii = [max(abs(c) for c in p) if p != (0, 0) else 0 for p in points]
    assert radii == sorted(radii)
    assert points == list(lattice_points_by_shell(2, 2))


def _cube_filter_shells(rank: int, radius: int):
    """Shells by filtering the whole cube each time: the reference order."""
    yield (0,) * rank
    for r in range(1, radius + 1):
        for point in itertools.product(range(-r, r + 1), repeat=rank):
            if max(abs(x) for x in point) == r:
                yield point


@pytest.mark.parametrize("rank", range(1, 5))
def test_shells_match_cube_filter_definition(rank):
    for radius in range(6):
        assert list(lattice_points_by_shell(rank, radius)) == list(
            _cube_filter_shells(rank, radius)
        )


def test_membership_and_interior():
    assert F1_NEF.contains(F1.make([1, 1]))
    assert not F1_NEF.strictly_contains(F1.make([1, 1]))
    assert F1_NEF.strictly_contains(F1.make([1, 2]))
    assert not F1_NEF.contains(F1.make([2, 1]))


def test_functionals_are_primitive():
    cone = Cone(F1, ((2, 0), (-3, 3)))
    assert cone.functionals == ((1, 0), (-1, 1))


def test_pointedness():
    assert F1_NEF.is_pointed()
    half_plane = Cone(F1, ((1, 0),))
    assert not half_plane.is_pointed()


def test_irredundancy_witnesses_found():
    # each functional must have a point it alone rejects
    for witness, index in zip(F1_NEF.irredundancy_witnesses, range(2)):
        values = F1_NEF.values_at(witness)
        assert values[index] < 0
        assert all(v >= 0 for k, v in enumerate(values) if k != index)


def test_redundant_functional_rejected():
    with pytest.raises(ConeError):
        Cone(F1, ((1, 0), (-1, 1), (0, 1)))  # b >= 0 follows from the others


THRESHOLD_CASES = [
    # (cone, lattice, canonical coefficients, expected m*)
    (RAY, LINE, [-3], 3),  # projective plane pattern: K = -3H, mu = 1
    (RAY, LINE, [-1], 1),
    (RAY, LINE, [0], 0),
    (RAY, LINE, [2], 0),
    (F1_NEF, F1, [-2, -3], 2),
    (DP7_NEF, DP7, [-3, 1, 1], 1),
]


@pytest.mark.parametrize("cone,lat,k,expected", THRESHOLD_CASES)
def test_threshold_matches_refuter_oracle(cone, lat, k, expected):
    oracle = interior_by_refuter(cone, lat.make(k))
    assert oracle == expected
    report = cone.adjoint_freeness_threshold(lat.make(k), radius=8)
    assert report.m_star == expected


def test_threshold_report_is_sharp():
    report = F1_NEF.adjoint_freeness_threshold(F1.make([-2, -3]), radius=8)
    assert report.m_star == 2
    assert report.witness is not None and len(report.witness) == 1
    total = list((-2, -3))
    for point in report.witness:
        total = [a + b for a, b in zip(total, point)]
    assert F1_NEF.values_at(total)[report.violated_index] < 0


def test_threshold_certifies_by_integrality():
    report = DP7_NEF.adjoint_freeness_threshold(DP7.make([-3, 1, 1]), radius=8)
    for per in report.per_functional:
        assert per.min_interior == 1


def test_threshold_inconclusive_outside_radius():
    scaled_lat = PicardLattice(("G",))
    cone = Cone(scaled_lat, ((2,),))
    assert cone.functionals == ((1,),)  # primitivity absorbs the scale
    # a cone so narrow that no interior lattice point fits in the radius
    lat = PicardLattice(("A", "B"))
    narrow = Cone(lat, ((1, 0), (-10, 1)))
    with pytest.raises(InconclusiveSearchError):
        narrow.adjoint_freeness_threshold(lat.make([-1, 0]), radius=6)


def test_refuter_m0_checks_canonical_itself():
    assert brute_force_refute(RAY, LINE.make([-1]), 0, 4) == ()
    assert brute_force_refute(RAY, LINE.make([0]), 0, 4) is None


def test_refuter_monotone_in_m():
    k = F1.make([-2, -3])
    found_at = [
        brute_force_refute(F1_NEF, k, m, 6) is not None for m in range(5)
    ]
    # once refutations stop, they stay stopped
    assert found_at == sorted(found_at, reverse=True)


def test_refuter_witness_is_genuine():
    k = F1.make([-2, -3])
    witness = brute_force_refute(F1_NEF, k, 1, 6)
    assert witness is not None
    total = list(k.coeffs)
    for point in witness:
        assert F1_NEF.strictly_contains(F1.make(list(point)))
        total = [a + b for a, b in zip(total, point)]
    assert any(v < 0 for v in F1_NEF.values_at(total))


def test_product_cone_delegates_and_agrees():
    merged = PicardLattice(("S", "F", "H"))
    cone = product_cone(merged, (F1_NEF, RAY))
    assert cone.strictly_contains(merged.make([1, 2, 1]))
    assert not cone.strictly_contains(merged.make([1, 2, 0]))
    report = cone.adjoint_freeness_threshold(merged.make([-2, -3, -2]), radius=8)
    assert report.m_star == 2
    oracle = interior_by_refuter(cone, merged.make([-2, -3, -2]), radius=4)
    assert oracle == 2


def _fresh_p1p1_squared() -> Cone:
    ray = Cone(LINE, ((1,),))
    p1p1 = product_cone(PicardLattice(("A", "B")), (ray, ray))
    return product_cone(PicardLattice(("A1", "B1", "A2", "B2")), (p1p1, p1p1))


def _fresh_f1_squared() -> Cone:
    f1 = Cone(F1, ((1, 0), (-1, 1)))
    return product_cone(PicardLattice(("S1", "F1", "S2", "F2")), (f1, f1))


@pytest.mark.parametrize(
    "make", [_fresh_p1p1_squared, _fresh_f1_squared], ids=["p1p1_squared", "f1_squared"]
)
def test_product_first_interior_point_matches_enumeration(make):
    cone = make()
    for radius in range(4):
        assert cone.first_interior_point(radius) == next(
            cone.interior_points(radius), None
        )
    assert cone.first_interior_point(3) is not None
    # answers are memoized: a second query and a fresh cone agree with the first
    for radius in range(4):
        fresh = make()
        assert cone.first_interior_point(radius) == fresh.first_interior_point(radius)
        for k in range(len(cone.functionals)):
            first = cone.min_interior_value(k, radius)
            assert cone.min_interior_value(k, radius) == first
            assert fresh.min_interior_value(k, radius) == first


def test_cone_memo_is_keyed_by_radius():
    lat = PicardLattice(("A", "B"))
    narrow = Cone(lat, ((1, 0), (-10, 1)))  # first interior point (1, 11)
    canonical = lat.make([-1, 0])
    assert narrow.adjoint_freeness_threshold(canonical, radius=16).m_star == 1
    assert narrow.first_interior_point(16) == (1, 11)
    with pytest.raises(InconclusiveSearchError):
        narrow.adjoint_freeness_threshold(canonical, radius=6)
    assert narrow.first_interior_point(6) is None
    assert narrow.min_interior_value(0, 6).value is None


def test_product_first_interior_point_none_with_enumeration():
    lat = PicardLattice(("A", "B"))
    narrow = Cone(lat, ((1, 0), (-10, 1)))  # first interior point (1, 11)
    cone = product_cone(PicardLattice(("A", "B", "H")), (narrow, RAY))
    assert cone.first_interior_point(6) is None
    assert next(cone.interior_points(6), None) is None
    assert cone.first_interior_point(11) == next(cone.interior_points(11))
    assert cone.first_interior_point(11) == (1, 11, 1)


def test_non_pointed_cone_refuses_threshold():
    lat = PicardLattice(("A", "B"))
    half = Cone(lat, ((1, 0),))
    with pytest.raises(NonPointedConeError):
        half.adjoint_freeness_threshold(lat.make([-1, 0]), radius=4)


def test_interior_points_deterministic_prefix():
    first = list(F1_NEF.interior_points(3))
    assert first[0] == (1, 2)
    assert first == list(F1_NEF.interior_points(3))
    assert set(first) <= set(F1_NEF.interior_points(4))


def test_random_rank2_cones_threshold_equals_oracle():
    rng = random.Random(20251102)
    lat = PicardLattice(("A", "B"))
    checked = 0
    while checked < 40:
        rows = (
            (rng.randint(-2, 3), rng.randint(-2, 3)),
            (rng.randint(-2, 3), rng.randint(-2, 3)),
        )
        try:
            cone = Cone(lat, rows)
        except ConeError:
            continue
        if not cone.is_pointed():
            continue
        canonical = lat.make([rng.randint(-4, 2), rng.randint(-4, 2)])
        try:
            report = cone.adjoint_freeness_threshold(canonical, radius=4)
        except (InconclusiveSearchError, ConeError):
            continue
        if report.m_star > 5:
            continue
        assert report.m_star == interior_by_refuter(
            cone, canonical, max_m=7, radius=4
        )
        checked += 1
