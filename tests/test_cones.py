"""Cone membership, thresholds, and the brute-force refuter.

The refuter is the independent oracle here: it enumerates multisets of
interior lattice points and never consults the threshold formula, so
agreement between the two is evidence, not circularity.
"""

from __future__ import annotations

import itertools
import random
import time
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from confn.cones import (
    Cone,
    ConeError,
    _solve,
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
    report = cone.adjoint_freeness_threshold(lat.make(k))
    assert report.m_star == expected


def test_threshold_report_is_sharp():
    report = F1_NEF.adjoint_freeness_threshold(F1.make([-2, -3]))
    assert report.m_star == 2
    assert report.witness is not None and len(report.witness) == 1
    total = list((-2, -3))
    for point in report.witness:
        total = [a + b for a, b in zip(total, point)]
    assert F1_NEF.values_at(total)[report.violated_index] < 0


def test_threshold_certifies_by_integrality():
    report = DP7_NEF.adjoint_freeness_threshold(DP7.make([-3, 1, 1]))
    for per in report.per_functional:
        assert per.min_interior == 1


def test_threshold_inconclusive_outside_radius():
    scaled_lat = PicardLattice(("G",))
    cone = Cone(scaled_lat, ((2,),))
    assert cone.functionals == ((1,),)  # primitivity absorbs the scale
    # a cone so narrow that no interior lattice point has sup-norm 6 or
    # less; the threshold is decided all the same
    lat = PicardLattice(("A", "B"))
    narrow = Cone(lat, ((1, 0), (-10, 1)))
    assert next(narrow.interior_points(6), None) is None
    assert narrow.adjoint_freeness_threshold(lat.make([-1, 0])).m_star == 1


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
    report = cone.adjoint_freeness_threshold(merged.make([-2, -3, -2]))
    assert report.m_star == 2
    oracle = interior_by_refuter(cone, merged.make([-2, -3, -2]), radius=4)
    assert oracle == 2


def _fresh_p1p1_squared() -> tuple[Cone, tuple[Cone, ...]]:
    ray = Cone(LINE, ((1,),))
    p1p1 = product_cone(PicardLattice(("A", "B")), (ray, ray))
    factors = (p1p1, p1p1)
    return product_cone(PicardLattice(("A1", "B1", "A2", "B2")), factors), factors


def _fresh_f1_squared() -> tuple[Cone, tuple[Cone, ...]]:
    f1 = Cone(F1, ((1, 0), (-1, 1)))
    factors = (f1, f1)
    return product_cone(PicardLattice(("S1", "F1", "S2", "F2")), factors), factors


@pytest.mark.parametrize(
    "make", [_fresh_p1p1_squared, _fresh_f1_squared], ids=["p1p1_squared", "f1_squared"]
)
def test_product_first_interior_point_matches_enumeration(make):
    cone, factors = make()
    point = cone.first_interior_point()
    assert point == sum((f.first_interior_point() for f in factors), ())
    assert all(v > 0 for v in cone.values_at(point))
    # answers are stable: a second query and a fresh cone agree with the first
    fresh, _ = make()
    assert cone.first_interior_point() == point
    assert fresh.first_interior_point() == point
    for k in range(len(cone.functionals)):
        first = cone.min_interior_value(k)
        assert cone.values_at(first)[k] == 1
        assert all(v > 0 for v in cone.values_at(first))
        assert cone.min_interior_value(k) == first
        assert fresh.min_interior_value(k) == first


def test_cone_memo_is_keyed_by_radius():
    lat = PicardLattice(("A", "B"))
    narrow = Cone(lat, ((1, 0), (-10, 1)))  # first interior point (1, 11)
    canonical = lat.make([-1, 0])
    report = narrow.adjoint_freeness_threshold(canonical)
    assert report.m_star == 1
    assert report.per_functional[0].interior_witness == (1, 11)
    assert narrow.first_interior_point() == (1, 11)
    # the exact queries take no radius, so neither does any memo key
    assert narrow._memo
    assert set(narrow._memo) == {("min", 0), ("min", 1)}


def test_product_first_interior_point_none_with_enumeration():
    lat = PicardLattice(("A", "B"))
    narrow = Cone(lat, ((1, 0), (-10, 1)))  # first interior point (1, 11)
    cone = product_cone(PicardLattice(("A", "B", "H")), (narrow, RAY))
    assert next(cone.interior_points(6), None) is None
    assert cone.first_interior_point() == (1, 11, 1)
    assert cone.first_interior_point() == next(cone.interior_points(11))


def test_half_plane_threshold_equals_oracle():
    # the cone contains the line spanned by (0, 1); the threshold needs no apex
    lat = PicardLattice(("A", "B"))
    half = Cone(lat, ((1, 0),))
    canonical = lat.make([-1, 0])
    report = half.adjoint_freeness_threshold(canonical)
    assert report.m_star == 1
    assert interior_by_refuter(half, canonical) == 1


def test_empty_interior_rejected_at_admission():
    lat = PicardLattice(("A", "B", "C"))
    rows = ((1, -3, 0), (1, -1, -3), (-2, 2, 1), (1, 3, 3))
    with pytest.raises(ConeError, match="empty interior"):
        Cone(lat, rows)


def test_supplied_admission_data_is_checked():
    with pytest.raises(ConeError, match="not interior"):
        Cone(F1, ((1, 0), (-1, 1)), interior_point=(1, 1))
    with pytest.raises(ConeError, match="does not separate"):
        Cone(F1, ((1, 0), (-1, 1)), irredundancy_witnesses=((-1, 0), (0, 1)))
    # a vector of the wrong length is rejected, not read by a truncated sum
    for point in ((1,), (1, 2, 0)):
        with pytest.raises(ConeError, match=r"interior point .* lattice rank is 2"):
            Cone(F1, ((1, 1), (1, 2)), interior_point=point)
    for witness in ((-1,), (-1, 0, 5)):
        with pytest.raises(ConeError, match=r"witness .* lattice rank is 2"):
            Cone(F1, ((1, 0), (0, 1)), irredundancy_witnesses=(witness, (0, -1)))


def _feasible_by_plain_elimination(rows, rank):
    """Fourier-Motzkin that drops no row: the reference decision."""
    system = set(rows)
    for i in range(rank):
        system = {(a, b) for a, b in system if a[i] == 0} | {
            (tuple(a[i] * w - c[i] * v for v, w in zip(a, c)), a[i] * d - c[i] * b)
            for a, b in system
            if a[i] > 0
            for c, d in system
            if c[i] < 0
        }
    return all(b <= 0 for _, b in system)


def test_solver_agrees_with_plain_elimination():
    rng = random.Random(20261018)
    for _ in range(400):
        rank = rng.randint(2, 4)
        rows = [
            (tuple(rng.randint(-3, 3) for _ in range(rank)), rng.choice([-1, 0, 1, 1]))
            for _ in range(rng.randint(2, 7))
        ]
        point = _solve(rows, rank)
        assert (point is not None) == _feasible_by_plain_elimination(rows, rank), rows
        if point is not None:
            assert all(sum(x * y for x, y in zip(a, point)) >= b for a, b in rows)


def test_rank8_cone_builds_and_decides_quickly():
    lat = PicardLattice(tuple(f"B{i}" for i in range(8)))
    rows = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    for i in range(8):
        row = [0] * 8
        row[i] += 1
        row[(i + 1) % 8] += 1
        row[(i + 2) % 8] -= 1
        rows.append(tuple(row))
    start = time.perf_counter()
    cone = Cone(lat, rows)
    report = cone.adjoint_freeness_threshold(lat.make([-2] + [0] * 7))
    assert time.perf_counter() - start < 1.0
    assert report.m_star == 2
    for per in report.per_functional:
        assert cone.values_at(per.interior_witness)[per.index] == 1
        assert all(v > 0 for v in cone.values_at(per.interior_witness))


def test_interior_points_deterministic_prefix():
    first = list(F1_NEF.interior_points(3))
    assert first[0] == (1, 2)
    assert first == list(F1_NEF.interior_points(3))
    assert set(first) <= set(F1_NEF.interior_points(4))


@st.composite
def cones_and_radii(draw):
    rank = draw(st.integers(1, 4))
    entry = st.integers(-4, 4)
    rows = draw(
        st.lists(st.tuples(*[entry] * rank), min_size=1, max_size=rank + 2)
    )
    try:
        cone = Cone(PicardLattice(tuple(f"e{i}" for i in range(rank))), rows)
    except ConeError:
        assume(False)
    return cone, draw(st.integers(0, 5))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cones_and_radii())
# zero and negative last entries, and the one-point box of radius 0
@example((Cone(DP7, ((1, -1, 0), (0, 1, -1), (0, 0, 1))), 4))
@example((Cone(F1, ((1, 0), (-1, -1))), 3))
@example((Cone(F1, ((1, 0), (0, 1))), 0))
def test_interior_points_equal_the_filtered_box(case):
    cone, radius = case
    rank = cone.lattice.rank
    plain = [
        p
        for p in lattice_points_by_shell(rank, radius)
        if all(v > 0 for v in cone.values_at(p))
    ]
    assert list(cone.interior_points(radius)) == plain
    assert set(cone._memo) == {("interior", radius)}
    assert list(cone.interior_points(radius)) == plain


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
        canonical = lat.make([rng.randint(-4, 2), rng.randint(-4, 2)])
        report = cone.adjoint_freeness_threshold(canonical)
        if report.m_star > 5:
            continue
        assert report.m_star == interior_by_refuter(
            cone, canonical, max_m=7, radius=4
        )
        checked += 1


def test_random_cones_with_a_line_threshold_equals_oracle():
    # fewer functionals than the rank, so every such cone contains a line;
    # the oracle finds the escape at m* - 1 only when the witness is in its box
    rng = random.Random(20261018)
    radius = 3
    checked = 0
    while checked < 30:
        rank = rng.choice((2, 3))
        lat = PicardLattice(("A", "B", "C")[:rank])
        rows = tuple(
            tuple(rng.randint(-2, 2) for _ in range(rank))
            for _ in range(rng.randint(1, rank - 1))
        )
        try:
            cone = Cone(lat, rows)
        except ConeError:
            continue
        canonical = lat.make([rng.randint(-3, 1) for _ in range(rank)])
        report = cone.adjoint_freeness_threshold(canonical)
        if report.m_star > 3:
            continue
        m_star = report.m_star
        assert brute_force_refute(cone, canonical, m_star, radius) is None
        assert brute_force_refute(cone, canonical, m_star + 1, radius) is None
        if m_star >= 1 and all(max(map(abs, p)) <= radius for p in report.witness):
            assert brute_force_refute(cone, canonical, m_star - 1, radius) is not None
        checked += 1


# ------------------------------------------------- the refuter's block split


def flat_refute(cone: Cone, canonical, m: int, radius: int):
    """The refuter before the block split: one search over the whole box."""
    if m < 0:
        raise ValueError("tuple size must be nonnegative")
    k_vals = cone.values(canonical)
    n_funcs = len(cone.functionals)
    if m == 0:
        return () if any(v < 0 for v in k_vals) else None
    points = list(cone.interior_points(radius))
    if not points:
        return None
    vals = [cone.values_at(p) for p in points]
    suffix_min = [None] * (len(points) + 1)
    suffix_min[len(points)] = tuple(0 for _ in range(n_funcs))
    running = [None] * n_funcs
    for i in range(len(points) - 1, -1, -1):
        for k in range(n_funcs):
            v = vals[i][k]
            running[k] = v if running[k] is None else min(running[k], v)
        suffix_min[i] = tuple(running)

    def search(start: int, depth: int, partial: tuple[int, ...], chosen: tuple[int, ...]):
        remaining = m - depth
        if remaining == 0:
            if any(k_vals[k] + partial[k] < 0 for k in range(n_funcs)):
                return chosen
            return None
        if start >= len(points):
            return None
        if all(
            k_vals[k] + partial[k] + remaining * suffix_min[start][k] >= 0
            for k in range(n_funcs)
        ):
            return None
        for i in range(start, len(points)):
            hit = search(
                i,
                depth + 1,
                tuple(partial[k] + vals[i][k] for k in range(n_funcs)),
                chosen + (i,),
            )
            if hit is not None:
                return hit
        return None

    hit = search(0, 0, (0,) * n_funcs, ())
    if hit is None:
        return None
    return tuple(points[i] for i in hit)


@st.composite
def block_diagonal_cases(draw):
    """A product of random rank-1 and rank-2 cones with one free coordinate
    spliced in, of total rank at most 5, with a canonical class, m and a
    radius."""
    ranks = draw(st.lists(st.sampled_from((1, 2)), min_size=1, max_size=4))
    assume(sum(ranks) <= 4)
    entry = st.integers(-3, 3)
    factors = []
    for rank in ranks:
        if rank == 1:
            factors.append(Cone(LINE, ((draw(st.sampled_from((1, -1))),),)))
            continue
        rows = draw(st.lists(st.tuples(entry, entry), min_size=1, max_size=3))
        try:
            factors.append(Cone(F1, rows))
        except ConeError:
            assume(False)
    rank = sum(ranks)
    product = product_cone(PicardLattice(tuple(f"e{i}" for i in range(rank))), factors)
    free = draw(st.integers(0, rank))
    lat = PicardLattice(tuple(f"e{i}" for i in range(rank + 1)))
    cone = Cone(lat, tuple(f[:free] + (0,) + f[free:] for f in product.functionals))
    coeffs = st.lists(st.integers(-4, 2), min_size=rank + 1, max_size=rank + 1)
    canonical = lat.make(draw(coeffs))
    return cone, canonical, draw(st.integers(0, 4)), draw(st.integers(1, 3))


NARROW_BY_RAY = Cone(
    PicardLattice(("A", "B", "H", "T")),
    ((1, 0, 0, 0), (-3, 1, 0, 0), (0, 0, 1, 0)),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(block_diagonal_cases())
# the ray refutes, but the narrow block has no interior point of sup-norm
# 3 or less, so neither has the cone
@example((NARROW_BY_RAY, NARROW_BY_RAY.lattice.make([0, 0, -2, 0]), 1, 3))
def test_block_split_refutes_exactly_when_the_flat_search_does(case):
    cone, canonical, m, radius = case
    found = brute_force_refute(cone, canonical, m, radius)
    assert (found is None) == (flat_refute(cone, canonical, m, radius) is None)
    if found is None:
        return
    assert len(found) == m
    total = list(canonical.coeffs)
    for point in found:
        assert all(v > 0 for v in cone.values_at(point))
        assert max(map(abs, point)) <= radius
        total = [a + b for a, b in zip(total, point)]
    assert any(v < 0 for v in cone.values_at(total))


# ------------------------------------------------- supports against dense sums


def _dense(functional, coeffs) -> int:
    assert len(functional) == len(coeffs)
    return sum(a * x for a, x in zip(functional, coeffs))


@st.composite
def nested_cones(draw, depth: int = 2):
    """A random cone of rank 1 to 3, or a product of two or three nested
    cones, so that products of products occur."""
    if depth == 0 or draw(st.booleans()):
        rank = draw(st.integers(1, 3))
        entry = st.integers(-3, 3)
        rows = draw(st.lists(st.tuples(*[entry] * rank), min_size=1, max_size=rank + 1))
        try:
            return Cone(PicardLattice(tuple(f"e{i}" for i in range(rank))), rows)
        except ConeError:
            assume(False)
    factors = draw(st.lists(nested_cones(depth - 1), min_size=2, max_size=3))
    rank = sum(f.lattice.rank for f in factors)
    return product_cone(PicardLattice(tuple(f"e{i}" for i in range(rank))), factors)


@st.composite
def nested_cones_with_points(draw):
    """A nested cone, a point to evaluate at and a canonical class."""
    cone = draw(nested_cones())
    rank = cone.lattice.rank
    coeffs = st.lists(st.integers(-5, 5), min_size=rank, max_size=rank)
    return cone, tuple(draw(coeffs)), tuple(draw(coeffs))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(nested_cones_with_points())
# a product of products of rays, and F1 times a product with a free coordinate
@example((_fresh_p1p1_squared()[0], (3, -1, 0, 2), (-2, -2, -1, 0)))
@example(
    (
        product_cone(
            PicardLattice(("S", "F", "A", "B", "H", "T")),
            (F1_NEF, product_cone(PicardLattice(("A", "B", "H", "T")), (NARROW_BY_RAY,))),
        ),
        (1, 2, 1, 4, 1, -3),
        (-2, -3, -1, 0, -2, 5),
    )
)
def test_supports_evaluate_as_the_dense_functionals(case):
    cone, point, canonical_coeffs = case
    for f, support in zip(cone.functionals, cone.supports, strict=True):
        assert gcd(*f) == 1
        assert support == tuple((i, a) for i, a in enumerate(f) if a)
    assert cone.values_at(point) == tuple(_dense(f, point) for f in cone.functionals)
    for k, f in enumerate(cone.functionals):
        witness = cone.min_interior_value(k)
        assert _dense(f, witness) == 1
        assert all(_dense(g, witness) > 0 for g in cone.functionals)
    canonical = cone.lattice.make(canonical_coeffs)
    on_canonical = [_dense(f, canonical_coeffs) for f in cone.functionals]
    report = cone.adjoint_freeness_threshold(canonical)
    assert [p.value_on_canonical for p in report.per_functional] == on_canonical
    assert report.m_star == max(0, *(-v for v in on_canonical))
    if report.m_star >= 1:
        total = list(canonical_coeffs)
        for p in report.witness:
            total = [a + b for a, b in zip(total, p)]
        assert _dense(cone.functionals[report.violated_index], total) < 0
