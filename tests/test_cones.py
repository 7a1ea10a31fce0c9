"""Cone membership, thresholds, and the brute-force refuter.

The refuter is the independent oracle here: it enumerates multisets of
interior lattice points and never consults the threshold formula, so
agreement between the two is evidence, not circularity.
"""

from __future__ import annotations

import contextlib
import gc
import itertools
import random
import time
import weakref
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from confn import cones
from confn.cones import (
    Cone,
    ConeError,
    _integral,
    _solve,
    _split_blocks,
    _unit_preimage,
    brute_force_refute,
    lattice_points_by_shell,
    product_cone,
)
from confn.constructions import cyclic_cover, product
from confn.descriptors import del_pezzo7, hirzebruch1, projective_space
from confn.dsl import parse
from confn.lattice import LatticeError, PicardLattice
from confn.runner import CORPUS_PROGRAM, evaluate

F1 = PicardLattice(("S", "F"))
F1_NEF = Cone(F1, ((1, 0), (-1, 1)))  # a >= 0 and b - a >= 0 on a*S + b*F
DP7 = PicardLattice(("H", "E1", "E2"))
DP7_NEF = Cone(DP7, ((0, -1, 0), (0, 0, -1), (1, 1, 1)))
LINE = PicardLattice(("H",))
RAY = Cone(LINE, ((1,),))


@contextlib.contextmanager
def empty_shape_table():
    """Cones built inside share no shape with a cone built outside, as if
    no earlier cone were alive."""
    saved = cones._SHAPES
    cones._SHAPES = weakref.WeakValueDictionary()
    try:
        yield
    finally:
        cones._SHAPES = saved


@contextlib.contextmanager
def collector_off():
    """Inside, only reference counts free objects."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def searches(monkeypatch):
    """The (canonical values, m) of every block search the refuter runs."""
    found = []
    plain = cones._refute_block

    def counted(vals, suffix_min, k_vals, m):
        found.append((tuple(k_vals), m))
        return plain(vals, suffix_min, k_vals, m)

    monkeypatch.setattr(cones, "_refute_block", counted)
    return found


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
    canonical = DP7.make([-3, 1, 1])
    report = DP7_NEF.adjoint_freeness_threshold(canonical)
    # every functional is integral, so its least interior value is 1 and
    # the threshold is read off the canonical values alone
    assert report.m_star == max(0, *(-v for v in DP7_NEF.values(canonical)))
    for k in range(len(DP7_NEF.functionals)):
        witness = DP7_NEF.min_interior_value(k)
        assert DP7_NEF.values_at(witness)[k] == 1
        assert all(v > 0 for v in DP7_NEF.values_at(witness))


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
    with empty_shape_table():
        narrow = Cone(lat, ((1, 0), (-10, 1)))  # first interior point (1, 11)
    canonical = lat.make([-1, 0])
    report = narrow.adjoint_freeness_threshold(canonical)
    assert report.m_star == 1
    assert narrow.min_interior_value(0) == (1, 11)
    assert narrow.min_interior_value(1) == (1, 11)
    assert narrow.first_interior_point() == (1, 11)
    # the exact queries take no radius, so neither does any memo key
    assert narrow._shape.memo
    assert set(narrow._shape.memo) == {("min", 0), ("min", 1)}


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
    for k in range(len(cone.functionals)):
        witness = cone.min_interior_value(k)
        assert cone.values_at(witness)[k] == 1
        assert all(v > 0 for v in cone.values_at(witness))


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
    # the example cones live for the session and share shapes with drawn
    # ones, so only the query's own key is new
    before = set(cone._shape.memo)
    assert list(cone.interior_points(radius)) == plain
    assert set(cone._shape.memo) - before <= {("points", radius)}
    assert ("points", radius) in cone._shape.memo
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


def _positive_on(f, point):
    """``f`` with one coordinate raised just enough that f(point) > 0."""
    value = sum(a * x for a, x in zip(f, point))
    if value > 0:
        return f
    i = max(range(len(point)), key=lambda j: abs(point[j]))
    step = 1 if point[i] > 0 else -1
    return f[:i] + (f[i] + step * (-value // abs(point[i]) + 1),) + f[i + 1:]


def _irredundant(rows, rank):
    """``rows`` less each functional that the kept ones imply; the cone is
    the same, and dropping a functional never makes another redundant."""
    kept = list(rows)
    for f in rows:
        others = list(kept)
        others.remove(f)
        separated = [(tuple(-v for v in f), 1)] + [(g, 0) for g in others]
        if others and _solve(separated, rank) is None:
            kept = others
    return kept


@st.composite
def nested_recipes(draw, depth: int = 2):
    """How to build a random cone of rank 1 to 3, ("cone", rows), or a
    product of two or three nested cones, ("product", recipes), so that
    products of products occur.

    A cone's functionals are drawn positive on a drawn nonzero point and
    made irredundant, so ``Cone`` admits every draw."""
    if depth == 0 or draw(st.booleans()):
        rank = draw(st.integers(1, 3))
        entry = st.integers(-3, 3)
        point = draw(st.tuples(*[entry] * rank))
        if not any(point):
            point = (1,) + point[1:]
        rows = draw(st.lists(st.tuples(*[entry] * rank), min_size=1, max_size=rank + 1))
        return "cone", _irredundant([_positive_on(f, point) for f in rows], rank)
    return "product", draw(st.lists(nested_recipes(depth - 1), min_size=2, max_size=3))


def recipe_rank(recipe) -> int:
    kind, parts = recipe
    return len(parts[0]) if kind == "cone" else sum(map(recipe_rank, parts))


def built(recipe) -> Cone:
    """The cone of ``recipe``, on lattices made for it."""
    kind, parts = recipe
    lattice = PicardLattice(tuple(f"e{i}" for i in range(recipe_rank(recipe))))
    if kind == "cone":
        return Cone(lattice, parts)
    return product_cone(lattice, [built(part) for part in parts])


def nested_cones(depth: int = 2):
    """A random cone, or a product of nested cones (see ``nested_recipes``)."""
    return nested_recipes(depth).map(built)


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
    assert list(cone.values(canonical)) == on_canonical
    assert report.m_star == max(0, *(-v for v in on_canonical))
    if report.m_star >= 1:
        assert report.violated_index == on_canonical.index(-report.m_star)
        total = list(canonical_coeffs)
        for p in report.witness:
            total = [a + b for a, b in zip(total, p)]
        assert _dense(cone.functionals[report.violated_index], total) < 0


def _dense_facet_witness(cone: Cone, k: int) -> tuple[int, ...]:
    """u + t w for functional ``k``, with t the least integer that clears
    every other functional, each evaluated on the dense vectors."""
    functionals = cone.functionals
    p, q = cone.interior_point, cone.irredundancy_witnesses[k]
    at_p, at_q = _dense(functionals[k], p), _dense(functionals[k], q)
    w = [at_p * x - at_q * y for x, y in zip(q, p)]
    g = gcd(*w) or 1
    w = [v // g for v in w]
    u = _unit_preimage(cone.supports[k], cone.lattice.rank)
    t = max(
        (-((_dense(f, u) - 1) // _dense(f, w)) for j, f in enumerate(functionals) if j != k),
        default=0,
    )
    return tuple(a + t * b for a, b in zip(u, w))


@st.composite
def cones_beside_p1_and_f1(draw):
    """A random admitted cone of rank 1 to 3, as its rows, and the P1 and
    F1 factors ("p1" or "f1") beside it, in order, with its position."""
    _, rows = draw(nested_recipes(0))
    others = draw(st.lists(st.sampled_from(["p1", "f1"]), max_size=3))
    return rows, others, draw(st.integers(0, len(others)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(cones_beside_p1_and_f1())
@example((((1, 0), (-10, 1)), ["f1", "p1"], 1))
def test_facet_witnesses_equal_the_dense_formula(case):
    rows, others, position = case
    with empty_shape_table():
        lattice = PicardLattice(tuple(f"a{i}" for i in range(len(rows[0]))))
        factors = [Cone(LINE, ((1,),)) if o == "p1" else Cone(F1, ((1, 0), (-1, 1))) for o in others]
        factors.insert(position, Cone(lattice, rows))
        cone = factors[0]
        if len(factors) > 1:
            rank = sum(f.lattice.rank for f in factors)
            cone = product_cone(PicardLattice(tuple(f"e{i}" for i in range(rank))), factors)
        for k in range(len(cone.functionals)):
            assert cone.min_interior_value(k) == _dense_facet_witness(cone, k)


# ------------------------------------------- admission data without the LP


def _solved(functionals):
    """The interior point and irredundancy witnesses the linear program
    finds, as ``Cone`` found them when nothing was supplied."""
    rank = len(functionals[0])
    point = _integral(_solve([(f, 1) for f in functionals], rank))
    witnesses = tuple(
        _integral(
            _solve(
                [(tuple(-v for v in f), 1)]
                + [(g, 0) for j, g in enumerate(functionals) if j != k],
                rank,
            )
        )
        for k, f in enumerate(functionals)
    )
    return point, witnesses


@pytest.mark.parametrize("a", [1, -1])
def test_rays_take_the_linear_programs_data_in_closed_form(a):
    ray = Cone(LINE, ((a,),))
    assert _solved(((a,),)) == ((a,), ((-a,),))
    assert (ray.interior_point, ray.irredundancy_witnesses) == ((a,), ((-a,),))
    # a scaled functional is made primitive first
    assert Cone(LINE, ((5 * a,),)).interior_point == (a,)


@pytest.mark.parametrize("make", [hirzebruch1, del_pezzo7])
def test_supplied_f1_and_dp7_data_is_what_the_linear_program_finds(make):
    cone = make().nef
    assert _solved(cone.functionals) == (
        cone.interior_point,
        cone.irredundancy_witnesses,
    )


@st.composite
def nested_products(draw):
    """A product of two or three nested cones of depth at most 1, so the
    top is a product, with a canonical class and a tuple size."""
    factors = draw(st.lists(nested_cones(1), min_size=2, max_size=3))
    rank = sum(f.lattice.rank for f in factors)
    cone = product_cone(PicardLattice(tuple(f"e{i}" for i in range(rank))), factors)
    coeffs = st.lists(st.integers(-4, 2), min_size=rank, max_size=rank)
    return cone, cone.lattice.make(draw(coeffs)), draw(st.integers(0, 3))


# F1, a product with a free coordinate, and a negative ray
MIXED_PRODUCT = product_cone(
    PicardLattice(("S", "F", "A", "B", "H", "T", "Z")),
    (
        F1_NEF,
        product_cone(PicardLattice(("A", "B", "H", "T")), (NARROW_BY_RAY,)),
        Cone(LINE, ((-1,),)),
    ),
)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(nested_products())
@example(
    (MIXED_PRODUCT, MIXED_PRODUCT.lattice.make([-2, -3, 0, 0, -2, 0, 1]), 2)
)
def test_product_blocks_join_the_factor_blocks(case):
    cone, canonical, m = case
    # flat shares no shape with the product or its factors, so its blocks
    # are enumerated afresh
    with empty_shape_table():
        flat = Cone(
            cone.lattice,
            cone.functionals,
            cone.interior_point,
            cone.irredundancy_witnesses,
        )
        fresh = {radius: flat._shape._blocks(radius) for radius in range(1, 5)}
    for radius, flat_blocks in fresh.items():
        blocks = cone._shape._blocks(radius)
        assert [b[:2] for b in blocks] == list(_split_blocks(cone.functionals))
        assert [b[:2] + b[3:] for b in blocks] == [b[:2] + b[3:] for b in flat_blocks]
        assert brute_force_refute(cone, canonical, m, radius) == brute_force_refute(
            flat, canonical, m, radius
        )


def test_a_shared_factor_is_enumerated_once():
    # an equal product that an earlier test keeps alive may hold blocks it
    # found while another shape table was in place
    with empty_shape_table():
        ray = Cone(LINE, ((1,),))
        square = product_cone(PicardLattice(("A", "B")), (ray, ray))
        fourth = product_cone(PicardLattice(("A1", "B1", "A2", "B2")), (square, square))
        blocks = fourth._shape._blocks(3)
    assert all(block[2] is ray._shape for block in blocks)
    (points,) = {id(block[3]) for block in blocks}
    assert points == id(ray._shape._points(3)[0])
    assert [block[:2] for block in blocks] == [([i], [i]) for i in range(4)]


def test_the_oracle_searches_each_block_once(searches):
    def build():
        f1, ray = Cone(F1, ((1, 0), (-1, 1))), Cone(LINE, ((1,),))
        return f1, ray, product_cone(PicardLattice(("S", "F", "H")), (f1, ray))

    # F1_NEF and RAY, alive for the session, have the shapes of f1 and ray
    with empty_shape_table():
        f1, ray, prod = build()
        # at m = 2 the F1 block has no refutation and the ray block has
        # one, so the product searches both
        assert brute_force_refute(f1, F1.make([-2, -3]), 2, 4) is None
        assert brute_force_refute(ray, LINE.make([-3]), 2, 4) is not None
        assert searches == [((-2, -1), 2), ((-3,), 2)]
        searches.clear()
        found = brute_force_refute(prod, prod.lattice.make([-2, -3, -3]), 2, 4)
        assert found is not None and searches == []
        # an equal product shares the live product's shape and its searches
        *_, fresh = build()
        assert brute_force_refute(fresh, fresh.lattice.make([-2, -3, -3]), 2, 4) == found
        assert searches == []
        # once every earlier cone is gone, so are its shapes and searches
        del f1, ray, prod, fresh, _
        f1, _, fresh = build()
        assert brute_force_refute(fresh, fresh.lattice.make([-2, -3, -3]), 2, 4) == found
        assert len(searches) == 2
    # one block, two tuple sizes: each is searched once
    searches.clear()
    assert brute_force_refute(f1, F1.make([-2, -3]), 1, 4) is not None
    assert brute_force_refute(f1, F1.make([-2, -3]), 1, 4) is not None
    assert brute_force_refute(f1, F1.make([-2, -3]), 2, 4) is None
    assert searches == [((-2, -1), 1)]


def test_product_blocks_are_the_live_factor_shapes():
    with empty_shape_table():
        f1, p1 = Cone(F1, ((1, 0), (-1, 1))), Cone(LINE, ((1,),))
        a = product_cone(PicardLattice(("S", "F", "H")), (f1, p1))
        c = product_cone(PicardLattice(("S", "F", "H", "T")), (a, p1))
        for cone, shapes in ((a, [f1, p1]), (c, [f1, p1, p1])):
            blocks = cone._shape._blocks(3)
            assert all(block[2] is s._shape for block, s in zip(blocks, shapes, strict=True))
        # a block that spans every coordinate is the shape itself
        assert f1._shape._blocks(3)[0][2] is None


def test_a_flat_copy_of_a_product_shares_its_factors_blocks(searches):
    lat = PicardLattice(("S", "F", "H"))
    with empty_shape_table():
        f1, p1 = Cone(F1, ((1, 0), (-1, 1))), Cone(LINE, ((1,),))
        assert brute_force_refute(f1, F1.make([-2, -3]), 2, 4) is None
        assert brute_force_refute(p1, LINE.make([-3]), 2, 4) is not None
        searches.clear()
        # the product's admitted data, not built by product_cone, and
        # queried before any product of the same shape exists
        data = product_cone(lat, (f1, p1))
        flat = Cone(lat, data.functionals, data.interior_point, data.irredundancy_witnesses)
        del data
        assert [block[2] for block in flat._shape._blocks(4)] == [f1._shape, p1._shape]
        found = brute_force_refute(flat, lat.make([-2, -3, -3]), 2, 4)
        assert found is not None and searches == []
        prod = product_cone(lat, (f1, p1))
        assert prod._shape is flat._shape
        assert brute_force_refute(prod, lat.make([-2, -3, -3]), 2, 4) == found
        assert searches == []


@pytest.mark.parametrize("product", [False, True], ids=["one_block", "product"])
def test_a_refuted_cone_leaves_the_shape_table(product):
    with collector_off(), empty_shape_table():
        cone = Cone(F1, ((1, 0), (-1, 1)))
        canonical = F1.make([-2, -3])
        if product:
            lat = PicardLattice(("S", "F", "H"))
            cone = product_cone(lat, (cone, Cone(LINE, ((1,),))))
            canonical = lat.make([-2, -3, -3])
        assert brute_force_refute(cone, canonical, 1, 4) is not None
        assert len(cones._SHAPES) > 0
        del cone
        assert len(cones._SHAPES) == 0


@pytest.mark.parametrize(
    "functionals, supplied, message",
    [
        (((0.5, 1), (1, 0)), {}, r"functional \(0\.5, 1\) has a non-integer entry 0\.5"),
        # equal to the live cone's input, but still not an int
        (((1.0, 0), (0, 1)), {}, r"functional \(1\.0, 0\) has a non-integer entry 1\.0"),
        (
            ((1, 0), (0, 1)),
            {"interior_point": (0.5, 0.5)},
            r"supplied interior point \(0\.5, 0\.5\) has a non-integer entry 0\.5",
        ),
        (
            ((1, 0), (0, 1)),
            {"irredundancy_witnesses": ((-1, 1), (1, -0.5))},
            r"supplied irredundancy witness \(1, -0\.5\) has a non-integer entry -0\.5",
        ),
    ],
    ids=["functional", "float_equal_to_an_int", "interior_point", "witness"],
)
def test_a_non_integer_entry_is_refused(functionals, supplied, message):
    lat = PicardLattice(("A", "B"))
    # an equal integral cone alive in the table changes nothing
    alive = Cone(lat, ((1, 0), (0, 1)))
    with pytest.raises(ConeError, match=f"^{message}$"):
        Cone(lat, functionals, **supplied)
    assert alive.functionals == ((1, 0), (0, 1))


# ------------------------------------------------- shapes shared by equal cones


def test_equal_cones_on_two_lattices_share_one_shape():
    a, b = PicardLattice(("S", "F")), PicardLattice(("S", "F"))
    with empty_shape_table():
        first = Cone(a, ((1, 0), (-1, 1)))
        second = Cone(b, ((1, 0), (-1, 1)))
        assert second._shape is first._shape
        assert set(cones._SHAPES.values()) == {first._shape}
        # a copy of the admitted data, as a cyclic cover makes, shares it too
        copy = Cone(b, first.functionals, first.interior_point, first.irredundancy_witnesses)
        assert copy._shape is first._shape
        # other supplied data is other input
        assert Cone(a, ((1, 0), (-1, 1)), interior_point=(1, 3))._shape is not first._shape
    assert (first.lattice, second.lattice) == (a, b)
    assert second.strictly_contains(b.make([1, 2]))
    # the lattice is still each cone's own
    for query in (
        first.values,
        first.contains,
        first.adjoint_freeness_threshold,
        lambda cls_: brute_force_refute(first, cls_, 2, 3),
    ):
        with pytest.raises(LatticeError, match="off the cone's lattice"):
            query(b.make([-2, -3]))


def test_an_admission_that_finds_a_live_shape_shares_it():
    with empty_shape_table():
        f1 = hirzebruch1()
        # the linear program finds F1's supplied point and witnesses
        found = Cone(f1.lattice, ((1, 0), (-1, 1)))
        assert found._shape is hirzebruch1().nef._shape is f1.nef._shape
        # the input is filed under the live shape, so the next cone skips the LP
        assert cones._SHAPES[(2, ((1, 0), (-1, 1)), (), ())] is f1.nef._shape
        assert set(cones._SHAPES.values()) == {f1.nef._shape}


def test_a_product_pads_each_factor_with_zeros_outside_its_block():
    lat = PicardLattice(("S", "F", "H"))
    with empty_shape_table():
        f1, ray = Cone(F1, ((1, 0), (-1, 1))), Cone(LINE, ((1,),))
        first = product_cone(lat, (f1, ray))
        assert first.functionals == ((1, 0, 0), (-1, 1, 0), (0, 0, 1))
        assert first.irredundancy_witnesses == (
            tuple(w + (0,) for w in f1.irredundancy_witnesses) + ((0, 0, -1),)
        )
        assert first.interior_point == f1.interior_point + (1,)
        again = product_cone(lat, (f1, ray))
        assert again._shape is first._shape


def _cover_cone() -> Cone:
    """The nef cone of a double cover of F1 x P1, a copy of the product's."""
    base = product(hirzebruch1(), projective_space(1))
    return cyclic_cover(base, base.lattice.make([1, 2, 1]), 2, assume=("pic_pullback_iso",)).nef


ASSEMBLED_FACTORS = {
    "p1": lambda: projective_space(1).nef,
    "f1": lambda: hirzebruch1().nef,
    "dp7": lambda: del_pezzo7().nef,
    # found by the linear program: (1, 11) and its witnesses
    "custom": lambda: Cone(PicardLattice(("A", "B")), ((1, 0), (-10, 1))),
    "cover": _cover_cone,
}


def _on(rank: int) -> PicardLattice:
    return PicardLattice(tuple(f"e{i}" for i in range(rank)))


def _padded_data(factors) -> tuple:
    """The product's functionals, interior point and witnesses, each factor
    vector padded with zeros outside its block."""
    rank = sum(f.lattice.rank for f in factors)
    functionals, point, witnesses, before = [], (), [], 0
    for f in factors:
        ahead, after = (0,) * before, (0,) * (rank - before - f.lattice.rank)
        functionals += [ahead + v + after for v in f.functionals]
        witnesses += [ahead + v + after for v in f.irredundancy_witnesses]
        point += f.interior_point
        before += f.lattice.rank
    return tuple(functionals), point, tuple(witnesses)


def _grouped(factors, grouping: str) -> Cone:
    """The product of ``factors``: "flat" as one product, "left" as
    ((a x b) x c ...) and "right" as (a x (b x c ...))."""
    if len(factors) == 1:
        return factors[0]
    if grouping == "flat":
        return product_cone(_on(sum(f.lattice.rank for f in factors)), factors)
    if grouping == "left":
        parts = (_grouped(factors[:-1], grouping), factors[-1])
    else:
        parts = (factors[0], _grouped(factors[1:], grouping))
    return product_cone(_on(sum(f.lattice.rank for f in parts)), parts)


@pytest.mark.parametrize(
    "names",
    [
        ("p1", "p1"),
        ("f1", "p1"),
        ("dp7", "custom"),
        ("custom", "cover"),
        ("cover", "dp7", "p1"),
        ("p1", "f1", "dp7", "custom"),
    ],
    ids="-".join,
)
@pytest.mark.parametrize("grouping", ["flat", "left", "right"])
@pytest.mark.parametrize("first", ["product", "admitted"])
def test_an_assembled_shape_is_the_admitted_one(names, grouping, first):
    with empty_shape_table():
        factors = [ASSEMBLED_FACTORS[name]() for name in names]
        data = _padded_data(factors)
        lattice = _on(len(data[1]))
        with empty_shape_table():
            admitted = Cone(lattice, *data)
        if first == "admitted":
            flat = Cone(lattice, *data)
            cone = _grouped(factors, grouping)
        else:
            cone = _grouped(factors, grouping)
            flat = Cone(lattice, *data)
        assert cone._shape is flat._shape
        for name in ("functionals", "supports", "interior_point", "irredundancy_witnesses"):
            assert getattr(cone, name) == getattr(admitted, name), name
            assert getattr(cone._shape, name) == getattr(admitted._shape, name), name
        # the groupings and the flat product have one shape
        for other in ("flat", "left", "right"):
            assert _grouped(factors, other)._shape is cone._shape


def test_a_failed_admission_files_nothing():
    lat = PicardLattice(("A", "B", "C"))
    rows = ((1, -3, 0), (1, -1, -3), (-2, 2, 1), (1, 3, 3))
    with empty_shape_table():
        messages = []
        for _ in range(2):
            with pytest.raises(ConeError, match="cut out a cone with an empty interior") as info:
                Cone(lat, rows)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        with pytest.raises(ConeError, match="not interior"):
            Cone(F1, ((1, 0), (-1, 1)), interior_point=(1, 1))
        assert len(cones._SHAPES) == 0


def test_no_shape_outlives_a_run():
    with collector_off(), empty_shape_table():
        report = evaluate(parse(CORPUS_PROGRAM))
        assert not report.any_failure
        del report
        assert len(cones._SHAPES) == 0
        # a cone kept across a run lends its shape to the run's rays
        ray = Cone(LINE, ((1,),))
        report = evaluate(parse(CORPUS_PROGRAM))
        del report
        assert ray._shape.memo
        assert set(cones._SHAPES.values()) == {ray._shape}


def _answers(cone: Cone, canonical_coeffs) -> tuple:
    """What the threshold and the oracle read from the cone's shape."""
    canonical = cone.lattice.make(canonical_coeffs)
    report = cone.adjoint_freeness_threshold(canonical)
    return (
        [cone.min_interior_value(k) for k in range(len(cone.functionals))],
        (report.m_star, report.witness, report.violated_index),
        cone.values(canonical),
        # the block shapes themselves differ between the two tables
        [block[:2] + block[3:] for block in cone._shape._blocks(4)],
        [brute_force_refute(cone, canonical, m, 4) for m in range(4)],
    )


@st.composite
def recipes_with_canonicals(draw):
    """A nested recipe and two canonical classes' coefficients."""
    recipe = draw(nested_recipes())
    coeffs = st.lists(st.integers(-4, 2), min_size=recipe_rank(recipe), max_size=recipe_rank(recipe))
    return recipe, draw(coeffs), draw(coeffs)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(recipes_with_canonicals())
def test_a_shared_shape_answers_as_a_fresh_one(case):
    recipe, canonical, other = case
    with empty_shape_table():
        fresh = _answers(built(recipe), canonical)
    with empty_shape_table():
        first = built(recipe)
        _answers(first, other)
        twin = built(recipe)
        assert twin._shape is first._shape
        assert _answers(twin, canonical) == fresh
        assert _answers(first, canonical) == fresh
