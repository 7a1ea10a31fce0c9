"""Basis and path invariance: the same variety gets the same interval.

``rebase`` writes a descriptor in another basis of its Picard lattice.
The convex Fujita number is a property of the variety, so the resolved
interval must not move, whichever basis or construction order is used.
The cases are drawn by hypothesis with a fixed derandomized stream, so
every run draws the same examples.
"""

from __future__ import annotations

import contextlib
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from confn import cones
from confn.cones import Cone, ConeError, brute_force_refute, product_cone
from confn.constructions import blowup_point, cyclic_cover, hypersurface_section, product
from confn.descriptors import (
    DescriptorError,
    Provenance,
    UnderApprox,
    VarietyDescriptor,
    abelian,
    complete_intersection,
    curve,
    del_pezzo7,
    hirzebruch1,
    projective_space,
)
from confn.dsl import parse
from confn.engine import resolve, verify_certificate
from confn.lattice import IntersectionForm, LatticeError, PicardLattice
from confn.runner import (
    ORACLE_RADIUS,
    Report,
    VarietyRow,
    emit_json,
    emit_markdown,
    evaluate,
    explain_row,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=15)


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@st.composite
def unimodular(draw, rank: int):
    """(U, U^-1): 2 to 10 elementary integral column operations on I."""
    u = [[int(i == j) for j in range(rank)] for i in range(rank)]
    inverse = [row[:] for row in u]
    for _ in range(draw(st.integers(2, 10))):
        i = draw(st.integers(0, rank - 1))
        j = draw(st.integers(0, rank - 1))
        if i == j:  # negate column i; the inverse negates row i
            for row in u:
                row[i] = -row[i]
            inverse[i] = [-x for x in inverse[i]]
        else:  # column i += c * column j; the inverse: row j -= c * row i
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            for row in u:
                row[i] += c * row[j]
            inverse[j] = [x - c * y for x, y in zip(inverse[j], inverse[i])]
    assert _matmul(u, inverse) == [[int(i == j) for j in range(rank)] for i in range(rank)]
    return u, inverse


def rebase(desc, u, inverse):
    """``desc`` in the basis whose class j has old coordinates column j of u.

    Classes move by u^-1, functionals by u, and the form is evaluated on
    the new basis classes.  Flags and the global-generation status do not
    depend on the basis.  An atom's provenance names the variety, so it is
    kept; a composite's provenance reads blocks of the old basis, so the
    rebased descriptor is a plain custom one.
    """
    rank = desc.rank
    lat = PicardLattice(tuple(f"U{j}" for j in range(rank)))
    old_basis = [desc.lattice.make([row[j] for row in u]) for j in range(rank)]

    def move(cls_):
        return lat.make([sum(a * c for a, c in zip(row, cls_.coeffs)) for row in inverse])

    entries = {
        key: desc.form.evaluate(*(old_basis[j] for j in key))
        for key in itertools.combinations_with_replacement(range(rank), desc.dimension)
    }
    gg = desc.gg
    if isinstance(gg, UnderApprox):
        gg = UnderApprox(tuple(move(c) for c in gg.classes))
    nef = None
    if desc.nef is not None:
        nef = Cone(lat, tuple(tuple(_matmul([f], u)[0]) for f in desc.nef.functionals))
    provenance = desc.provenance
    if provenance.parents:
        provenance = Provenance("custom")
    return VarietyDescriptor._make(
        dimension=desc.dimension,
        lattice=lat,
        form=IntersectionForm.from_entries(lat, desc.dimension, entries),
        canonical=move(desc.canonical),
        nef=nef,
        gg=gg,
        flags=desc.flags,
        provenance=provenance,
    )


def _assert_verified(desc, interval):
    assert 0 <= interval.lo <= interval.hi
    for cert in interval.certificates:
        assert verify_certificate(desc, cert), (cert.rule, cert.kind, cert.value)


VARIETIES = {
    "F1": hirzebruch1,
    "dP7": del_pezzo7,
    "P1": lambda: projective_space(1),
    "P2": lambda: projective_space(2),
    "P3": lambda: projective_space(3),
    "P4": lambda: projective_space(4),
    "F1xP1": lambda: product(hirzebruch1(), projective_space(1)),
    "dP7xP1": lambda: product(del_pezzo7(), projective_space(1)),
    "F1xF1": lambda: product(hirzebruch1(), hirzebruch1()),
    "P1^4": lambda: product(
        product(projective_space(1), projective_space(1)),
        product(projective_space(1), projective_space(1)),
    ),
}


@pytest.mark.parametrize("name", VARIETIES)
@SETTINGS
@given(data=st.data())
def test_interval_is_invariant_under_change_of_basis(name, data):
    desc = VARIETIES[name]()
    expected = resolve(desc)
    moved = rebase(desc, *data.draw(unimodular(desc.rank)))
    # a unimodular change of basis keeps the gcd of the intersection numbers
    assert moved.form.gcd() == desc.form.gcd()
    interval = resolve(moved)
    assert (interval.lo, interval.hi) == (expected.lo, expected.hi)
    _assert_verified(moved, interval)


ATOMS = (
    lambda: projective_space(1),
    lambda: projective_space(2),
    hirzebruch1,
    del_pezzo7,
)


@SETTINGS
@given(st.lists(st.sampled_from(ATOMS), min_size=3, max_size=3))
def test_products_are_associative(factories):
    a, b, c = (make() for make in factories)
    left = resolve(product(product(a, b), c))
    right = resolve(product(a, product(b, c)))
    assert (left.lo, left.hi) == (right.lo, right.hi)


# threefolds and surfaces first: hypothesis draws small indices most often,
# and sections, covers and blow-ups need those dimensions
LEAVES = (
    lambda: projective_space(3),
    hirzebruch1,
    lambda: complete_intersection(3, (3,)),
    del_pezzo7,
    lambda: projective_space(2),
    lambda: complete_intersection(3, (2,)),
    lambda: complete_intersection(2, (4,), very_general=True),
    lambda: projective_space(1),
    lambda: curve(0),
    lambda: curve(2),
    lambda: abelian(2),
)


def _ample(desc):
    """An ample class when the nef cone is known, else the first basis class."""
    if desc.nef is not None:
        return desc.lattice.make(desc.nef.first_interior_point())
    return desc.lattice.basis_class(0)


def _build(tree):
    kind, *rest = tree
    if kind == "leaf":
        return LEAVES[rest[0]]()
    if kind == "product":
        return product(_build(rest[0]), _build(rest[1]))
    parent = _build(rest[0])
    if kind == "blowup":
        return blowup_point(parent)
    if kind == "cover":
        degree = rest[1]
        return cyclic_cover(parent, _ample(parent), degree, assume=("large_d",))
    return hypersurface_section(parent, _ample(parent), rest[1])


TREES = st.recursive(
    st.tuples(st.just("leaf"), st.integers(0, len(LEAVES) - 1)),
    lambda sub: st.one_of(
        st.tuples(st.just("product"), sub, sub),
        st.tuples(st.just("blowup"), sub),
        st.tuples(st.just("cover"), sub, st.integers(2, 7)),
        st.tuples(st.just("section"), sub, st.integers(5, 8)),
    ),
    max_leaves=3,
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(TREES)
def test_construction_trees_build_or_fail_cleanly(tree):
    try:
        desc = _build(tree)
    except (DescriptorError, ConeError, LatticeError):
        return
    _assert_verified(desc, resolve(desc))


# the atom families of the benchmark's generated programs, as DSL calls
PROGRAM_ATOMS = st.one_of(
    st.integers(1, 6).map("projective_space({})".format),
    st.builds(
        "complete_intersection({}, degrees = {})".format,
        st.integers(3, 5),
        st.lists(st.integers(2, 5), min_size=1, max_size=2),
    ),
    st.integers(4, 7).map(
        "complete_intersection(2, degrees = [{}], very_general = true)".format
    ),
    st.integers(0, 5).map("curve({})".format),
    st.integers(2, 3).map("abelian({})".format),
    st.builds(
        "custom(dimension = 2, basis = [H], gram = [[{}]], canonical = {}*H, "
        "nef = [[1]])".format,
        st.integers(2, 9),
        st.integers(-3, 3),
    ),
)


@st.composite
def program_items(draw):
    """(call, dependencies): atoms, covers of a P^n, products of atoms.

    A call names its dependencies as format fields, filled with the names
    of the items it depends on.
    """
    items: list[tuple[str, tuple[int, ...]]] = []
    atoms: list[int] = []
    kinds = st.sampled_from(("atom", "cover", "product"))
    for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
        if kind == "product" and atoms:
            x, y = draw(st.lists(st.sampled_from(atoms), min_size=2, max_size=2))
            items.append(("product({}, {})", (x, y)))
            continue
        if kind == "cover":
            n = draw(st.integers(4, 6))
            degree = draw(st.integers(n + 2, n + 5))
            items.append((f"projective_space({n})", ()))
            call = f"cyclic_cover({{}}, branch = H, degree = {degree})"
            items.append((call, (len(items) - 1,)))
        else:
            items.append((draw(PROGRAM_ATOMS), ()))
        atoms.append(len(items) - 1)
    return items


def _bind(items, prefix: str, wanted) -> list[str]:
    """``let`` lines binding the items in ``wanted`` as prefix + index."""
    return [
        f"let {prefix}{k} = " + call.format(*(f"{prefix}{d}" for d in deps))
        for k, (call, deps) in enumerate(items)
        if k in wanted
    ]


def _needs(items, k) -> set[int]:
    return {k}.union(*(_needs(items, d) for d in items[k][1]))


def _outputs(row):
    """The row's JSON, markdown and explain text under a fixed name."""
    row = VarietyRow(
        "V",
        row.dimension,
        row.picard_rank,
        row.interval,
        row.provenance,
        row.notes,
        row.assertions,
        row.error,
        row.internal,
        row.verified,
    )
    return emit_json(Report([row])), emit_markdown(Report([row])), explain_row(row)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(program_items())
def test_twin_bindings_report_like_a_single_binding(items):
    # each item bound twice, the twin over the twins of its dependencies
    everything = range(len(items))
    lines = [
        line
        for k in everything
        for line in _bind(items, "x", {k}) + _bind(items, "t", {k})
    ]
    lines += [f"compute {p}{k}" for k in everything for p in "xt"]
    rows = {row.name: row for row in evaluate(parse("\n".join(lines))).rows}
    for k in everything:
        single = _bind(items, "x", _needs(items, k)) + [f"compute x{k}"]
        (alone,) = evaluate(parse("\n".join(single))).rows
        expected = _outputs(alone)
        assert _outputs(rows[f"x{k}"]) == expected, single
        assert _outputs(rows[f"t{k}"]) == expected, single


@contextlib.contextmanager
def empty_shape_table():
    """Cones built inside share no shape with a cone built outside."""
    saved = cones._SHAPES
    cones._SHAPES = weakref.WeakValueDictionary()
    try:
        yield
    finally:
        cones._SHAPES = saved


def _worn_cones() -> list[Cone]:
    """A ray and a square of rays, the nef cones of every program atom and
    product, on lattices of their own, their memos filled by queries."""
    ray = Cone(PicardLattice(("H",)), ((1,),))
    square = product_cone(PicardLattice(("A", "B")), (ray, ray))
    for cone in (ray, square):
        for k in range(len(cone.functionals)):
            cone.min_interior_value(k)
        for coeffs in itertools.product(range(-4, 2), repeat=cone.lattice.rank):
            canonical = cone.lattice.make(coeffs)
            cone.adjoint_freeness_threshold(canonical)
            for m in range(4):
                brute_force_refute(cone, canonical, m, ORACLE_RADIUS)
    return [ray, square]


@settings(derandomize=True, deadline=None, max_examples=15)
@given(program_items())
def test_a_live_cone_of_the_same_shape_leaves_the_report_unchanged(items):
    lines = _bind(items, "x", range(len(items)))
    lines += [f"compute x{k}" for k in range(len(items))]
    program = parse("\n".join(lines))
    with empty_shape_table():
        alone = emit_json(evaluate(program))
    with empty_shape_table():
        kept = _worn_cones()
        shared = emit_json(evaluate(program))
        assert all(cone._shape in cones._SHAPES.values() for cone in kept)
    assert shared == alone
