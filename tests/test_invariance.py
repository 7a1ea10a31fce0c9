"""Basis and path invariance: the same variety gets the same interval.

``rebase`` writes a descriptor in another basis of its Picard lattice.
The convex Fujita number is a property of the variety, so the resolved
interval must not move, whichever basis or construction order is used.
The cases are drawn by hypothesis with a fixed derandomized stream, so
every run draws the same examples.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from confn.cones import Cone, ConeError
from confn.constructions import blowup_point, cyclic_cover, hypersurface_section, product
from confn.descriptors import (
    DescriptorError,
    Provenance,
    UnderApprox,
    abelian,
    complete_intersection,
    curve,
    del_pezzo7,
    hirzebruch1,
    projective_space,
)
from confn.engine import resolve, verify_certificate
from confn.lattice import IntersectionForm, LatticeError, PicardLattice

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
    assert not desc.annotations and not desc.known_effective
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
        provenance = Provenance("custom", note="rebased " + provenance.constructor)
    return dataclasses.replace(
        desc,
        lattice=lat,
        form=IntersectionForm.from_entries(lat, desc.dimension, entries),
        canonical=move(desc.canonical),
        nef=nef,
        gg=gg,
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
