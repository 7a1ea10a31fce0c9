"""Descriptor invariants and the atomic constructors."""

import pytest

from confn.cones import Cone
from confn.constructions import hypersurface_section
from confn.descriptors import (
    CUSTOM_FLAGS,
    DescriptorError,
    ExactEqualsNef,
    Provenance,
    UnderApprox,
    UnknownGG,
    VarietyDescriptor,
    abelian,
    complete_intersection,
    curve,
    custom,
    del_pezzo7,
    hirzebruch1,
    is_known_gg,
    known_gg_representatives,
    projective_space,
)
from confn.lattice import IntersectionForm, PicardLattice


# ---------------------------------------------------------------- atoms


@pytest.mark.parametrize("n", range(1, 7))
def test_projective_space_invariants(n):
    p = projective_space(n)
    assert p.dimension == n
    assert p.rank == 1
    assert p.canonical.coeffs == (-(n + 1),)
    args = [p.lattice.make([1])] * n
    assert p.form.evaluate(*args) == 1
    assert isinstance(p.gg, ExactEqualsNef)
    assert "toric" in p.flags
    assert "irregularity_zero" in p.flags


def test_projective_space_rejects_n0():
    with pytest.raises(DescriptorError):
        projective_space(0)


def test_complete_intersection_frozen_values():
    # quartic threefold: K = (4 - 5) H = -H, top = 4
    q = complete_intersection(3, (4,))
    assert q.canonical.coeffs == (-1,)
    h = q.lattice.make([1])
    assert q.form.evaluate(h, h, h) == 4
    # (2,2) in P^5: K = (4 - 6) H = -2H, top = 4
    ci = complete_intersection(3, (2, 2))
    assert ci.canonical.coeffs == (-2,)
    assert ci.form.evaluate(*[ci.lattice.make([1])] * 3) == 4
    assert "toric" not in ci.flags
    assert "irregularity_zero" in ci.flags


def test_complete_intersection_surface_gate():
    s = complete_intersection(2, (5,), very_general=True)
    assert [a.name for a in s.provenance.assertions] == ["very_general"]
    assert s.form.gcd() == 5
    with pytest.raises(DescriptorError):
        complete_intersection(2, (5,))  # very_general not asserted
    with pytest.raises(DescriptorError):
        complete_intersection(2, (3,), very_general=True)  # degree too small
    with pytest.raises(DescriptorError):
        complete_intersection(2, (4, 2), very_general=True)  # not a hypersurface


@pytest.mark.parametrize(
    "bad_call",
    [
        lambda: complete_intersection(1, (3,)),
        lambda: complete_intersection(3, ()),
        lambda: complete_intersection(3, (0, 2)),
    ],
)
def test_complete_intersection_rejects_bad_input(bad_call):
    with pytest.raises(DescriptorError):
        bad_call()


def test_complete_intersection_refuses_a_non_integer_degree_not_truncated():
    # int(2.9) would build the quadric threefold
    with pytest.raises(DescriptorError, match=r"^degrees must be integers, got 2\.9$"):
        complete_intersection(3, [2.9])


def test_hirzebruch1_frozen():
    f1 = hirzebruch1()
    s = f1.lattice.make([1, 0])
    f = f1.lattice.make([0, 1])
    assert f1.form.evaluate(s, s) == -1
    assert f1.form.evaluate(s, f) == 1
    assert f1.form.evaluate(f, f) == 0
    assert f1.canonical.coeffs == (-2, -3)
    assert f1.nef is not None
    assert f1.nef.contains(f1.lattice.make([1, 1]))
    assert not f1.nef.contains(f1.lattice.make([2, 1]))
    assert "toric" in f1.flags


def test_del_pezzo7_frozen():
    dp = del_pezzo7()
    assert dp.canonical.coeffs == (-3, 1, 1)
    anti = dp.lattice.make([3, -1, -1])
    assert dp.form.evaluate(anti, anti) == 7
    assert dp.nef is not None
    assert dp.nef.contains(dp.lattice.make([2, -1, -1]))
    assert not dp.nef.contains(dp.lattice.make([1, -1, -1]))


def test_curve_genus_dependence():
    rational = curve(0)
    assert rational.canonical.coeffs == (-2,)
    assert isinstance(rational.gg, ExactEqualsNef)
    assert "irregularity_zero" in rational.flags
    elliptic = curve(1)
    assert elliptic.canonical.coeffs == (0,)
    assert isinstance(elliptic.gg, UnknownGG)
    assert "irregularity_zero" not in elliptic.flags
    with pytest.raises(DescriptorError):
        curve(-1)


def test_abelian_defaults():
    a = abelian(3)
    assert a.canonical.coeffs == (0,)
    h = a.lattice.make([1])
    assert a.form.evaluate(h, h, h) == 6  # 3!
    assert "abelian" in a.flags
    assert isinstance(a.gg, UnknownGG)
    with pytest.raises(DescriptorError):
        abelian(0)


def test_custom_rejects_a_nef_interior_that_is_not_ample():
    # an interior class of a nef cone is ample, so its top power is positive
    lat = PicardLattice(("H",))
    with pytest.raises(DescriptorError) as err:
        custom(
            dimension=2,
            lattice=lat,
            form=IntersectionForm.rank_one(lat, 2, -2),
            canonical=lat.zero(),
            nef=Cone(lat, ((1,),)),
        )
    assert str(err.value) == (
        "the nef cone's interior class H has top self-intersection -2, "
        "but an ample class needs a positive one"
    )


# ------------------------------------------------------- validation


def _surface_parts():
    lat = PicardLattice(("A", "B"))
    form = IntersectionForm.from_gram(lat, [[2, 1], [1, 0]])
    return lat, form


def test_custom_refuses_flags_a_rule_would_trust():
    # P^2's numbers, whose value is 3, must not borrow the abelian bound of 2
    lat = PicardLattice(("H",))
    with pytest.raises(DescriptorError, match="CUSTOM_FLAGS: irregularity_zero"):
        custom(
            dimension=2,
            lattice=lat,
            form=IntersectionForm.rank_one(lat, 2, 1),
            canonical=lat.make([-3]),
            nef=Cone(lat, ((1,),)),
            flags=("abelian",),
        )
    assert CUSTOM_FLAGS == ("irregularity_zero",)
    plain = custom(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 2, 1),
        canonical=lat.make([-3]),
        flags=CUSTOM_FLAGS,
    )
    assert plain.flags == frozenset(CUSTOM_FLAGS)
    assert isinstance(plain.gg, UnknownGG)


def test_descriptor_rejects_degree_mismatch():
    lat, form = _surface_parts()
    with pytest.raises(DescriptorError):
        VarietyDescriptor._make(
            dimension=3,
            lattice=lat,
            form=form,
            canonical=lat.zero(),
            nef=None,
            gg=UnknownGG(),
            flags=frozenset(),
            provenance=Provenance("custom"),
        )


def test_descriptor_rejects_foreign_lattice_data():
    lat, form = _surface_parts()
    other = PicardLattice(("H",))
    with pytest.raises(DescriptorError):
        VarietyDescriptor._make(
            dimension=2,
            lattice=lat,
            form=form,
            canonical=other.make([1]),
            nef=None,
            gg=UnknownGG(),
            flags=frozenset(),
            provenance=Provenance("custom"),
        )
    with pytest.raises(DescriptorError):
        VarietyDescriptor._make(
            dimension=2,
            lattice=lat,
            form=form,
            canonical=lat.zero(),
            nef=Cone(other, ((1,),)),
            gg=UnknownGG(),
            flags=frozenset(),
            provenance=Provenance("custom"),
        )
    with pytest.raises(DescriptorError):
        VarietyDescriptor._make(
            dimension=2,
            lattice=lat,
            form=form,
            canonical=lat.zero(),
            nef=None,
            gg=UnderApprox((other.make([1]),)),
            flags=frozenset(),
            provenance=Provenance("custom"),
        )


def test_exact_gg_needs_a_nef_cone():
    lat, form = _surface_parts()
    with pytest.raises(DescriptorError, match="unknown nef cone"):
        VarietyDescriptor._make(
            dimension=2,
            lattice=lat,
            form=form,
            canonical=lat.zero(),
            nef=None,
            gg=ExactEqualsNef("no cone to equal"),
            flags=frozenset(),
            provenance=Provenance("custom"),
        )


def test_a_record_cannot_be_built_outside_the_constructors():
    # a forged premise would otherwise resolve to exactly 0, every
    # certificate verifying: the constructor that sets it is its only proof
    lat = PicardLattice(("H",))
    forged = [
        dict(
            dimension=2,
            lattice=lat,
            form=IntersectionForm.rank_one(lat, 2, 3),
            canonical=lat.make([1]),
            nef=Cone(lat, ((1,),)),
            gg=ExactEqualsNef("x"),
            flags=frozenset(),
            provenance=Provenance("projective_space"),
        ),
        dict(
            dimension=3,
            lattice=lat,
            form=IntersectionForm.rank_one(lat, 3, 1),
            canonical=lat.make([7]),
            nef=Cone(lat, ((1,),)),
            gg=ExactEqualsNef("x"),
            flags=frozenset({"toric"}),
            provenance=Provenance("custom"),
        ),
    ]
    for fields in forged:
        with pytest.raises(TypeError, match="or custom for raw data"):
            VarietyDescriptor(**fields)
        with pytest.raises(TypeError, match="projective_space"):
            VarietyDescriptor(*fields.values())
    with pytest.raises(TypeError, match="custom"):
        VarietyDescriptor()


def test_divisibility_is_read_from_the_form():
    lat = PicardLattice(("H",))
    desc = custom(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 2, 5),
        canonical=lat.zero(),
    )
    assert desc.form.gcd() == 5


def test_form_gcd_covers_the_whole_lattice():
    lat, form = _surface_parts()
    desc = custom(dimension=2, lattice=lat, form=form, canonical=lat.zero())
    # the span of B pairs to 0, but (A^2) = 2 and (A.B) = 1 set the gcd
    assert desc.form.evaluate(lat.make([0, 1]), lat.make([0, 1])) == 0
    assert desc.form.gcd() == 1


@pytest.mark.parametrize("degrees", [(5,), (24,), (0,), (2, 4)])
def test_a_curve_lattice_must_reach_a_point(degrees):
    # Num of a curve is generated by a point; a coarser lattice would fake
    # divisibility on every product with the curve
    lat = PicardLattice(tuple(f"H{i}" for i in range(len(degrees))))
    form = IntersectionForm.from_entries(
        lat, 1, {(i,): d for i, d in enumerate(degrees)}
    )
    with pytest.raises(DescriptorError, match="point class of degree 1"):
        custom(dimension=1, lattice=lat, form=form, canonical=lat.zero())


@pytest.mark.parametrize("degrees", [(1,), (-1,), (2, 3)])
def test_a_curve_lattice_with_a_point_is_admitted(degrees):
    lat = PicardLattice(tuple(f"H{i}" for i in range(len(degrees))))
    form = IntersectionForm.from_entries(
        lat, 1, {(i,): d for i, d in enumerate(degrees)}
    )
    desc = custom(dimension=1, lattice=lat, form=form, canonical=lat.zero())
    assert desc.form.gcd() == 1


def test_provenance_parameters_are_display_strings():
    q = complete_intersection(3, (4,))
    assert q.provenance.parameters == (
        ("n", "3"), ("degrees", "4"), ("very_general", "False")
    )
    # only the nodes whose data a rule reads have a class of their own
    assert type(q.provenance) is Provenance


# -------------------------------------------------- global generation


def test_is_known_gg_exact_case():
    f1 = hirzebruch1()
    assert is_known_gg(f1, f1.lattice.make([1, 2]))
    assert is_known_gg(f1, f1.lattice.zero())
    assert not is_known_gg(f1, f1.lattice.make([2, 1]))


def test_is_known_gg_under_approx():
    # a section of P^3 in |5H| knows only its canonical class K = H
    p3 = projective_space(3)
    desc = hypersurface_section(p3, p3.lattice.make([1]), 5)
    assert isinstance(desc.gg, UnderApprox)
    lat = desc.lattice
    assert is_known_gg(desc, lat.make([1]))
    assert not is_known_gg(desc, lat.make([2]))
    assert known_gg_representatives(desc) == (desc.canonical,)


def test_is_known_gg_unknown_is_false():
    a = abelian(2)
    assert not is_known_gg(a, a.lattice.make([1]))
    assert known_gg_representatives(a) == ()


def test_representatives_for_exact_descriptors():
    p2 = projective_space(2)
    reps = known_gg_representatives(p2)
    assert [r.coeffs for r in reps] == [(0,)]  # canonical is not nef
