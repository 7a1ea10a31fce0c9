"""Construction correctness: products, blow-ups, sections, covers."""

import math
import random

import pytest

from confn.constructions import (
    blowup_point,
    box_sum,
    cyclic_cover,
    hypersurface_section,
    product,
    product_blocks,
    split_product_class,
)
from confn.descriptors import (
    Blowup,
    Cover,
    DescriptorError,
    ExactEqualsNef,
    UnderApprox,
    UnknownGG,
    abelian,
    complete_intersection,
    custom,
    del_pezzo7,
    hirzebruch1,
    projective_space,
)
from confn.engine import resolve
from confn.lattice import IntersectionForm, PicardLattice


# ---------------------------------------------------------------- product


def test_product_form_against_binomial_oracle():
    # on X x Y the top power of a box-sum factors:
    # (A + B)^(p+q) = C(p+q, p) * (A^p)_X * (B^q)_Y
    rng = random.Random(20240517)
    f1 = hirzebruch1()
    p1 = projective_space(1)
    prod = product(f1, p1)
    for _ in range(60):
        a = f1.lattice.make([rng.randint(-3, 3), rng.randint(-3, 3)])
        b = p1.lattice.make([rng.randint(-3, 3)])
        total = box_sum(prod, a, b)
        lhs = prod.form.evaluate(total, total, total)
        rhs = math.comb(3, 2) * f1.form.evaluate(a, a) * b.coeffs[0]
        assert lhs == rhs


def test_product_mixed_monomials_vanish():
    # a pure first-factor triple cannot meet the fiber direction
    f1 = hirzebruch1()
    p1 = projective_space(1)
    prod = product(f1, p1)
    s = prod.lattice.make([1, 0, 0])
    assert prod.form.evaluate(s, s, s) == 0
    h = prod.lattice.make([0, 0, 1])
    assert prod.form.evaluate(h, h, h) == 0
    f = prod.lattice.make([0, 1, 0])
    assert prod.form.evaluate(s, f, h) == 1


def test_product_split_and_box_sum_round_trip():
    dp = del_pezzo7()
    p1 = projective_space(1)
    prod = product(dp, p1)
    cls_ = prod.lattice.make([3, -1, -2, 4])
    parts = split_product_class(prod, cls_)
    assert [p.coeffs for p in parts] == [(3, -1, -2), (4,)]
    assert box_sum(prod, *parts).coeffs == cls_.coeffs
    blocks = product_blocks(prod)
    assert [(off, p.rank) for off, p in blocks] == [(0, 3), (3, 1)]


def test_product_blocks_requires_product():
    with pytest.raises(DescriptorError):
        product_blocks(hirzebruch1())


def test_product_canonical_and_nef():
    f1 = hirzebruch1()
    p1 = projective_space(1)
    prod = product(f1, p1)
    assert prod.canonical.coeffs == (-2, -3, -2)
    assert prod.nef is not None
    assert prod.nef.contains(prod.lattice.make([1, 1, 1]))
    assert not prod.nef.contains(prod.lattice.make([1, 1, -1]))
    assert isinstance(prod.gg, ExactEqualsNef)
    assert "toric" in prod.flags


def test_product_flag_and_gg_degradation():
    ab = abelian(1)
    p1 = projective_space(1)
    prod = product(ab, p1)
    assert "toric" not in prod.flags
    assert "irregularity_zero" not in prod.flags
    # the abelian factor contributes no certified classes
    assert isinstance(prod.gg, UnknownGG)


def test_product_basis_collision_renamed():
    a = projective_space(2)
    b = projective_space(3)
    prod = product(a, b)
    assert prod.lattice.basis == ("H_1", "H_2")
    p1 = projective_space(1)
    chain = product(product(product(p1, p1), p1), p1)
    assert chain.lattice.basis == ("H_1", "H_2", "H_1_1", "H_2_2")


def test_product_isogeny_assertion_recorded():
    a = abelian(1)
    b = abelian(1)
    plain = product(a, b)
    assert plain.provenance.assertions == ()
    asserted = product(a, b, assume=("no_common_isogeny_factor",))
    assert [x.name for x in asserted.provenance.assertions] == [
        "no_common_isogeny_factor"
    ]


def test_each_constructor_refuses_names_outside_its_vocabulary():
    y = complete_intersection(3, (2,))
    with pytest.raises(
        DescriptorError,
        match=r"^hypersurface_section does not take assumption 'large_d'; "
        r"it takes ample$",
    ):
        hypersurface_section(y, y.lattice.make([1]), 5, assume=("large_d",))
    with pytest.raises(
        DescriptorError,
        match=r"^product does not take assumption 'bogus'; it takes "
        r"no_common_isogeny_factor$",
    ):
        product(abelian(1), abelian(1), assume=("bogus",))


def test_ample_is_recorded_only_where_the_nef_cone_cannot_check_it():
    unknown = product(blowup_point(hirzebruch1()), projective_space(1))
    cls_ = unknown.lattice.make([1, 2, -1, 1])
    for build in (
        lambda assume: hypersurface_section(unknown, cls_, 7, assume=assume),
        lambda assume: cyclic_cover(unknown, cls_, 9, assume=("large_d",) + assume),
    ):
        with pytest.raises(DescriptorError, match="must be asserted explicitly"):
            build(())
        names = [a.name for a in build(("ample",)).provenance.assertions]
        assert names[0] == "ample" and names.count("ample") == 1
    known = complete_intersection(3, (2,))
    h = known.lattice.make([1])
    section = hypersurface_section(known, h, 5, assume=("ample",))
    assert [a.name for a in section.provenance.assertions] == ["very_general"]
    cover = cyclic_cover(known, h, 5, assume=("ample", "large_d"))
    assert [a.name for a in cover.provenance.assertions] == ["large_d"]


# ---------------------------------------------------------------- blow-up


def test_blowup_exceptional_numbers():
    dp = del_pezzo7()
    up = blowup_point(dp)
    assert up.rank == 4
    e = up.lattice.make([0, 0, 0, 1])
    assert up.form.evaluate(e, e) == -1
    assert up.form.evaluate(up.canonical, e) == -1
    # (K'^2) = (K^2) - 1
    assert up.form.evaluate(up.canonical, up.canonical) == 6
    # pullbacks pair as before and miss E
    h = up.lattice.make([1, 0, 0, 0])
    assert up.form.evaluate(h, h) == 1
    assert up.form.evaluate(h, e) == 0
    assert up.nef is None
    assert isinstance(up.gg, UnknownGG)
    # the exceptional curve is the effective class that K pairs negatively with
    (cert,) = [c for c in resolve(up).certificates if c.rule == "not-nef-witness"]
    assert cert.witness_data() == {"effective_class": [0, 0, 0, 1], "pairing": -1}


def test_blowup_form_gcd_drops_to_one():
    quartic = complete_intersection(2, (4,), very_general=True)
    assert quartic.form.gcd() == 4
    up = blowup_point(quartic)
    # E breaks divisibility on the full lattice: (E^2) = -1
    assert up.form.gcd() == 1
    e = up.lattice.make([0, 1])
    assert up.form.evaluate(e, e) == -1
    # the pulled-back block keeps the parent's pairings
    h = up.lattice.make([1, 0])
    assert up.form.evaluate(h, h) == 4


def test_blowup_exceptional_name_avoids_collision():
    first = blowup_point(hirzebruch1())
    assert first.lattice.basis[-1] == "E"
    second = blowup_point(first)
    assert second.lattice.basis[-1] not in first.lattice.basis
    assert second.rank == 4


def test_blowup_rejects_non_surface():
    with pytest.raises(DescriptorError):
        blowup_point(projective_space(3))


# ------------------------------------------------------- section


def test_section_numbers_on_quadric():
    y = complete_intersection(3, (2,))
    h = y.lattice.make([1])
    s = hypersurface_section(y, h, 5)
    assert s.dimension == 2
    hh = s.lattice.make([1])
    # (H^2) on the section = (H.H.5H) on the quadric = 5 * 2
    assert s.form.evaluate(hh, hh) == 10
    # adjunction: K_S = (K_Y + 5H)|_S = 2H
    assert s.canonical.coeffs == (2,)
    # every pairing on the section is a multiple of p = 5
    assert s.form.gcd() == 10
    assert isinstance(s.gg, UnderApprox)
    assert [c.coeffs for c in s.gg.classes] == [(2,)]
    assert [a.name for a in s.provenance.assertions] == ["very_general"]
    assert "irregularity_zero" in s.flags


def test_section_degree_gate():
    y = complete_intersection(3, (2,))
    h = y.lattice.make([1])
    with pytest.raises(DescriptorError) as err:
        hypersurface_section(y, h, 4)
    assert "p >= 5" in str(err.value)


def test_section_requires_threefold_and_ample():
    h2 = projective_space(2)
    with pytest.raises(DescriptorError):
        hypersurface_section(h2, h2.lattice.make([1]), 6)
    y = complete_intersection(3, (2,))
    with pytest.raises(DescriptorError):
        hypersurface_section(y, y.lattice.zero(), 6)
    other = PicardLattice(("G",))
    with pytest.raises(DescriptorError):
        hypersurface_section(y, other.make([1]), 6)


# ------------------------------------------------------- cover


def test_cover_scales_form_and_shifts_canonical():
    p4 = projective_space(4)
    h = p4.lattice.make([1])
    x = cyclic_cover(p4, h, 7)
    assert x.dimension == 4
    hh = x.lattice.make([1])
    assert x.form.evaluate(hh, hh, hh, hh) == 7
    # K_X = K_Y + (d-1) L = -5H + 6H = H
    assert x.canonical.coeffs == (1,)
    # dimension >= 4: the Picard identification needs no extra assumption
    assert [a.name for a in x.provenance.assertions] == ["pic_pullback_iso"]
    assert x.nef is not None
    assert x.nef.contains(hh)
    assert "irregularity_zero" in x.flags


def test_cover_data_round_trip():
    p4 = projective_space(4)
    h = p4.lattice.make([1])
    x = cyclic_cover(p4, h, 3)
    cover = x.provenance
    assert isinstance(cover, Cover)
    assert cover.parents == (p4,)
    assert cover.branch is h
    assert cover.degree == 3
    # the report's strings are rendered from the typed fields
    assert cover.parameters == (("branch", "H"), ("branch_coeffs", "1"), ("degree", "3"))
    assert not isinstance(p4.provenance, Cover)


def test_a_blowup_records_its_exceptional_class():
    x = blowup_point(blowup_point(del_pezzo7()))
    node = x.provenance
    assert isinstance(node, Blowup)
    assert node.exceptional.lattice is x.lattice
    assert node.exceptional.coeffs == (0, 0, 0, 0, 1)
    assert node.parameters == (("exceptional", "E1_new"),)
    assert x.form.evaluate(node.exceptional, node.exceptional) == -1


def test_cover_threefold_needs_assertion():
    y = projective_space(3)
    h = y.lattice.make([1])
    with pytest.raises(DescriptorError):
        cyclic_cover(y, h, 5)
    x = cyclic_cover(y, h, 5, assume=("large_d",))
    assert [a.name for a in x.provenance.assertions] == ["large_d"]


def test_cover_input_gates():
    y = projective_space(4)
    h = y.lattice.make([1])
    with pytest.raises(DescriptorError):
        cyclic_cover(y, h, 1)
    with pytest.raises(DescriptorError):
        cyclic_cover(hirzebruch1(), hirzebruch1().lattice.make([1, 1]), 2)
    other = PicardLattice(("G",))
    with pytest.raises(DescriptorError):
        cyclic_cover(y, other.make([1]), 2)
    # branch must be ample when the nef cone is known
    with pytest.raises(DescriptorError):
        cyclic_cover(y, y.lattice.zero(), 2)
    # no assumption is needed in dimension 4, but an unknown one is still wrong
    with pytest.raises(DescriptorError, match="assumption 'bogus'"):
        cyclic_cover(y, h, 7, assume=("bogus",))


def test_cover_form_gcd_scaled_by_the_degree():
    lat = PicardLattice(("H",))
    y = custom(
        dimension=3,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 3, 4),
        canonical=lat.make([-2]),
    )
    assert y.form.gcd() == 4
    h = y.lattice.make([1])
    x = cyclic_cover(y, h, 3, assume=("large_d", "ample"))
    assert x.form.gcd() == 12
    hh = x.lattice.make([1])
    assert x.form.evaluate(hh, hh, hh) == 12
