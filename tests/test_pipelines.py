"""Pipeline gates, artifacts, and exactness claims."""

import pytest

from confn.certificates import LOWER, UPPER
from confn.descriptors import (
    DescriptorError,
    VarietyDescriptor,
    abelian,
    complete_intersection,
    curve,
    custom,
    del_pezzo7,
    hirzebruch1,
    projective_space,
)
from confn.engine import resolve, verify_certificate
from confn.lattice import IntersectionForm, PicardLattice
from confn.cones import Cone
from confn.constructions import blowup_point, product
from confn.dsl import parse
from confn.runner import evaluate
from confn.pipelines import (
    PipelineError,
    pipeline_n2k1,
    pipeline_n3k1,
    pipeline_simple_surface,
    pipeline_simple_variety,
    synthetic_mod24_surface,
)


# ------------------------------------------------------------- premises only


def test_a_pipeline_never_resolves_what_it_returns():
    # a pipeline checks its premises and builds; the value is asserted by
    # the program or test that computes the row
    p3 = projective_space(3)
    h = p3.lattice.make([1])
    f1 = hirzebruch1()
    results = [
        pipeline_n2k1(synthetic_mod24_surface()),
        pipeline_n3k1(f1, f1.lattice.make([1, 2])),
        pipeline_simple_surface(p3, h, 5),
        pipeline_simple_variety(p3, h, 6),
    ]
    for result in results:
        assert result.descriptor._interval is None


# ------------------------------------------------------------- mod-24 blow-up


def test_n2k1_resolves_to_one_with_verified_certificate():
    result = pipeline_n2k1(synthetic_mod24_surface())
    assert (resolve(result.descriptor).lo, resolve(result.descriptor).hi) == (1, 1)
    assert result.descriptor.provenance.constructor == "blowup_point"
    cert = next(
        c
        for c in resolve(result.descriptor).certificates
        if c.rule == "blowup-reider-mod24"
    )
    assert cert.kind == UPPER and cert.value == 1
    assert verify_certificate(result.descriptor, cert)
    # the lower bound is the non-nef canonical class of the blow-up
    assert any(
        c.rule == "not-nef-witness" and c.kind == LOWER
        for c in resolve(result.descriptor).certificates
    )


def test_n2k1_residue_sets_recomputed():
    result = pipeline_n2k1(synthetic_mod24_surface())
    cert = next(
        c
        for c in resolve(result.descriptor).certificates
        if c.rule == "blowup-reider-mod24"
    )
    data = cert.witness_data()
    assert data["squares_mod_24"] == sorted({(a * a) % 24 for a in range(24)})
    assert data["squares_mod_24"] == [0, 1, 4, 9, 12, 16]
    assert data["negated_square_residues"] == [0, 8, 12, 15, 20, 23]
    assert data["min_positive_self_intersection"] == 8
    assert data["square_zero_multiplicities"] == [0, 12]
    assert data["multiplicity_divisor"] == 12


def test_n2k1_requires_modulus_24():
    lat = PicardLattice(("H",))
    wrong = custom(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 2, 25),
        canonical=lat.make([1]),
        nef=Cone(lat, ((1,),)),
    )
    with pytest.raises(PipelineError) as err:
        pipeline_n2k1(wrong)
    assert str(err.value) == (
        "intersection numbers have gcd 25; the residue argument needs 24 "
        "to divide it"
    )
    with pytest.raises(PipelineError):
        pipeline_n2k1(complete_intersection(3, (5,)))  # not a surface


def test_n2k1_tampered_certificate_rejected():
    from confn.certificates import Certificate

    result = pipeline_n2k1(synthetic_mod24_surface())
    cert = next(
        c
        for c in resolve(result.descriptor).certificates
        if c.rule == "blowup-reider-mod24"
    )
    data = cert.witness_data()
    data["multiplicity_divisor"] = 1
    bad = Certificate(cert.kind, cert.rule, cert.value, cert.citation,
                      premises=cert.premises, witness=data)
    assert not verify_certificate(result.descriptor, bad)
    # and against a descriptor that is not a blow-up at all
    assert not verify_certificate(synthetic_mod24_surface(), cert)


@pytest.mark.parametrize("modulus", [24, 48])
def test_blowup_and_pipeline_agree_on_24_divisible_surfaces(modulus):
    report = evaluate(
        parse(
            f"let S = custom(dimension = 2, basis = [H], gram = [[{modulus}]], "
            "canonical = H, nef = [[1]])\n"
            "let B = blowup_point(S)\n"
            "let N = pipeline_n2k1(S)\n"
            "compute B\ncompute N\n"
        )
    )
    blown, piped = report.rows
    for row in (blown, piped):
        assert row.error is None, (row.name, row.error)
        assert (row.interval.lo, row.interval.hi) == (1, 1)
        assert row.verified is True
    assert blown.interval.certificates == piped.interval.certificates
    assert "blowup-reider-mod24" in {c.rule for c in blown.interval.certificates}


@pytest.mark.parametrize("top", [5, 24])
def test_a_curve_with_a_coarse_lattice_is_refused_before_its_products(top):
    # (H.P) = top on C x P^1 would pass for divisibility, yet the fibre
    # pt x P^1 has L.f = 1 and f^2 = 0 for L = H + P
    report = evaluate(
        parse(
            f"let C = custom(dimension = 1, basis = [H], gram = [[{top}]], "
            "canonical = 2*H)\n"
            "let P = projective_space(1)\n"
            "let S = product(C, P)\n"
            "let B = blowup_point(S)\n"
            "compute S\ncompute B\n"
        )
    )
    errors = {r.name: r.error for r in report.rows}
    assert errors["C"] == (
        "a curve's lattice must contain a point class of degree 1, but its "
        f"degrees have gcd {top}"
    )
    assert "'C' failed to evaluate" in errors["S"]
    assert "'S' failed to evaluate" in errors["B"]
    assert not any(r.internal for r in report.rows)


def _curves():
    lat = PicardLattice(("H",))
    plane_quintic = custom(
        dimension=1,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 1, 1),
        canonical=lat.make([10]),
        nef=Cone(lat, ((1,),)),
    )
    return [projective_space(1), curve(2), abelian(1), plane_quintic]


@pytest.mark.parametrize("i", range(4))
@pytest.mark.parametrize("j", range(4))
def test_products_of_curves_and_their_blowups_get_no_divisibility(i, j):
    surface = product(_curves()[i], _curves()[j])
    assert surface.form.gcd() == 1
    rules = {c.rule for c in resolve(surface).certificates}
    assert "reider-divisible" not in rules
    rules = {c.rule for c in resolve(blowup_point(surface)).certificates}
    assert "blowup-reider-mod24" not in rules
    with pytest.raises(PipelineError, match="gcd 1;"):
        pipeline_n2k1(surface)


def test_blowup_of_a_zero_form_surface_gets_no_mod24_certificate():
    # 0 is divisible by 24, but no projective surface has a zero form, so
    # admission refuses one and nothing is built on it
    report = evaluate(
        parse(
            "let S = custom(dimension = 2, basis = [H], gram = [[0]], canonical = H)\n"
            "let B = blowup_point(S)\n"
            "compute B\n"
        )
    )
    errors = [row.error for row in report.rows]
    assert errors == [
        "every intersection number is 0, but an ample class has a positive "
        "top self-intersection",
        "name error at line 2, column 22: 'S' failed to evaluate and cannot be "
        "used\n  hint: fix the earlier error first",
    ]
    # the gates never trust admission: a zero-form surface made without it
    # still gets no mod-24 certificate on its blow-up, nor the pipeline
    mod24 = next(
        c
        for c in resolve(pipeline_n2k1(synthetic_mod24_surface()).descriptor).certificates
        if c.rule == "blowup-reider-mod24"
    )
    admitted = synthetic_mod24_surface()
    zero = object.__new__(VarietyDescriptor)
    for name in VarietyDescriptor.__slots__:
        object.__setattr__(zero, name, getattr(admitted, name))
    object.__setattr__(zero, "form", admitted.form.scaled(0))
    object.__setattr__(zero, "_interval", None)
    object.__setattr__(zero, "_verdicts", {})
    assert not verify_certificate(blowup_point(zero), mod24)
    with pytest.raises(PipelineError, match="gcd 0"):
        pipeline_n2k1(zero)


# ------------------------------------------------------------- double cover


def test_n3k1_from_del_pezzo():
    dp = del_pezzo7()
    result = pipeline_n3k1(dp, dp.lattice.make([3, -1, -1]))
    assert (resolve(result.descriptor).lo, resolve(result.descriptor).hi) == (1, 1)
    assert result.descriptor.provenance.constructor == "cyclic_cover"
    assert result.descriptor.dimension == 3
    rules = {c.rule for c in resolve(result.descriptor).certificates}
    assert "cover-degree" in rules
    assert "h0-vanishing" in rules
    for cert in resolve(result.descriptor).certificates:
        assert verify_certificate(result.descriptor, cert)
    assert any("Noether-Lefschetz" in note for note in result.notes)


def test_n3k1_from_hirzebruch():
    f1 = hirzebruch1()
    result = pipeline_n3k1(f1, f1.lattice.make([1, 2]))
    assert (resolve(result.descriptor).lo, resolve(result.descriptor).hi) == (1, 1)
    trace_cert = next(
        c for c in resolve(result.descriptor).certificates if c.rule == "h0-vanishing"
    )
    # the canonical sections split over the double cover and die on the
    # P^1 component, degree -1 and -2 respectively
    assert any("splits as the sum" in line for line in trace_cert.witness_data()["trace"])
    # the pipeline vouches for effective_nl; its caller states nothing
    assertions = result.descriptor.provenance.assertions
    assert [(a.name, a.stated) for a in assertions] == [("effective_nl", False)]


def test_n3k1_gates():
    dp = del_pezzo7()
    # boundary class: nef but not strictly interior
    with pytest.raises(PipelineError) as err:
        pipeline_n3k1(dp, dp.lattice.make([1, 0, 0]))
    assert "strictly interior" in str(err.value)
    other = PicardLattice(("G",))
    with pytest.raises(PipelineError) as err2:
        pipeline_n3k1(dp, other.make([1]))
    assert "off the surface lattice" in str(err2.value)


@pytest.mark.parametrize(
    "let",
    [
        "let X = pipeline_n3k1(T, polarization = H_1 + H_2 + H)",
        "let X = pipeline_n3k1(P3, polarization = H)",
    ],
)
def test_n3k1_refuses_anything_but_a_surface(let):
    # refused for its dimension before the pipeline resolves anything: the
    # threefold T would otherwise give a 4-dimensional cover exact at 1,
    # and P3 would be refused for its upper bound of 4
    prelude = (
        "let P1 = projective_space(1)\nlet P3 = projective_space(3)\n"
        "let Q = product(P1, P1)\nlet T = product(Q, P1)\n"
    )
    report = evaluate(parse(prelude + let + "\ncompute X\n"))
    (row,) = report.rows
    assert row.error == "expected a surface, got dimension 3"
    assert row.interval is None and not row.internal


def test_n3k1_rejects_weak_surface():
    # rank 2, odd form, odd canonical, unknown nef cone: every clause
    # that would improve on the plain surface bound of 3 is unavailable
    lat = PicardLattice(("A", "B"))
    opaque = custom(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.from_gram(lat, [[1, 0], [0, 1]]),
        canonical=lat.make([1, 1]),
    )
    with pytest.raises(PipelineError) as err:
        pipeline_n3k1(opaque, lat.make([1, 1]))
    assert "at most 2" in str(err.value)


# ------------------------------------------------------------- section


def test_simple_surface_is_exactly_zero():
    y = complete_intersection(3, (2,))
    result = pipeline_simple_surface(y, y.lattice.make([1]), 6)
    assert (resolve(result.descriptor).lo, resolve(result.descriptor).hi) == (0, 0)
    rules = {c.rule for c in resolve(result.descriptor).certificates}
    assert "reider-divisible" in rules
    assert "canonical-gg" in rules
    for cert in resolve(result.descriptor).certificates:
        assert verify_certificate(result.descriptor, cert)


def test_simple_surface_propagates_gate_errors():
    from confn.descriptors import DescriptorError

    y = complete_intersection(3, (2,))
    with pytest.raises(DescriptorError) as err:
        pipeline_simple_surface(y, y.lattice.make([1]), 3)
    assert "p >=" in str(err.value)


# ------------------------------------------------------------- cover


def test_simple_variety_exact_zero_with_omega_note():
    y = complete_intersection(3, (2,))  # resolves to 3
    result = pipeline_simple_variety(y, y.lattice.make([1]), 5)
    assert (resolve(result.descriptor).lo, resolve(result.descriptor).hi) == (0, 0)
    assert any("ample and globally generated" in n for n in result.notes)
    cert = next(
        c for c in resolve(result.descriptor).certificates if c.rule == "cover-degree"
    )
    assert cert.witness_data()["omega_ample_and_globally_generated"] is True
    for c in resolve(result.descriptor).certificates:
        assert verify_certificate(result.descriptor, c)


def test_simple_variety_small_degree_reports_interval_without_claim():
    y = complete_intersection(3, (2,))  # resolves to 3
    result = pipeline_simple_variety(y, y.lattice.make([1]), 4, assume=("large_d",))
    # bound: max(0, 3 + 1 - 4) = 0 at the cover level, still exact here
    cert = next(
        c for c in resolve(result.descriptor).certificates if c.rule == "cover-degree"
    )
    assert cert.witness_data()["omega_ample_and_globally_generated"] is False
    assert any("not certified ample" in n for n in result.notes)


def test_simple_variety_keeps_its_large_d_default_beside_ample():
    y = complete_intersection(3, (2,))  # resolves to 3
    result = pipeline_simple_variety(y, y.lattice.make([1]), 8, assume=("ample",))
    # the nef cone is known, so ample is checked rather than recorded, and
    # the default is the pipeline's, not stated by the caller
    assertions = result.descriptor.provenance.assertions
    assert [(a.name, a.stated) for a in assertions] == [("large_d", False)]
    assert (resolve(result.descriptor).lo, resolve(result.descriptor).hi) == (0, 0)
    # a caller's own identifying assumption replaces the default
    named = pipeline_simple_variety(y, y.lattice.make([1]), 8, assume=("effective_nl",))
    assertions = named.descriptor.provenance.assertions
    assert [(a.name, a.stated) for a in assertions] == [("effective_nl", True)]


def test_simple_variety_asserts_no_ampleness_for_its_caller():
    y = product(blowup_point(hirzebruch1()), projective_space(1))
    with pytest.raises(DescriptorError, match="must be asserted explicitly"):
        pipeline_simple_variety(y, y.lattice.make([-1, -1, -1, -1]), 9)


def test_simple_variety_on_higher_dimension_parent():
    from confn.descriptors import projective_space

    y = projective_space(4)
    result = pipeline_simple_variety(y, y.lattice.make([1]), 7)
    assert (resolve(result.descriptor).lo, resolve(result.descriptor).hi) == (0, 0)
    assert result.descriptor.dimension == 4
