"""Resolver rules, refinement, error paths, and the certificate verifier."""

import dataclasses
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from confn.certificates import LOWER, UPPER, Certificate, make_certificate
from confn.constructions import blowup_point, cyclic_cover, product
from confn.descriptors import (
    ExactEqualsNef,
    abelian,
    complete_intersection,
    curve,
    custom,
    del_pezzo7,
    hirzebruch1,
    projective_space,
)
from confn.engine import (
    OPTIONAL_RULE_IDS,
    RULE_IDS,
    InconsistencyError,
    resolve,
    _has_ample_square_one,
    verify_certificate,
)
from confn.cones import Cone, ConeError, lattice_points_by_shell
from confn.lattice import IntersectionForm, PicardLattice
from confn.pipelines import synthetic_mod24_surface


def _assert_all_verified(desc, interval):
    for cert in interval.certificates:
        assert verify_certificate(desc, cert), (cert.rule, cert.kind, cert.value)


# ------------------------------------------------------ frozen values


@pytest.mark.parametrize("n", range(1, 7))
def test_projective_space_exact(n):
    interval = resolve(projective_space(n))
    assert interval.exact and interval.lo == n + 1
    _assert_all_verified(projective_space(n), interval)


@pytest.mark.parametrize(
    "desc_factory, expected",
    [
        (hirzebruch1, 2),
        (del_pezzo7, 1),
        (lambda: projective_space(2), 3),
        (lambda: complete_intersection(3, (2,)), 3),
        (lambda: complete_intersection(3, (3,)), 2),
        (lambda: complete_intersection(3, (4,)), 1),
        (lambda: complete_intersection(3, (5,)), 0),
        (lambda: complete_intersection(3, (2, 2)), 2),
        (lambda: complete_intersection(4, (2, 2)), 3),
        (lambda: complete_intersection(2, (4,), very_general=True), 0),
        (lambda: complete_intersection(2, (5,), very_general=True), 0),
        (lambda: curve(0), 2),
        (lambda: curve(1), 2),
        (lambda: curve(7), 2),
    ],
)
def test_exact_values(desc_factory, expected):
    desc = desc_factory()
    interval = resolve(desc)
    assert interval.exact, str(interval)
    assert interval.lo == expected
    _assert_all_verified(desc, interval)


def test_abelian_interval_stays_open():
    for n in (1, 2, 3):
        interval = resolve(abelian(n))
        if n == 1:
            # an abelian curve is an elliptic curve; the curve rule closes it
            assert (interval.lo, interval.hi) == (2, 2)
        else:
            assert (interval.lo, interval.hi) == (0, 2)
        _assert_all_verified(abelian(n), interval)


def test_str_rendering():
    assert str(resolve(projective_space(2))) == "3"
    assert str(resolve(abelian(2))) == "[0, 2]"


# ------------------------------------------------------ rules, one by one


def test_exact_threshold_emits_both_sides():
    interval = resolve(projective_space(2), enabled={"exact-threshold"})
    kinds = {(c.rule, c.kind) for c in interval.certificates}
    assert ("exact-threshold", UPPER) in kinds
    assert ("exact-threshold", LOWER) in kinds
    lower = next(
        c
        for c in interval.certificates
        if c.rule == "exact-threshold" and c.kind == LOWER
    )
    data = lower.witness_data()
    assert data["m_star"] == 3
    assert len(data["tuple"]) == 2  # m* - 1 ample classes


def test_exact_threshold_no_lower_at_zero():
    quintic = complete_intersection(3, (5,))
    interval = resolve(quintic, enabled={"exact-threshold"})
    rules = [(c.rule, c.kind) for c in interval.certificates]
    assert ("exact-threshold", UPPER) in rules
    assert ("exact-threshold", LOWER) not in rules
    assert interval.lo == 0


def test_exact_threshold_abstains_without_exact_gg():
    interval = resolve(abelian(2), enabled={"exact-threshold"})
    assert not any(c.rule == "exact-threshold" for c in interval.certificates)


def _toric_flags():
    from confn.descriptors import TORIC

    return (TORIC,)


def test_exact_threshold_inconclusive_advisory():
    lat = PicardLattice(("A", "B"))
    desc = custom(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.from_gram(lat, [[1, 1], [1, 0]]),
        canonical=lat.make([-1, 0]),
        nef=Cone(lat, ((1, 0), (-10, 1))),
        gg=ExactEqualsNef("toric: nef implies globally generated"),
        flags=_toric_flags(),
    )
    # no interior point has sup-norm 6 or less, yet the threshold is exact
    interval = resolve(desc)
    assert (interval.lo, interval.hi) == (1, 1)
    assert not any("inconclusive" in a for a in interval.advisories)
    _assert_all_verified(desc, interval)


def test_curve_rule_parity_advisories():
    lat = PicardLattice(("H",))
    odd = custom(
        dimension=1,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 1, 1),
        canonical=lat.make([1]),
    )
    interval = resolve(odd, enabled={"curve-genus"})
    assert any("2g - 2" in a for a in interval.advisories)
    assert not any(c.rule == "curve-genus" for c in interval.certificates)
    low = custom(
        dimension=1,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 1, 1),
        canonical=lat.make([-10]),
    )
    interval_low = resolve(low, enabled={"curve-genus"})
    assert any("2g - 2" in a for a in interval_low.advisories)


def test_product_lower_and_gated_upper():
    f1xp1 = product(hirzebruch1(), projective_space(1))
    interval = resolve(f1xp1)
    assert (interval.lo, interval.hi) == (2, 2)
    combine = [c for c in interval.certificates if c.rule == "product-combine"]
    assert {c.kind for c in combine} == {LOWER, UPPER}
    upper = next(c for c in combine if c.kind == UPPER)
    assert upper.witness_data()["gate"] == "a factor has irregularity zero"
    _assert_all_verified(f1xp1, interval)


def test_product_of_elliptic_curves_closed_by_parity():
    # no gate, so product-combine emits no upper; the even intersection
    # form of a curve product lets the surface parity clause close at 2
    plain = product(abelian(1), abelian(1))
    interval = resolve(plain)
    assert (interval.lo, interval.hi) == (2, 2)
    assert not any(
        c.rule == "product-combine" and c.kind == UPPER
        for c in interval.certificates
    )
    assert any(
        c.rule == "reider-surface" and c.value == 2
        for c in interval.certificates
    )
    _assert_all_verified(plain, interval)


def test_product_without_gate_keeps_upper_open():
    plain = product(abelian(1), abelian(2))
    interval = resolve(plain)
    assert (interval.lo, interval.hi) == (2, 4)  # threefold bound remains
    assert not any(
        c.rule == "product-combine" and c.kind == UPPER
        for c in interval.certificates
    )
    asserted = product(abelian(1), abelian(2), no_common_isogeny_factor=True)
    closed = resolve(asserted)
    assert (closed.lo, closed.hi) == (2, 2)
    upper = next(
        c
        for c in closed.certificates
        if c.rule == "product-combine" and c.kind == UPPER
    )
    assert "isogeny" in upper.witness_data()["gate"]
    _assert_all_verified(asserted, closed)


def test_cover_degree_bound_and_omega_flag():
    p4 = projective_space(4)
    h = p4.lattice.make([1])
    deep = cyclic_cover(p4, h, 7)
    interval = resolve(deep)
    assert (interval.lo, interval.hi) == (0, 0)
    cert = next(c for c in interval.certificates if c.rule == "cover-degree")
    data = cert.witness_data()
    assert data["bound"] == 0
    assert data["parent_interval"] == [5, 5]
    assert data["omega_ample_and_globally_generated"] is True
    _assert_all_verified(deep, interval)

    shallow = cyclic_cover(p4, h, 3)
    cert2 = next(
        c
        for c in resolve(shallow).certificates
        if c.rule == "cover-degree"
    )
    data2 = cert2.witness_data()
    assert data2["bound"] == 3
    assert data2["omega_ample_and_globally_generated"] is False


def test_not_nef_witness_on_blowup():
    up = blowup_point(del_pezzo7())
    interval = resolve(up)
    cert = next(c for c in interval.certificates if c.rule == "not-nef-witness")
    assert cert.kind == LOWER and cert.value == 1
    assert cert.witness_data()["pairing"] == -1
    assert interval.lo >= 1
    _assert_all_verified(up, interval)


def test_not_nef_abstains_without_effective_data():
    interval = resolve(del_pezzo7(), enabled={"not-nef-witness"})
    assert not any(c.rule == "not-nef-witness" for c in interval.certificates)


def test_h0_vanishing_on_products_and_covers():
    f1xp1 = product(hirzebruch1(), projective_space(1))
    interval = resolve(f1xp1, enabled={"h0-vanishing"})
    cert = next(c for c in interval.certificates if c.rule == "h0-vanishing")
    assert cert.kind == LOWER and cert.value == 1
    assert any("one factor vanishes" in line for line in cert.witness_data()["trace"])
    # positive h^0 means no certificate
    p4 = projective_space(4)
    deep = cyclic_cover(p4, p4.lattice.make([1]), 7)
    assert not any(
        c.rule == "h0-vanishing"
        for c in resolve(deep, enabled={"h0-vanishing"}).certificates
    )


def test_reider_divisible_needs_modulus_five():
    quintic = complete_intersection(2, (5,), very_general=True)
    interval = resolve(quintic, enabled={"reider-divisible"})
    cert = next(c for c in interval.certificates if c.rule == "reider-divisible")
    assert cert.value == 1
    assert cert.witness_data()["modulus"] == 5
    quartic = complete_intersection(2, (4,), very_general=True)
    assert not any(
        c.rule == "reider-divisible"
        for c in resolve(quartic, enabled={"reider-divisible"}).certificates
    )


def test_reider_surface_clauses():
    quartic = complete_intersection(2, (4,), very_general=True)
    interval = resolve(quartic, enabled={"reider-surface"})
    values = sorted(
        c.value for c in interval.certificates if c.rule == "reider-surface"
    )
    assert values == [2, 2, 3]
    clauses = {
        c.witness_data()["clause"]
        for c in interval.certificates
        if c.rule == "reider-surface" and c.value == 2
    }
    assert clauses == {"even-form", "no-square-one-rank1"}

    quintic = complete_intersection(2, (5,), very_general=True)
    two_q = next(
        c
        for c in resolve(quintic, enabled={"reider-surface"}).certificates
        if c.rule == "reider-surface" and c.value == 2
    )
    assert two_q.witness_data()["clause"] == "no-square-one-rank1"

    # del Pezzo: odd unimodular form, no clause applies, plain bound 3
    dp_interval = resolve(del_pezzo7(), enabled={"reider-surface"})
    dp_values = [
        c.value for c in dp_interval.certificates if c.rule == "reider-surface"
    ]
    assert dp_values == [3]
    assert any("self-intersection 1" in a for a in dp_interval.advisories)


def test_rank_one_square_one_decided_in_closed_form(monkeypatch):
    from confn import engine

    def no_search(desc, radius=8):
        raise AssertionError("a rank-1 surface needs no square-one search")

    monkeypatch.setattr(engine, "_has_ample_square_one", no_search)
    # (H^2) = 1: H itself is ample of square 1, so no bound of 2 and no advisory
    p2 = resolve(projective_space(2), enabled={"reider-surface"})
    assert [c.value for c in p2.certificates if c.rule == "reider-surface"] == [3]
    assert p2.advisories == ()
    quintic = complete_intersection(2, (5,), very_general=True)
    clauses = [
        c.witness_data().get("clause")
        for c in resolve(quintic, enabled={"reider-surface"}).certificates
    ]
    assert "no-square-one-rank1" in clauses


def _surface(gram, nef_rows):
    lat = PicardLattice(tuple(f"B{i}" for i in range(len(gram))))
    form = IntersectionForm.from_gram(lat, gram)
    return custom(2, lat, form, lat.zero(), nef=Cone(lat, tuple(nef_rows)))


@st.composite
def surfaces_with_nef(draw):
    """A rank 1-3 surface with a random Gram matrix and a random nef cone."""
    rank = draw(st.integers(1, 3))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    entry = st.integers(-2, 2)
    rows = draw(
        st.lists(st.tuples(*[entry] * rank), min_size=1, max_size=rank + 1)
    )
    try:
        return _surface(gram, rows)
    except ConeError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(surfaces_with_nef())
# square-one constant in the last coordinate; linear in it; only at t = 8
@example(_surface([[1, 0], [0, 0]], [(1, 0), (0, 1)]))
@example(_surface([[1, 1], [1, 0]], [(1, 0), (1, 1)]))
@example(_surface([[-63, 0], [0, 1]], [(1, 0), (0, 1)]))
def test_square_one_existence_matches_enumeration(desc):
    # the plain filter over the whole box, so the reference fixes no coordinate
    enumerated = any(
        desc.form.self_intersection(desc.lattice.make(p), 2) == 1
        for p in lattice_points_by_shell(desc.rank, 8)
        if all(v > 0 for v in desc.nef.values_at(p))
    )
    assert _has_ample_square_one(desc) == enumerated


def test_dimension_generic_rules():
    assert any(
        c.rule == "abelian-bound" and c.value == 2
        for c in resolve(abelian(3)).certificates
    )
    assert any(
        c.rule == "toric-adjoint" and c.value == 4
        for c in resolve(projective_space(3)).certificates
    )
    assert any(
        c.rule == "threefold-helmke" and c.value == 4
        for c in resolve(complete_intersection(3, (3,))).certificates
    )
    # the universal bound always runs, even with every optional rule off
    bare = resolve(projective_space(6), enabled=frozenset())
    assert [c.rule for c in bare.certificates] == ["universal-angehrn-siu"]
    assert bare.hi == 22
    assert resolve(hirzebruch1(), enabled=frozenset()).hi == 4


def test_canonical_gg_refinement():
    quintic = complete_intersection(2, (5,), very_general=True)
    without = resolve(quintic, enabled={"reider-divisible"})
    assert (without.lo, without.hi) == (0, 1)
    with_ = resolve(quintic, enabled={"reider-divisible", "canonical-gg"})
    assert (with_.lo, with_.hi) == (0, 0)
    cert = next(c for c in with_.certificates if c.rule == "canonical-gg")
    assert cert.witness_data()["supporting_rule"] == "reider-divisible"
    assert verify_certificate(quintic, cert)


def test_canonical_gg_reverifies_supporting_certificate(monkeypatch):
    from confn import engine

    monkeypatch.setitem(
        engine._RULES,
        "reider-divisible",
        dataclasses.replace(
            engine._RULES["reider-divisible"], verify=lambda desc, cert: False
        ),
    )
    quintic = complete_intersection(2, (5,), very_general=True)
    interval = resolve(quintic, enabled={"reider-divisible", "canonical-gg"})
    cert = next(c for c in interval.certificates if c.rule == "canonical-gg")
    assert not verify_certificate(quintic, cert)


def test_canonical_gg_skipped_when_canonical_not_certified():
    # del Pezzo resolves to hi = 1 but its canonical class is not nef
    interval = resolve(del_pezzo7())
    assert interval.hi == 1
    assert not any(c.rule == "canonical-gg" for c in interval.certificates)


# ------------------------------------------------------ resolver properties


def test_rule_order_is_stable():
    assert RULE_IDS == (
        "exact-threshold",
        "curve-genus",
        "product-combine",
        "cover-degree",
        "not-nef-witness",
        "h0-vanishing",
        "reider-divisible",
        "reider-surface",
        "abelian-bound",
        "toric-adjoint",
        "threefold-helmke",
        "universal-angehrn-siu",
        "blowup-reider-mod24",
    )
    assert "universal-angehrn-siu" not in OPTIONAL_RULE_IDS


def test_enabling_more_rules_only_shrinks():
    rng = random.Random(991)
    pool = tuple(OPTIONAL_RULE_IDS) + ("canonical-gg",)
    descs = [
        projective_space(2),
        hirzebruch1(),
        del_pezzo7(),
        complete_intersection(2, (5,), very_general=True),
        abelian(2),
        product(hirzebruch1(), projective_space(1)),
        blowup_point(synthetic_mod24_surface()),
    ]
    for _ in range(40):
        small = frozenset(r for r in pool if rng.random() < 0.5)
        large = small | frozenset(r for r in pool if rng.random() < 0.5)
        for desc in descs:
            a = resolve(desc, enabled=small)
            b = resolve(desc, enabled=large)
            assert b.lo >= a.lo
            assert b.hi <= a.hi
            assert 0 <= b.lo <= b.hi


# ------------------------------------------------------ error paths


def test_crossed_interval_raises_with_dump():
    lat = PicardLattice(("H",))
    crossed = custom(
        dimension=1,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 1, 1),
        canonical=lat.make([-10]),
        nef=Cone(lat, ((1,),)),
        gg=ExactEqualsNef("degree is the only invariant on a rank-1 curve lattice"),
    )
    with pytest.raises(InconsistencyError) as err:
        resolve(crossed)
    message = str(err.value)
    assert "crossed interval" in message
    assert "lower bound 10" in message


def test_toric_extremal_value_outside_projective_space_raises():
    lat = PicardLattice(("H",))
    fake = custom(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 2, 1),
        canonical=lat.make([-3]),
        nef=Cone(lat, ((1,),)),
        gg=ExactEqualsNef("toric: nef implies globally generated"),
        flags=_toric_flags(),
    )
    with pytest.raises(InconsistencyError) as err:
        resolve(fake)
    assert "n + 1" in str(err.value)


# ------------------------------------------------------ verifier


def _tamper(cert: Certificate, **changes) -> Certificate:
    data = cert.witness_data()
    data.update(changes)
    return make_certificate(cert.kind, cert.rule, cert.value, cert.citation,
                            premises=cert.premises, witness=data)


def test_verifier_rejects_unknown_rule():
    cert = make_certificate(UPPER, "made-up-rule", 1, "nothing")
    assert not verify_certificate(projective_space(2), cert)


def test_verifier_rejects_tampered_threshold():
    p2 = projective_space(2)
    interval = resolve(p2)
    upper = next(
        c
        for c in interval.certificates
        if c.rule == "exact-threshold" and c.kind == UPPER
    )
    assert verify_certificate(p2, upper)
    data = upper.witness_data()
    data["per_functional"][0]["value_on_canonical"] += 1
    bad = make_certificate(UPPER, upper.rule, upper.value, upper.citation,
                           premises=upper.premises, witness=data)
    assert not verify_certificate(p2, bad)

    lower = next(
        c
        for c in interval.certificates
        if c.rule == "exact-threshold" and c.kind == LOWER
    )
    short = _tamper(lower, tuple=lower.witness_data()["tuple"][:1])
    assert not verify_certificate(p2, short)


def test_verifier_rejects_repeated_functional_index():
    f1 = hirzebruch1()
    upper = next(
        c
        for c in resolve(f1).certificates
        if c.rule == "exact-threshold" and c.kind == UPPER
    )
    entries = upper.witness_data()["per_functional"]
    assert [e["required"] for e in entries] == [2, 1]
    # functional 1 listed twice hides functional 0, which requires 2
    forged = make_certificate(
        UPPER, upper.rule, 1, upper.citation, premises=upper.premises,
        witness={"m_star": 1, "per_functional": [entries[1], entries[1]]},
    )
    assert not verify_certificate(f1, forged)


def test_verifier_rejects_wrong_descriptor():
    ab_cert = next(
        c for c in resolve(abelian(2)).certificates if c.rule == "abelian-bound"
    )
    assert not verify_certificate(projective_space(2), ab_cert)


def test_verifier_rejects_tampered_cover_bound():
    p4 = projective_space(4)
    deep = cyclic_cover(p4, p4.lattice.make([1]), 7)
    cert = next(c for c in resolve(deep).certificates if c.rule == "cover-degree")
    assert verify_certificate(deep, cert)
    assert not verify_certificate(deep, _tamper(cert, bound=1))
    assert not verify_certificate(deep, _tamper(cert, degree=6))


def _product_of_p1():
    p1 = projective_space(1)
    return p1, product(p1, p1), "product-combine"


def _cover_of_p4():
    p4 = projective_space(4)
    return p4, cyclic_cover(p4, p4.lattice.make([1]), 7), "cover-degree"


@pytest.mark.parametrize("build", [_product_of_p1, _cover_of_p4], ids=["product", "cover"])
def test_verifier_rechecks_memoized_parent_interval(build):
    parent, child, rule = build()
    certs = [c for c in resolve(child).certificates if c.rule == rule]
    assert certs and all(verify_certificate(child, c) for c in certs)
    # the same descriptors built again, with the parent's memoized interval
    # carrying a tampered upper endpoint certificate
    parent, child, rule = build()
    certs = [c for c in resolve(child).certificates if c.rule == rule]
    key = None  # the memo key of the full rule set
    iv = parent._intervals[key]
    upper = next(c for c in iv.certificates if c.kind == UPPER and c.value == iv.hi)
    assert upper.rule == "exact-threshold"
    bad = _tamper(upper, m_star=upper.value + 1)
    parent._intervals[key] = dataclasses.replace(
        iv, certificates=tuple(bad if c is upper else c for c in iv.certificates)
    )
    assert resolve(parent) is parent._intervals[key]
    assert not any(verify_certificate(child, c) for c in certs)


def test_rule_subset_reads_full_parent_intervals():
    # the rule set restricts only the rules run on the product itself
    desc = product(hirzebruch1(), projective_space(1))
    interval = resolve(desc, enabled={"product-combine"})
    assert (interval.lo, interval.hi) == (2, 2)
    _assert_all_verified(desc, interval)
    assert [
        c.witness_data()["factor_intervals"]
        for c in interval.certificates
        if c.rule == "product-combine"
    ] == [[[2, 2], [2, 2]]] * 2


def test_verifier_rejects_tampered_pairing():
    up = blowup_point(del_pezzo7())
    cert = next(
        c for c in resolve(up).certificates if c.rule == "not-nef-witness"
    )
    assert verify_certificate(up, cert)
    assert not verify_certificate(up, _tamper(cert, pairing=1))
    assert not verify_certificate(
        up, _tamper(cert, effective_class=[1, 0, 0, 0])
    )


def test_verifier_rejects_wrong_reider_clause():
    quintic = complete_intersection(2, (5,), very_general=True)
    cert = next(
        c
        for c in resolve(quintic, enabled={"reider-surface"}).certificates
        if c.rule == "reider-surface" and c.value == 2
    )
    assert verify_certificate(quintic, cert)
    assert not verify_certificate(quintic, _tamper(cert, clause="even-form"))


def test_verifier_rejects_unsupported_canonical_gg():
    quintic = complete_intersection(2, (5,), very_general=True)
    cert = next(
        c
        for c in resolve(
            quintic, enabled={"reider-divisible", "canonical-gg"}
        ).certificates
        if c.rule == "canonical-gg"
    )
    assert verify_certificate(quintic, cert)
    bad = _tamper(cert, supporting_rule="universal-angehrn-siu")
    assert not verify_certificate(quintic, bad)
    assert not verify_certificate(quintic, _tamper(cert, supporting_rule="nope"))


def test_every_corpus_certificate_verifies():
    descs = [
        projective_space(1),
        projective_space(4),
        hirzebruch1(),
        del_pezzo7(),
        complete_intersection(3, (4,)),
        complete_intersection(2, (4,), very_general=True),
        curve(2),
        abelian(2),
        product(del_pezzo7(), projective_space(1)),
        blowup_point(hirzebruch1()),
    ]
    for desc in descs:
        interval = resolve(desc)
        _assert_all_verified(desc, interval)
