"""Resolver rules, refinement, error paths, and the certificate verifier."""

import json
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from confn import cones, engine, runner

from confn.certificates import LOWER, UPPER, Certificate
from confn.constructions import blowup_point, cyclic_cover, hypersurface_section, product
from confn.descriptors import (
    DescriptorError,
    ExactEqualsNef,
    Provenance,
    VarietyDescriptor,
    abelian,
    complete_intersection,
    curve,
    custom,
    del_pezzo7,
    hirzebruch1,
    projective_space,
)
from confn.engine import (
    RULE_IDS,
    FujitaInterval,
    InconsistencyError,
    resolve,
    verify_certificate,
)
from confn.cones import Cone, ConeError
from confn.dsl import parse
from confn.lattice import IntersectionForm, PicardLattice
from confn.runner import evaluate


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
    interval = resolve(projective_space(2))
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
    interval = resolve(quintic)
    rules = [(c.rule, c.kind) for c in interval.certificates]
    assert ("exact-threshold", UPPER) in rules
    assert ("exact-threshold", LOWER) not in rules
    assert interval.lo == 0


def test_exact_threshold_abstains_without_exact_gg():
    interval = resolve(abelian(2))
    assert not any(c.rule == "exact-threshold" for c in interval.certificates)


def test_exact_threshold_inconclusive_advisory():
    lat = PicardLattice(("A", "B"))
    desc = VarietyDescriptor._make(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.from_gram(lat, [[1, 1], [1, 0]]),
        canonical=lat.make([-1, 0]),
        nef=Cone(lat, ((1, 0), (-10, 1))),
        gg=ExactEqualsNef("toric: nef implies globally generated"),
        flags=frozenset({"toric"}),
        provenance=Provenance("custom"),
    )
    # no interior point has sup-norm 6 or less, yet the threshold is exact
    interval = resolve(desc)
    assert (interval.lo, interval.hi) == (1, 1)
    threshold = [c.kind for c in interval.certificates if c.rule == "exact-threshold"]
    assert threshold == [UPPER, LOWER]
    _assert_all_verified(desc, interval)


def _curve_of_canonical_degree(deg_k):
    lat = PicardLattice(("H",))
    return custom(
        dimension=1,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 1, 1),
        canonical=lat.make([deg_k]),
    )


def _curve_times_p1_program(deg_k):
    return (
        f"let C = custom(dimension = 1, basis = [H], gram = [[1]], canonical = {deg_k}*H)\n"
        "let P = projective_space(1)\n"
        "let S = product(C, P)\n"
        "compute S\n"
    )


@pytest.mark.parametrize("deg_k", [3, 1, -1, -3, -4])
def test_curve_admission_refuses_a_canonical_degree_off_2g_minus_2(deg_k):
    message = f"a curve's canonical degree is 2g - 2 for a genus g >= 0, but {deg_k} is not"
    with pytest.raises(DescriptorError) as err:
        _curve_of_canonical_degree(deg_k)
    assert str(err.value) == message
    rows = {row.name: row for row in evaluate(parse(_curve_times_p1_program(deg_k))).rows}
    assert rows["C"].error == message
    assert rows["S"].interval is None
    assert "'C' failed to evaluate" in rows["S"].error


@pytest.mark.parametrize("deg_k", [-2, 0, 10])
def test_curve_admission_admits_a_canonical_degree_2g_minus_2(deg_k):
    desc = _curve_of_canonical_degree(deg_k)
    certs = [c for c in resolve(desc).certificates if c.rule == "curve-genus"]
    assert [c.kind for c in certs] == [UPPER, LOWER]
    assert all(c.witness_data()["genus"] == (deg_k + 2) // 2 for c in certs)
    assert all(verify_certificate(desc, c) for c in certs)
    # genus 0 and 1 meet the mutant that writes the genus as a bool
    for c in certs:
        for name, witness in _witness_mutants(c.witness_data()):
            forged = Certificate(c.kind, c.rule, c.value, c.citation, c.premises, witness)
            assert not verify_certificate(desc, forged), (c.kind, name)
    (row,) = evaluate(parse(_curve_times_p1_program(deg_k))).rows
    assert row.error is None and row.verified


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
    asserted = product(abelian(1), abelian(2), assume=("no_common_isogeny_factor",))
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
    interval = resolve(del_pezzo7())
    assert not any(c.rule == "not-nef-witness" for c in interval.certificates)


def test_h0_vanishing_on_products_and_covers():
    f1xp1 = product(hirzebruch1(), projective_space(1))
    interval = resolve(f1xp1)
    cert = next(c for c in interval.certificates if c.rule == "h0-vanishing")
    assert cert.kind == LOWER and cert.value == 1
    assert any("one factor vanishes" in line for line in cert.witness_data()["trace"])
    # positive h^0 means no certificate
    p4 = projective_space(4)
    deep = cyclic_cover(p4, p4.lattice.make([1]), 7)
    assert not any(
        c.rule == "h0-vanishing"
        for c in resolve(deep).certificates
    )


def test_reider_divisible_needs_modulus_five():
    quintic = complete_intersection(2, (5,), very_general=True)
    interval = resolve(quintic)
    cert = next(c for c in interval.certificates if c.rule == "reider-divisible")
    assert cert.value == 1
    assert cert.witness_data()["modulus"] == 5
    quartic = complete_intersection(2, (4,), very_general=True)
    assert not any(
        c.rule == "reider-divisible"
        for c in resolve(quartic).certificates
    )


def _rank_one_surface(top):
    lat = PicardLattice(("H",))
    return custom(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 2, top),
        canonical=lat.make([1]),
        nef=Cone(lat, ((1,),)),
    )


def _unadmitted(desc, **fields):
    """A copy of ``desc`` with some fields replaced and no admission checks,
    for the data admission refuses; its memos start empty."""
    out = object.__new__(VarietyDescriptor)
    for name in VarietyDescriptor.__slots__:
        object.__setattr__(out, name, fields.get(name, getattr(desc, name)))
    object.__setattr__(out, "_interval", None)
    object.__setattr__(out, "_verdicts", {})
    return out


@pytest.mark.parametrize("top, hi", [(5, 1), (7, 1), (9, 1), (2, 2), (4, 2)])
def test_rank_one_surface_reads_divisibility_from_its_form(top, hi):
    # on a rank-1 lattice every pairing is a multiple of (H^2)
    desc = _rank_one_surface(top)
    interval = resolve(desc)
    assert (interval.lo, interval.hi) == (0, hi)
    _assert_all_verified(desc, interval)
    divisible = [c for c in interval.certificates if c.rule == "reider-divisible"]
    if hi == 1:
        (cert,) = divisible
        assert cert.witness_data() == {"modulus": top}
    else:
        assert not divisible


def test_verifier_rejects_tampered_divisibility_modulus():
    desc = _rank_one_surface(10)
    cert = next(
        c
        for c in resolve(desc).certificates
        if c.rule == "reider-divisible"
    )
    assert cert.witness_data() == {"modulus": 10}

    def forged(modulus):
        return Certificate(cert.kind, cert.rule, cert.value, cert.citation,
                           premises=cert.premises, witness={"modulus": modulus})

    assert verify_certificate(desc, forged(5))  # a divisor >= 5 still holds
    assert not verify_certificate(desc, forged(7))  # does not divide (H^2)
    assert not verify_certificate(desc, forged(20))
    assert not verify_certificate(desc, forged(2))  # divides, but below 5
    # admission refuses a zero form; the verifier, which never trusts
    # admission, grants one no divisibility either, though 0 % 24 == 0
    with pytest.raises(DescriptorError, match="every intersection number is 0"):
        _rank_one_surface(0)
    zero = _unadmitted(desc, form=desc.form.scaled(0))
    assert zero.form.gcd() == 0
    assert not verify_certificate(zero, forged(24))


def test_reider_surface_clauses():
    quartic = complete_intersection(2, (4,), very_general=True)
    interval = resolve(quartic)
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
        for c in resolve(quintic).certificates
        if c.rule == "reider-surface" and c.value == 2
    )
    assert two_q.witness_data()["clause"] == "no-square-one-rank1"

    # del Pezzo: odd unimodular form, no clause applies, plain bound 3
    dp_interval = resolve(del_pezzo7())
    dp_values = [
        c.value for c in dp_interval.certificates if c.rule == "reider-surface"
    ]
    assert dp_values == [3]


def test_rank_one_square_one_decided_in_closed_form():
    # (H^2) = 1: H itself is ample of square 1, so no bound of 2
    p2 = resolve(projective_space(2))
    assert [c.value for c in p2.certificates if c.rule == "reider-surface"] == [3]
    quintic = complete_intersection(2, (5,), very_general=True)
    clauses = [
        c.witness_data().get("clause")
        for c in resolve(quintic).certificates
    ]
    assert "no-square-one-rank1" in clauses


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
    # the universal bound runs on every descriptor, whatever else applies
    for desc, bound in ((projective_space(6), 22), (hirzebruch1(), 4)):
        assert [
            c.value
            for c in resolve(desc).certificates
            if c.rule == "universal-angehrn-siu"
        ] == [bound]


def _quadric_section():
    """A section of 5H on the quadric threefold: (H^2) = 10 and K = 2H,
    which the section records as globally generated."""
    quadric = complete_intersection(3, (2,))
    return hypersurface_section(quadric, quadric.lattice.make([1]), 5)


def test_canonical_gg_refinement():
    section = _quadric_section()
    interval = resolve(section)
    assert (interval.lo, interval.hi) == (0, 0)
    # the table's rules stop at 1, and the canonical class closes the gap
    assert min(
        c.value
        for c in interval.certificates
        if c.kind == UPPER and c.rule != "canonical-gg"
    ) == 1
    cert = next(c for c in interval.certificates if c.rule == "canonical-gg")
    assert cert.witness_data()["supporting_rule"] == "reider-divisible"
    assert verify_certificate(section, cert)


def test_canonical_gg_reverifies_supporting_certificate(monkeypatch):
    rule = engine._RULES["reider-divisible"]
    monkeypatch.setitem(
        engine._RULES,
        "reider-divisible",
        engine.Rule(rule.id, rule.derive, lambda desc, cert: False),
    )
    section = _quadric_section()
    interval = resolve(section)
    cert = next(c for c in interval.certificates if c.rule == "canonical-gg")
    assert not verify_certificate(section, cert)


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


# ------------------------------------------------------ error paths


def test_crossed_interval_raises_with_dump(monkeypatch):
    # a rule gone wrong: a lower bound of 10 on P^1, whose upper bound is 2
    rule = engine._RULES["not-nef-witness"]
    monkeypatch.setitem(
        engine._RULES,
        "not-nef-witness",
        engine.Rule(
            rule.id,
            lambda desc: [Certificate(LOWER, rule.id, 10, "forced")],
            rule.verify,
        ),
    )
    with pytest.raises(InconsistencyError) as err:
        resolve(projective_space(1))
    message = str(err.value)
    assert "crossed interval" in message
    assert "lower bound 10" in message


def test_toric_extremal_value_outside_projective_space_raises():
    # a threefold with K = -4H resolves to 4 = n + 1, but (H^3) = 2 is not
    # the data of P^3
    lat = PicardLattice(("H",))
    fake = VarietyDescriptor._make(
        dimension=3,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 3, 2),
        canonical=lat.make([-4]),
        nef=Cone(lat, ((1,),)),
        gg=ExactEqualsNef("toric: nef implies globally generated"),
        flags=frozenset({"toric"}),
        provenance=Provenance("custom"),
    )
    with pytest.raises(InconsistencyError) as err:
        resolve(fake)
    assert "n + 1" in str(err.value)


# ------------------------------------------------------ verifier


def _tamper(cert: Certificate, **changes) -> Certificate:
    data = cert.witness_data()
    data.update(changes)
    return Certificate(cert.kind, cert.rule, cert.value, cert.citation,
                       premises=cert.premises, witness=data)


def test_verifier_rejects_unknown_rule():
    cert = Certificate(UPPER, "made-up-rule", 1, "nothing")
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
    assert upper.witness_data() == {"m_star": 3}
    for m in (2, 4):
        assert not verify_certificate(p2, _tamper(upper, m_star=m))
        moved = Certificate(UPPER, upper.rule, m, upper.citation,
                            premises=upper.premises, witness={"m_star": m})
        assert not verify_certificate(p2, moved)

    lower = next(
        c
        for c in interval.certificates
        if c.rule == "exact-threshold" and c.kind == LOWER
    )
    short = _tamper(lower, tuple=lower.witness_data()["tuple"][:1])
    assert not verify_certificate(p2, short)


def test_verifier_reads_the_rank_one_square_one_top():
    for degree in (4, 5):
        surface = complete_intersection(2, (degree,), very_general=True)
        cert = next(
            c
            for c in resolve(surface).certificates
            if c.witness_data().get("clause") == "no-square-one-rank1"
        )
        assert cert.witness_data()["top"] == degree
        assert verify_certificate(surface, cert)
        assert not verify_certificate(surface, _tamper(cert, top=degree + 1))
        assert not verify_certificate(surface, _tamper(cert, top=1))


def test_verifier_rejects_repeated_functional_index():
    f1 = hirzebruch1()
    upper = next(
        c
        for c in resolve(f1).certificates
        if c.rule == "exact-threshold" and c.kind == UPPER
    )
    assert verify_certificate(f1, upper)
    assert f1.nef.values(f1.canonical) == (-2, -1)
    # functional 1 requires 1, but functional 0 requires 2: a bound read
    # off functional 1 alone is refused
    forged = Certificate(
        UPPER, upper.rule, 1, upper.citation, premises=upper.premises,
        witness={"m_star": 1},
    )
    assert not verify_certificate(f1, forged)


_pairs = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_pairs, _pairs, st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_an_upper_threshold_verifies_exactly_at_the_closed_form(f1, f2, canonical):
    # the rank-2 cones and canonical classes of the acceptance refuter check
    lat = PicardLattice(("u", "v"))
    try:
        nef = Cone(lat, (f1, f2))
    except ConeError:
        assume(False)
    form = IntersectionForm.from_gram(lat, [[1, 0], [0, 1]])
    k = lat.make(list(canonical))
    exact = VarietyDescriptor._make(
        dimension=2, lattice=lat, form=form, canonical=k, nef=nef,
        gg=ExactEqualsNef("toric: nef implies globally generated"),
        flags=frozenset({"toric"}), provenance=Provenance("custom"),
    )
    unknown = custom(dimension=2, lattice=lat, form=form, canonical=k, nef=nef)
    m_star = max(0, *(-v for v in nef.values(k)))
    for value in range(m_star + 3):
        cert = Certificate(UPPER, "exact-threshold", value, "threshold",
                           witness={"m_star": value})
        assert verify_certificate(exact, cert) == (value == m_star), value
        assert not verify_certificate(unknown, cert)


def test_verifier_rejects_wrong_descriptor():
    ab_cert = next(
        c for c in resolve(abelian(2)).certificates if c.rule == "abelian-bound"
    )
    assert not verify_certificate(projective_space(2), ab_cert)


@pytest.mark.parametrize(
    "rule, holds, lacks",
    [
        ("abelian-bound", lambda: abelian(2), lambda: projective_space(2)),
        ("toric-adjoint", lambda: projective_space(2), lambda: abelian(2)),
        (
            "threefold-helmke",
            lambda: complete_intersection(3, (3,)),
            lambda: projective_space(2),
        ),
        # no premise beyond the dimension, which fixes the value
        (
            "universal-angehrn-siu",
            lambda: projective_space(2),
            lambda: projective_space(3),
        ),
    ],
)
def test_premise_only_rules_verify_only_their_premise_and_value(rule, holds, lacks):
    desc = holds()
    cert = next(c for c in resolve(desc).certificates if c.rule == rule)
    assert cert.kind == UPPER and cert.witness_data() == {}
    assert verify_certificate(desc, cert)
    for delta in (-1, 1):
        moved = Certificate(cert.kind, cert.rule, cert.value + delta, cert.citation,
                            cert.premises, cert.witness_data())
        assert not verify_certificate(desc, moved), delta
    assert not verify_certificate(lacks(), cert)


def test_verifier_rejects_tampered_cover_bound():
    p4 = projective_space(4)
    deep = cyclic_cover(p4, p4.lattice.make([1]), 7)
    cert = next(c for c in resolve(deep).certificates if c.rule == "cover-degree")
    assert verify_certificate(deep, cert)
    assert not verify_certificate(deep, _tamper(cert, bound=1))
    assert not verify_certificate(deep, _tamper(cert, degree=6))


def test_verifier_reads_the_product_gate():
    f1xp1 = product(hirzebruch1(), projective_space(1))
    upper = next(
        c
        for c in resolve(f1xp1).certificates
        if c.rule == "product-combine" and c.kind == UPPER
    )
    assert verify_certificate(f1xp1, upper)
    assert not verify_certificate(f1xp1, _tamper(upper, gate="made up"))
    data = upper.witness_data()
    del data["gate"]
    missing = Certificate(upper.kind, upper.rule, upper.value, upper.citation,
                          premises=upper.premises, witness=data)
    assert not verify_certificate(f1xp1, missing)


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
    iv = parent._interval
    upper = next(c for c in iv.certificates if c.kind == UPPER and c.value == iv.hi)
    assert upper.rule == "exact-threshold"
    bad = _tamper(upper, m_star=upper.value + 1)
    forged = FujitaInterval(
        iv.lo,
        iv.hi,
        tuple(bad if c is upper else c for c in iv.certificates),
    )
    object.__setattr__(parent, "_interval", forged)
    assert resolve(parent) is forged
    assert not any(verify_certificate(child, c) for c in certs)


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
        for c in resolve(quintic).certificates
        if c.rule == "reider-surface" and c.value == 2
    )
    assert verify_certificate(quintic, cert)
    assert not verify_certificate(quintic, _tamper(cert, clause="even-form"))


def test_verifier_rejects_unsupported_canonical_gg():
    section = _quadric_section()
    cert = next(
        c for c in resolve(section).certificates if c.rule == "canonical-gg"
    )
    assert verify_certificate(section, cert)
    bad = _tamper(cert, supporting_rule="universal-angehrn-siu")
    assert not verify_certificate(section, bad)
    assert not verify_certificate(section, _tamper(cert, supporting_rule="nope"))


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


def _witness_mutants(data: dict):
    """A name and a witness for each change of ``data`` the verifier must
    refuse: each top-level key renamed or its value wrapped in a list, an
    added key, the empty witness, and each int leaf of 0 or 1 written as
    False or True, which Python's == takes for that int."""
    for key, value in data.items():
        rest = {k: v for k, v in data.items() if k != key}
        yield f"renamed {key}", {**rest, key + "_": value}
        yield f"changed {key}", {**data, key: [value]}
    yield "added key", {**data, "extra": 0}
    # the one valid mutant: a rule that writes no witness, such as a
    # premise-only rule, has the empty witness as its own
    if data:
        yield "empty", {}
    for path in _int_leaves(data):
        if _leaf(data, path) in (0, 1):
            yield f"bool for {path}", _replaced(data, path, bool)


def test_every_corpus_certificate_refuses_its_mutants(monkeypatch):
    _check_corpus_mutants(monkeypatch, verify_certificate)


def test_every_verifier_refuses_the_corpus_mutants_through_its_own_checks(monkeypatch):
    # verify_certificate reads an exception as False; a verifier called
    # directly must refuse a malformed witness without raising
    _check_corpus_mutants(
        monkeypatch, lambda desc, cert: engine._RULES[cert.rule].verify(desc, cert)
    )


def _check_corpus_mutants(monkeypatch, check):
    """Every certificate of the corpus passes ``check`` on its descriptor,
    and each value moved by one and each witness mutant is refused."""
    computed = []
    compute_row = runner._compute_row

    def record(row, binding, max_m):
        computed.append((row, binding.descriptor))
        compute_row(row, binding, max_m)

    # a row bound to an earlier row's binding copies its interval, so the
    # rows computed here carry every certificate of the corpus
    monkeypatch.setattr(runner, "_compute_row", record)
    runner.corpus()
    rules = set()
    for row, desc in computed:
        for cert in row.interval.certificates:
            assert check(desc, cert), (row.name, cert.rule)
            rules.add(cert.rule)
            for value in (cert.value - 1, cert.value + 1):
                if value < 0:
                    continue
                moved = Certificate(cert.kind, cert.rule, value, cert.citation,
                                    cert.premises, cert.witness_data())
                assert not check(desc, moved), (row.name, cert.rule, value)
            if cert.value in (0, 1):
                # True == 1, so a bool value is refused before any verifier
                with pytest.raises(TypeError, match="not bool"):
                    Certificate(cert.kind, cert.rule, bool(cert.value), cert.citation,
                                cert.premises, cert.witness_data())
            for name, witness in _witness_mutants(cert.witness_data()):
                forged = Certificate(cert.kind, cert.rule, cert.value, cert.citation,
                                     cert.premises, witness)
                assert not check(desc, forged), (row.name, cert.rule, name)
            if "violated_index" in cert.witness_data():
                # the rule writes an index from 0 to k - 1 for k functionals;
                # a negative one would count from the end
                for index in (-1, -2, len(desc.nef.functionals)):
                    forged = Certificate(cert.kind, cert.rule, cert.value, cert.citation,
                                         cert.premises,
                                         {**cert.witness_data(), "violated_index": index})
                    assert not check(desc, forged), (row.name, index)
    # the corpus reaches every rule
    assert rules == set(engine._RULES)


def _recorded_as(desc, provenance):
    """``desc``'s data under another provenance record."""
    return VarietyDescriptor._make(
        dimension=desc.dimension,
        lattice=desc.lattice,
        form=desc.form,
        canonical=desc.canonical,
        nef=desc.nef,
        gg=desc.gg,
        flags=desc.flags,
        provenance=provenance,
    )


def test_rules_read_the_node_class_never_the_constructor_name():
    p4 = projective_space(4)
    cover = cyclic_cover(p4, p4.lattice.make([1]), 7)
    node = cover.provenance
    named = _recorded_as(
        cover, Provenance("cyclic_cover", node.parameters, node.parents, node.assertions)
    )
    # the same name and strings, but no Cover node: no degree to read
    interval = resolve(named)
    assert (interval.lo, interval.hi) == (0, 11)
    assert "cover-degree" not in {c.rule for c in interval.certificates}
    honest = [c for c in resolve(cover).certificates if c.rule == "cover-degree"]
    assert honest and not verify_certificate(named, honest[0])
    p1 = projective_space(1)
    pair = product(p1, p1)
    named_pair = _recorded_as(pair, Provenance("product", parents=(p1, p1)))
    assert "product-combine" not in {c.rule for c in resolve(named_pair).certificates}
    honest = [c for c in resolve(pair).certificates if c.rule == "product-combine"]
    assert honest and not any(verify_certificate(named_pair, c) for c in honest)
    # the extremal-value guard reads P^2's data, not its name
    p2 = _recorded_as(projective_space(2), Provenance("custom"))
    interval = resolve(p2)
    assert (interval.lo, interval.hi) == (3, 3)
    assert all(verify_certificate(p2, c) for c in interval.certificates)


# ------------------------------------------------------ memos on the nef cone's shape


def _threshold(desc, kind) -> Certificate:
    return next(
        c
        for c in resolve(desc).certificates
        if c.rule == "exact-threshold" and c.kind == kind
    )


def _int_leaves(data, path=()):
    """The path of each int leaf of JSON ``data``."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _int_leaves(value, path + (key,))
        elif type(value) is int:
            yield path + (key,)


def _leaf(data, path):
    for key in path:
        data = data[key]
    return data


def _replaced(data, path, change):
    """A copy of JSON ``data`` with the leaf at ``path`` replaced by
    ``change`` of it."""
    data = json.loads(json.dumps(data))
    node = _leaf(data, path[:-1])
    node[path[-1]] = change(node[path[-1]])
    return data


def test_a_mutated_threshold_leaf_is_refused_on_a_shape_that_accepted_the_honest_one(
    monkeypatch,
):
    f1 = hirzebruch1()
    honest = [_threshold(f1, UPPER), _threshold(f1, LOWER)]
    assert all(verify_certificate(f1, cert) for cert in honest)
    # a second descriptor on the shared shape, verified against a fresh one
    twin = hirzebruch1()
    assert twin.nef._shape is f1.nef._shape
    forged = {
        (cert.kind, path): Certificate(
            cert.kind, cert.rule, cert.value, cert.citation,
            premises=cert.premises,
            witness=_replaced(cert.witness_data(), path, lambda leaf: leaf + 1),
        )
        for cert in honest
        for path in _int_leaves(cert.witness_data())
    }
    monkeypatch.setattr(cones, "_SHAPES", weakref.WeakValueDictionary())
    fresh = hirzebruch1()
    assert fresh.nef._shape is not f1.nef._shape
    expected = {key: verify_certificate(fresh, cert) for key, cert in forged.items()}
    assert {key: verify_certificate(twin, cert) for key, cert in forged.items()} == expected
    # the upper bound no longer equals the threshold; the escaping point
    # moved off the interior
    refused = {key for key, verdict in expected.items() if not verdict}
    assert (UPPER, ("m_star",)) in refused
    assert (LOWER, ("tuple", 0, 0)) in refused
    assert all(verify_certificate(twin, cert) for cert in honest)


def _p1_x_p1_surface(quadric):
    """A custom surface on ``quadric``'s nef cone, moved to its own lattice."""
    lat = PicardLattice(("A", "B"))
    return custom(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.from_gram(lat, [[0, 1], [1, 0]]),
        canonical=lat.make([-2, -2]),
        nef=quadric.nef.with_lattice(lat),
    )


def test_a_custom_surface_on_a_product_shape_keeps_its_own_interval():
    p1 = projective_space(1)
    quadric = product(p1, p1)
    product_iv = resolve(quadric)
    assert str(product_iv) == "2"
    certs = [c for c in product_iv.certificates if c.rule == "exact-threshold"]
    assert len(certs) == 2 and all(verify_certificate(quadric, c) for c in certs)
    surface = _p1_x_p1_surface(quadric)
    # the same shape and canonical values, but global generation is unknown
    assert surface.nef._shape is quadric.nef._shape
    assert surface.nef.values(surface.canonical) == quadric.nef.values(quadric.canonical)
    interval = resolve(surface)
    assert (interval.lo, interval.hi) == (0, 2)
    assert all(c.rule != "exact-threshold" for c in interval.certificates)
    assert not any(verify_certificate(surface, c) for c in certs)
    _assert_all_verified(surface, interval)


def test_products_on_one_shape_keep_their_own_threshold():
    spaces = {n: projective_space(n) for n in range(1, 6)}
    products = {
        (a, b): product(spaces[a], spaces[b]) for a in spaces for b in spaces
    }
    assert len({id(d.nef._shape) for d in products.values()}) == 1
    for (a, b), desc in products.items():
        interval = resolve(desc)
        assert interval.exact and interval.lo == max(a, b) + 1, (a, b)
        upper = _threshold(desc, UPPER)
        assert upper.value == max(a, b) + 1
        assert upper.witness_data() == {"m_star": max(a, b) + 1}
        assert desc.nef.values(desc.canonical) == (-(a + 1), -(b + 1))
        _assert_all_verified(desc, interval)


def test_premise_only_certificates_are_built_once_per_value_and_premise():
    space, quadric = resolve(projective_space(3)), resolve(complete_intersection(3, (2,)))
    for rule in ("threefold-helmke", "universal-angehrn-siu"):
        [a] = [c for c in space.certificates if c.rule == rule]
        [b] = [c for c in quadric.certificates if c.rule == rule]
        assert a is b
