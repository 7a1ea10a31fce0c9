"""Each memo layer that survives, pinned by the work it saves.

Every test counts calls of the function a layer keeps from running again,
on a program a user could write, and fails if that layer alone is taken
out.  Each one starts from an empty shape table and an empty certificate
table, so no cone or certificate that another test keeps alive lends its
answers to the count.
"""

import gc
import weakref

import pytest

from confn import certificates, cones, engine, kunneth, runner
from confn.constructions import product
from confn.descriptors import curve, projective_space
from confn.dsl import parse
from confn.runner import Report, VarietyRow, emit_json, evaluate


@pytest.fixture(autouse=True)
def empty_tables(monkeypatch):
    monkeypatch.setattr(cones, "_SHAPES", weakref.WeakValueDictionary())
    # an empty table of the module's own kind, which the lifetime pin reads
    monkeypatch.setattr(certificates, "_TABLE", type(certificates._TABLE)())


def _counted(monkeypatch, owner, name) -> list:
    """Rebind ``owner.<name>`` to count its calls; the list grows by one
    per call."""
    calls = []
    plain = getattr(owner, name)

    def call(*args, **kwargs):
        calls.append(None)
        return plain(*args, **kwargs)

    monkeypatch.setattr(owner, name, call)
    return calls


def _cover_chain(depth: int) -> str:
    """c0 = cyclic_cover(P4, branch = H, degree = 7) and c_k = c_(k-1) x P1,
    computing c_depth: a tower that ``exact-threshold`` does not decide, so
    ``product-combine`` verifies each level through the one below."""
    lines = [
        "let P4 = projective_space(4)",
        "let P1 = projective_space(1)",
        "let c0 = cyclic_cover(P4, branch = H, degree = 7)",
    ]
    lines += [f"let c{k} = product(c{k - 1}, P1)" for k in range(1, depth + 1)]
    lines.append(f"assert_confn c{depth} = 2")
    return "\n".join(lines) + "\n"


def _run(text: str, max_m: int = 6):
    report = evaluate(parse(text), max_m=max_m)
    assert not report.any_failure and not report.any_internal
    return report


# ---------------------------------------------------------------- the descriptor


def test_the_verdict_memo_keeps_verification_linear_on_a_cover_chain(monkeypatch):
    # without it, each level re-verifies the level below twice over:
    # 140, 2,300 and 36,860 checks at depths 4, 8 and 12
    checks = _counted(monkeypatch, engine, "_check_certificate")
    for depth in (4, 8, 12):
        checks.clear()
        _run(_cover_chain(depth))
        assert len(checks) == 2 * depth + 7, depth


def test_the_interval_memo_resolves_each_node_of_a_tower_once(monkeypatch):
    # P4, P1, c0 and c1 ... c12; each product's rules, its verifier and the
    # runner read the intervals below it again, and without the memo every
    # read resolves the whole tower beneath: 363 resolutions
    resolutions = _counted(monkeypatch, engine, "FujitaInterval")
    _run(_cover_chain(12))
    assert len(resolutions) == 15


def _built(monkeypatch, rules=None) -> list:
    """Rebind the ``Certificate`` that ``certificates.certificate`` makes
    on a miss, to record each certificate a rule builds, of ``rules`` or
    of every rule."""
    built = []
    plain = certificates.Certificate

    def counted(kind, rule, *args, **kwargs):
        cert = plain(kind, rule, *args, **kwargs)
        if rules is None or rule in rules:
            built.append(cert)
        return cert

    monkeypatch.setattr(certificates, "Certificate", counted)
    return built


def test_the_premise_table_builds_each_premise_certificate_once(monkeypatch):
    # six threefolds meet threefold-helmke and universal-angehrn-siu, and
    # P3 toric-adjoint too: 13 certificates per evaluation without the
    # table, none while an earlier run holds them
    built = _built(monkeypatch, ("threefold-helmke", "universal-angehrn-siu", "toric-adjoint"))
    text = "let P3 = projective_space(3)\ncompute P3\n" + "".join(
        f"let X{k} = complete_intersection(3, degrees = {degrees})\ncompute X{k}\n"
        for k, degrees in enumerate(([2], [3], [4], [5], [2, 2]))
    )
    first = _run(text)
    assert len(built) == 3
    built.clear()
    _run(text)
    assert built == []
    assert first.rows


# ------------------------------------------------------------ the certificate table

# four products whose factors all resolve to [2, 2], so they share their
# product-combine certificates, and each factor is the parent of three
_SHARED_INTERVALS = (
    "let P1 = projective_space(1)\nlet C0 = curve(0)\n"
    "let A = product(P1, P1)\nlet B = product(P1, C0)\n"
    "let C = product(C0, P1)\nlet D = product(C0, C0)\n"
    + "".join(f"assert_confn {name} = 2\n" for name in ("A", "B", "C", "D"))
)


def test_the_certificate_table_builds_each_distinct_certificate_once(monkeypatch):
    # without the table the four products build their two product-combine
    # and two reider-surface certificates four times each: 38 builds of 16
    # values
    built = _built(monkeypatch)
    _run(_SHARED_INTERVALS)
    assert len(built) == len(set(built)) == 16


def test_a_remembered_comparison_renders_each_derived_witness_once(monkeypatch):
    # the four products' verifiers compare the shared certificates with
    # equal derived witnesses: 22 comparisons, of 7 distinct pairs
    compared = []
    written = engine._written

    def record(cert, witness):
        compared.append((cert, repr(witness)))
        return written(cert, witness)

    monkeypatch.setattr(engine, "_written", record)
    renders = _counted(monkeypatch, engine, "witness_text")
    _run(_SHARED_INTERVALS)
    assert len(renders) == len(set(compared)) == 7 < len(compared) == 22


def test_the_certificate_table_dies_with_its_run():
    report = _run(_SHARED_INTERVALS)
    assert len(certificates._TABLE) > 0
    del report
    gc.collect()
    assert len(certificates._TABLE) == 0


# ------------------------------------------------------------------- the shapes


def test_the_facet_witness_memo_builds_each_witness_once_per_shape(monkeypatch):
    # P1 ... P6 share the ray's shape under six canonical classes, so six
    # thresholds read its one facet witness, built six times without the
    # memo
    witnesses = _counted(monkeypatch, cones._Shape, "_facet_witness")
    _run("".join(f"let P{n} = projective_space({n})\ncompute P{n}\n" for n in range(1, 7)))
    assert len(witnesses) == 1


def _doubling_tower() -> str:
    """P1^16 as a product of two copies of P1^8, and so on down to P1."""
    return (
        "let a1 = projective_space(1)\nlet a2 = product(a1, a1)\n"
        "let a4 = product(a2, a2)\nlet a8 = product(a4, a4)\n"
        "let a16 = product(a8, a8)\nassert_confn a16 = 2\n"
    )


def _every_doubling_level() -> str:
    """The doubling tower with P1, P1^2, P1^4 and P1^8 computed as well."""
    return _doubling_tower() + "".join(f"assert_confn a{n} = 2\n" for n in (1, 2, 4, 8))


def test_a_threshold_builds_the_facet_witness_of_its_violated_functional_alone(
    monkeypatch,
):
    # P1, P1^2, P1^4, P1^8 and P1^16 each have m* = 2, first reached by
    # their first functional: one facet witness per shape, where one per
    # functional is 31
    witnesses = _counted(monkeypatch, cones._Shape, "_facet_witness")
    _run(_doubling_tower())
    assert len(witnesses) == 5
    # a quintic threefold's canonical class is nef, m* = 0: no witness,
    # where one per functional is 1
    witnesses.clear()
    _run("let X = complete_intersection(3, degrees = [5])\nassert_confn X = 0\n")
    assert witnesses == []


def test_the_shape_table_admits_equal_cones_once(monkeypatch):
    # thirty rank-2 surfaces on one nef cone: the linear program finds the
    # interior point and two separating points once, not thirty times (90)
    solves = _counted(monkeypatch, cones, "_solve")
    surface = "custom(dimension = 2, basis = [S, F], gram = [[-1, 1], [1, 0]]"
    _run(
        "".join(
            f"let S{k} = {surface}, canonical = -2*S - {k}*F, nef = [[1, 0], [-1, 1]])\n"
            f"compute S{k}\n"
            for k in range(1, 31)
        )
    )
    assert len(solves) == 3


def test_a_product_shape_is_assembled_without_admission(monkeypatch):
    # P1^2, P1^4, P1^8 and P1^16, each a product of two copies of the level
    # below: admitting each padded product again checks its supplied
    # witnesses, 4 times
    checks = _counted(monkeypatch, cones._Shape, "_check_witnesses")
    _run(_doubling_tower())
    assert checks == []


def _p1_tower(top: int) -> str:
    """a1 = P1 and a_k = a_(k-1) x P1 up to a_top, every level computed:
    the oracle checks each level, whose blocks are all the ray of P1."""
    lines = ["let a1 = projective_space(1)"]
    lines += [f"let a{k} = product(a{k - 1}, a1)" for k in range(2, top + 1)]
    lines += [f"assert_confn a{k} = 2" for k in range(1, top + 1)]
    return "\n".join(lines) + "\n"


def test_the_points_memo_enumerates_a_shared_block_once(monkeypatch):
    # the 35 ray blocks of P1^2 ... P1^8 and P1 itself are one shape: 36
    # enumerations without the memo
    enumerations = _counted(monkeypatch, cones, "_interior_points")
    _run(_p1_tower(8))
    assert len(enumerations) == 1


def test_the_shape_table_assembles_a_live_product_once(monkeypatch):
    # twenty-five products of projective spaces have the leaves (ray, ray):
    # the first assembles their shape, and the other 24 find it live and
    # pad nothing
    assemblies = _counted(monkeypatch, cones._Shape, "_assembled")
    _run(
        "".join(f"let P{a} = projective_space({a})\n" for a in range(1, 6))
        + "".join(
            f"let X{a}_{b} = product(P{a}, P{b})\nassert_confn X{a}_{b} = {max(a, b) + 1}\n"
            for a in range(1, 6)
            for b in range(1, 6)
        )
    )
    assert len(assemblies) == 1


def test_the_refute_memo_searches_each_block_once(monkeypatch):
    # each level of the tower searches its ray blocks at 1 and 2 summands
    # with the ray's canonical value -2: two searches in all, against 44
    # without the memo
    searches = _counted(monkeypatch, cones, "_refute_block")
    _run(_p1_tower(8))
    assert len(searches) == 2


# ------------------------------------------------------------------ the Kunneth walk


def test_the_walk_memo_decides_each_node_of_a_repeated_factor_once(monkeypatch):
    # P1^16 as four levels of X x X: the walk meets 31 nodes, of which 5
    # differ, one per level; the facts stay on the descriptors, so a second
    # walk from the same side decides nothing, and the other side decides
    # each node for itself
    x = projective_space(1)
    for _ in range(4):
        x = product(x, x)
    decisions = _counted(monkeypatch, kunneth, "_decide")
    first = kunneth.h0_sign(x, x.canonical, kunneth.RULE_MEMO)
    assert first.value == kunneth.ZERO and len(first.trace) == 46
    assert len(decisions) == 5
    again = kunneth.h0_sign(x, x.canonical, kunneth.RULE_MEMO)
    assert (again.value, again.trace) == (first.value, first.trace)
    assert len(decisions) == 5
    checked = kunneth.h0_sign(x, x.canonical, kunneth.VERIFIER_MEMO)
    assert (checked.value, checked.trace) == (first.value, first.trace)
    assert len(decisions) == 10


def test_the_walk_memo_decides_each_level_of_a_tower_once(monkeypatch):
    # P1, P1^2, P1^4, P1^8 and P1^16 by doubling, every level computed:
    # the rule's walks decide each level once, as do the verifier's, where
    # walks that start afresh decide 28 nodes
    decisions = _counted(monkeypatch, kunneth, "_decide")
    _run(_every_doubling_level())
    assert len(decisions) == 10


def test_the_verifier_walk_never_reads_a_rule_side_fact(monkeypatch):
    # h^0(K) of a genus-2 curve squared is not decided; a vanishing planted
    # in the curve's rule memo makes the rule certify h^0(K) = 0, and the
    # verifier decides the curve for itself and refuses the certificate
    c = curve(2)
    x = product(c, c)
    planted = {c.canonical.coeffs: (kunneth.ZERO, ("planted",))}
    object.__setattr__(c, kunneth.RULE_MEMO, planted)
    (cert,) = engine._rule_h0_vanishing(x)
    assert cert.value == 1 and "  planted" in cert.witness_data()["trace"]
    decided = []
    plain = kunneth._decide

    def record(desc, cls_, side):
        decided.append((desc, side))
        return plain(desc, cls_, side)

    monkeypatch.setattr(kunneth, "_decide", record)
    assert not engine.verify_certificate(x, cert)
    assert decided == [(x, kunneth.VERIFIER_MEMO), (c, kunneth.VERIFIER_MEMO)]
    checked = kunneth.h0_sign(x, x.canonical, kunneth.VERIFIER_MEMO)
    assert checked.value == kunneth.UNKNOWN


# ------------------------------------------------------------------- the runner

_SHARED = (
    "let A = projective_space(3)\nlet B = projective_space(3)\n"
    "let AA = product(A, A)\nlet BB = product(B, B)\n"
    + "".join(f"assert_confn {name} = 4\n" for name in ("A", "B", "AA", "BB"))
)


def test_the_row_memo_verifies_a_shared_binding_once(monkeypatch):
    verifications = _counted(monkeypatch, runner, "verify_certificate")
    report = _run(_SHARED)
    a, _, aa, _ = report.rows
    assert len(verifications) == len(a.interval.certificates) + len(aa.interval.certificates)


def test_the_body_memo_renders_a_shared_binding_once(monkeypatch):
    # three rows that share one interval, notes and provenance, built here
    # so that the count does not rest on the row memo
    (first,) = _run("let A = projective_space(3)\ncompute A\n").rows
    report = Report(
        [
            VarietyRow(
                name,
                first.dimension,
                first.picard_rank,
                first.interval,
                first.provenance,
                first.notes,
                verified=first.verified,
            )
            for name in ("A", "B", "C")
        ]
    )
    renders = _counted(monkeypatch, runner, "render_json")
    text = emit_json(report)
    # interval, certificate indices, notes and provenance, once for all
    # three rows, and the certificate table once
    assert len(renders) == 5
    assert text.count('"interval": {') == 3


def test_the_provenance_memo_builds_each_block_once(monkeypatch):
    # P1, P1^2, P1^4, P1^8 and P1^16 by doubling, every level computed:
    # each row joins the kept blocks of the level below, 13 calls, where
    # building every block afresh takes 57 (P1^16 alone is 31)
    calls = _counted(monkeypatch, runner, "provenance_lines")
    report = _run(_every_doubling_level())
    assert len(calls) == 13
    assert [len(row.provenance) for row in report.rows] == [31, 1, 3, 7, 15]
    assert report.rows[-1].provenance[:5] == (
        "product()",
        "  product()",
        "    product()",
        "      projective_space(n=1)",
        "      projective_space(n=1)",
    )


def test_the_certificate_table_writes_each_certificate_once(monkeypatch):
    # P3 and the quadric threefold give equal threefold-helmke and
    # universal-angehrn-siu certificates
    report = _run(
        "let P3 = projective_space(3)\n"
        "let Q = complete_intersection(3, degrees = [2])\n"
        "compute P3\ncompute Q\n"
    )
    distinct = {cert for row in report.rows for cert in row.interval.certificates}
    splices = _counted(monkeypatch, certificates, "_certificate_json")
    emit_json(report)
    assert len(splices) == len(distinct) < sum(
        len(row.interval.certificates) for row in report.rows
    )
