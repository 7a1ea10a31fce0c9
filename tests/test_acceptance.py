"""End-to-end acceptance checks.

One test per sign-off item.  Each test prints a single PASS or FAIL line
through the capture-disabled stream, so running this file gives a short
checklist even under quiet pytest settings.  Every expected number in
here is an exact integer and is compared with ==; there are no
tolerances anywhere in the suite.
"""

from __future__ import annotations

import contextlib
import random
import time

import pytest

from confn.certificates import LOWER, UPPER
from confn.cones import Cone, ConeError, brute_force_refute
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
from confn.engine import resolve, verify_certificate
from confn.lattice import IntersectionForm, PicardLattice
from confn.pipelines import (
    pipeline_n2k1,
    pipeline_n3k1,
    pipeline_simple_surface,
    pipeline_simple_variety,
    synthetic_mod24_surface,
)
from confn.runner import corpus

TOTAL = 9


@contextlib.contextmanager
def criterion(capsys, index: int, label: str):
    """Print one PASS/FAIL line for the wrapped block, then re-raise."""
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        with capsys.disabled():
            print(f"acceptance {index}/{TOTAL} {label}: {verdict}", flush=True)


@pytest.fixture(scope="module")
def corpus_report():
    return corpus()


def _plain_unit_surface():
    lat = PicardLattice(("H",))
    return custom(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.from_gram(lat, [[1]]),
        canonical=lat.make([3]),
    )


def test_projective_spaces_exact_with_certificates(capsys):
    with criterion(capsys, 1, "projective spaces, exact n + 1 under one second"):
        start = time.perf_counter()
        for n in range(1, 7):
            desc = projective_space(n)
            interval = resolve(desc)
            assert interval.exact, f"P^{n} did not resolve exactly"
            assert interval.lo == n + 1, f"P^{n}: got {interval.lo}"
            assert interval.certificates
            for cert in interval.certificates:
                assert verify_certificate(desc, cert), (n, cert.rule, cert.kind)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"ladder took {elapsed:.3f}s"


def test_complete_intersection_grid_matches_adjunction(capsys):
    with criterion(capsys, 2, "complete-intersection grid, zero mismatches"):
        singles = [(d,) for d in range(1, 9)]
        pairs = [(a, b) for a in range(1, 9) for b in range(1, 9)]
        mismatches = []
        for n in (3, 4, 5):
            for degrees in singles + pairs:
                r = len(degrees)
                expected = max(0, (n + r + 1) - sum(degrees))
                interval = resolve(complete_intersection(n, degrees))
                if not interval.exact or interval.lo != expected:
                    mismatches.append(
                        (n, degrees, interval.lo, interval.hi, expected)
                    )
        assert mismatches == []


def test_benchmark_surfaces_exact_values(capsys):
    with criterion(capsys, 3, "benchmark surfaces F1, dP7, P2, quintic"):
        for desc, expected in (
            (hirzebruch1(), 2),
            (del_pezzo7(), 1),
            (projective_space(2), 3),
        ):
            interval = resolve(desc)
            assert interval.exact and interval.lo == expected, (
                desc.provenance.constructor,
                interval.lo,
                interval.hi,
            )
        quintic = complete_intersection(2, (5,), very_general=True)
        interval = resolve(quintic)
        assert interval.exact and interval.lo == 0
        # the canonical class sits in the interior of the nef cone, so the
        # surface is of general type with K itself ample
        assert all(v > 0 for v in quintic.nef.values(quintic.canonical))


def _refuter_agrees(cone, canonical, value: int, radius: int = 4) -> None:
    if value >= 1:
        witness = brute_force_refute(cone, canonical, value - 1, radius)
        assert witness is not None, f"no refutation below {value}"
    for extra in range(3):
        assert brute_force_refute(cone, canonical, value + extra, radius) is None, (
            f"spurious refutation at {value + extra}"
        )


def _witness_radius(cone, report) -> int:
    """At least 4, and large enough that the report's witness and every
    functional's facet witness are searched."""
    points = list(report.witness or ()) + [
        cone.min_interior_value(k) for k in range(len(cone.functionals))
    ]
    return max([4] + [abs(x) for point in points for x in point])


def test_exact_values_agree_with_brute_force_refuter(capsys):
    with criterion(capsys, 4, "brute-force refuter agrees around every witness"):
        exact_pool = (
            [projective_space(n) for n in range(1, 7)]
            + [
                complete_intersection(3, (2,)),
                complete_intersection(3, (3,)),
                complete_intersection(3, (4,)),
                complete_intersection(3, (5,)),
                complete_intersection(3, (2, 2)),
                complete_intersection(4, (2, 2)),
                complete_intersection(2, (4,), very_general=True),
                complete_intersection(2, (5,), very_general=True),
                hirzebruch1(),
                del_pezzo7(),
                product(hirzebruch1(), projective_space(1)),
                curve(0),
            ]
        )
        for desc in exact_pool:
            assert isinstance(desc.gg, ExactEqualsNef)
            assert desc.lattice.rank <= 3
            interval = resolve(desc)
            assert interval.exact, desc.provenance.constructor
            _refuter_agrees(desc.nef, desc.canonical, interval.lo)

        lat2 = PicardLattice(("u", "v"))
        rng = random.Random(20260822)
        checked = 0
        attempts = 0
        while checked < 50:
            attempts += 1
            assert attempts < 5000, "random cone generation stalled"
            f1 = (rng.randint(-3, 3), rng.randint(-3, 3))
            f2 = (rng.randint(-3, 3), rng.randint(-3, 3))
            try:
                cone = Cone(lat2, (f1, f2))
            except ConeError:
                continue
            canonical = lat2.make([rng.randint(-4, 4), rng.randint(-4, 4)])
            report = cone.adjoint_freeness_threshold(canonical)
            _refuter_agrees(cone, canonical, report.m_star, _witness_radius(cone, report))
            checked += 1


def test_upper_bound_rules_hold_across_descriptor_families(capsys):
    with criterion(capsys, 5, "surface, parity, divisibility, dimension bounds"):
        even_lat = PicardLattice(("A", "B"))
        surfaces = [
            hirzebruch1(),
            del_pezzo7(),
            complete_intersection(2, (4,), very_general=True),
            complete_intersection(2, (5,), very_general=True),
            blowup_point(del_pezzo7()),
            blowup_point(hirzebruch1()),
            synthetic_mod24_surface(),
            abelian(2),
            product(abelian(1), abelian(1)),
            _plain_unit_surface(),
            custom(
                dimension=2,
                lattice=even_lat,
                form=IntersectionForm.from_gram(even_lat, [[2, 0], [0, 4]]),
                canonical=even_lat.make([1, 1]),
            ),
        ]
        for desc in surfaces:
            assert resolve(desc).hi <= 3, desc.provenance.constructor

        even_surfaces = [
            complete_intersection(2, (4,), very_general=True),
            synthetic_mod24_surface(),
            product(abelian(1), abelian(1)),
            surfaces[-1],
        ]
        for desc in even_surfaces:
            assert resolve(desc).hi <= 2, desc.provenance.constructor

        divisible = [
            complete_intersection(2, (d,), very_general=True)
            for d in range(5, 9)
        ] + [synthetic_mod24_surface()]
        for desc in divisible:
            assert resolve(desc).hi <= 1, desc.provenance.constructor

        threefolds = [
            complete_intersection(3, (2,)),
            complete_intersection(3, (5,)),
            complete_intersection(3, (2, 2)),
            abelian(3),
            product(hirzebruch1(), projective_space(1)),
            product(del_pezzo7(), projective_space(1)),
        ]
        for desc in threefolds:
            assert resolve(desc).hi <= 4, desc.provenance.constructor

        # the universal bound, (n^2 + n + 2) / 2, holds on its own
        for n, bound in ((6, 22), (2, 4)):
            assert [
                c.value
                for c in resolve(projective_space(n)).certificates
                if c.rule == "universal-angehrn-siu"
            ] == [bound]


def test_product_laws(capsys):
    with criterion(capsys, 6, "product lower law, gated exactness, F1 x P1"):
        exact_pool = [
            projective_space(1),
            projective_space(2),
            projective_space(3),
            hirzebruch1(),
            del_pezzo7(),
            complete_intersection(2, (4,), very_general=True),
            complete_intersection(3, (5,)),
            complete_intersection(3, (2,)),
            curve(0),
        ]
        open_pool = [abelian(1), abelian(2), curve(1), curve(2), _plain_unit_surface()]
        pool = [(d, resolve(d)) for d in exact_pool + open_pool]

        rng = random.Random(1729)
        for _ in range(100):
            (x, rx), (y, ry) = rng.choice(pool), rng.choice(pool)
            gate = ("no_common_isogeny_factor",) if rng.random() < 0.5 else ()
            got = resolve(product(x, y, assume=gate))
            floor = max(rx.lo, ry.lo)
            assert got.lo >= floor, (
                x.provenance.constructor,
                y.provenance.constructor,
                got.lo,
                floor,
            )

        gated = [(d, resolve(d)) for d in exact_pool]
        for _ in range(30):
            (x, rx), (y, ry) = rng.choice(gated), rng.choice(gated)
            got = resolve(product(x, y))
            want = max(rx.lo, ry.lo)
            assert got.exact and got.lo == want, (
                x.provenance.constructor,
                y.provenance.constructor,
                got.lo,
                got.hi,
                want,
            )

        # the rank-3 benchmark has two independent routes to the same number
        f1xp1 = resolve(product(hirzebruch1(), projective_space(1)))
        assert f1xp1.exact and f1xp1.lo == 2
        for rule in ("exact-threshold", "product-combine"):
            for kind in (UPPER, LOWER):
                values = {
                    c.value
                    for c in f1xp1.certificates
                    if c.rule == rule and c.kind == kind
                }
                assert values == {2}, (rule, kind, values)


def test_pipelines_exact_values_and_artifacts(capsys):
    with criterion(capsys, 7, "pipelines deliver exact values and artifacts"):
        p3 = projective_space(3)
        h = p3.lattice.make([1])

        section = pipeline_simple_surface(p3, h, 5)
        assert resolve(section.descriptor).exact and resolve(section.descriptor).lo == 0

        cover = pipeline_simple_variety(p3, h, 6)
        assert resolve(cover.descriptor).exact and resolve(cover.descriptor).lo == 0
        omega = [
            c
            for c in resolve(cover.descriptor).certificates
            if c.witness_data().get("omega_ample_and_globally_generated")
        ]
        assert omega, "missing the ample-and-generated canonical artifact"

        blown = pipeline_n2k1(synthetic_mod24_surface())
        assert resolve(blown.descriptor).exact and resolve(blown.descriptor).lo == 1
        mod24 = [
            c
            for c in resolve(blown.descriptor).certificates
            if "squares_mod_24" in c.witness_data()
        ]
        assert len(mod24) == 1
        data = mod24[0].witness_data()
        assert list(data["squares_mod_24"]) == [0, 1, 4, 9, 12, 16]
        assert data["min_positive_self_intersection"] == 8

        for s, pol in (
            (del_pezzo7(), [3, -1, -1]),
            (hirzebruch1(), [1, 2]),
        ):
            res = pipeline_n3k1(s, s.lattice.make(pol))
            assert resolve(res.descriptor).exact and resolve(res.descriptor).lo == 1
            lows = [
                c
                for c in resolve(res.descriptor).certificates
                if c.rule == "h0-vanishing" and c.kind == LOWER
            ]
            assert lows, s.provenance.constructor
            assert all(c.witness_data().get("trace") for c in lows)

        for result in (section, cover, blown):
            for cert in resolve(result.descriptor).certificates:
                assert verify_certificate(result.descriptor, cert), (
                    cert.rule,
                    cert.kind,
                )


def test_certificates_reverify_and_intervals_never_cross(capsys, corpus_report):
    with criterion(capsys, 8, "corpus and a 12-descriptor pool re-verify"):
        computed = [r for r in corpus_report.rows if r.interval is not None]
        assert computed
        for row in computed:
            assert row.verified is True, row.name

        p4 = projective_space(4)
        pool = [
            projective_space(2),
            projective_space(4),
            complete_intersection(2, (4,), very_general=True),
            complete_intersection(3, (5,)),
            hirzebruch1(),
            del_pezzo7(),
            product(hirzebruch1(), projective_space(1)),
            abelian(2),
            curve(1),
            synthetic_mod24_surface(),
            _plain_unit_surface(),
            cyclic_cover(p4, p4.lattice.make([1]), 7),
        ]
        for desc in pool:
            interval = resolve(desc)
            assert 0 <= interval.lo <= interval.hi, desc.provenance.constructor
            for cert in interval.certificates:
                assert verify_certificate(desc, cert), (
                    desc.provenance.constructor,
                    cert.rule,
                )


def test_corpus_ladders_all_pass(capsys, corpus_report):
    with criterion(capsys, 9, "corpus ladders realize every value"):
        assert not corpus_report.any_failure
        assert not corpus_report.any_internal
        for row in corpus_report.rows:
            for outcome in row.assertions:
                assert outcome.passed, (row.name, outcome)

        rows = {r.name: r for r in corpus_report.rows}
        surface_ladder = {
            "quartic_surface": 0,
            "dP7": 1,
            "F1": 2,
            "P2": 3,
        }
        threefold_ladder = {
            "quintic3": 0,
            "quartic3": 1,
            "cubic3": 2,
            "quadric3": 3,
            "P3": 4,
        }
        composed = {
            "simple_variety": (3, 0),
            "N3K1_dP7": (3, 1),
            "N3K1_F1": (3, 1),
            "F1xP1": (3, 2),
            "dP7xP1": (3, 2),
            "simple_surface": (2, 0),
            "N2K1": (2, 1),
        }
        for name, want in surface_ladder.items():
            row = rows[name]
            assert row.dimension == 2, name
            assert row.interval.exact and row.interval.lo == want, name
        for name, want in threefold_ladder.items():
            row = rows[name]
            assert row.dimension == 3, name
            assert row.interval.exact and row.interval.lo == want, name
        for name, (dim, want) in composed.items():
            row = rows[name]
            assert row.dimension == dim, name
            assert row.interval.exact and row.interval.lo == want, name
