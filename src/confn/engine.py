"""Bounding rules, the resolver, and the certificate verifier.

The convex Fujita number of a polarized variety X is the least m >= 0
such that for every s >= m and every choice of s ample line bundles the
adjoint bundle omega_X tensor their product is globally generated.  The
engine never guesses it: it maintains an interval [lo, hi] where every
endpoint is backed by a certificate, and reports exactness only when the
endpoints meet.

Upper bounds come from adjoint-freeness theorems (Reider for surfaces,
Helmke for threefolds, the toric bound, the universal quadratic bound of
Angehrn and Siu, the abelian bound, product and cover transfer).  Lower
bounds come from witnesses: an explicit tuple of ample classes whose
adjoint escapes the globally generated cone, a pairing showing the
canonical class is not nef, or a vanishing h^0 for the canonical bundle.

Rules are applied in the fixed order of the rule table at the bottom of
this module (exact rules, then structural rules, then dimension-generic
rules, then the mod-24 blow-up rule), each paired in that table with the
independent verifier that re-checks its certificates against the
descriptor without trusting the resolver.  The resolver is monotone:
enabling more rules can only shrink the interval, and a crossed interval
is an internal error that aborts loudly with a diagnostic dump.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .certificates import LOWER, UPPER, Certificate
from .constructions import cover_data
from .descriptors import ExactEqualsNef, VarietyDescriptor, is_known_gg
from .kunneth import ZERO, h0_sign
from .lattice import FullLattice, check_annotation


class InconsistencyError(RuntimeError):
    """The resolver produced contradictory bounds: a modeling bug."""


@dataclass(frozen=True)
class FujitaInterval:
    lo: int
    hi: int
    certificates: tuple[Certificate, ...] = ()
    advisories: tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        if self.exact:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


# ----------------------------------------------------------------------
# upper and lower bound rules; each returns (certificates, advisories)
# ----------------------------------------------------------------------


def _rule_exact_threshold(desc: VarietyDescriptor):
    if not isinstance(desc.gg, ExactEqualsNef) or desc.nef is None:
        return [], []
    report = desc.nef.adjoint_freeness_threshold(desc.canonical)
    per = [
        {
            "index": p.index,
            "functional": p.functional,
            "value_on_canonical": p.value_on_canonical,
            "min_interior": p.min_interior,
            "interior_witness": p.interior_witness,
            "required": p.required,
        }
        for p in report.per_functional
    ]
    premises = [
        "the globally generated cone equals the nef cone: "
        + desc.gg.justification,
        "every functional takes value >= 1 on interior lattice points, so the "
        "adjoint value is nondecreasing in the number of ample summands and "
        "the bound holds for every s >= m as the definition requires",
    ]
    certs = [
        Certificate(
            UPPER,
            "exact-threshold",
            report.m_star,
            "nef-cone threshold for descriptors whose nef classes are exactly "
            "the globally generated ones",
            premises=premises,
            witness={"m_star": report.m_star, "per_functional": per},
        )
    ]
    if report.m_star >= 1:
        assert report.witness is not None and report.violated_index is not None
        certs.append(
            Certificate(
                LOWER,
                "exact-threshold",
                report.m_star,
                "explicit ample tuple whose adjoint class leaves the nef cone",
                premises=[
                    f"a tuple of {report.m_star - 1} ample classes on which the "
                    "adjoint fails shows the definition cannot hold at "
                    f"m = {report.m_star - 1}"
                ],
                witness={
                    "m_star": report.m_star,
                    "tuple": report.witness,
                    "violated_index": report.violated_index,
                },
            )
        )
    return certs, []


def _rule_curve(desc: VarietyDescriptor):
    if desc.dimension != 1:
        return [], []
    deg_k = desc.form.evaluate(desc.canonical)
    if deg_k % 2 != 0 or deg_k < -2:
        return [], [
            f"canonical degree {deg_k} is not of the form 2g - 2 for a genus "
            ">= 0; curve rule skipped"
        ]
    genus = (deg_k + 2) // 2
    upper = Certificate(
        UPPER,
        "curve-genus",
        2,
        "Riemann-Roch: on a curve, the adjoint of two or more ample bundles "
        "has degree >= 2g + 1 and is globally generated",
        premises=[f"genus {genus} read off from the canonical degree {deg_k}"],
        witness={"genus": genus},
    )
    lower = Certificate(
        LOWER,
        "curve-genus",
        2,
        "the adjoint of a single degree-1 ample bundle O(P) has degree 2g - 1 "
        "and a base point at P",
        premises=[
            "a degree-1 ample class exists on the polarization lattice",
            f"the adjoint degree 2g - 1 = {2 * genus - 1} admits the base point "
            "witness",
        ],
        witness={"genus": genus, "ample_degree": 1, "adjoint_degree": 2 * genus - 1},
    )
    return [upper, lower], []


def _product_gate(desc: VarietyDescriptor) -> str | None:
    """Why the product's upper bound holds, or None when nothing grants it."""
    if any(p.has_flag("irregularity_zero") for p in desc.provenance.parents):
        return "a factor has irregularity zero"
    if any(a.name == "no_common_isogeny_factor" for a in desc.provenance.assertions):
        return "asserted: the factors share no nonzero isogeny factor"
    return None


def _rule_product_combine(desc: VarietyDescriptor):
    if desc.provenance.constructor != "product":
        return [], []
    factor_intervals = [resolve(parent) for parent in desc.provenance.parents]
    certs = []
    lo = max(iv.lo for iv in factor_intervals)
    if lo >= 1:
        certs.append(
            Certificate(
                LOWER,
                "product-combine",
                lo,
                "restriction to a fiber: an adjoint bundle on the product "
                "restricts to the adjoint bundle on a factor, so any failure "
                "on a factor lifts",
                witness={
                    "factor_intervals": [[iv.lo, iv.hi] for iv in factor_intervals]
                },
            )
        )
    gate = _product_gate(desc)
    if gate is not None:
        hi = max(iv.hi for iv in factor_intervals)
        certs.append(
            Certificate(
                UPPER,
                "product-combine",
                hi,
                "Kunneth: under the gate, every ample class on the product "
                "dominates a box-sum of ample classes, and global generation "
                "of box-sums is checked factorwise",
                premises=[gate],
                witness={
                    "factor_intervals": [[iv.lo, iv.hi] for iv in factor_intervals],
                    "gate": gate,
                },
            )
        )
    return certs, []


def _rule_cover_degree(desc: VarietyDescriptor):
    if desc.provenance.constructor != "cyclic_cover":
        return [], []
    parent, branch, degree = cover_data(desc)
    parent_iv = resolve(parent)
    bound = max(0, parent_iv.hi + 1 - degree)
    premises = [
        f"the parent resolves to an upper bound of {parent_iv.hi}",
        "an adjoint with s ample summands on the cover pushes down to an "
        f"adjoint with s + {degree} - 1 summands downstairs",
    ]
    omega_ample_gg = degree - 2 >= parent_iv.hi
    if omega_ample_gg:
        premises.append(
            "the canonical bundle of the cover is ample and globally "
            f"generated: it is the pullback of the parent adjoint with "
            f"{degree} - 1 >= {parent_iv.hi} + 1 ample summands"
        )
    cert = Certificate(
        UPPER,
        "cover-degree",
        bound,
        "canonical bundle formula for totally branched cyclic covers: "
        "omega_X is the pullback of omega_Y twisted by d - 1 copies of the "
        "branch bundle",
        premises=premises,
        witness={
            "degree": degree,
            "parent_interval": [parent_iv.lo, parent_iv.hi],
            "bound": bound,
            "omega_ample_and_globally_generated": omega_ample_gg,
        },
    )
    return [cert], []


def _rule_not_nef_witness(desc: VarietyDescriptor):
    if desc.dimension != 2 or not desc.known_effective:
        return [], []
    for effective, note in desc.known_effective:
        pairing = desc.form.evaluate(desc.canonical, effective)
        if pairing < 0:
            cert = Certificate(
                LOWER,
                "not-nef-witness",
                1,
                "a globally generated class is nef, and nef classes pair "
                "nonnegatively with effective curves",
                premises=[f"effective class: {note}"],
                witness={
                    "effective_class": list(effective.coeffs),
                    "pairing": pairing,
                },
            )
            return [cert], []
    return [], []


def _rule_h0_vanishing(desc: VarietyDescriptor):
    if desc.canonical.is_zero():
        return [], []
    if desc.provenance.constructor not in ("cyclic_cover", "product"):
        return [], []
    fact = h0_sign(desc, desc.canonical)
    if fact.value != ZERO:
        return [], []
    cert = Certificate(
        LOWER,
        "h0-vanishing",
        1,
        "a line bundle with no nonzero global sections is not globally "
        "generated, so the empty adjoint already fails",
        premises=["the canonical class is not the trivial class"],
        witness={
            "bundle": fact.bundle,
            "trace": list(fact.trace),
        },
    )
    return [cert], []


def _rule_reider_divisible(desc: VarietyDescriptor):
    if desc.dimension != 2:
        return [], []
    for ann in desc.annotations:
        if isinstance(ann.scope, FullLattice) and ann.modulus >= 5:
            cert = Certificate(
                UPPER,
                "reider-divisible",
                1,
                "Reider 1988: with every intersection number divisible by some "
                "d >= 5, a single ample summand already has (L^2) >= 5 and no "
                "curve can satisfy the exceptional equations",
                premises=[
                    f"all intersection numbers on the lattice are divisible by "
                    f"{ann.modulus} >= 5"
                ],
                witness={"modulus": ann.modulus},
            )
            return [cert], []
    return [], []


def _rule_reider_surface(desc: VarietyDescriptor):
    if desc.dimension != 2:
        return [], []
    certs = [
        Certificate(
            UPPER,
            "reider-surface",
            3,
            "Reider 1988, Theorem 1: on a surface, the adjoint of three or "
            "more ample bundles is globally generated",
        )
    ]
    clause = None
    if desc.form.is_even():
        clause = "even-form"
        detail = "every self-intersection number on the lattice is even"
    elif all(c % 2 == 0 for c in desc.canonical.coeffs):
        clause = "canonical-divisible-by-2"
        detail = "the canonical class is divisible by 2 in the lattice"
    if clause is not None:
        certs.append(
            Certificate(
                UPPER,
                "reider-surface",
                2,
                "Reider 1988: parity rules out the boundary cases that "
                "obstruct two ample summands",
                premises=[detail],
                witness={"clause": clause},
            )
        )
    if desc.rank == 1 and desc.nef is not None:
        # the ample classes are the positive multiples of H or of -H, whose
        # squares are k^2 (H^2): some has square 1 exactly when (H^2) = 1
        top = desc.form.entry((0, 0))
        if top != 1:
            certs.append(
                Certificate(
                    UPPER,
                    "reider-surface",
                    2,
                    "Reider 1988: the value 3 requires an ample class "
                    "of self-intersection 1, and on a rank-1 lattice "
                    "with (H^2) != 1 no class has square 1",
                    premises=[f"(H^2) = {top}"],
                    witness={"clause": "no-square-one-rank1", "top": top},
                )
            )
    return certs, []


def divisible_by_24(surface: VarietyDescriptor) -> bool:
    """Whether a checked full-lattice annotation makes 24 divide every pairing.

    This is the premise ``blowup-reider-mod24`` needs of the blown-up
    surface; any multiple of 24 serves, since the residue argument only
    reads pairings modulo 24.
    """
    return any(
        isinstance(ann.scope, FullLattice)
        and ann.modulus % 24 == 0
        and check_annotation(surface.form, ann)
        for ann in surface.annotations
    )


def _blowup_of_mod24_surface(desc: VarietyDescriptor) -> bool:
    return desc.provenance.constructor == "blowup_point" and divisible_by_24(
        desc.provenance.parents[0]
    )


def _mod24_residues() -> dict:
    """The residue sets of the mod-24 argument, recomputed, never quoted."""
    squares = sorted({(a * a) % 24 for a in range(24)})
    negated = sorted({(-s) % 24 for s in squares})
    mults = sorted(m for m in range(24) if (m * m) % 24 == 0)
    return {
        "squares_mod_24": squares,
        "negated_square_residues": negated,
        "min_positive_self_intersection": min(r if r > 0 else 24 for r in negated),
        "square_zero_multiplicities": mults,
        "multiplicity_divisor": mults[1] if len(mults) > 1 else 24,
    }


def _rule_blowup_mod24(desc: VarietyDescriptor):
    """Blow-up of a point on a surface whose pairings 24 divides: hi = 1.

    Reider's theorem made unconditional by divisibility: with every
    pairing upstairs divisible by 24, any ample class f*M - aE has
    (L^2) = (M^2) - a^2 congruent to a negated square, so (L^2) >= 8 > 4
    and Reider applies; the surviving exceptional case, an effective curve
    with (C'^2) = 0 and (L . C') = 1, forces 24 to divide the square of
    the multiplicity of its image at the blown-up point, hence 12 to
    divide the multiplicity itself, making (L . C') = 1 congruent to 0
    modulo 12.
    """
    if not _blowup_of_mod24_surface(desc):
        return [], []
    residues = _mod24_residues()
    divisor = residues["multiplicity_divisor"]
    cert = Certificate(
        UPPER,
        "blowup-reider-mod24",
        1,
        "Reider 1988 on the blow-up, with divisibility by 24 upstairs "
        "closing every exceptional case",
        premises=[
            "all pairings on the parent lattice are divisible by 24",
            "(L^2) of an ample class is positive and congruent to a negated "
            f"square mod 24, so (L^2) >= {residues['min_positive_self_intersection']}",
            "ampleness rules out the (L . C) = 0 exceptional case of Reider",
            "the remaining case (C'^2) = 0, (L . C') = 1 gives "
            f"{divisor} | multiplicity and the contradiction "
            f"1 = (L . C') = 0 mod {divisor}",
        ],
        witness=residues,
    )
    return [cert], []


def resolve(desc: VarietyDescriptor, enabled=None) -> FujitaInterval:
    """Resolve the convex Fujita interval of a descriptor.

    ``enabled`` restricts the optional rules run on this descriptor (the
    universal bound always runs, so the interval stays finite); passing
    None runs everything.  A rule reads only its descriptor, and one that
    builds on a parent reads the parent's full resolution, so the rule set
    never reaches the parents: every rule's certificates are the same
    under any rule set, and the full resolution holds all of them.  Cone
    queries are exact, so the interval depends only on the descriptor and
    the rule set, and it is memoized on the descriptor per rule set.
    """
    key = None if enabled is None else frozenset(enabled) | {"universal-angehrn-siu"}
    if key in desc._intervals:
        return desc._intervals[key]
    certs: list[Certificate] = []
    advisories: list[str] = []
    for rule in _RULES.values():
        if rule.derive is not None and (key is None or rule.id in key):
            new_certs, new_advisories = rule.derive(desc)
            certs.extend(new_certs)
            advisories.extend(new_advisories)
    hi = min(c.value for c in certs if c.kind == UPPER)
    lo = max([0] + [c.value for c in certs if c.kind == LOWER])
    if (
        hi == 1
        and (key is None or "canonical-gg" in key)
        and is_known_gg(desc, desc.canonical)
    ):
        supporting = min(
            (c for c in certs if c.kind == UPPER), key=lambda c: c.value
        )
        certs.append(
            Certificate(
                UPPER,
                "canonical-gg",
                0,
                "an upper bound of 1 covers every s >= 1, and a globally "
                "generated canonical class covers s = 0",
                premises=[
                    "the canonical class is certified globally generated by the "
                    "descriptor",
                    f"supporting upper bound of 1 from rule {supporting.rule}",
                ],
                witness={"supporting_rule": supporting.rule},
            )
        )
        hi = 0
    if lo > hi:
        raise InconsistencyError(_crossed_dump(desc, lo, hi, certs))
    if (
        desc.has_flag("toric")
        and lo == hi == desc.dimension + 1
        and desc.provenance.constructor != "projective_space"
    ):
        raise InconsistencyError(
            "a toric descriptor other than projective space resolved to the "
            f"extremal value {hi} = n + 1, which holds only for projective "
            "space; this indicates a modeling bug in the descriptor "
            f"(constructor {desc.provenance.constructor!r})"
        )
    interval = FujitaInterval(lo, hi, tuple(certs), tuple(advisories))
    desc._intervals[key] = interval
    return interval


def _crossed_dump(desc, lo, hi, certs) -> str:
    lines = [
        f"crossed interval: lower bound {lo} exceeds upper bound {hi}",
        f"descriptor: {desc.provenance.constructor}, dimension {desc.dimension}, "
        f"rank {desc.rank}",
    ]
    for c in certs:
        lines.append(f"  {c.kind} {c.value} via {c.rule}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# the independent certificate verifier
# ----------------------------------------------------------------------


def verify_certificate(desc: VarietyDescriptor, cert: Certificate) -> bool:
    """Re-check one certificate against the descriptor from scratch.

    Returns False rather than raising when the certificate does not hold;
    the caller decides how loud to be.  The checks re-derive every claim
    from the witness data and the descriptor, not from resolver state: a
    parent's memoized interval counts only once its endpoint certificates
    re-verify.  The outcome is memoized on the descriptor per certificate.
    """
    if cert not in desc._verdicts:
        desc._verdicts[cert] = _check_certificate(desc, cert)
    return desc._verdicts[cert]


def _check_certificate(desc, cert) -> bool:
    rule = _RULES.get(cert.rule)
    if rule is None:
        return False
    try:
        return rule.verify(desc, cert)
    except Exception:
        return False


def _verified_interval(desc) -> FujitaInterval | None:
    """The memoized interval of a parent, or None unless its endpoints verify.

    The first upper certificate equal to ``hi`` and, when ``lo > 0``, the
    first lower certificate equal to ``lo`` are re-verified, so a
    composite certificate rests on its parents' certificates rather than
    on the resolver.
    """
    iv = resolve(desc)
    ends = [(UPPER, iv.hi)] + ([(LOWER, iv.lo)] if iv.lo > 0 else [])
    for kind, value in ends:
        cert = next(
            (c for c in iv.certificates if c.kind == kind and c.value == value), None
        )
        if cert is None or not verify_certificate(desc, cert):
            return None
    return iv


def _verify_exact_threshold(desc, cert):
    if not isinstance(desc.gg, ExactEqualsNef) or desc.nef is None:
        return False
    data = cert.witness_data()
    if cert.kind == UPPER:
        per = data["per_functional"]
        # one entry per functional, in order, so none stands in for another
        indices = [entry["index"] for entry in per]
        if indices != list(range(len(desc.nef.functionals))):
            return False
        on_canonical = desc.nef.values(desc.canonical)
        requireds = []
        for entry in per:
            k = entry["index"]
            if desc.nef.functionals[k] != tuple(entry["functional"]):
                return False
            phi_k = on_canonical[k]
            if phi_k != entry["value_on_canonical"]:
                return False
            on_witness = desc.nef.values(desc.lattice.make(entry["interior_witness"]))
            if not all(v > 0 for v in on_witness):
                return False
            if entry["min_interior"] != 1 or on_witness[k] != 1:
                return False
            required = max(0, -phi_k)
            if required != entry["required"]:
                return False
            requireds.append(required)
        return cert.value == data["m_star"] == max(requireds)
    points = [desc.lattice.make(p) for p in data["tuple"]]
    if len(points) != data["m_star"] - 1 or cert.value != data["m_star"]:
        return False
    if not all(desc.nef.strictly_contains(p) for p in points):
        return False
    total = desc.canonical
    for p in points:
        total = total + p
    return desc.nef.values(total)[data["violated_index"]] < 0


def _verify_curve(desc, cert):
    if desc.dimension != 1 or cert.value != 2:
        return False
    deg_k = desc.form.evaluate(desc.canonical)
    if deg_k % 2 != 0 or deg_k < -2:
        return False
    genus = (deg_k + 2) // 2
    data = cert.witness_data()
    if data.get("genus") != genus:
        return False
    if cert.kind == LOWER:
        return data["adjoint_degree"] == 2 * genus - 1 and data["ample_degree"] == 1
    return True


def _verify_product_combine(desc, cert):
    if desc.provenance.constructor != "product":
        return False
    intervals = [_verified_interval(p) for p in desc.provenance.parents]
    if None in intervals:
        return False
    data = cert.witness_data()
    if data["factor_intervals"] != [[iv.lo, iv.hi] for iv in intervals]:
        return False
    if cert.kind == LOWER:
        return cert.value == max(iv.lo for iv in intervals)
    gate = _product_gate(desc)
    return (
        gate is not None
        and data.get("gate") == gate
        and cert.value == max(iv.hi for iv in intervals)
    )


def _verify_cover_degree(desc, cert):
    if desc.provenance.constructor != "cyclic_cover" or cert.kind != UPPER:
        return False
    parent, _branch, degree = cover_data(desc)
    parent_iv = _verified_interval(parent)
    if parent_iv is None:
        return False
    data = cert.witness_data()
    if data["degree"] != degree:
        return False
    if data["parent_interval"] != [parent_iv.lo, parent_iv.hi]:
        return False
    bound = max(0, parent_iv.hi + 1 - degree)
    if data["bound"] != bound or cert.value != bound:
        return False
    return data["omega_ample_and_globally_generated"] == (degree - 2 >= parent_iv.hi)


def _verify_not_nef(desc, cert):
    if desc.dimension != 2 or cert.kind != LOWER or cert.value != 1:
        return False
    data = cert.witness_data()
    effective = desc.lattice.make(data["effective_class"])
    if not any(
        effective.coeffs == known.coeffs for known, _ in desc.known_effective
    ):
        return False
    pairing = desc.form.evaluate(desc.canonical, effective)
    return pairing == data["pairing"] and pairing < 0


def _verify_h0_vanishing(desc, cert):
    if cert.kind != LOWER or cert.value != 1 or desc.canonical.is_zero():
        return False
    return h0_sign(desc, desc.canonical).value == ZERO


def _verify_reider_divisible(desc, cert):
    if desc.dimension != 2 or cert.kind != UPPER or cert.value != 1:
        return False
    modulus = cert.witness_data()["modulus"]
    if modulus < 5:
        return False
    return any(
        isinstance(ann.scope, FullLattice)
        and ann.modulus == modulus
        and check_annotation(desc.form, ann)
        for ann in desc.annotations
    )


def _verify_reider_surface(desc, cert):
    if desc.dimension != 2 or cert.kind != UPPER:
        return False
    if cert.value == 3:
        return True
    if cert.value != 2:
        return False
    clause = cert.witness_data().get("clause")
    if clause == "even-form":
        return desc.form.is_even()
    if clause == "canonical-divisible-by-2":
        return all(c % 2 == 0 for c in desc.canonical.coeffs)
    if clause == "no-square-one-rank1":
        return (
            desc.rank == 1
            and desc.nef is not None
            and desc.form.entry((0, 0)) != 1
            and cert.witness_data().get("top") == desc.form.entry((0, 0))
        )
    return False


def _verify_canonical_gg(desc, cert):
    if cert.kind != UPPER or cert.value != 0:
        return False
    if not is_known_gg(desc, desc.canonical):
        return False
    # every rule's certificates are the same under any rule set, so the
    # full resolution holds the supporting one; it counts once it re-verifies
    supporting = cert.witness_data()["supporting_rule"]
    return supporting != cert.rule and any(
        c.rule == supporting
        and c.kind == UPPER
        and c.value <= 1
        and verify_certificate(desc, c)
        for c in resolve(desc).certificates
    )


def _verify_blowup_mod24(desc, cert):
    if cert.kind != UPPER or cert.value != 1 or not _blowup_of_mod24_surface(desc):
        return False
    data = cert.witness_data()
    if data != _mod24_residues():
        return False
    mults = data["square_zero_multiplicities"]
    divisor = data["multiplicity_divisor"]
    # (L^2) >= 5 puts Reider in force; the contradiction needs the
    # pairing 1 to be 0 modulo the divisor of every square-zero multiplicity
    return (
        data["min_positive_self_intersection"] >= 5
        and all(m % divisor == 0 for m in mults)
        and 1 % divisor != 0
    )


@dataclass(frozen=True)
class Rule:
    """A bounding rule paired with its independent verifier.

    ``derive(desc)`` returns (certificates, advisories) and reads nothing
    but the descriptor: a rule that builds on a parent reads the parent's
    full resolution, so the rule set of a resolution only picks which
    rules run on the descriptor asked about.  ``verify(desc, cert)``
    re-checks one of its certificates.  A rule the resolver applies
    inline, after the table, has no ``derive``.
    """

    id: str
    derive: Callable | None
    verify: Callable


def _premise_bound(rule_id, applies, value, citation, premise=None) -> Rule:
    """A rule whose upper bound follows from a descriptor premise alone.

    Where ``applies(desc)`` holds it emits one upper certificate of
    ``value(desc)``, with ``premise(desc)`` as its premise line if given,
    and its verifier re-checks that premise and value: there is no
    witness to read.
    """

    def derive(desc):
        if not applies(desc):
            return [], []
        premises = [premise(desc)] if premise else []
        return [Certificate(UPPER, rule_id, value(desc), citation, premises)], []

    def verify(desc, cert):
        return applies(desc) and cert.kind == UPPER and cert.value == value(desc)

    return Rule(rule_id, derive, verify)


def _dimension(desc) -> str:
    return f"dimension {desc.dimension}"


# the resolver runs the rules in this order, so it fixes certificate order
_RULES = {
    rule.id: rule
    for rule in (
        Rule("exact-threshold", _rule_exact_threshold, _verify_exact_threshold),
        Rule("curve-genus", _rule_curve, _verify_curve),
        Rule("product-combine", _rule_product_combine, _verify_product_combine),
        Rule("cover-degree", _rule_cover_degree, _verify_cover_degree),
        Rule("not-nef-witness", _rule_not_nef_witness, _verify_not_nef),
        Rule("h0-vanishing", _rule_h0_vanishing, _verify_h0_vanishing),
        Rule("reider-divisible", _rule_reider_divisible, _verify_reider_divisible),
        Rule("reider-surface", _rule_reider_surface, _verify_reider_surface),
        _premise_bound(
            "abelian-bound",
            lambda desc: desc.has_flag("abelian"),
            lambda desc: 2,
            "Bauer-Szemberg 1996: on an abelian variety the product of two or "
            "more ample bundles is globally generated, and the canonical class "
            "is trivial",
        ),
        _premise_bound(
            "toric-adjoint",
            lambda desc: desc.has_flag("toric"),
            lambda desc: desc.dimension + 1,
            "Mustata 2002, toric adjoint freeness: the adjoint of n + 1 ample "
            "bundles on a smooth projective toric variety is globally generated",
            _dimension,
        ),
        _premise_bound(
            "threefold-helmke",
            lambda desc: desc.dimension == 3,
            lambda desc: 4,
            "Helmke 1997: on a threefold, an ample L with (L^3) > 27, "
            "(L^2 . S) >= 9 and (L . C) >= 3 has globally generated adjoint, and "
            "a sum of four ample classes always satisfies these",
        ),
        _premise_bound(
            "universal-angehrn-siu",
            lambda desc: True,
            lambda desc: (desc.dimension**2 + desc.dimension + 2) // 2,
            "Angehrn-Siu 1995: the adjoint of an ample L is globally generated "
            "once L dominates (n^2 + n + 2) / 2 ample summands",
            _dimension,
        ),
        Rule("blowup-reider-mod24", _rule_blowup_mod24, _verify_blowup_mod24),
        Rule("canonical-gg", None, _verify_canonical_gg),
    )
}

RULE_IDS = tuple(rule.id for rule in _RULES.values() if rule.derive is not None)

OPTIONAL_RULE_IDS = tuple(
    rule_id for rule_id in RULE_IDS if rule_id != "universal-angehrn-siu"
)
