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
descriptor without trusting the resolver.  Every rule runs on every
descriptor, and the premises a rule reads come from the constructors
that made it, the only way to a descriptor, never from the caller.  A
crossed interval is an internal error that aborts loudly with a
diagnostic dump.
"""

from __future__ import annotations

import marshal
from typing import Callable

from .certificates import LOWER, UPPER, Certificate, certificate, witness_text
from .descriptors import (
    Blowup,
    Cover,
    ExactEqualsNef,
    Product,
    VarietyDescriptor,
    is_known_gg,
)
from .frozen import Frozen
from .kunneth import ZERO, h0_sign


class InconsistencyError(RuntimeError):
    """The resolver produced contradictory bounds: a modeling bug, or a
    hypothesis the caller stated that does not hold.

    ``descriptor`` is the descriptor whose interval crossed, if any.
    """

    def __init__(self, message: str, descriptor=None) -> None:
        super().__init__(message)
        self.descriptor = descriptor


class FujitaInterval(Frozen):
    """A certified interval; intervals compare and hash by value."""

    __slots__ = ("lo", "hi", "certificates")

    def __init__(
        self, lo: int, hi: int, certificates: tuple[Certificate, ...] = ()
    ) -> None:
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "certificates", certificates)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.lo, self.hi, self.certificates) == (
            other.lo, other.hi, other.certificates
        )

    def __hash__(self) -> int:
        return hash((self.lo, self.hi, self.certificates))

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        if self.exact:
            return str(self.lo)
        return f"[{self.lo}, {self.hi}]"


# ----------------------------------------------------------------------
# upper and lower bound rules; each returns a list of certificates
# ----------------------------------------------------------------------


def _rule_exact_threshold(desc: VarietyDescriptor):
    if not isinstance(desc.gg, ExactEqualsNef) or desc.nef is None:
        return []
    report = desc.nef.adjoint_freeness_threshold(desc.canonical)
    m_star = report.m_star
    certs = [
        certificate(
            UPPER,
            "exact-threshold",
            m_star,
            "nef-cone threshold for descriptors whose nef classes are exactly "
            "the globally generated ones",
            premises=[
                "the globally generated cone equals the nef cone: "
                + desc.gg.justification,
                "every functional takes value >= 1 on interior lattice points, so "
                "the adjoint value is nondecreasing in the number of ample "
                "summands and the bound holds for every s >= m as the definition "
                "requires",
            ],
            witness={"m_star": m_star},
        )
    ]
    if m_star >= 1:
        certs.append(
            certificate(
                LOWER,
                "exact-threshold",
                m_star,
                "explicit ample tuple whose adjoint class leaves the nef cone",
                premises=[
                    f"a tuple of {m_star - 1} ample classes on which the adjoint "
                    f"fails shows the definition cannot hold at m = {m_star - 1}"
                ],
                witness={
                    "m_star": m_star,
                    "tuple": report.witness,
                    "violated_index": report.violated_index,
                },
            )
        )
    return certs


def _rule_curve(desc: VarietyDescriptor):
    if desc.dimension != 1:
        return []
    # admission refuses a canonical degree that is not 2g - 2
    deg_k = desc.form.evaluate(desc.canonical)
    genus = (deg_k + 2) // 2
    upper = certificate(
        UPPER,
        "curve-genus",
        2,
        "Riemann-Roch: on a curve, the adjoint of two or more ample bundles "
        "has degree >= 2g + 1 and is globally generated",
        premises=[f"genus {genus} read off from the canonical degree {deg_k}"],
        witness={"genus": genus},
    )
    lower = certificate(
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
    return [upper, lower]


def _product_gate(desc: VarietyDescriptor) -> str | None:
    """Why the product's upper bound holds, or None when nothing grants it."""
    if any("irregularity_zero" in p.flags for p in desc.provenance.parents):
        return "a factor has irregularity zero"
    if any(a.name == "no_common_isogeny_factor" for a in desc.provenance.assertions):
        return "asserted: the factors share no nonzero isogeny factor"
    return None


def _rule_product_combine(desc: VarietyDescriptor):
    if not isinstance(desc.provenance, Product):
        return []
    pairs = tuple([(iv.lo, iv.hi) for iv in map(resolve, desc.provenance.parents)])
    certs = []
    lo = max(pair[0] for pair in pairs)
    if lo >= 1:
        certs.append(
            certificate(
                LOWER,
                "product-combine",
                lo,
                "restriction to a fiber: an adjoint bundle on the product "
                "restricts to the adjoint bundle on a factor, so any failure "
                "on a factor lifts",
                witness={"factor_intervals": [list(pair) for pair in pairs]},
            )
        )
    gate = _product_gate(desc)
    if gate is not None:
        certs.append(
            certificate(
                UPPER,
                "product-combine",
                max(pair[1] for pair in pairs),
                "Kunneth: under the gate, every ample class on the product "
                "dominates a box-sum of ample classes, and global generation "
                "of box-sums is checked factorwise",
                premises=[gate],
                witness={
                    "factor_intervals": [list(pair) for pair in pairs],
                    "gate": gate,
                },
            )
        )
    return certs


def _rule_cover_degree(desc: VarietyDescriptor):
    cover = desc.provenance
    if not isinstance(cover, Cover):
        return []
    degree = cover.degree
    iv = resolve(cover.parents[0])
    bound = max(0, iv.hi + 1 - degree)
    premises = [
        f"the parent resolves to an upper bound of {iv.hi}",
        "an adjoint with s ample summands on the cover pushes down to an "
        f"adjoint with s + {degree} - 1 summands downstairs",
    ]
    omega_ample_gg = degree - 2 >= iv.hi
    if omega_ample_gg:
        premises.append(
            "the canonical bundle of the cover is ample and globally "
            f"generated: it is the pullback of the parent adjoint with "
            f"{degree} - 1 >= {iv.hi} + 1 ample summands"
        )
    cert = certificate(
        UPPER,
        "cover-degree",
        bound,
        "canonical bundle formula for totally branched cyclic covers: "
        "omega_X is the pullback of omega_Y twisted by d - 1 copies of the "
        "branch bundle",
        premises=premises,
        witness={
            "degree": degree,
            "parent_interval": [iv.lo, iv.hi],
            "bound": bound,
            "omega_ample_and_globally_generated": omega_ample_gg,
        },
    )
    return [cert]


def _rule_not_nef_witness(desc: VarietyDescriptor):
    if not isinstance(desc.provenance, Blowup):
        return []
    effective = desc.provenance.exceptional
    pairing = desc.form.evaluate(desc.canonical, effective)
    if pairing >= 0:
        return []
    cert = certificate(
        LOWER,
        "not-nef-witness",
        1,
        "a globally generated class is nef, and nef classes pair "
        "nonnegatively with effective curves",
        premises=["effective class: exceptional curve of the blow-up, (E^2) = -1"],
        witness={"effective_class": list(effective.coeffs), "pairing": pairing},
    )
    return [cert]


def _rule_h0_vanishing(desc: VarietyDescriptor):
    if desc.canonical.is_zero():
        return []
    if not isinstance(desc.provenance, (Cover, Product)):
        return []
    fact = h0_sign(desc, desc.canonical)
    if fact.value != ZERO:
        return []
    cert = certificate(
        LOWER,
        "h0-vanishing",
        1,
        "a line bundle with no nonzero global sections is not globally "
        "generated, so the empty adjoint already fails",
        premises=["the canonical class is not the trivial class"],
        witness={"bundle": fact.bundle, "trace": list(fact.trace)},
    )
    return [cert]


def _rule_reider_divisible(desc: VarietyDescriptor):
    if desc.dimension != 2:
        return []
    # The lattice is the whole Neron-Severi lattice, so d = gcd divides
    # (L^2) > 0 and (L.E), (E^2) for every curve E: d >= 5 rules out
    # Reider's exceptional curves.  Curves are admitted only with gcd 1,
    # so a product of curves has gcd 1; no zero form is admitted.
    modulus = desc.form.gcd()
    if modulus < 5:
        return []
    cert = certificate(
        UPPER,
        "reider-divisible",
        1,
        "Reider 1988: with every intersection number divisible by some "
        "d >= 5, a single ample summand already has (L^2) >= 5 and no "
        "curve can satisfy the exceptional equations",
        premises=[
            f"all intersection numbers on the lattice are divisible by {modulus} >= 5"
        ],
        witness={"modulus": modulus},
    )
    return [cert]


def _rule_reider_surface(desc: VarietyDescriptor):
    if desc.dimension != 2:
        return []
    certs = [
        certificate(
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
            certificate(
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
                certificate(
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
    return certs


def divisible_by_24(surface: VarietyDescriptor) -> bool:
    """Whether 24 divides every pairing, read from the form's gcd.

    This is the premise ``blowup-reider-mod24`` needs of the blown-up
    surface; any nonzero multiple of 24 serves, since the residue
    argument only reads pairings modulo 24.  Like ``reider-divisible`` it
    relies on the lattice being the whole Neron-Severi lattice.  A zero
    form, which admission refuses, grants nothing here either.
    """
    modulus = surface.form.gcd()
    return modulus != 0 and modulus % 24 == 0


def _blowup_of_mod24_surface(desc: VarietyDescriptor) -> bool:
    return isinstance(desc.provenance, Blowup) and divisible_by_24(
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
        return []
    residues = _mod24_residues()
    divisor = residues["multiplicity_divisor"]
    cert = certificate(
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
    return [cert]


def resolve(desc: VarietyDescriptor) -> FujitaInterval:
    """Resolve the convex Fujita interval of a descriptor.

    Every rule runs, and a rule reads only its descriptor: one that builds
    on a parent reads the parent's resolution.  Cone queries are exact, so
    the interval depends only on the descriptor, and it is memoized on it:
    the rules of a product or a cover, their verifiers and the runner all
    read a parent's interval, and the memo resolves each node of a tower
    once, not once per read.  Rules share certificates between
    descriptors: each rule makes its certificates through
    ``certificates.certificate``, which files them by content, so equal
    fields give one certificate while anything holds it.
    """
    if desc._interval is not None:
        return desc._interval
    certs: list[Certificate] = []
    for rule in _RULES.values():
        if rule.derive is not None:
            certs.extend(rule.derive(desc))
    hi = min(c.value for c in certs if c.kind == UPPER)
    lo = max([0] + [c.value for c in certs if c.kind == LOWER])
    if hi == 1 and is_known_gg(desc, desc.canonical):
        supporting = min(
            (c for c in certs if c.kind == UPPER), key=lambda c: c.value
        ).rule
        certs.append(
            certificate(
                UPPER,
                "canonical-gg",
                0,
                "an upper bound of 1 covers every s >= 1, and a globally "
                "generated canonical class covers s = 0",
                premises=[
                    "the canonical class is certified globally generated by the "
                    "descriptor",
                    f"supporting upper bound of 1 from rule {supporting}",
                ],
                witness={"supporting_rule": supporting},
            )
        )
        hi = 0
    if lo > hi:
        raise InconsistencyError(_crossed_dump(desc, lo, hi, certs), desc)
    if "toric" in desc.flags and lo == hi == desc.dimension + 1 and not _is_pn(desc):
        raise InconsistencyError(
            "a toric descriptor without the data of projective space resolved "
            f"to the extremal value {hi} = n + 1, which holds only for "
            "projective space; this indicates a modeling bug in the descriptor "
            f"(constructor {desc.provenance.constructor!r})"
        )
    interval = FujitaInterval(lo, hi, tuple(certs))
    object.__setattr__(desc, "_interval", interval)
    return interval


def _is_pn(desc) -> bool:
    """Has ``desc`` the data of P^n in some basis: rank 1, and K = -(n+1) H
    for an ample class H with (H^n) = 1?"""
    n = desc.dimension
    if desc.rank != 1 or desc.nef is None or desc.canonical.coeffs[0] % (n + 1):
        return False
    h = desc.lattice.make([-desc.canonical.coeffs[0] // (n + 1)])
    return desc.nef.strictly_contains(h) and desc.form.self_intersection(h, n) == 1


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
    re-verify.  A witness that the descriptor determines is derived and
    compared whole, as the text Certificate writes, so an added key or a
    ``true`` for a ``1`` is refused; one that another could replace (a
    lower tuple, a modulus, a clause, a supporting rule) is checked for
    what it claims, with the keys and leaf types its rule writes.  A
    rule that writes no witness accepts only the empty one.  The outcome
    is memoized on the descriptor per certificate: a product's verifier
    re-verifies its parents' endpoint certificates, and the memo keeps
    that linear in the depth of a tower, where each level would
    otherwise double it.  Each comparison of a certificate's text with a
    derived witness that matched is remembered on the certificate, keyed
    by the derived witness itself, so a certificate that many descriptors
    share is compared once per distinct derived witness.  Both memos hold
    only what a verifier computed; none reads the rules' certificate
    table.
    """
    verdict = desc._verdicts.get(cert)
    if verdict is None:
        verdict = desc._verdicts[cert] = _check_certificate(desc, cert)
    return verdict


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
    on the resolver; their verdicts are memoized on the descriptor.
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


def _written(cert, witness: dict) -> bool:
    """Whether ``cert`` carries ``witness``, as Certificate writes it.

    The texts are compared, not decoded data, so a key added or missing
    is refused, and so is ``true`` where the rule writes ``1``.  A match
    is remembered on the certificate under ``marshal``'s bytes of the
    derived witness, which tell ``True`` from ``1`` and a list from a
    tuple, so a later check against an equal witness skips the text.
    """
    key = marshal.dumps(witness, 2)
    if cert._matched == key:
        return True
    if cert.witness != witness_text(witness):
        return False
    object.__setattr__(cert, "_matched", key)
    return True


# the witness of a rule that writes none, such as a premise-only rule
_NO_WITNESS = witness_text({})

_LOWER_THRESHOLD_KEYS = {"m_star", "tuple", "violated_index"}


def _verify_exact_threshold(desc, cert):
    if not isinstance(desc.gg, ExactEqualsNef) or desc.nef is None:
        return False
    nef = desc.nef
    on_canonical = nef.values(desc.canonical)
    if cert.kind == UPPER:
        # each functional is integral, so >= 1 on interior lattice points,
        # and m* summands lift every canonical value to 0 or more
        m_star = max(0, -min(on_canonical))
        return _written(cert, {"m_star": m_star}) and cert.value == m_star
    # another tuple could serve, so the witness is read and checked for
    # what it claims: its keys, before any is read, each point a list of
    # rank ints, each int an int and not a bool, and the tuple's points
    data = cert.witness_data()
    if data.keys() != _LOWER_THRESHOLD_KEYS:
        return False
    m_star, rows, index = data["m_star"], data["tuple"], data["violated_index"]
    rank = nef.lattice.rank
    if type(rows) is not list or any(
        type(p) is not list or len(p) != rank for p in rows
    ):
        return False
    ints = [m_star, index] + [c for p in rows for c in p]
    if any(type(c) is not int for c in ints) or m_star != cert.value:
        return False
    if len(rows) != m_star - 1 or not 0 <= index < len(on_canonical):
        return False
    # the functionals are linear, so the adjoint's values are the
    # canonical values plus the points' values; every int is an int by
    # now, so equal coefficients are one point, checked once and added
    # with its multiplicity
    counts: dict[tuple, int] = {}
    for p in map(tuple, rows):
        counts[p] = counts.get(p, 0) + 1
    total = list(on_canonical)
    for coeffs, count in counts.items():
        values = nef.values_at(coeffs)
        if not all(v > 0 for v in values):
            return False
        total = [a + count * b for a, b in zip(total, values)]
    return total[index] < 0


def _verify_curve(desc, cert):
    if desc.dimension != 1 or cert.value != 2:
        return False
    # admission refuses such a degree, but the verifier trusts no one
    deg_k = desc.form.evaluate(desc.canonical)
    if deg_k % 2 != 0 or deg_k < -2:
        return False
    genus = (deg_k + 2) // 2
    witness = {"genus": genus}
    if cert.kind == LOWER:
        witness.update(ample_degree=1, adjoint_degree=2 * genus - 1)
    return _written(cert, witness)


def _verify_product_combine(desc, cert):
    if not isinstance(desc.provenance, Product):
        return False
    intervals = [_verified_interval(p) for p in desc.provenance.parents]
    if None in intervals:
        return False
    witness = {"factor_intervals": [[iv.lo, iv.hi] for iv in intervals]}
    value = max(iv.lo for iv in intervals)
    if cert.kind == UPPER:
        gate = _product_gate(desc)
        if gate is None:
            return False
        witness["gate"] = gate
        value = max(iv.hi for iv in intervals)
    return cert.value == value and _written(cert, witness)


def _verify_cover_degree(desc, cert):
    cover = desc.provenance
    if not isinstance(cover, Cover) or cert.kind != UPPER:
        return False
    parent_iv = _verified_interval(cover.parents[0])
    if parent_iv is None:
        return False
    bound = max(0, parent_iv.hi + 1 - cover.degree)
    witness = {
        "degree": cover.degree,
        "parent_interval": [parent_iv.lo, parent_iv.hi],
        "bound": bound,
        "omega_ample_and_globally_generated": cover.degree - 2 >= parent_iv.hi,
    }
    return cert.value == bound and _written(cert, witness)


def _verify_not_nef(desc, cert):
    blowup = desc.provenance
    if not isinstance(blowup, Blowup) or cert.kind != LOWER or cert.value != 1:
        return False
    pairing = desc.form.evaluate(desc.canonical, blowup.exceptional)
    witness = {"effective_class": list(blowup.exceptional.coeffs), "pairing": pairing}
    return pairing < 0 and _written(cert, witness)


def _verify_h0_vanishing(desc, cert):
    if cert.kind != LOWER or cert.value != 1 or desc.canonical.is_zero():
        return False
    fact = h0_sign(desc, desc.canonical)
    witness = {"bundle": fact.bundle, "trace": list(fact.trace)}
    return fact.value == ZERO and _written(cert, witness)


def _verify_reider_divisible(desc, cert):
    if desc.dimension != 2 or cert.kind != UPPER or cert.value != 1:
        return False
    modulus = cert.witness_data().get("modulus")
    if type(modulus) is not int or not _written(cert, {"modulus": modulus}):
        return False
    gcd = desc.form.gcd()
    return modulus >= 5 and gcd != 0 and gcd % modulus == 0


def _verify_reider_surface(desc, cert):
    if desc.dimension != 2 or cert.kind != UPPER:
        return False
    if cert.value == 3:
        return cert.witness == _NO_WITNESS
    if cert.value != 2:
        return False
    clause = cert.witness_data().get("clause")
    if clause == "even-form":
        return _written(cert, {"clause": clause}) and desc.form.is_even()
    if clause == "canonical-divisible-by-2":
        return _written(cert, {"clause": clause}) and all(
            c % 2 == 0 for c in desc.canonical.coeffs
        )
    if clause == "no-square-one-rank1":
        return (
            desc.rank == 1
            and desc.nef is not None
            and desc.form.entry((0, 0)) != 1
            and _written(cert, {"clause": clause, "top": desc.form.entry((0, 0))})
        )
    return False


def _verify_canonical_gg(desc, cert):
    if cert.kind != UPPER or cert.value != 0:
        return False
    if not is_known_gg(desc, desc.canonical):
        return False
    # every rule's certificates are the same under any rule set, so the
    # full resolution holds the supporting one; it counts once it re-verifies
    supporting = cert.witness_data().get("supporting_rule")
    if not _written(cert, {"supporting_rule": supporting}):
        return False
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
    data = _mod24_residues()
    if not _written(cert, data):
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


class Rule(Frozen):
    """A bounding rule paired with its independent verifier.

    ``derive(desc)`` returns a list of certificates and reads nothing but
    the descriptor: a rule that builds on a parent reads the parent's
    resolution.  ``verify(desc, cert)`` re-checks one of its certificates.
    A rule the resolver applies inline, after the table, has no
    ``derive``.
    """

    __slots__ = ("id", "derive", "verify")

    def __init__(self, id: str, derive: Callable | None, verify: Callable) -> None:
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "derive", derive)
        object.__setattr__(self, "verify", verify)


def _premise_bound(rule_id, applies, value, citation, premise=None) -> Rule:
    """A rule whose upper bound follows from a descriptor premise alone.

    Where ``applies(desc)`` holds it emits one upper certificate of
    ``value(desc)``, with ``premise(desc)`` as its premise line if given,
    and its verifier re-checks that premise and value, and that the
    witness is empty: there is none to read.  The value and the premise
    line range over the dimensions a run sees, so while a run holds one
    certificate, every resolution that meets the rule shares it through
    the certificate table.
    """

    def derive(desc):
        if not applies(desc):
            return []
        premises = [premise(desc)] if premise else []
        return [certificate(UPPER, rule_id, value(desc), citation, premises)]

    def verify(desc, cert):
        return (
            applies(desc)
            and cert.kind == UPPER
            and cert.value == value(desc)
            and cert.witness == _NO_WITNESS
        )

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
            lambda desc: "abelian" in desc.flags,
            lambda desc: 2,
            "Bauer-Szemberg 1996: on an abelian variety the product of two or "
            "more ample bundles is globally generated, and the canonical class "
            "is trivial",
        ),
        _premise_bound(
            "toric-adjoint",
            lambda desc: "toric" in desc.flags,
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
