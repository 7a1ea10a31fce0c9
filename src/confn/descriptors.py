"""Variety descriptors: the numerical shadow of a polarized variety.

A descriptor bundles the dimension, the Picard lattice, the intersection
form, the canonical class, what is known about the nef cone, and what is
known about global generation, together with flags (toric, irregularity
zero, abelian, curve genus, very general in the sense of
Noether-Lefschetz) and divisibility annotations.  Knowledge is explicit:
the nef cone is either a concrete cone or unknown, and the set of
globally generated classes is either exactly the nef cone (with a
recorded justification), a finite under-approximation, or unknown.
Nothing downstream is allowed to upgrade "unknown" silently.

Every descriptor records its provenance: which constructor made it, with
which parameters, from which parents, under which named assertions.  The
resolver and the certificate verifier both walk this trace, so it is
data, not documentation.
"""

from __future__ import annotations

from .cones import Cone
from .frozen import Frozen
from .lattice import (
    DivisibilityAnnotation,
    DivisorClass,
    FullLattice,
    IntersectionForm,
    LatticeError,
    PicardLattice,
    Sublattice,
    check_annotation,
)


class DescriptorError(ValueError):
    """Raised when descriptor data is inconsistent or a gate fails."""


class Flag(Frozen):
    """A named property of a descriptor; flags compare and hash by value."""

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: int | str | None = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.value) == (other.kind, other.value)

    def __hash__(self) -> int:
        return hash((self.kind, self.value))


TORIC = Flag("toric")
IRREGULARITY_ZERO = Flag("irregularity_zero")
ABELIAN = Flag("abelian")
VERY_GENERAL_NL = Flag("very_general_nl")


def curve_flag(genus: int) -> Flag:
    return Flag("curve", genus)


class ExactEqualsNef(Frozen):
    """The globally generated cone coincides with the nef cone."""

    __slots__ = ("justification",)

    def __init__(self, justification: str) -> None:
        object.__setattr__(self, "justification", justification)


class UnderApprox(Frozen):
    """A finite list of classes known to be globally generated."""

    __slots__ = ("classes",)

    def __init__(self, classes: tuple[DivisorClass, ...]) -> None:
        object.__setattr__(self, "classes", classes)


class UnknownGG(Frozen):
    __slots__ = ()


GGStatus = ExactEqualsNef | UnderApprox | UnknownGG


class Assertion(Frozen):
    """A named, user- or pipeline-supplied hypothesis with its citation."""

    __slots__ = ("name", "citation", "detail")

    def __init__(self, name: str, citation: str, detail: str = "") -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "detail", detail)


class Provenance(Frozen):
    __slots__ = ("constructor", "parameters", "parents", "assertions", "note")

    def __init__(
        self,
        constructor: str,
        parameters: tuple[tuple[str, str], ...] = (),
        parents: tuple[VarietyDescriptor, ...] = (),
        assertions: tuple[Assertion, ...] = (),
        note: str = "",
    ) -> None:
        object.__setattr__(self, "constructor", constructor)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "assertions", assertions)
        object.__setattr__(self, "note", note)

    def parameter(self, key: str) -> str:
        for k, v in self.parameters:
            if k == key:
                return v
        raise KeyError(key)


class VarietyDescriptor(Frozen):
    __slots__ = (
        "dimension",
        "lattice",
        "form",
        "canonical",
        "nef",
        "gg",
        "flags",
        "annotations",
        "provenance",
        "known_effective",
        # the engine's memos: resolved intervals keyed by the enabled rule
        # set (None for all rules) and verification outcomes keyed by
        # certificate
        "_intervals",
        "_verdicts",
    )

    def __init__(
        self,
        dimension: int,
        lattice: PicardLattice,
        form: IntersectionForm,
        canonical: DivisorClass,
        nef: Cone | None,
        gg: GGStatus,
        flags: frozenset[Flag] = frozenset(),
        annotations: tuple[DivisibilityAnnotation, ...] = (),
        provenance: Provenance = Provenance("custom"),
        known_effective: tuple[tuple[DivisorClass, str], ...] = (),
    ) -> None:
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "nef", nef)
        object.__setattr__(self, "gg", gg)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "annotations", annotations)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "known_effective", known_effective)
        object.__setattr__(self, "_intervals", {})
        object.__setattr__(self, "_verdicts", {})
        if self.dimension < 1:
            raise DescriptorError("dimension must be at least 1")
        if self.form.degree != self.dimension:
            raise DescriptorError(
                f"form degree {self.form.degree} does not match dimension "
                f"{self.dimension}"
            )
        if self.form.lattice.uid != self.lattice.uid:
            raise DescriptorError("intersection form lives on a different lattice")
        if self.canonical.lattice.uid != self.lattice.uid:
            raise DescriptorError("canonical class lives on a different lattice")
        if self.nef is not None and self.nef.lattice.uid != self.lattice.uid:
            raise DescriptorError("nef cone lives on a different lattice")
        if isinstance(self.gg, ExactEqualsNef):
            if self.nef is None:
                raise DescriptorError(
                    "global generation cannot equal an unknown nef cone"
                )
            if not self._exact_gg_justified():
                raise DescriptorError(
                    "ExactEqualsNef requires a toric flag, a justified rank-1 "
                    "descriptor, or a product of such descriptors"
                )
        if isinstance(self.gg, UnderApprox):
            for cls_ in self.gg.classes:
                if cls_.lattice.uid != self.lattice.uid:
                    raise DescriptorError(
                        "globally generated class lives on a different lattice"
                    )
        for ann in self.annotations:
            if not check_annotation(self.form, ann):
                raise DescriptorError(
                    f"divisibility annotation by {ann.modulus} fails against the form"
                )
        for cls_, _note in self.known_effective:
            if cls_.lattice.uid != self.lattice.uid:
                raise DescriptorError("effective class lives on a different lattice")
        for flag in self.flags:
            if flag.kind == "curve" and self.dimension != 1:
                raise DescriptorError("curve flag on a descriptor of dimension > 1")

    def _exact_gg_justified(self) -> bool:
        if TORIC in self.flags:
            return True
        if self.lattice.rank == 1 and isinstance(self.gg, ExactEqualsNef):
            return bool(self.gg.justification)
        if self.provenance.constructor == "product":
            return all(
                isinstance(p.gg, ExactEqualsNef) for p in self.provenance.parents
            )
        return False

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def has_flag(self, kind: str) -> bool:
        return any(f.kind == kind for f in self.flags)

    def flag_value(self, kind: str):
        for f in self.flags:
            if f.kind == kind:
                return f.value
        raise KeyError(kind)

    def annotation_moduli(self, full_only: bool = False) -> tuple[int, ...]:
        out = []
        for ann in self.annotations:
            if full_only and not isinstance(ann.scope, FullLattice):
                continue
            out.append(ann.modulus)
        return tuple(out)


def is_known_gg(desc: VarietyDescriptor, cls_: DivisorClass) -> bool:
    """Is this class certified globally generated by the descriptor's data?"""
    if isinstance(desc.gg, ExactEqualsNef):
        assert desc.nef is not None
        return desc.nef.contains(cls_)
    if isinstance(desc.gg, UnderApprox):
        return any(cls_.coeffs == c.coeffs for c in desc.gg.classes)
    return False


def known_gg_representatives(desc: VarietyDescriptor) -> tuple[DivisorClass, ...]:
    """A finite list of certified globally generated classes.

    For an exact descriptor the list holds the zero class plus the
    canonical class when nef; for an under-approximation it is the stored
    list.  Used when constructions need concrete classes to box-sum or to
    pull back.
    """
    if isinstance(desc.gg, ExactEqualsNef):
        assert desc.nef is not None
        out = [desc.lattice.zero()]
        if desc.nef.contains(desc.canonical):
            out.append(desc.canonical)
        return tuple(out)
    if isinstance(desc.gg, UnderApprox):
        return desc.gg.classes
    return ()


# ----------------------------------------------------------------------
# atomic constructors
# ----------------------------------------------------------------------


def projective_space(n: int) -> VarietyDescriptor:
    """P^n with the hyperplane class: (H^n) = 1 and K = -(n+1) H.

    Global generation of O(a) holds exactly when a >= 0, so the globally
    generated cone equals the nef cone.
    """
    if n < 1:
        raise DescriptorError(f"projective space needs n >= 1, got {n}")
    lat = PicardLattice(("H",))
    flags = {TORIC, IRREGULARITY_ZERO}
    if n == 1:
        flags.add(curve_flag(0))
    return VarietyDescriptor(
        dimension=n,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, n, 1),
        canonical=lat.make([-(n + 1)]),
        nef=Cone(lat, ((1,),)),
        gg=ExactEqualsNef("line bundles on projective space: O(a) is globally generated iff a >= 0"),
        flags=frozenset(flags),
        provenance=Provenance(
            "projective_space",
            parameters=(("n", str(n)),),
            note="simply connected; fundamental group trivial",
        ),
    )


def complete_intersection(
    n: int, degrees, very_general: bool = False
) -> VarietyDescriptor:
    """Smooth complete intersection of multidegree ``degrees`` in P^(n+r).

    The Picard group is generated by the restricted hyperplane class when
    n >= 3 (Grothendieck-Lefschetz) and, in the surface case, for a very
    general hypersurface of degree >= 4 in P^3 (Noether-Lefschetz); the
    surface case therefore requires the very_general flag.  The top
    self-intersection is the product of the degrees, the canonical class
    is (sum(degrees) - (n + r + 1)) H by adjunction, and O(a) restricted
    to X is globally generated exactly when a >= 0.
    """
    degrees = tuple(int(d) for d in degrees)
    r = len(degrees)
    if r < 1:
        raise DescriptorError("a complete intersection needs at least one degree")
    if any(d < 1 for d in degrees):
        raise DescriptorError(f"degrees must be positive, got {degrees}")
    if n < 2:
        raise DescriptorError("complete intersection descriptors need dimension >= 2")
    if n == 2:
        if r != 1 or degrees[0] < 4 or not very_general:
            raise DescriptorError(
                "surface case requires a single degree >= 4 and the very_general "
                "flag (Noether-Lefschetz)"
            )
    top = 1
    for d in degrees:
        top *= d
    lat = PicardLattice(("H",))
    k_coeff = sum(degrees) - (n + r + 1)
    flags = {IRREGULARITY_ZERO}
    annotations: tuple[DivisibilityAnnotation, ...] = ()
    if very_general:
        flags.add(VERY_GENERAL_NL)
    if n == 2 and degrees[0] >= 2:
        annotations = (DivisibilityAnnotation(degrees[0], FullLattice()),)
    return VarietyDescriptor(
        dimension=n,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, n, top),
        canonical=lat.make([k_coeff]),
        nef=Cone(lat, ((1,),)),
        gg=ExactEqualsNef(
            "Picard group generated by O(1) restricted to X; its multiples are "
            "globally generated iff the twist is nonnegative"
        ),
        flags=frozenset(flags),
        annotations=annotations,
        provenance=Provenance(
            "complete_intersection",
            parameters=(
                ("n", str(n)),
                ("degrees", ",".join(str(d) for d in degrees)),
                ("very_general", str(bool(very_general))),
            ),
            assertions=(
                (
                    Assertion(
                        "very_general",
                        "Noether-Lefschetz: very general surfaces of degree >= 4 "
                        "in P^3 have Picard group Z O(1)",
                    ),
                )
                if n == 2
                else ()
            ),
            note="simply connected by Lefschetz",
        ),
    )


def hirzebruch1() -> VarietyDescriptor:
    """The Hirzebruch surface F1 = P(O + O(-1)) over P^1.

    Basis (S, F) with S the (-1)-section and F the fiber: (S^2) = -1,
    (S.F) = 1, (F^2) = 0.  The canonical class is -2S - 3F, and
    aS + bF is nef exactly when b >= a >= 0.  The cone's admission data
    is supplied, and checked by ``Cone``: S + 2F is interior, and -S and
    S separate the two functionals.
    """
    lat = PicardLattice(("S", "F"))
    return VarietyDescriptor(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.from_gram(lat, [[-1, 1], [1, 0]]),
        canonical=lat.make([-2, -3]),
        nef=Cone(
            lat,
            ((1, 0), (-1, 1)),
            interior_point=(1, 2),
            irredundancy_witnesses=((-1, 0), (1, 0)),
        ),
        gg=ExactEqualsNef("toric: nef line bundles on a smooth toric variety are globally generated"),
        flags=frozenset({TORIC, IRREGULARITY_ZERO}),
        provenance=Provenance("hirzebruch1", note="rational, simply connected"),
    )


def del_pezzo7() -> VarietyDescriptor:
    """P^2 blown up in two points: the degree-7 del Pezzo surface.

    Basis (H, E1, E2) with Gram diag(1, -1, -1) and canonical class
    -3H + E1 + E2.  A class dH - a1 E1 - a2 E2 is nef exactly when
    a1 >= 0, a2 >= 0 and d >= a1 + a2.  The cone's admission data is
    supplied, and checked by ``Cone``: -K = 3H - E1 - E2 is interior, and
    E1, E2 and -H separate the three functionals.
    """
    lat = PicardLattice(("H", "E1", "E2"))
    return VarietyDescriptor(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.from_gram(lat, [[1, 0, 0], [0, -1, 0], [0, 0, -1]]),
        canonical=lat.make([-3, 1, 1]),
        nef=Cone(
            lat,
            ((0, -1, 0), (0, 0, -1), (1, 1, 1)),
            interior_point=(3, -1, -1),
            irredundancy_witnesses=((0, 1, 0), (0, 0, 1), (-1, 0, 0)),
        ),
        gg=ExactEqualsNef("toric: nef line bundles on a smooth toric variety are globally generated"),
        flags=frozenset({TORIC, IRREGULARITY_ZERO}),
        provenance=Provenance("del_pezzo7", note="rational, simply connected"),
    )


def curve(genus: int) -> VarietyDescriptor:
    """A smooth projective curve of the given genus, polarized by degree.

    The lattice is generated by a degree-1 class, the form is the degree
    pairing, and the canonical class has degree 2g - 2.  For genus 0 the
    globally generated classes are exactly the nef ones; in higher genus
    global generation is not numerical and stays unknown.
    """
    if genus < 0:
        raise DescriptorError(f"genus must be nonnegative, got {genus}")
    lat = PicardLattice(("H",))
    flags = {curve_flag(genus)}
    if genus == 0:
        flags.add(IRREGULARITY_ZERO)
    gg: GGStatus
    if genus == 0:
        gg = ExactEqualsNef("degree-a bundles on P^1 are globally generated iff a >= 0")
    else:
        gg = UnknownGG()
    return VarietyDescriptor(
        dimension=1,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 1, 1),
        canonical=lat.make([2 * genus - 2]),
        nef=Cone(lat, ((1,),)),
        gg=gg,
        flags=frozenset(flags),
        provenance=Provenance("curve", parameters=(("genus", str(genus)),)),
    )


def abelian(
    n: int,
    lattice: PicardLattice | None = None,
    form: IntersectionForm | None = None,
    nef: Cone | None = None,
) -> VarietyDescriptor:
    """An abelian variety of dimension n; the canonical class is zero.

    The default polarization data is a rank-1 lattice with top
    self-intersection n! (a principal polarization).  Global generation
    is genuinely non-numerical here and stays unknown.
    """
    if n < 1:
        raise DescriptorError("abelian varieties have dimension >= 1")
    if lattice is None:
        lattice = PicardLattice(("H",))
        form = IntersectionForm.rank_one(
            lattice, n, _factorial(n)
        )
        nef = Cone(lattice, ((1,),))
    if form is None:
        raise DescriptorError("a custom abelian lattice needs a form")
    desc = VarietyDescriptor(
        dimension=n,
        lattice=lattice,
        form=form,
        canonical=lattice.zero(),
        nef=nef,
        gg=UnknownGG(),
        flags=frozenset({ABELIAN}),
        provenance=Provenance("abelian", parameters=(("n", str(n)),)),
    )
    _check_ample_interior(desc)
    return desc


def _check_ample_interior(desc: VarietyDescriptor) -> None:
    """Reject a nef cone whose interior point has non-positive top
    self-intersection; only the constructors that take a nef cone from
    the caller need the check."""
    if desc.nef is not None:
        # an interior class of a nef cone is ample, so its top power is positive
        point = desc.lattice.make(desc.nef.first_interior_point())
        top = desc.form.self_intersection(point, desc.dimension)
        if top <= 0:
            raise DescriptorError(
                f"the nef cone's interior class {point} has top "
                f"self-intersection {top}, but an ample class needs a "
                f"positive one"
            )


def _factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def custom(
    dimension: int,
    lattice: PicardLattice,
    form: IntersectionForm,
    canonical: DivisorClass,
    nef: Cone | None = None,
    gg: GGStatus | None = None,
    flags=(),
    annotations=(),
    known_effective=(),
    note: str = "",
) -> VarietyDescriptor:
    """Fully explicit descriptor; every invariant is validated on entry."""
    desc = VarietyDescriptor(
        dimension=dimension,
        lattice=lattice,
        form=form,
        canonical=canonical,
        nef=nef,
        gg=gg if gg is not None else UnknownGG(),
        flags=frozenset(flags),
        annotations=tuple(annotations),
        known_effective=tuple(known_effective),
        provenance=Provenance("custom", note=note),
    )
    _check_ample_interior(desc)
    return desc
