"""Variety descriptors: the numerical shadow of a polarized variety.

A descriptor bundles the dimension, the Picard lattice, the intersection
form, the canonical class, what is known about the nef cone, and what is
known about global generation, together with flags, which are plain
names: "toric", "irregularity_zero" and "abelian".  A descriptor comes
only from a constructor here or in ``constructions`` (``custom`` takes
raw data), and the one that sets a premise is its proof.  The lattice
stands for the whole Neron-Severi lattice, so divisibility of
intersection numbers is read from the form, and a form with no nonzero
entry is refused; a curve's lattice is generated by a point, so a curve
form whose degrees have a gcd other than 1 is refused, and so is a curve
whose canonical degree is not 2g - 2 for a genus g >= 0.  Knowledge is
explicit: the nef cone is either a concrete cone or unknown, and the set
of globally generated classes is either exactly the nef cone (with a
recorded justification), a finite under-approximation, or unknown.
Nothing downstream is allowed to upgrade "unknown" silently.

Every descriptor records its provenance: which constructor made it, from
which parents, under which named assertions, with display strings for
its parameters.  A product, a cover and a blow-up record a node of their
own class, ``Product``, ``Cover`` or ``Blowup``, that keeps the data the
rules read typed, and rules branch on that class, never on a name.  The
resolver and the certificate verifier both walk this trace, so it is
data, not documentation.
"""

from __future__ import annotations

import math

from .cones import Cone
from .frozen import Frozen
from .lattice import DivisorClass, IntersectionForm, PicardLattice


class DescriptorError(ValueError):
    """Raised when descriptor data is inconsistent or a gate fails."""


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
    """A named, user- or pipeline-supplied hypothesis with its citation.

    ``stated`` marks one the caller named in a constructor's ``assume``;
    the others are hypotheses a constructor records for itself.
    """

    __slots__ = ("name", "citation", "stated")

    def __init__(self, name: str, citation: str, stated: bool = False) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "citation", citation)
        object.__setattr__(self, "stated", stated)


class Provenance(Frozen):
    __slots__ = ("constructor", "parameters", "parents", "assertions")

    def __init__(
        self,
        constructor: str,
        parameters: tuple[tuple[str, str], ...] = (),
        parents: tuple[VarietyDescriptor, ...] = (),
        assertions: tuple[Assertion, ...] = (),
    ) -> None:
        object.__setattr__(self, "constructor", constructor)
        object.__setattr__(self, "parameters", parameters)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "assertions", assertions)


class Product(Provenance):
    """The product of ``x`` and ``y``, in that order."""

    __slots__ = ()

    def __init__(self, x, y, assertions) -> None:
        super().__init__("product", (), (x, y), assertions)


class Cover(Provenance):
    """A cyclic cover of ``parent`` of degree ``degree``, totally branched
    over a member of |degree * branch|, with ``branch`` on ``parent``."""

    __slots__ = ("branch", "degree")

    def __init__(self, parent, branch: DivisorClass, degree: int, assertions) -> None:
        parameters = (
            ("branch", branch.pretty()),
            ("branch_coeffs", ",".join(str(c) for c in branch.coeffs)),
            ("degree", str(degree)),
        )
        super().__init__("cyclic_cover", parameters, (parent,), assertions)
        object.__setattr__(self, "branch", branch)
        object.__setattr__(self, "degree", degree)


class Blowup(Provenance):
    """The blow-up of ``parent`` at a point, with ``exceptional`` the class
    of its exceptional curve."""

    __slots__ = ("exceptional",)

    def __init__(self, parent, exceptional: DivisorClass) -> None:
        parameters = (("exceptional", exceptional.pretty()),)
        super().__init__("blowup_point", parameters, (parent,))
        object.__setattr__(self, "exceptional", exceptional)


class VarietyDescriptor(Frozen):
    __slots__ = (
        "dimension",
        "lattice",
        "form",
        "canonical",
        "nef",
        "gg",
        "flags",
        "provenance",
        # the engine's memos: the resolved interval (None until resolved)
        # and verification outcomes keyed by certificate
        "_interval",
        "_verdicts",
        # the Kunneth walk's node facts keyed by class coefficients, one
        # dict for the rules and one for the verifiers (None until walked)
        "_h0_facts",
        "_h0_checked",
        # the runner's provenance block (None until built)
        "_provenance_block",
    )

    def __init__(self, *args, **kwargs) -> None:
        raise TypeError(
            "a VarietyDescriptor comes only from a constructor: projective_space, "
            "complete_intersection, hirzebruch1, del_pezzo7, curve, abelian, "
            "product, blowup_point, hypersurface_section, cyclic_cover, or "
            "custom for raw data"
        )

    @classmethod
    def _make(
        cls,
        dimension: int,
        lattice: PicardLattice,
        form: IntersectionForm,
        canonical: DivisorClass,
        nef: Cone | None,
        gg: GGStatus,
        flags: frozenset[str],
        provenance: Provenance,
    ) -> VarietyDescriptor:
        """Admit a record; the one path the constructors take."""
        self = object.__new__(cls)
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "canonical", canonical)
        object.__setattr__(self, "nef", nef)
        object.__setattr__(self, "gg", gg)
        object.__setattr__(self, "flags", flags)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "_interval", None)
        object.__setattr__(self, "_verdicts", {})
        object.__setattr__(self, "_h0_facts", None)
        object.__setattr__(self, "_h0_checked", None)
        object.__setattr__(self, "_provenance_block", None)
        if self.dimension < 1:
            raise DescriptorError("dimension must be at least 1")
        if self.form.degree != self.dimension:
            raise DescriptorError(
                f"form degree {self.form.degree} does not match dimension "
                f"{self.dimension}"
            )
        if self.form.lattice is not self.lattice:
            raise DescriptorError("intersection form lives on a different lattice")
        if self.canonical.lattice is not self.lattice:
            raise DescriptorError("canonical class lives on a different lattice")
        if self.dimension == 1:
            if self.form.gcd() != 1:
                # a point has degree 1; a coarser lattice would fake
                # divisibility on every product with the curve
                raise DescriptorError(
                    "a curve's lattice must contain a point class of degree 1, "
                    f"but its degrees have gcd {self.form.gcd()}"
                )
            deg_k = self.form.evaluate(self.canonical)
            if deg_k % 2 != 0 or deg_k < -2:
                raise DescriptorError(
                    f"a curve's canonical degree is 2g - 2 for a genus g >= 0, "
                    f"but {deg_k} is not"
                )
        if self.form.gcd() == 0:
            raise DescriptorError(
                "every intersection number is 0, but an ample class has a "
                "positive top self-intersection"
            )
        if self.nef is not None and self.nef.lattice is not self.lattice:
            raise DescriptorError("nef cone lives on a different lattice")
        if isinstance(self.gg, ExactEqualsNef) and self.nef is None:
            raise DescriptorError("global generation cannot equal an unknown nef cone")
        if isinstance(self.gg, UnderApprox):
            for cls_ in self.gg.classes:
                if cls_.lattice is not self.lattice:
                    raise DescriptorError(
                        "globally generated class lives on a different lattice"
                    )
        return self

    @property
    def rank(self) -> int:
        return self.lattice.rank


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
    return VarietyDescriptor._make(
        dimension=n,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, n, 1),
        canonical=lat.make([-(n + 1)]),
        nef=Cone(lat, ((1,),)),
        gg=ExactEqualsNef("line bundles on projective space: O(a) is globally generated iff a >= 0"),
        flags=frozenset({"toric", "irregularity_zero"}),
        provenance=Provenance("projective_space", parameters=(("n", str(n)),)),
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
    degrees = tuple(degrees)
    for d in degrees:
        if not isinstance(d, int):
            raise DescriptorError(f"degrees must be integers, got {d!r}")
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
    return VarietyDescriptor._make(
        dimension=n,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, n, top),
        canonical=lat.make([k_coeff]),
        nef=Cone(lat, ((1,),)),
        gg=ExactEqualsNef(
            "Picard group generated by O(1) restricted to X; its multiples are "
            "globally generated iff the twist is nonnegative"
        ),
        flags=frozenset({"irregularity_zero"}),
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
    return VarietyDescriptor._make(
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
        flags=frozenset({"toric", "irregularity_zero"}),
        provenance=Provenance("hirzebruch1"),
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
    return VarietyDescriptor._make(
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
        flags=frozenset({"toric", "irregularity_zero"}),
        provenance=Provenance("del_pezzo7"),
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
    flags: frozenset[str] = frozenset()
    gg: GGStatus = UnknownGG()
    if genus == 0:
        flags = frozenset({"irregularity_zero"})
        gg = ExactEqualsNef("degree-a bundles on P^1 are globally generated iff a >= 0")
    return VarietyDescriptor._make(
        dimension=1,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 1, 1),
        canonical=lat.make([2 * genus - 2]),
        nef=Cone(lat, ((1,),)),
        gg=gg,
        flags=flags,
        provenance=Provenance("curve", parameters=(("genus", str(genus)),)),
    )


def abelian(n: int) -> VarietyDescriptor:
    """A principally polarized abelian variety of dimension n.

    The lattice has rank 1, the top self-intersection of its generator H
    is n! and the canonical class is zero.  Global generation is
    genuinely non-numerical here and stays unknown.
    """
    if n < 1:
        raise DescriptorError("abelian varieties have dimension >= 1")
    lat = PicardLattice(("H",))
    return VarietyDescriptor._make(
        dimension=n,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, n, math.factorial(n)),
        canonical=lat.zero(),
        nef=Cone(lat, ((1,),)),
        gg=UnknownGG(),
        flags=frozenset({"abelian"}),
        provenance=Provenance("abelian", parameters=(("n", str(n)),)),
    )


# the flags a library or DSL caller may state on a custom descriptor
CUSTOM_FLAGS = ("irregularity_zero",)


def custom(
    dimension: int,
    lattice: PicardLattice,
    form: IntersectionForm,
    canonical: DivisorClass,
    nef: Cone | None = None,
    flags=(),
) -> VarietyDescriptor:
    """Fully explicit descriptor; every invariant is validated on entry.

    It takes only what the DSL's ``custom`` can state: global generation
    stays unknown, and the only flags are those in ``CUSTOM_FLAGS``, since
    a rule's premise must come from a constructor that proves it.  The
    nef cone comes from the caller, so its interior point must also have
    a positive top self-intersection, as an ample class does.
    """
    for name in flags:
        if name not in CUSTOM_FLAGS:
            raise DescriptorError(
                f"unsupported flag {name!r}; custom takes only CUSTOM_FLAGS: "
                + ", ".join(CUSTOM_FLAGS)
            )
    desc = VarietyDescriptor._make(
        dimension=dimension,
        lattice=lattice,
        form=form,
        canonical=canonical,
        nef=nef,
        gg=UnknownGG(),
        flags=frozenset(flags),
        provenance=Provenance("custom"),
    )
    if nef is not None:
        point = lattice.make(nef.first_interior_point())
        top = form.self_intersection(point, dimension)
        if top <= 0:
            raise DescriptorError(
                f"the nef cone's interior class {point} has top "
                f"self-intersection {top}, but an ample class needs a "
                f"positive one"
            )
    return desc
