"""Constructions that transform variety descriptors.

Four geometric operations are modeled, each producing a fresh descriptor
whose provenance records the parents and every assertion the construction
relies on:

* product: direct sum of lattices, the intersection form that pairs p
  classes from one factor against q from the other, box-sum canonical
  class, product nef cone.
* blow-up at a point of a surface: one new exceptional class E with
  (E^2) = -1, canonical class pulled back plus E, nef cone forgotten.
* very general hypersurface section of a threefold: same lattice, the
  surface form obtained by contracting the cubic form with pH, canonical
  class by adjunction; every intersection number is divisible by p.
* cyclic degree-d cover totally branched over a smooth member of |dL|:
  same lattice via pullback, form scaled by d, canonical class by the
  branched covering formula K + (d-1)L.

Divisibility of intersection numbers is read from each transformed form.
"""

from __future__ import annotations

from .cones import Cone, product_cone
from .descriptors import (
    Assertion,
    Blowup,
    Cover,
    DescriptorError,
    ExactEqualsNef,
    Product,
    Provenance,
    UnderApprox,
    UnknownGG,
    VarietyDescriptor,
    known_gg_representatives,
)
from .lattice import DivisorClass, IntersectionForm, PicardLattice

_LEFSCHETZ_CITATION = (
    "Grothendieck-Lefschetz: restriction induces an isomorphism of Picard "
    "groups for ample covers of dimension >= 4"
)


def _merged_basis(left: tuple[str, ...], right: tuple[str, ...]) -> tuple[str, ...]:
    """Basis names of a product: a name both factors use gets _1 or _2.

    A renamed class whose new name is already taken repeats its suffix
    until the name is unique, so P1 x P1 x P1 x P1 built left-deep gets
    H_1, H_2, H_1_1, H_2_2; a rename that clashes with nothing is never
    extended.
    """
    collisions = set(left) & set(right)
    taken = {n for n in left + right if n not in collisions}
    merged = []
    for names, suffix in ((left, "_1"), (right, "_2")):
        for n in names:
            if n in collisions:
                n += suffix
                while n in taken:
                    n += suffix
                taken.add(n)
            merged.append(n)
    return tuple(merged)


def product_blocks(desc: VarietyDescriptor) -> tuple[tuple[int, VarietyDescriptor], ...]:
    """Offsets and factors of a product descriptor, from its provenance."""
    if not isinstance(desc.provenance, Product):
        raise DescriptorError("not a product descriptor")
    out = []
    offset = 0
    for parent in desc.provenance.parents:
        out.append((offset, parent))
        offset += parent.rank
    return tuple(out)


def split_product_class(
    desc: VarietyDescriptor, cls_: DivisorClass
) -> tuple[DivisorClass, ...]:
    """Split a class on a product into its factor components."""
    parts = []
    for offset, parent in product_blocks(desc):
        parts.append(parent.lattice.make(cls_.coeffs[offset : offset + parent.rank]))
    return tuple(parts)


def box_sum(desc: VarietyDescriptor, *parts: DivisorClass) -> DivisorClass:
    """Assemble a class on a product descriptor from factor classes."""
    blocks = product_blocks(desc)
    if len(parts) != len(blocks):
        raise DescriptorError(
            f"product has {len(blocks)} factors, got {len(parts)} classes"
        )
    coeffs: list[int] = []
    for (offset, parent), part in zip(blocks, parts):
        if part.lattice is not parent.lattice:
            raise DescriptorError("factor class lives on the wrong lattice")
        coeffs.extend(part.coeffs)
    return desc.lattice.make(coeffs)


def product(
    x: VarietyDescriptor,
    y: VarietyDescriptor,
    assume=(),
) -> VarietyDescriptor:
    """Product of two descriptors.

    The form in degree p + q is nonzero only on multi-indices that take
    exactly p entries from the first block, where it is the product of
    the factor top forms.  Toric and irregularity-zero flags survive
    exactly when both factors carry them.  ``assume`` takes only
    ``no_common_isogeny_factor``, which is recorded, never inferred.
    """
    assume = _assumptions("product", assume, ("no_common_isogeny_factor",))
    p, q = x.dimension, y.dimension
    basis = _merged_basis(x.lattice.basis, y.lattice.basis)
    lat = PicardLattice(basis)
    entries: dict[tuple[int, ...], int] = {}
    for kx, vx in x.form.entries:
        for ky, vy in y.form.entries:
            key = tuple(sorted(kx + tuple(i + x.rank for i in ky)))
            entries[key] = vx * vy
    form = IntersectionForm.from_entries(lat, p + q, entries)
    canonical = lat.make(tuple(x.canonical.coeffs) + tuple(y.canonical.coeffs))
    nef = None
    if x.nef is not None and y.nef is not None:
        nef = product_cone(lat, (x.nef, y.nef))
    if isinstance(x.gg, ExactEqualsNef) and isinstance(y.gg, ExactEqualsNef):
        gg = ExactEqualsNef(
            "both factors have globally generated cone equal to nef cone; a "
            "box-sum is globally generated iff its components are"
        )
    else:
        reps = [
            lat.make(tuple(a.coeffs) + tuple(b.coeffs))
            for a in known_gg_representatives(x)
            for b in known_gg_representatives(y)
        ]
        gg = UnderApprox(tuple(reps)) if reps else UnknownGG()
    flags = x.flags & y.flags & {"toric", "irregularity_zero"}
    isogeny = "product upper bound for factors without a common nonzero isogeny factor"
    assertions = tuple(Assertion(name, isogeny, stated=True) for name in assume)
    return VarietyDescriptor._make(
        dimension=p + q,
        lattice=lat,
        form=form,
        canonical=canonical,
        nef=nef,
        gg=gg,
        flags=frozenset(flags),
        provenance=Product(x, y, assertions),
    )


def blowup_point(s: VarietyDescriptor) -> VarietyDescriptor:
    """Blow up a surface at a point.

    The lattice gains an exceptional class E orthogonal to the old block
    with (E^2) = -1; the canonical class becomes the pullback plus E.
    The nef cone and global generation data of the surface do not
    transfer and are dropped to unknown.
    """
    if s.dimension != 2:
        raise DescriptorError("point blow-ups are modeled for surfaces only")
    e_name = "E"
    if e_name in s.lattice.basis:
        k = 1
        while f"E{k}_new" in s.lattice.basis:
            k += 1
        e_name = f"E{k}_new"
    lat = PicardLattice(tuple(s.lattice.basis) + (e_name,))
    n = s.rank
    entries = {key: val for key, val in s.form.entries}
    entries[(n, n)] = -1
    form = IntersectionForm.from_entries(lat, 2, entries)
    canonical = lat.make(tuple(s.canonical.coeffs) + (1,))
    # the irregularity is a birational invariant of smooth surfaces
    flags = s.flags & {"irregularity_zero"}
    return VarietyDescriptor._make(
        dimension=2,
        lattice=lat,
        form=form,
        canonical=canonical,
        nef=None,
        gg=UnknownGG(),
        flags=frozenset(flags),
        provenance=Blowup(s, lat.basis_class(n)),
    )


def _assumptions(constructor: str, assume, allowed: tuple[str, ...]) -> tuple[str, ...]:
    """``assume`` as a tuple, refused unless ``allowed`` holds every name."""
    assume = tuple(assume)
    for name in assume:
        if name not in allowed:
            raise DescriptorError(
                f"{constructor} does not take assumption {name!r}; it takes "
                + ", ".join(allowed)
            )
    return assume


def _require_ample(
    desc: VarietyDescriptor, cls_: DivisorClass, what: str, assume: tuple[str, ...]
) -> tuple[Assertion, ...]:
    """Check ``cls_`` on a known nef cone, or record the caller's ``ample``."""
    if desc.nef is not None:
        if not desc.nef.strictly_contains(cls_):
            raise DescriptorError(
                f"{what} {cls_.pretty()} is not strictly inside the nef cone"
            )
        return ()
    if "ample" not in assume:
        raise DescriptorError(
            f"the nef cone of the parent is unknown, so ampleness of {what} "
            f"{cls_.pretty()} must be asserted explicitly"
        )
    return (
        Assertion(
            "ample", f"{what} {cls_.pretty()} is ample on the caller's word", stated=True
        ),
    )


def hypersurface_section(
    y: VarietyDescriptor,
    ample: DivisorClass,
    p: int,
    assume=(),
) -> VarietyDescriptor:
    """Very general member of |pH| on a threefold, as a surface descriptor.

    Requires p >= max(5, resolved upper bound of the parent), so that the
    adjoint K_Y + pH is globally generated; its restriction is the
    canonical class of the section by adjunction and is recorded as a
    known globally generated class.  Every intersection number of the
    section is (A.B.pH) computed on the parent, hence divisible by p,
    so the gcd of the section's form is a multiple of p.  The very
    general position of the member is an assertion, carried in the
    provenance, that restriction is an isomorphism on Picard groups.
    ``assume`` takes only ``ample``, needed and recorded only when the
    parent's nef cone is unknown.
    """
    from .engine import resolve

    if y.dimension != 3:
        raise DescriptorError("hypersurface sections are taken in threefolds only")
    if ample.lattice is not y.lattice:
        raise DescriptorError("the ample class lives off the parent lattice")
    assume = _assumptions("hypersurface_section", assume, ("ample",))
    ample_assertions = _require_ample(y, ample, "section class", assume)
    upper = resolve(y).hi
    bound = max(5, upper)
    if p < bound:
        raise DescriptorError(
            f"need p >= {bound} (= max(5, resolved upper bound {upper})), got {p}"
        )
    lat = PicardLattice(tuple(y.lattice.basis))
    section = p * ample
    form_y = y.form.contract(y.lattice.make(section.coeffs))
    form = form_y.with_lattice(lat)
    canonical = lat.make(
        tuple(a + b for a, b in zip(y.canonical.coeffs, section.coeffs))
    )
    # Kodaira vanishing on the parent kills h^1 of the section
    flags = y.flags & {"irregularity_zero"}
    ample_premise = (
        "the adjoint is strictly inside the parent nef cone"
        if y.nef is not None
        and y.nef.strictly_contains(y.canonical + section)
        else f"p exceeds the parent upper bound by at least 1: {p} >= {upper + 1}"
        if p >= upper + 1
        else "assumed: the adjoint of the parent is ample"
    )
    return VarietyDescriptor._make(
        dimension=2,
        lattice=lat,
        form=form,
        canonical=canonical,
        nef=None,
        gg=UnderApprox((canonical,)),
        flags=frozenset(flags),
        provenance=Provenance(
            "hypersurface_section",
            parents=(y,),
            parameters=(
                ("ample", ample.pretty()),
                ("ample_coeffs", ",".join(str(c) for c in ample.coeffs)),
                ("p", str(p)),
                ("parent_upper", str(upper)),
                ("canonical_ample", ample_premise),
            ),
            assertions=ample_assertions
            + (
                Assertion(
                    "very_general",
                    "effective Noether-Lefschetz: a very general member of a "
                    "sufficiently positive linear system has the Picard group "
                    "of the ambient threefold",
                ),
            ),
        ),
    )


# the names that assert a threefold cover's pullback identifies Picard groups
PICARD_ASSUMPTIONS = ("large_d", "pic_pullback_iso", "effective_nl")


def cyclic_cover(
    y: VarietyDescriptor,
    branch: DivisorClass,
    degree: int,
    assume=(),
    *,
    vouched=(),
) -> VarietyDescriptor:
    """Degree-d cyclic cover totally branched over a smooth member of |dL|.

    The pullback identifies the lattices, multiplies every intersection
    number by d, and sends the canonical class to K_Y + (d-1)L by the
    branched covering formula.  The identification of Picard groups needs
    dimension >= 4 (Grothendieck-Lefschetz applied to the cover) and is
    otherwise an explicit assertion: for a threefold the cover must be
    taken with d large and the branch divisor very general, which the
    caller acknowledges by passing ``large_d``, ``pic_pullback_iso`` or
    ``effective_nl``; ``ample`` is needed and recorded only when the
    parent's nef cone is unknown.  A pipeline passes the identifying
    names it establishes itself in ``vouched``; they are recorded like the
    caller's, but not as stated by the caller.
    """
    if degree < 2:
        raise DescriptorError(f"cover degree must be >= 2, got {degree}")
    if branch.lattice is not y.lattice:
        raise DescriptorError("the branch class lives off the parent lattice")
    assume = _assumptions("cyclic_cover", assume, ("ample",) + PICARD_ASSUMPTIONS)
    vouched = _assumptions("cyclic_cover", vouched, PICARD_ASSUMPTIONS)
    assertions = list(_require_ample(y, branch, "branch class", assume))
    if y.dimension >= 4:
        assertions.append(Assertion("pic_pullback_iso", _LEFSCHETZ_CITATION))
    elif y.dimension == 3:
        identifying = [
            name for name in assume + vouched if name in PICARD_ASSUMPTIONS
        ]
        if not identifying:
            raise DescriptorError(
                "a threefold cover identifies Picard groups only for large "
                "degree and very general branch divisor; pass large_d, "
                "pic_pullback_iso or effective_nl to assert this"
            )
        for name in identifying:
            assertions.append(
                Assertion(
                    name,
                    "pullback isomorphism on Picard groups for cyclic covers "
                    "of threefolds with large degree and very general branch "
                    "divisor",
                    stated=name in assume,
                )
            )
    else:
        raise DescriptorError("cyclic cover descriptors need a parent of dimension >= 3")
    lat = PicardLattice(tuple(y.lattice.basis))
    form = y.form.scaled(degree).with_lattice(lat)
    canonical = lat.make(
        tuple(
            a + (degree - 1) * b
            for a, b in zip(y.canonical.coeffs, branch.coeffs)
        )
    )
    nef = None
    if y.nef is not None:
        nef = Cone(
            lat,
            y.nef.functionals,
            interior_point=y.nef.interior_point,
            irredundancy_witnesses=y.nef.irredundancy_witnesses,
        )
    reps = [
        lat.make(c.coeffs) for c in known_gg_representatives(y)
    ]
    gg = UnderApprox(tuple(reps)) if reps else UnknownGG()
    # h^1 of the cover splits as h^1(O_Y) plus h^1 of negative ample
    # powers, and the latter vanish by Kodaira
    flags = y.flags & {"irregularity_zero"}
    return VarietyDescriptor._make(
        dimension=y.dimension,
        lattice=lat,
        form=form,
        canonical=canonical,
        nef=nef,
        gg=gg,
        flags=frozenset(flags),
        provenance=Cover(y, branch, degree, tuple(assertions)),
    )

