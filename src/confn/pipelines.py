"""End-to-end constructions whose convex Fujita numbers are exact.

Each pipeline checks its preconditions, assembles a descriptor through
the transforms in ``constructions`` and confirms that the engine resolves
it to the exact value the construction promises.  Pipelines are plain
constructors: they return the descriptor with notes on the construction,
and ``engine.resolve`` is the one way to its interval and certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Cone
from .constructions import blowup_point, box_sum, cyclic_cover, hypersurface_section, product
from .descriptors import DescriptorError, VarietyDescriptor, custom, projective_space
from .engine import divisible_by_24, resolve
from .lattice import DivisibilityAnnotation, FullLattice, IntersectionForm, PicardLattice


class PipelineError(DescriptorError):
    """A pipeline precondition failed; the message names the gate."""


@dataclass(frozen=True)
class PipelineResult:
    descriptor: VarietyDescriptor
    notes: tuple[str, ...] = ()


def synthetic_mod24_surface() -> VarietyDescriptor:
    """A minimal surface of general type with all pairings divisible by 24.

    Rank-1 model with (H^2) = 24 and K = H; the canonical class is ample,
    so the surface is minimal and blowing up a point produces a non-nef
    canonical class.  Stands in for a very general degree-24 hypersurface
    section of a polarized threefold.
    """
    lat = PicardLattice(("H",))
    return custom(
        dimension=2,
        lattice=lat,
        form=IntersectionForm.rank_one(lat, 2, 24),
        canonical=lat.make([1]),
        nef=Cone(lat, ((1,),)),
        annotations=(DivisibilityAnnotation(24, FullLattice()),),
        note="minimal surface with all pairings divisible by 24",
    )


def pipeline_n2k1(s24: VarietyDescriptor) -> PipelineResult:
    """Blow up a mod-24 surface in a point: convex Fujita number exactly 1.

    The lower bound is the non-nef canonical class of the blow-up, the
    upper bound the engine's ``blowup-reider-mod24`` rule, which needs a
    full-lattice divisibility annotation with a modulus divisible by 24.
    """
    if s24.dimension != 2:
        raise PipelineError(
            f"expected a surface, got dimension {s24.dimension}"
        )
    if not divisible_by_24(s24):
        moduli = s24.annotation_moduli(full_only=True)
        raise PipelineError(
            "the surface needs a full-lattice divisibility annotation with a "
            f"modulus divisible by 24; found {list(moduli) or 'none'}. The "
            "residue argument is specific to 24."
        )
    x = blowup_point(s24)
    interval = resolve(x)
    if not interval.exact or interval.lo != 1:
        raise PipelineError(
            f"expected the blow-up to resolve to exactly 1, got {interval}"
        )
    return PipelineResult(x, ("blow-up of a mod-24 surface",))


def pipeline_n3k1(s: VarietyDescriptor, polarization) -> PipelineResult:
    """Double cover of S x P^1: a threefold with convex Fujita number 1.

    Needs a surface whose resolved upper bound is at most 2 and a very
    ample class M on it.  With L = M boxtimes O(1), the twisted canonical
    bundle omega_Y tensor L^2 is the pullback of the adjoint of two amples
    on S, hence globally generated; that is the effective
    Noether-Lefschetz gate under which the branched double cover keeps
    the Picard lattice.  The cover bound then gives hi <= 1, while
    h^0(omega_X) = h^0(omega_Y tensor L) + h^0(omega_Y) vanishes factor
    by factor on the P^1 side, so omega_X has no sections and lo >= 1.
    """
    s_iv = resolve(s)
    if s_iv.hi > 2:
        raise PipelineError(
            f"the surface resolves to an upper bound of {s_iv.hi}; the "
            "construction needs an upper bound of at most 2"
        )
    if polarization.lattice.uid != s.lattice.uid:
        raise PipelineError("the polarization lives off the surface lattice")
    if s.nef is None or not s.nef.strictly_contains(polarization):
        raise PipelineError(
            "the polarization must be strictly interior to the nef cone of "
            "the surface"
        )
    line = projective_space(1)
    y = product(s, line)
    ell = box_sum(y, polarization, line.lattice.make([1]))
    nl_note = (
        "omega_Y twisted by the square of the branch bundle is the pullback "
        "of an adjoint of two ample classes on the surface, which is "
        "globally generated because the surface resolves to hi <= 2; the "
        "effective Noether-Lefschetz theorem then keeps the Picard lattice "
        "under the double cover"
    )
    x = cyclic_cover(y, ell, 2, assume=("effective_nl",), assume_ample=True)
    interval = resolve(x)
    if not interval.exact or interval.lo != 1:
        raise PipelineError(
            f"expected the double cover to resolve to exactly 1, got {interval}"
        )
    return PipelineResult(x, (nl_note,))


def pipeline_simple_surface(y: VarietyDescriptor, ample, p: int) -> PipelineResult:
    """Very general high-degree surface section of a threefold: exactly 0.

    The section inherits divisibility by p >= 5 on its full lattice, so a
    single ample summand already clears Reider, and its canonical class
    is the restriction of a globally generated adjoint, which settles the
    empty product as well.
    """
    x = hypersurface_section(y, ample, p)
    interval = resolve(x)
    if not interval.exact or interval.hi != 0:
        raise PipelineError(
            f"expected the section to resolve to exactly 0, got {interval}"
        )
    return PipelineResult(x)


def pipeline_simple_variety(
    y: VarietyDescriptor,
    branch_polarization,
    d: int,
    assume=(),
) -> PipelineResult:
    """High-degree cyclic cover of any polarized variety: exactly 0.

    For d at least two beyond the resolved upper bound of the parent, the
    cover bound collapses to 0 and the canonical bundle of the cover is
    itself ample and globally generated.  Smaller d still yields a sound
    interval, just not the exact value; the result says so in a note
    instead of overclaiming.
    """
    parent_hi = resolve(y).hi
    assume = tuple(assume)
    if y.dimension == 3 and d >= parent_hi + 2 and not assume:
        assume = ("large_d",)
    x = cyclic_cover(y, branch_polarization, d, assume=assume, assume_ample=True)
    interval = resolve(x)
    notes: tuple[str, ...] = ()
    if d >= parent_hi + 2:
        if not interval.exact or interval.hi != 0:
            raise PipelineError(
                f"expected the cover to resolve to exactly 0, got {interval}"
            )
        omega = [
            c
            for c in interval.certificates
            if c.rule == "cover-degree"
            and c.witness_data().get("omega_ample_and_globally_generated")
        ]
        if not omega:
            raise PipelineError(
                "the cover certificate does not carry the ample globally "
                "generated canonical premise despite d >= hi + 2"
            )
        notes = ("the canonical bundle of the cover is ample and globally generated",)
    else:
        notes = (
            f"cover degree {d} is below the parent upper bound plus 2 "
            f"({parent_hi + 2}); the interval follows from the cover bound "
            "alone and the canonical bundle of the cover is not certified "
            "ample",
        )
    return PipelineResult(x, notes)
