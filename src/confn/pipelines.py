"""End-to-end constructions whose convex Fujita numbers are exact.

Each pipeline checks the premises of its construction and returns the
descriptor it assembles through ``constructions``, with notes on the
construction.  It never resolves what it returns: the promised value is
asserted where any constructor's is, by ``assert_confn`` rows (the corpus,
the golden atlas) and tests, and ``engine.resolve`` is the one way to an
interval and its certificates.
"""

from __future__ import annotations

from .cones import Cone
from .constructions import (
    PICARD_ASSUMPTIONS, blowup_point, box_sum, cyclic_cover, hypersurface_section, product
)
from .descriptors import DescriptorError, VarietyDescriptor, custom, projective_space
from .engine import divisible_by_24, resolve
from .frozen import Frozen
from .lattice import IntersectionForm, PicardLattice


class PipelineError(DescriptorError):
    """A pipeline precondition failed; the message names the gate."""


class PipelineResult(Frozen):
    __slots__ = ("descriptor", "notes")

    def __init__(self, descriptor: VarietyDescriptor, notes: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "descriptor", descriptor)
        object.__setattr__(self, "notes", notes)


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
    )


def pipeline_n2k1(surface: VarietyDescriptor) -> PipelineResult:
    """Blow up a mod-24 surface in a point: convex Fujita number exactly 1.

    The lower bound is the non-nef canonical class of the blow-up, the
    upper bound the engine's ``blowup-reider-mod24`` rule, which needs 24
    to divide the gcd of the surface's intersection numbers; it checks both.
    """
    if surface.dimension != 2:
        raise PipelineError(
            f"expected a surface, got dimension {surface.dimension}"
        )
    if not divisible_by_24(surface):
        raise PipelineError(
            f"intersection numbers have gcd {surface.form.gcd()}; the residue "
            "argument needs 24 to divide it"
        )
    return PipelineResult(blowup_point(surface), ("blow-up of a mod-24 surface",))


def pipeline_n3k1(surface: VarietyDescriptor, polarization) -> PipelineResult:
    """Double cover of S x P^1: a threefold with convex Fujita number 1.

    Checks for a surface whose resolved upper bound is at most 2 and a
    class M strictly interior to its nef cone, very ample in the paper.
    With L = M boxtimes O(1), the twisted canonical bundle
    omega_Y tensor L^2 is the pullback of the adjoint of two amples
    on S, hence globally generated; that is the effective
    Noether-Lefschetz gate under which the branched double cover keeps
    the Picard lattice.  The cover bound then gives hi <= 1, while
    h^0(omega_X) = h^0(omega_Y tensor L) + h^0(omega_Y) vanishes factor
    by factor on the P^1 side, so omega_X has no sections and lo >= 1.
    """
    if surface.dimension != 2:
        raise PipelineError(f"expected a surface, got dimension {surface.dimension}")
    surface_hi = resolve(surface).hi
    if surface_hi > 2:
        raise PipelineError(
            f"the surface resolves to an upper bound of {surface_hi}; the "
            "construction needs an upper bound of at most 2"
        )
    if polarization.lattice is not surface.lattice:
        raise PipelineError("the polarization lives off the surface lattice")
    if surface.nef is None or not surface.nef.strictly_contains(polarization):
        raise PipelineError(
            "the polarization must be strictly interior to the nef cone of "
            "the surface"
        )
    line = projective_space(1)
    y = product(surface, line)
    ell = box_sum(y, polarization, line.lattice.make([1]))
    nl_note = (
        "omega_Y twisted by the square of the branch bundle is the pullback "
        "of an adjoint of two ample classes on the surface, which is "
        "globally generated because the surface resolves to hi <= 2; the "
        "effective Noether-Lefschetz theorem then keeps the Picard lattice "
        "under the double cover"
    )
    return PipelineResult(cyclic_cover(y, ell, 2, vouched=("effective_nl",)), (nl_note,))


def pipeline_simple_surface(parent: VarietyDescriptor, ample, p: int) -> PipelineResult:
    """Very general high-degree surface section of a threefold: exactly 0.

    The section inherits divisibility by p >= 5 on its full lattice, so a
    single ample summand already clears Reider, and its canonical class
    is the restriction of a globally generated adjoint, which settles the
    empty product as well.  ``hypersurface_section`` checks p >= 5.
    """
    return PipelineResult(hypersurface_section(parent, ample, p))


def pipeline_simple_variety(
    parent: VarietyDescriptor,
    branch,
    d: int,
    assume=(),
) -> PipelineResult:
    """High-degree cyclic cover of any polarized variety: exactly 0.

    For d at least two beyond the resolved upper bound of the parent, the
    cover bound collapses to 0 and the canonical bundle of the cover is
    itself ample and globally generated.  Smaller d still yields a sound
    interval, just not the exact value; the result says so in a note
    instead of overclaiming.  The parent's resolved upper bound is the
    premise read here.

    ``assume`` reaches ``cyclic_cover`` unchanged, so ampleness on an
    unknown nef cone is the caller's to state.  A threefold with d >= hi + 2
    gets ``large_d`` unless ``assume`` names one of ``PICARD_ASSUMPTIONS``;
    the pipeline vouches for it, so it is not recorded as the caller's.
    """
    parent_hi = resolve(parent).hi
    assume = tuple(assume)
    large = d >= parent_hi + 2
    vouched = ()
    if parent.dimension == 3 and large and set(assume).isdisjoint(PICARD_ASSUMPTIONS):
        vouched = ("large_d",)
    x = cyclic_cover(parent, branch, d, assume=assume, vouched=vouched)
    if large:
        notes = ("the canonical bundle of the cover is ample and globally generated",)
    else:
        notes = (
            f"cover degree {d} is below the parent upper bound plus 2 "
            f"({parent_hi + 2}); the interval follows from the cover bound "
            "alone and the canonical bundle of the cover is not certified "
            "ample",
        )
    return PipelineResult(x, notes)
