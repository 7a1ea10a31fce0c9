"""Rational polyhedral cones cut out by integral linear functionals.

The nef cone of a descriptor is stored by inequalities only: a tuple of
primitive integer functionals phi_k, with membership meaning phi_k(L) >= 0
for all k and strict interior meaning phi_k(L) > 0 for all k.  No ray
representation is ever computed; dualization is deliberately out of scope.

Two quantities drive the adjoint-freeness computation.  For each
functional the engine needs

    mu_k = min { phi_k(L) : L a lattice point strictly inside the cone },

and from these the threshold

    m* = max(0, max_k ceil(-phi_k(K) / mu_k)),

which is the least m such that K plus any m or more strictly interior
lattice classes lands inside the cone.  Since functionals are integral,
phi_k is at least 1 on every interior lattice point, so a search that
finds an interior point with phi_k equal to 1 has certified the global
minimum.  Any other outcome of a bounded search is reported as
inconclusive rather than being promoted to a bound.

The brute-force refuter at the bottom is the independent oracle used by
the test suite: it searches every multiset of interior lattice points of
a given size and looks for a sum that escapes the cone.  It shares no
logic with the threshold formula; it only prunes subtrees that provably
cannot contain a violation, using suffix minima of the enumerated values,
so the searched set is exactly the declared one.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd

from .lattice import DivisorClass, LatticeError, PicardLattice


class ConeError(ValueError):
    """Raised for degenerate or redundant functional systems."""


class NonPointedConeError(ConeError):
    """The functionals do not cut out a pointed cone."""


class InconclusiveSearchError(RuntimeError):
    """A bounded lattice search could not certify a global minimum."""


def _primitive(vec) -> tuple[int, ...]:
    v = tuple(int(x) for x in vec)
    if all(x == 0 for x in v):
        raise ConeError("the zero functional does not cut a halfspace")
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return tuple(x // g for x in v)


def _matrix_rank(rows: tuple[tuple[int, ...], ...]) -> int:
    """Exact rank of an integer matrix, via elimination over Q."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    row_at = 0
    for col in range(cols):
        pivot = None
        for r in range(row_at, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[row_at], mat[pivot] = mat[pivot], mat[row_at]
        pv = mat[row_at][col]
        for r in range(row_at + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row_at])]
        row_at += 1
        rank += 1
    return rank


def lattice_points_by_shell(rank: int, radius: int):
    """Lattice points of sup-norm at most ``radius``, in shell-then-lex order.

    The ordering is the tie-break rule for every bounded search in the
    engine, so witnesses are reproducible run to run.
    """
    yield (0,) * rank
    for r in range(1, radius + 1):
        yield from _shell(rank, r)


def _shell(rank: int, r: int):
    """Points of sup-norm exactly ``r >= 1``, in lex order, built directly.

    A point lies on the shell when its first coordinate is +-r and the
    rest is anywhere in the cube, or when its first coordinate is inside
    and the rest lies on the shell one rank down; taking the first
    coordinate in increasing order keeps the lex order of the cube.
    """
    if rank == 0:
        return
    side = range(-r, r + 1)
    for x in side:
        if abs(x) == r:
            for rest in itertools.product(side, repeat=rank - 1):
                yield (x,) + rest
        else:
            for rest in _shell(rank - 1, r):
                yield (x,) + rest


@dataclass(frozen=True)
class InteriorMinimum:
    """Outcome of minimizing one functional over interior lattice points.

    ``value`` is None when no interior point was seen within the search
    radius.  ``certified`` is True only when the minimum is provably
    global, which by integrality happens exactly when the value is 1.
    """

    functional_index: int
    value: int | None
    witness: tuple[int, ...] | None
    certified: bool
    radius: int


@dataclass(frozen=True)
class PerFunctional:
    index: int
    functional: tuple[int, ...]
    value_on_canonical: int
    min_interior: int
    interior_witness: tuple[int, ...]
    required: int


@dataclass(frozen=True)
class ThresholdReport:
    """Certified adjoint-freeness threshold for a cone and canonical class.

    ``witness`` is a tuple of m*-1 interior points whose sum with the
    canonical class escapes the cone, present whenever m* >= 1; it is the
    sharpness half of the certificate.
    """

    m_star: int
    per_functional: tuple[PerFunctional, ...]
    witness: tuple[tuple[int, ...], ...] | None
    violated_index: int | None


@dataclass(frozen=True)
class Cone:
    lattice: PicardLattice
    functionals: tuple[tuple[int, ...], ...]
    product_blocks: tuple[tuple[int, "Cone"], ...] = ()
    functional_sources: tuple[tuple[int, int], ...] = ()
    irredundancy_witnesses: tuple[tuple[int, ...], ...] = field(
        default=(), compare=False
    )
    # answers of the searches below, keyed by query; a frozen cone's answers
    # never change, and a product cone shares its factor cones' memos
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        rank = self.lattice.rank
        prim = []
        for f in self.functionals:
            if len(f) != rank:
                raise ConeError(
                    f"functional {f!r} has {len(f)} entries, lattice rank is {rank}"
                )
            prim.append(_primitive(f))
        object.__setattr__(self, "functionals", tuple(prim))
        if not self.functionals:
            raise ConeError("a cone needs at least one functional")
        if self.irredundancy_witnesses:
            self._check_witnesses(self.irredundancy_witnesses)
        else:
            object.__setattr__(
                self, "irredundancy_witnesses", self._find_witnesses()
            )

    # -- irredundancy -------------------------------------------------

    def _separates(self, k: int, point: tuple[int, ...]) -> bool:
        vals = self.values_at(point)
        return vals[k] < 0 and all(v >= 0 for i, v in enumerate(vals) if i != k)

    def _check_witnesses(self, witnesses) -> None:
        if len(witnesses) != len(self.functionals):
            raise ConeError("one irredundancy witness is required per functional")
        for k, w in enumerate(witnesses):
            if not self._separates(k, tuple(w)):
                raise ConeError(
                    f"supplied witness {w!r} does not separate functional {k}"
                )

    def _find_witnesses(self) -> tuple[tuple[int, ...], ...]:
        rank = self.lattice.rank
        found: list[tuple[int, ...] | None] = [None] * len(self.functionals)
        missing = set(range(len(self.functionals)))

        def visit(point: tuple[int, ...]) -> None:
            for k in list(missing):
                if self._separates(k, point):
                    found[k] = point
                    missing.discard(k)

        if rank <= 3:
            for point in lattice_points_by_shell(rank, 8):
                visit(point)
                if not missing:
                    break
        else:
            for i in range(rank):
                for sign in (1, -1):
                    point = tuple(sign if j == i else 0 for j in range(rank))
                    visit(point)
            rng = random.Random(hash(self.functionals) & 0xFFFFFFFF)
            for _ in range(20000):
                if not missing:
                    break
                visit(tuple(rng.randint(-8, 8) for _ in range(rank)))
        if missing:
            k = min(missing)
            raise ConeError(
                f"functional {self.functionals[k]!r} appears redundant: no lattice "
                "point within radius 8 satisfies all other inequalities while "
                "violating this one"
            )
        return tuple(found)  # type: ignore[arg-type]

    # -- membership ---------------------------------------------------

    def values_at(self, coeffs) -> tuple[int, ...]:
        return tuple(
            sum(f[i] * coeffs[i] for i in range(len(f))) for f in self.functionals
        )

    def values(self, cls_: DivisorClass) -> tuple[int, ...]:
        if cls_.lattice.uid != self.lattice.uid:
            raise LatticeError("divisor class lives off the cone's lattice")
        return self.values_at(cls_.coeffs)

    def contains(self, cls_: DivisorClass) -> bool:
        return all(v >= 0 for v in self.values(cls_))

    def strictly_contains(self, cls_: DivisorClass) -> bool:
        return all(v > 0 for v in self.values(cls_))

    def is_pointed(self) -> bool:
        return self._memoized(
            "pointed", lambda: _matrix_rank(self.functionals) == self.lattice.rank
        )

    def _memoized(self, key, compute):
        """``compute()``, stored under ``key``; a race only computes it twice."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- bounded searches ---------------------------------------------

    def interior_points(self, radius: int):
        """Interior lattice points within the sup-norm ball, shell-lex order."""
        for point in lattice_points_by_shell(self.lattice.rank, radius):
            if all(v > 0 for v in self.values_at(point)):
                yield point

    def first_interior_point(self, radius: int) -> tuple[int, ...] | None:
        """An interior point within the radius, or None when there is none.

        A product cone answers from its factors, since its interior is the
        product of the factor interiors: the result is the concatenation of
        the factors' points.  Otherwise it is the first point in shell-lex
        order.
        """
        return self._memoized(
            ("first", radius), lambda: self._first_interior_point(radius)
        )

    def _first_interior_point(self, radius: int) -> tuple[int, ...] | None:
        if self.product_blocks:
            parts = []
            for _, factor in self.product_blocks:
                part = factor.first_interior_point(radius)
                if part is None:
                    return None
                parts.append(part)
            return tuple(itertools.chain.from_iterable(parts))
        for point in self.interior_points(radius):
            return point
        return None

    def min_interior_value(self, k: int, radius: int = 16) -> InteriorMinimum:
        """Minimize functional ``k`` over interior lattice points.

        Delegates to the factor cones when this cone was assembled as a
        product, since the interior of a product cone is the product of
        the factor interiors and each functional reads a single block.
        """
        if not 0 <= k < len(self.functionals):
            raise ConeError(f"no functional with index {k}")
        if not self.is_pointed():
            raise NonPointedConeError(
                "the functionals vanish simultaneously on a nonzero subspace"
            )
        return self._memoized(
            ("min", k, radius), lambda: self._min_interior_value(k, radius)
        )

    def _min_interior_value(self, k: int, radius: int) -> InteriorMinimum:
        if self.product_blocks:
            return self._min_interior_product(k, radius)
        best: int | None = None
        best_witness: tuple[int, ...] | None = None
        for point in self.interior_points(radius):
            v = self.values_at(point)[k]
            if best is None or v < best:
                best, best_witness = v, point
                if v == 1:
                    break
        return InteriorMinimum(
            functional_index=k,
            value=best,
            witness=best_witness,
            certified=best == 1,
            radius=radius,
        )

    def _min_interior_product(self, k: int, radius: int) -> InteriorMinimum:
        block_idx, local_k = self.functional_sources[k]
        parts: list[tuple[int, ...] | None] = []
        local_outcome: InteriorMinimum | None = None
        for i, (offset, factor) in enumerate(self.product_blocks):
            if i == block_idx:
                local_outcome = factor.min_interior_value(local_k, radius)
                parts.append(local_outcome.witness)
            else:
                parts.append(factor.first_interior_point(radius))
        assert local_outcome is not None
        if local_outcome.value is None or any(p is None for p in parts):
            return InteriorMinimum(k, None, None, False, radius)
        witness = tuple(itertools.chain.from_iterable(parts))  # type: ignore[arg-type]
        return InteriorMinimum(
            functional_index=k,
            value=local_outcome.value,
            witness=witness,
            certified=local_outcome.certified,
            radius=radius,
        )

    # -- the threshold ------------------------------------------------

    def adjoint_freeness_threshold(
        self, canonical: DivisorClass, radius: int = 16
    ) -> ThresholdReport:
        """Least m such that canonical plus any >= m interior classes stays inside.

        Raises InconclusiveSearchError unless every per-functional minimum
        is certified global within the radius.  Monotonicity in the
        number of summands holds because each mu_k is a positive integer,
        so adding a further interior class can only increase every
        functional value.
        """
        per: list[PerFunctional] = []
        for k in range(len(self.functionals)):
            outcome = self.min_interior_value(k, radius)
            if outcome.value is None:
                raise InconclusiveSearchError(
                    f"no interior lattice point within radius {radius}; raise the radius"
                )
            if not outcome.certified:
                raise InconclusiveSearchError(
                    f"minimum of functional {k} within radius {radius} is "
                    f"{outcome.value}, not certified global; raise the radius or "
                    "supply the minimum explicitly"
                )
            phi_k = self.values(canonical)[k]
            assert outcome.witness is not None
            per.append(
                PerFunctional(
                    index=k,
                    functional=self.functionals[k],
                    value_on_canonical=phi_k,
                    min_interior=outcome.value,
                    interior_witness=outcome.witness,
                    required=max(0, ceil(Fraction(-phi_k, outcome.value))),
                )
            )
        m_star = max(p.required for p in per)
        witness = None
        violated = None
        if m_star >= 1:
            critical = max(per, key=lambda p: (p.required, -p.index))
            witness = tuple([critical.interior_witness] * (m_star - 1))
            violated = critical.index
            total = list(canonical.coeffs)
            for point in witness:
                total = [a + b for a, b in zip(total, point)]
            if self.values_at(total)[critical.index] >= 0:
                raise ConeError(
                    "internal sharpness check failed; the threshold witness does "
                    "not escape the cone"
                )
        return ThresholdReport(
            m_star=m_star,
            per_functional=tuple(per),
            witness=witness,
            violated_index=violated,
        )


def brute_force_refute(
    cone: Cone, canonical: DivisorClass, m: int, radius: int
):
    """Search all size-m multisets of interior points for an escaping sum.

    Returns the first violating tuple of interior points in deterministic
    order, or None when no multiset of m interior lattice points within
    the radius pushes the canonical class outside the cone.  Subtrees are
    pruned only when suffix minima prove no completion can violate, so
    the search remains exhaustive over the declared set.
    """
    if m < 0:
        raise ValueError("tuple size must be nonnegative")
    k_vals = cone.values(canonical)
    n_funcs = len(cone.functionals)
    if m == 0:
        return () if any(v < 0 for v in k_vals) else None
    points = list(cone.interior_points(radius))
    if not points:
        return None
    vals = [cone.values_at(p) for p in points]
    suffix_min = [None] * (len(points) + 1)
    suffix_min[len(points)] = tuple(0 for _ in range(n_funcs))
    running = [None] * n_funcs
    for i in range(len(points) - 1, -1, -1):
        for k in range(n_funcs):
            v = vals[i][k]
            running[k] = v if running[k] is None else min(running[k], v)
        suffix_min[i] = tuple(running)

    def search(start: int, depth: int, partial: tuple[int, ...], chosen: tuple[int, ...]):
        remaining = m - depth
        if remaining == 0:
            if any(k_vals[k] + partial[k] < 0 for k in range(n_funcs)):
                return chosen
            return None
        if start >= len(points):
            return None
        if all(
            k_vals[k] + partial[k] + remaining * suffix_min[start][k] >= 0
            for k in range(n_funcs)
        ):
            return None
        for i in range(start, len(points)):
            hit = search(
                i,
                depth + 1,
                tuple(partial[k] + vals[i][k] for k in range(n_funcs)),
                chosen + (i,),
            )
            if hit is not None:
                return hit
        return None

    hit = search(0, 0, (0,) * n_funcs, ())
    if hit is None:
        return None
    return tuple(points[i] for i in hit)


def product_cone(lattice: PicardLattice, factors) -> Cone:
    """Assemble the cone of a product lattice from the factor cones.

    Each factor functional is extended by zeros outside its block.  The
    irredundancy witnesses embed from the factors: a separating point for
    a factor functional, padded with zeros, still satisfies every other
    inequality because all other functionals read it as zero.
    """
    factors = list(factors)
    offsets: list[int] = []
    total = 0
    for cone in factors:
        offsets.append(total)
        total += cone.lattice.rank
    if total != lattice.rank:
        raise ConeError("factor ranks do not sum to the product rank")
    functionals: list[tuple[int, ...]] = []
    sources: list[tuple[int, int]] = []
    witnesses: list[tuple[int, ...]] = []
    for i, cone in enumerate(factors):
        off = offsets[i]
        for local_k, f in enumerate(cone.functionals):
            ext = [0] * total
            ext[off : off + len(f)] = list(f)
            functionals.append(tuple(ext))
            sources.append((i, local_k))
            w = cone.irredundancy_witnesses[local_k]
            ext_w = [0] * total
            ext_w[off : off + len(w)] = list(w)
            witnesses.append(tuple(ext_w))
    return Cone(
        lattice=lattice,
        functionals=tuple(functionals),
        product_blocks=tuple(zip(offsets, factors)),
        functional_sources=tuple(sources),
        irredundancy_witnesses=tuple(witnesses),
    )
