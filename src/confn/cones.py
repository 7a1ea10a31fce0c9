"""Rational polyhedral cones cut out by integral linear functionals.

The nef cone of a descriptor is stored by inequalities only: a tuple of
primitive integer functionals phi_k, with membership meaning phi_k(L) >= 0
for all k and strict interior meaning phi_k(L) > 0 for all k.  No ray
representation is ever computed; dualization is deliberately out of scope.
Each functional carries its support, the tuple of its nonzero
(coordinate, coefficient) pairs, computed once at admission, and every
evaluation of a functional reads the support.  The nef cone of a product
is block-diagonal, so a functional of P1^16 reads one coordinate, not 16.

A cone is decided when it is admitted.  A small exact linear program
(Fourier-Motzkin elimination over the rationals) finds an integral
interior point p, so the interior is not empty, and for each functional
an integral point q_k that violates it alone, so no functional is
redundant.  A system that fails either test is rejected.

Two quantities drive the adjoint-freeness computation.  For each
functional the engine needs

    mu_k = min { phi_k(L) : L a lattice point strictly inside the cone },

and from these the threshold

    m* = max(0, max_k ceil(-phi_k(K) / mu_k)),

which is the least m such that K plus any m or more strictly interior
lattice classes lands inside the cone.  Since functionals are integral,
phi_k is at least 1 on every interior lattice point, and for an
irredundant primitive functional of a cone with interior it is exactly
1: w = phi_k(p) q_k - phi_k(q_k) p lies in the relative interior of
facet k, an integral u with phi_k(u) = 1 exists because phi_k is
primitive, and u + t w is interior once t is large enough.  So every
mu_k is 1, with a witness built in closed form, and m* is decided in any
basis without a search.  The argument reads only p and the q_k, so it
holds as well for a cone that contains a line, such as a half-plane.

The brute-force refuter at the bottom is the independent oracle used by
the test suite: it searches every multiset of interior lattice points of
a given size and looks for a sum that escapes the cone.  It shares no
logic with the threshold formula; it only prunes subtrees that provably
cannot contain a violation, using suffix minima of the enumerated values,
so the searched set is exactly the declared one.  It splits the cone into
blocks, the connected components of the functionals' supports, and
searches each block on its own.  The split is exact: each functional
reads only its block's coordinates, so the interior and the sup-norm box
are the products of their blocks', and m interior points escape a
functional exactly when their parts in its block do.  A product cone
splits into its factors this way, and P1^k into k rays.  The interior
points of each block's box are enumerated once per cone and radius:
every prefix of all coordinates but the last is taken from the smaller
box, the functionals bound the last coordinate to an exact integer
interval, and the points are sorted back into shell-then-lex order.  The
searched set is still every interior point of the box; only points that
cannot be interior are skipped.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import mul

from .lattice import DivisorClass, LatticeError, PicardLattice


class ConeError(ValueError):
    """Raised for degenerate or redundant functional systems."""


def _primitive(vec) -> tuple[int, ...]:
    v = tuple(int(x) for x in vec)
    if all(x == 0 for x in v):
        raise ConeError("the zero functional does not cut a halfspace")
    g = gcd(*v)
    return tuple(x // g for x in v)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _value(support, coeffs) -> int:
    """A functional's value at ``coeffs``, read from its support."""
    value = 0
    for i, a in support:
        value += a * coeffs[i]
    return value


def _solve(rows, rank: int) -> tuple[Fraction, ...] | None:
    """A rational x with a.x >= b for every row (a, b), or None if none exists.

    Fourier-Motzkin elimination: each variable in turn is eliminated by
    adding every pair of rows in which it has opposite signs, scaled to
    cancel it, and the system left without variables is feasible exactly
    when no row demands 0 >= b with b > 0.  After k eliminations a row
    combined from more than k + 1 input rows is implied by the others
    (Chernikov's rule) and is dropped, which keeps the systems small.
    Back substitution then bounds each variable, last eliminated first,
    by the rows of the system it was eliminated from, and takes the
    integer of least absolute value inside the bounds, or the lower bound
    (else the upper) when none fits.
    """
    stages = []
    system = _normalized((a, b, frozenset([n])) for n, (a, b) in enumerate(rows))
    for i in range(rank):
        stages.append(system)
        pos = [row for row in system if row[0][i] > 0]
        neg = [row for row in system if row[0][i] < 0]
        combined = [row for row in system if row[0][i] == 0]
        combined += [
            (tuple(a[i] * y - c[i] * x for x, y in zip(a, c)), a[i] * d - c[i] * b, h | g)
            for a, b, h in pos
            for c, d, g in neg
            if len(h | g) <= i + 2
        ]
        system = _normalized(combined)
    if any(b > 0 for _, b, _ in system):
        return None
    x = [Fraction(0)] * rank
    for i in reversed(range(rank)):
        bounds = [
            (a[i] > 0, (b - _dot(a[i + 1 :], x[i + 1 :])) / a[i])
            for a, b, _ in stages[i]
            if a[i]
        ]
        x[i] = _least_in(
            max((v for lower, v in bounds if lower), default=None),
            min((v for lower, v in bounds if not lower), default=None),
        )
    return tuple(x)


def _normalized(rows) -> set:
    """Rows (a, b, sources) with a scaled to be primitive; 0 >= b <= 0 dropped.

    Rows are never merged with looser ones of the same left side: the rule
    that drops rows reads each row's own sources, so a merge could lose a
    row that the rule would keep.
    """
    out = set()
    for a, b, sources in rows:
        g = gcd(*a)
        if g or b > 0:
            g = g or 1
            out.add((tuple(v // g for v in a), Fraction(b) / g, sources))
    return out


def _least_in(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    """The integer of least absolute value in [lo, hi] (None: unbounded)."""
    if lo is not None and lo > 0:
        n = Fraction(ceil(lo))
        return n if hi is None or n <= hi else lo
    if hi is not None and hi < 0:
        n = Fraction(floor(hi))
        return n if lo is None or n >= lo else hi
    return Fraction(0)


def _integral(x: tuple[Fraction, ...]) -> tuple[int, ...]:
    """The least positive multiple of a rational point that is integral."""
    scale = lcm(*(v.denominator for v in x))
    return tuple(int(v * scale) for v in x)


def _unit_preimage(support, rank: int) -> tuple[int, ...]:
    """An integral u with phi(u) = 1, by extended gcd over phi's support;
    phi is primitive, and u is 0 off its support."""
    g, u = 0, [0] * rank
    for i, a in support:
        if g and a % g == 0:
            continue  # keep the earlier coordinates, so u stays short
        # s * g + t * a = gcd(g, a), by the extended Euclidean algorithm
        r0, r1, s0, s1, t0, t1 = g, a, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            s0, s1 = s1, s0 - q * s1
            t0, t1 = t1, t0 - q * t1
        g, u = r0, [s0 * v for v in u]
        u[i] = t0
    return tuple(g * v for v in u)  # g is +-1


def lattice_points_by_shell(rank: int, radius: int):
    """Lattice points of sup-norm at most ``radius``, in shell-then-lex order.

    The ordering fixes the order of every bounded enumeration, such as
    the refuter's, so its results are reproducible run to run.
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


def _interior_points(
    functionals, rank: int, radius: int
) -> tuple[tuple[int, ...], ...]:
    """Lattice points of sup-norm at most ``radius`` on which every
    functional is positive, in shell-then-lex order.

    Each prefix of all coordinates but the last comes from the smaller
    box; a functional with value s on the prefix and last entry a then
    bounds the last coordinate x exactly, since s + a x > 0 means
    x >= -((s - 1) // a) for a > 0 and x <= (s - 1) // -a for a < 0, and
    for a = 0 keeps the prefix only if s > 0.  The points are sorted by
    (sup-norm, point), which is the order of ``lattice_points_by_shell``.
    """
    points = []
    for head in lattice_points_by_shell(rank - 1, radius):
        lo, hi = -radius, radius
        for f in functionals:
            s, a = _dot(f, head), f[-1]
            if a > 0:
                lo = max(lo, -((s - 1) // a))
            elif a < 0:
                hi = min(hi, (s - 1) // -a)
            elif s <= 0:
                break
        else:
            points.extend(head + (x,) for x in range(lo, hi + 1))
    points.sort(key=lambda p: (max(map(abs, p)), p))
    return tuple(points)


def _split_blocks(functionals, radius: int):
    """The connected components of the functionals' supports, by first
    coordinate.  Each block is a tuple: its coordinates, its functionals'
    indices, its interior points in the box of ``radius`` (in its own
    coordinates), its functionals' values at each point, and their minima
    over each suffix of the points.  A coordinate no functional reads is
    in no block.
    """
    groups: list[tuple[set[int], list[int]]] = []
    for k, f in enumerate(functionals):
        coords, indices = {i for i, a in enumerate(f) if a}, [k]
        for group in [g for g in groups if g[0] & coords]:
            groups.remove(group)
            coords |= group[0]
            indices += group[1]
        groups.append((coords, indices))
    blocks = []
    for coords, indices in sorted(groups, key=lambda g: min(g[0])):
        coords, indices = sorted(coords), sorted(indices)
        local = [tuple(functionals[k][i] for i in coords) for k in indices]
        points = _interior_points(local, len(coords), radius)
        values = [tuple(_dot(f, p) for f in local) for p in points]
        suffix_min = values[:]
        for i in range(len(values) - 2, -1, -1):
            suffix_min[i] = tuple(map(min, values[i], suffix_min[i + 1]))
        blocks.append((coords, indices, points, values, suffix_min))
    return tuple(blocks)


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
    """The cone phi_k >= 0, admitted only with a nonempty interior.

    ``interior_point`` and ``irredundancy_witnesses`` are computed by an
    exact linear program unless supplied, and checked when supplied.
    ``supports[k]`` holds the nonzero (coordinate, coefficient) pairs of
    ``functionals[k]``; every evaluation reads it.
    """

    lattice: PicardLattice
    functionals: tuple[tuple[int, ...], ...]
    interior_point: tuple[int, ...] = field(default=(), compare=False)
    irredundancy_witnesses: tuple[tuple[int, ...], ...] = field(
        default=(), compare=False
    )
    supports: tuple[tuple[tuple[int, int], ...], ...] = field(
        default=(), init=False, compare=False, repr=False
    )
    # answers of the queries below, keyed by query; a frozen cone's answers
    # never change
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        rank = self.lattice.rank
        prim, supports = [], []
        for f in self.functionals:
            if len(f) != rank:
                raise ConeError(
                    f"functional {f!r} has {len(f)} entries, lattice rank is {rank}"
                )
            phi = _primitive(f)
            prim.append(phi)
            supports.append(tuple((i, a) for i, a in enumerate(phi) if a))
        object.__setattr__(self, "functionals", tuple(prim))
        object.__setattr__(self, "supports", tuple(supports))
        if not self.functionals:
            raise ConeError("a cone needs at least one functional")
        supplied = [("interior point", self.interior_point)] if self.interior_point else []
        supplied += [("irredundancy witness", w) for w in self.irredundancy_witnesses]
        for name, point in supplied:
            if len(point) != rank:
                raise ConeError(
                    f"supplied {name} {point!r} has {len(point)} entries, "
                    f"lattice rank is {rank}"
                )
        if self.interior_point:
            if not all(v > 0 for v in self.values_at(self.interior_point)):
                raise ConeError(
                    f"supplied point {self.interior_point!r} is not interior"
                )
        else:
            object.__setattr__(self, "interior_point", self._find_interior_point())
        if self.irredundancy_witnesses:
            self._check_witnesses(self.irredundancy_witnesses)
        else:
            object.__setattr__(
                self, "irredundancy_witnesses", self._find_witnesses()
            )

    # -- admission ----------------------------------------------------

    def _find_interior_point(self) -> tuple[int, ...]:
        point = _solve([(f, 1) for f in self.functionals], self.lattice.rank)
        if point is None:
            raise ConeError(
                f"the functionals {self.functionals!r} cut out a cone with an "
                "empty interior: no class is positive on all of them"
            )
        return _integral(point)

    def _check_witnesses(self, witnesses) -> None:
        if len(witnesses) != len(self.functionals):
            raise ConeError("one irredundancy witness is required per functional")
        for k, w in enumerate(witnesses):
            vals = self.values_at(w)
            if vals[k] >= 0 or any(v < 0 for i, v in enumerate(vals) if i != k):
                raise ConeError(
                    f"supplied witness {w!r} does not separate functional {k}"
                )

    def _find_witnesses(self) -> tuple[tuple[int, ...], ...]:
        found = []
        for k, f in enumerate(self.functionals):
            rows = [(tuple(-v for v in f), 1)]
            rows += [(g, 0) for j, g in enumerate(self.functionals) if j != k]
            point = _solve(rows, self.lattice.rank)
            if point is None:
                raise ConeError(
                    f"functional {f!r} is redundant: every class on which the "
                    "other functionals are nonnegative satisfies it too"
                )
            found.append(_integral(point))
        return tuple(found)

    # -- membership ---------------------------------------------------

    def values_at(self, coeffs) -> tuple[int, ...]:
        return tuple([_value(support, coeffs) for support in self.supports])

    def values(self, cls_: DivisorClass) -> tuple[int, ...]:
        if cls_.lattice.uid != self.lattice.uid:
            raise LatticeError("divisor class lives off the cone's lattice")
        return self.values_at(cls_.coeffs)

    def contains(self, cls_: DivisorClass) -> bool:
        return all(v >= 0 for v in self.values(cls_))

    def strictly_contains(self, cls_: DivisorClass) -> bool:
        return all(v > 0 for v in self.values(cls_))

    def _memoized(self, key, compute):
        """``compute()``, stored under ``key``; a race only computes it twice."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # -- exact queries ------------------------------------------------

    def interior_points(self, radius: int):
        """Interior lattice points within the sup-norm ball, shell-lex order.

        The set is exactly the box's points on which every functional is
        positive; ``_interior_points`` enumerates it.
        """
        yield from self._memoized(
            ("interior", radius),
            lambda: _interior_points(self.functionals, self.lattice.rank, radius),
        )

    def _blocks(self, radius: int) -> tuple:
        """The cone's blocks with their interior points in the box of
        ``radius``, as the refuter searches them."""
        return self._memoized(
            ("blocks", radius), lambda: _split_blocks(self.functionals, radius)
        )

    def first_interior_point(self) -> tuple[int, ...]:
        """The integral interior point found or checked at admission.

        A product cone's point is the concatenation of its factors' points.
        """
        return self.interior_point

    def min_interior_value(self, k: int) -> tuple[int, ...]:
        """An interior lattice point on which functional ``k`` is 1.

        1 is the minimum of phi_k over interior lattice points, since phi_k
        is integral and positive there.  The point is u + t w, in the
        notation of the module docstring, with the least integer t that
        makes it interior.
        """
        if not 0 <= k < len(self.functionals):
            raise ConeError(f"no functional with index {k}")
        return self._memoized(("min", k), lambda: self._facet_witness(k))

    def _facet_witness(self, k: int) -> tuple[int, ...]:
        support = self.supports[k]
        p, q = self.interior_point, self.irredundancy_witnesses[k]
        at_p, at_q = _value(support, p), _value(support, q)
        w = [at_p * x - at_q * y for x, y in zip(q, p)]
        g = gcd(*w) or 1
        w = [v // g for v in w]
        u = _unit_preimage(support, self.lattice.rank)
        # every other functional is positive on w, so a large t clears it
        t = max(
            (
                -((at_u - 1) // at_w)
                for j, (at_u, at_w) in enumerate(
                    zip(self.values_at(u), self.values_at(w))
                )
                if j != k
            ),
            default=0,
        )
        return tuple(a + t * b for a, b in zip(u, w))

    # -- the threshold ------------------------------------------------

    def adjoint_freeness_threshold(self, canonical: DivisorClass) -> ThresholdReport:
        """Least m such that canonical plus any >= m interior classes stays inside.

        Every per-functional minimum is 1, so functional k requires
        max(0, -phi_k(K)) summands.  Monotonicity in the number of summands
        holds because each mu_k is a positive integer, so adding a further
        interior class can only increase every functional value.
        """
        per = [
            PerFunctional(
                index=k,
                functional=self.functionals[k],
                value_on_canonical=phi_k,
                min_interior=1,
                interior_witness=self.min_interior_value(k),
                required=max(0, -phi_k),
            )
            for k, phi_k in enumerate(self.values(canonical))
        ]
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
            if _value(self.supports[critical.index], total) >= 0:
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

    Returns a violating tuple of interior points, or None when no
    multiset of m interior lattice points within the radius pushes the
    canonical class outside the cone.  The search runs block by block, in
    the order of their first coordinates, and stops at the first block
    with a violation: the tuple is the first violating one of that block
    in deterministic order, each point padded with every other block's
    first interior point (0 on coordinates no functional reads).  A block
    with no interior point in the box leaves the whole cone without one,
    so nothing is refuted.  Subtrees are pruned only when suffix minima
    prove no completion can violate, so the search remains exhaustive
    over the declared set.
    """
    if m < 0:
        raise ValueError("tuple size must be nonnegative")
    k_vals = cone.values(canonical)
    if m == 0:
        return () if any(v < 0 for v in k_vals) else None
    blocks = cone._blocks(radius)
    if not all(points for _, _, points, _, _ in blocks):
        return None
    for coords, indices, points, values, suffix_min in blocks:
        hit = _refute_block(values, suffix_min, [k_vals[k] for k in indices], m)
        if hit is not None:
            break
    else:
        return None
    padding = [0] * cone.lattice.rank
    for other_coords, _, other_points, _, _ in blocks:
        for i, x in zip(other_coords, other_points[0]):
            padding[i] = x
    found = [padding[:] for _ in hit]
    for point, j in zip(found, hit):
        for i, x in zip(coords, points[j]):
            point[i] = x
    return tuple(map(tuple, found))


def _refute_block(vals, suffix_min, k_vals, m: int):
    """Indices into ``vals`` of the first size-m multiset whose sum with the
    canonical values ``k_vals`` escapes the block, or None."""
    n_funcs = len(k_vals)

    def search(start: int, depth: int, partial: tuple[int, ...], chosen: tuple[int, ...]):
        remaining = m - depth
        if remaining == 0:
            if any(k_vals[k] + partial[k] < 0 for k in range(n_funcs)):
                return chosen
            return None
        if start >= len(vals):
            return None
        if all(
            k_vals[k] + partial[k] + remaining * suffix_min[start][k] >= 0
            for k in range(n_funcs)
        ):
            return None
        for i in range(start, len(vals)):
            hit = search(
                i,
                depth + 1,
                tuple(partial[k] + vals[i][k] for k in range(n_funcs)),
                chosen + (i,),
            )
            if hit is not None:
                return hit
        return None

    return search(0, 0, (0,) * n_funcs, ())


def product_cone(lattice: PicardLattice, factors) -> Cone:
    """Assemble the cone of a product lattice from the factor cones.

    Each factor functional is extended by zeros outside its block.  The
    admission data embeds from the factors, so no linear program runs: the
    interior point is the concatenation of the factors' points, and a
    separating point for a factor functional, padded with zeros, still
    satisfies every other inequality because all other functionals read
    it as zero.
    """
    factors = list(factors)
    if sum(cone.lattice.rank for cone in factors) != lattice.rank:
        raise ConeError("factor ranks do not sum to the product rank")
    functionals: list[tuple[int, ...]] = []
    witnesses: list[tuple[int, ...]] = []
    before = 0
    for cone in factors:
        after = lattice.rank - before - cone.lattice.rank
        for f, w in zip(cone.functionals, cone.irredundancy_witnesses):
            functionals.append((0,) * before + f + (0,) * after)
            witnesses.append((0,) * before + w + (0,) * after)
        before += cone.lattice.rank
    return Cone(
        lattice=lattice,
        functionals=tuple(functionals),
        interior_point=tuple(
            itertools.chain.from_iterable(cone.interior_point for cone in factors)
        ),
        irredundancy_witnesses=tuple(witnesses),
    )
