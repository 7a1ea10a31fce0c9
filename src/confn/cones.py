"""Rational polyhedral cones cut out by integral linear functionals.

The nef cone of a descriptor is stored by inequalities only: a tuple of
primitive integer functionals phi_k, with membership meaning phi_k(L) >= 0
for all k and strict interior meaning phi_k(L) > 0 for all k.  No ray
representation is ever computed; dualization is deliberately out of scope.
Each functional carries its support, the tuple of its nonzero
(coordinate, coefficient) pairs, computed once at admission, and every
evaluation of a functional reads the support.  The nef cone of a product
is block-diagonal, so a functional of P1^16 reads one coordinate, not 16.

A cone is decided when it is admitted: it needs an integral interior
point p, so the interior is not empty, and for each functional an
integral point q_k that violates it alone, so no functional is
redundant.  A ray (a,) on a rank-1 lattice, a = +-1 once primitive,
takes p = (a,) and q = (-a,) in closed form.  Data supplied by the
caller, as by the constructors of F1 and dP7, is checked.  The data of
a product is assembled by ``product_cone`` from its leaves' admitted
data, which implies both tests, so nothing is checked or solved again.
Every other cone runs a small exact linear program (Fourier-Motzkin
elimination over the rationals) to find the data, and a system that
fails either test is rejected.  Only that program needs rational
arithmetic, so ``fractions`` is imported when it first runs.

The adjoint-freeness threshold reads only the canonical class's values
on the functionals.  Since functionals are integral, every phi_k is at
least 1 on every interior lattice point, so K plus any m or more interior
lattice classes lands inside the cone once m reaches

    m* = max(0, max_k -phi_k(K)),

and that integrality is all the upper bound needs.  The lower bound
needs the value 1 to be attained by the violated functional, the first k
with phi_k(K) = -m*, and for an irredundant primitive functional of a
cone with interior it is: w = phi_k(p) q_k - phi_k(q_k) p lies in the
relative interior of facet k, an integral u with phi_k(u) = 1 exists
because phi_k is primitive, and u + t w is interior once t is large
enough.  So m* is decided in any basis without a search, and the facet
witness is built in closed form, only for the violated functional.  The
argument reads only p and the q_k, so it holds as well for a cone that
contains a line, such as a half-plane.

The brute-force refuter at the bottom is the independent oracle used by
the test suite: it searches every multiset of interior lattice points of
a given size and looks for a sum that escapes the cone.  It shares no
logic with the threshold formula; it only prunes subtrees that provably
cannot contain a violation, using suffix minima of the enumerated values,
so the searched set is exactly the declared one.  It searches a product
cone leaf by leaf, each leaf an admitted factor shape that
``product_cone`` recorded.  The split is exact: each functional reads
only its leaf's coordinates, so the interior and the sup-norm box are the
products of their leaves', and m interior points escape a functional
exactly when their parts in its leaf do.  Any other cone is one block.

Everything above reads the functionals and the admission data, never
the lattice, so it lives on a shape that every live cone built from the
same input shares: a nef cone that recurs on many lattices, such as the
ray of every P^n, is admitted, given its facet witnesses and searched
once.  A shape dies with its last cone, so nothing is kept across runs.
A product's blocks are its leaves' own shapes, P1^k's the ray's k times,
so a leaf shared by many products is enumerated and searched once.  The
interior points of a shape's box are enumerated once per radius:
every prefix of all coordinates but the last is taken from the smaller
box, the functionals bound the last coordinate to an exact integer
interval, and the points are sorted back into shell-then-lex order.  The
searched set is still every interior point of the box; only points that
cannot be interior are skipped.
"""

from __future__ import annotations

import itertools
import weakref
from math import ceil, floor, gcd, lcm
from operator import mul
from typing import TYPE_CHECKING

from .frozen import Frozen
from .lattice import DivisorClass, LatticeError, PicardLattice

if TYPE_CHECKING:
    from fractions import Fraction


class ConeError(ValueError):
    """Raised for degenerate or redundant functional systems."""


def _integers(name: str, vec) -> tuple[int, ...]:
    """``vec`` as a tuple, refused unless every entry is an int."""
    vec = tuple(vec)
    for x in vec:
        if not isinstance(x, int):
            raise ConeError(f"{name} {vec!r} has a non-integer entry {x!r}")
    return vec


def _primitive(v: tuple[int, ...]) -> tuple[int, ...]:
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


def _values(supports, coeffs) -> tuple[int, ...]:
    return tuple([_value(support, coeffs) for support in supports])


def _solve(rows, rank: int) -> tuple[int | Fraction, ...] | None:
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
    from fractions import Fraction

    stages = []
    system = _normalized(
        (a, Fraction(b), frozenset([n])) for n, (a, b) in enumerate(rows)
    )
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
    x = [0] * rank
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
            out.add((tuple(v // g for v in a), b / g, sources))
    return out


def _least_in(lo: Fraction | None, hi: Fraction | None) -> int | Fraction:
    """The integer of least absolute value in [lo, hi] (None: unbounded)."""
    if lo is not None and lo > 0:
        n = ceil(lo)
        return n if hi is None or n <= hi else lo
    if hi is not None and hi < 0:
        n = floor(hi)
        return n if lo is None or n >= lo else hi
    return 0


def _integral(x: tuple[int | Fraction, ...]) -> tuple[int, ...]:
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


class ThresholdReport(Frozen):
    """Certified adjoint-freeness threshold for a cone and canonical class.

    ``m_star`` is max(0, max_k -phi_k(K)), read off the canonical values
    alone.  ``witness`` is the sharpness half of the certificate, present
    whenever m* >= 1: m* - 1 copies of the facet witness of
    ``violated_index``, the first functional with phi_k(K) = -m*, whose
    sum with the canonical class escapes the cone.
    """

    __slots__ = ("m_star", "witness", "violated_index")

    def __init__(
        self,
        m_star: int,
        witness: tuple[tuple[int, ...], ...] | None,
        violated_index: int | None,
    ) -> None:
        object.__setattr__(self, "m_star", m_star)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "violated_index", violated_index)


class _Shape:
    """The lattice-free part of a cone: its admitted data and its answers.

    The data is a function of the admission input alone, so every live
    cone built from equal input shares one shape (see ``_shape_for``).
    ``__init__`` admits the input.  A product's shape is assembled
    instead, by ``_assembled``, from its ``leaves``: the admitted shapes
    it is the product of, in order, each a factor's own leaves or the
    factor's shape if it has none.  It holds the data admission would
    give the padded input, and every live product of the same leaves
    shares it (see ``product_cone``).  An admitted shape has no leaves.
    ``memo`` keeps three kinds of answer, each bounding work that a
    program would otherwise repeat:

    * ``("min", k)``: the facet witness of functional k, built once per
      shape, not once per canonical class whose threshold reads it;
    * ``("points", radius)``: the interior points of the box, enumerated
      once per shape, not once per product that has the shape as a leaf;
    * ``("refute", radius, canonical values, m)``, on a leaf: one search
      per leaf, canonical values and tuple size, which a product shares
      with its factors.

    A shape's answers never change.
    """

    __slots__ = (
        "rank",
        "functionals",
        "supports",
        "interior_point",
        "irredundancy_witnesses",
        "leaves",
        "memo",
        "__weakref__",
    )

    def __init__(
        self,
        rank: int,
        functionals: tuple[tuple[int, ...], ...],
        interior_point: tuple[int, ...],
        irredundancy_witnesses: tuple[tuple[int, ...], ...],
    ) -> None:
        self.rank = rank
        self.leaves = ()
        self.memo: dict = {}
        prim, supports = [], []
        for f in functionals:
            if len(f) != rank:
                raise ConeError(
                    f"functional {f!r} has {len(f)} entries, lattice rank is {rank}"
                )
            phi = _primitive(f)
            prim.append(phi)
            supports.append(tuple((i, a) for i, a in enumerate(phi) if a))
        self.functionals = tuple(prim)
        self.supports = tuple(supports)
        if not prim:
            raise ConeError("a cone needs at least one functional")
        supplied = [("interior point", interior_point)] if interior_point else []
        supplied += [("irredundancy witness", w) for w in irredundancy_witnesses]
        for name, point in supplied:
            if len(point) != rank:
                raise ConeError(
                    f"supplied {name} {point!r} has {len(point)} entries, "
                    f"lattice rank is {rank}"
                )
        # a primitive ray (a,) has a = +-1: a is interior and -a separates
        ray = prim[0] if rank == 1 and len(prim) == 1 else None
        if interior_point:
            if not all(v > 0 for v in _values(self.supports, interior_point)):
                raise ConeError(f"supplied point {interior_point!r} is not interior")
        else:
            interior_point = ray or self._find_interior_point()
        self.interior_point = interior_point
        if irredundancy_witnesses:
            self._check_witnesses(irredundancy_witnesses)
        else:
            irredundancy_witnesses = ((-ray[0],),) if ray else self._find_witnesses()
        self.irredundancy_witnesses = irredundancy_witnesses

    @classmethod
    def _assembled(cls, leaves) -> _Shape:
        """The shape of the product of ``leaves``, with no admission check:
        see ``product_cone``.  Each functional and witness is a leaf's,
        padded with zeros outside the leaf's coordinates, each support a
        leaf's shifted by the leaf's offset, and the interior point is the
        concatenation of the leaves' points."""
        shape = cls.__new__(cls)
        shape.rank = rank = sum(leaf.rank for leaf in leaves)
        shape.leaves = leaves
        shape.memo = {}
        functionals, witnesses, supports, before = [], [], [], 0
        for leaf in leaves:
            ahead, after = (0,) * before, (0,) * (rank - before - leaf.rank)
            functionals += [ahead + f + after for f in leaf.functionals]
            witnesses += [ahead + w + after for w in leaf.irredundancy_witnesses]
            supports += [tuple([(i + before, a) for i, a in s]) for s in leaf.supports]
            before += leaf.rank
        shape.functionals = tuple(functionals)
        shape.irredundancy_witnesses = tuple(witnesses)
        shape.supports = tuple(supports)
        shape.interior_point = tuple(
            itertools.chain.from_iterable(leaf.interior_point for leaf in leaves)
        )
        return shape

    # -- admission ----------------------------------------------------

    def _find_interior_point(self) -> tuple[int, ...]:
        point = _solve([(f, 1) for f in self.functionals], self.rank)
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
            vals = _values(self.supports, w)
            if vals[k] >= 0 or any(v < 0 for i, v in enumerate(vals) if i != k):
                raise ConeError(
                    f"supplied witness {w!r} does not separate functional {k}"
                )

    def _find_witnesses(self) -> tuple[tuple[int, ...], ...]:
        found = []
        for k, f in enumerate(self.functionals):
            rows = [(tuple(-v for v in f), 1)]
            rows += [(g, 0) for j, g in enumerate(self.functionals) if j != k]
            point = _solve(rows, self.rank)
            if point is None:
                raise ConeError(
                    f"functional {f!r} is redundant: every class on which the "
                    "other functionals are nonnegative satisfies it too"
                )
            found.append(_integral(point))
        return tuple(found)

    # -- answers ------------------------------------------------------

    def _memoized(self, key, compute):
        """``compute()``, stored under ``key``; a race only computes it twice."""
        if key not in self.memo:
            self.memo[key] = compute()
        return self.memo[key]

    def _points(self, radius: int) -> tuple:
        """The interior points in the box of ``radius``, the functionals'
        values at each point, and their minima over each suffix of the
        points."""
        key = ("points", radius)
        if key not in self.memo:
            points = _interior_points(self.functionals, self.rank, radius)
            values = [_values(self.supports, p) for p in points]
            suffix_min = values[:]
            for i in range(len(values) - 2, -1, -1):
                suffix_min[i] = tuple(map(min, values[i], suffix_min[i + 1]))
            self.memo[key] = (points, values, suffix_min)
        return self.memo[key]

    def _blocks(self, radius: int) -> tuple:
        """One tuple per leaf, as the refuter searches it: its coordinates,
        its functionals' indices, the leaf, and the leaf's
        ``_points(radius)``.  A shape with no leaves is one block, whose
        leaf is given as None."""
        blocks, at, k_at = [], 0, 0
        for leaf in self.leaves or (None,):
            block = leaf or self
            n = len(block.functionals)
            coords, indices = list(range(at, at + block.rank)), list(range(k_at, k_at + n))
            blocks.append((coords, indices, leaf, *block._points(radius)))
            at, k_at = at + block.rank, k_at + n
        return tuple(blocks)

    def _facet_witness(self, k: int) -> tuple[int, ...]:
        """u + t w for functional ``k``, in the notation of the module
        docstring, with the least integer t that makes it interior.

        Every other functional is positive on w, so a large t clears it:
        t is the largest over them of the least t with phi_j(u + t w) >= 1.
        """
        support = self.supports[k]
        p, q = self.interior_point, self.irredundancy_witnesses[k]
        at_p, at_q = _value(support, p), _value(support, q)
        w = [at_p * x - at_q * y for x, y in zip(q, p)]
        g = gcd(*w) or 1
        w = [v // g for v in w]
        u = _unit_preimage(support, self.rank)
        t = max(
            (-((_value(s, u) - 1) // _value(s, w)) for j, s in enumerate(self.supports) if j != k),
            default=0,
        )
        return tuple(a + t * b for a, b in zip(u, w))


# Every live shape: an admitted one keyed by its admission input, the
# lattice rank, the functionals, the supplied interior point and the
# supplied witnesses, as tuples, and a product's keyed by its tuple of
# leaves.  An entry leaves when the last cone of its shape dies, so no
# answer outlives the cones that asked for it.
_SHAPES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _shape_for(rank: int, functionals, interior_point, irredundancy_witnesses) -> _Shape:
    """The live shape admitted from this input, else a newly admitted one.

    A failed admission files nothing, and an entry that is not an int is
    refused before the lookup.
    """
    key = (
        rank,
        tuple(_integers("functional", f) for f in functionals),
        _integers("supplied interior point", interior_point),
        tuple(_integers("supplied irredundancy witness", w) for w in irredundancy_witnesses),
    )
    shape = _SHAPES.get(key)
    if shape is None:
        shape = _SHAPES[key] = _Shape(*key)
    return shape


class Cone(Frozen):
    """The cone phi_k >= 0 on ``lattice``, admitted only with a nonempty
    interior.

    ``interior_point`` and ``irredundancy_witnesses`` are checked when
    supplied.  Otherwise a ray (a,) on a rank-1 lattice takes (a,) and
    ((-a,),) in closed form, and every other cone finds them by an exact
    linear program.  ``_shape``, which only ``product_cone`` and
    ``with_lattice`` pass, is the cone's shape, taken as it is with no
    input and no check.  ``supports[k]`` holds the nonzero (coordinate,
    coefficient) pairs of ``functionals[k]``; every evaluation reads it.
    These fields are those of ``_shape``, the lattice-free part, which
    every live cone built from equal input shares together with its memo,
    so admission, the facet witnesses and the enumeration run once per
    shape, and the refuter's searches once per leaf.  The lattice is the
    cone's own: ``values`` refuses a class from any other, even one with
    an equal shape.  An entry of the input that is not an int is refused,
    not truncated.
    """

    __slots__ = (
        "lattice",
        "functionals",
        "interior_point",
        "irredundancy_witnesses",
        "supports",
        "_shape",
    )

    def __init__(
        self,
        lattice: PicardLattice,
        functionals: tuple[tuple[int, ...], ...] = (),
        interior_point: tuple[int, ...] = (),
        irredundancy_witnesses: tuple[tuple[int, ...], ...] = (),
        *,
        _shape: _Shape | None = None,
    ) -> None:
        shape = _shape or _shape_for(
            lattice.rank, functionals, interior_point, irredundancy_witnesses
        )
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "functionals", shape.functionals)
        object.__setattr__(self, "interior_point", shape.interior_point)
        object.__setattr__(self, "irredundancy_witnesses", shape.irredundancy_witnesses)
        object.__setattr__(self, "supports", shape.supports)
        object.__setattr__(self, "_shape", shape)

    def with_lattice(self, lattice: PicardLattice) -> Cone:
        """This cone on ``lattice``, which must have the same rank; the two
        share one shape."""
        if lattice.rank != self.lattice.rank:
            raise ConeError(
                f"a cone of rank {self.lattice.rank} cannot move to a lattice "
                f"of rank {lattice.rank}"
            )
        return Cone(lattice, _shape=self._shape)

    # -- membership ---------------------------------------------------

    def values_at(self, coeffs) -> tuple[int, ...]:
        return _values(self.supports, coeffs)

    def values(self, cls_: DivisorClass) -> tuple[int, ...]:
        if cls_.lattice is not self.lattice:
            raise LatticeError("divisor class lives off the cone's lattice")
        return _values(self.supports, cls_.coeffs)

    def contains(self, cls_: DivisorClass) -> bool:
        return all(v >= 0 for v in self.values(cls_))

    def strictly_contains(self, cls_: DivisorClass) -> bool:
        return all(v > 0 for v in self.values(cls_))

    # -- exact queries ------------------------------------------------

    def interior_points(self, radius: int):
        """Interior lattice points within the sup-norm ball, shell-lex order.

        The set is exactly the box's points on which every functional is
        positive; ``_interior_points`` enumerates it.
        """
        yield from self._shape._points(radius)[0]

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
        shape = self._shape
        return shape._memoized(("min", k), lambda: shape._facet_witness(k))

    # -- the threshold ------------------------------------------------

    def adjoint_freeness_threshold(self, canonical: DivisorClass) -> ThresholdReport:
        """Least m such that canonical plus any >= m interior classes stays inside.

        Each phi_k is integral and positive on interior lattice points, so
        it is at least 1 there, and s >= m* = max(0, max_k -phi_k(K))
        summands lift every phi_k(K) to 0 or more; that is the whole upper
        bound, and it holds for every larger s as well.  The facet witness
        is built only for the violated functional, the first k with
        phi_k(K) = -m*: its value 1 there makes m* - 1 copies of it fall
        short, which is the sharpness witness.
        """
        on_canonical = self.values(canonical)
        m_star = max(0, -min(on_canonical))
        if m_star == 0:
            return ThresholdReport(m_star=0, witness=None, violated_index=None)
        violated = on_canonical.index(-m_star)
        witness = ()
        if m_star > 1:
            witness = (self.min_interior_value(violated),) * (m_star - 1)
        total = list(canonical.coeffs)
        for point in witness:
            total = [a + b for a, b in zip(total, point)]
        if _value(self.supports[violated], total) >= 0:
            raise ConeError(
                "internal sharpness check failed; the threshold witness does "
                "not escape the cone"
            )
        return ThresholdReport(m_star=m_star, witness=witness, violated_index=violated)


def brute_force_refute(
    cone: Cone, canonical: DivisorClass, m: int, radius: int
):
    """Search all size-m multisets of interior points for an escaping sum.

    Returns a violating tuple of interior points, or None when no
    multiset of m interior lattice points within the radius pushes the
    canonical class outside the cone.  The search runs leaf by leaf, in
    order, and stops at the first leaf with a violation: the tuple is the
    first violating one of that leaf in deterministic order, each point
    padded with every other leaf's first interior point.  A leaf with no
    interior point in the box leaves the whole cone without one, so
    nothing is refuted.  Subtrees are pruned only when suffix minima
    prove no completion can violate, so the search remains exhaustive
    over the declared set.  A leaf's search depends only on the leaf's
    shape, its canonical values, m and the radius, so it is memoized on
    that shape: every live cone of the shape shares it, and a product
    reuses the searches its live factors already ran.
    """
    if m < 0:
        raise ValueError("tuple size must be nonnegative")
    k_vals = cone.values(canonical)
    if m == 0:
        return () if any(v < 0 for v in k_vals) else None
    shape = cone._shape
    blocks = shape._blocks(radius)
    if not all(block[3] for block in blocks):
        return None
    for coords, indices, block, points, values, suffix_min in blocks:
        k_block = tuple([k_vals[k] for k in indices])
        hit = (block or shape)._memoized(
            ("refute", radius, k_block, m),
            lambda: _refute_block(values, suffix_min, k_block, m),
        )
        if hit is not None:
            break
    else:
        return None
    # the blocks tile the coordinates in order
    padding = list(itertools.chain.from_iterable(block[3][0] for block in blocks))
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

    try:
        return search(0, 0, (0,) * n_funcs, ())
    finally:
        # search reaches itself through its closure; unbinding it lets
        # reference counting free the pair, with no collector pass
        del search


def product_cone(lattice: PicardLattice, factors) -> Cone:
    """Assemble the cone of a product lattice from the factor cones.

    The product's shape is that of its leaves, the factors' leaves in
    order (a factor with none is its own), so (a x b) x c, a x (b x c)
    and a x b x c have one shape, and a product of one leaf is that
    leaf's.  A live product of the same leaves lends its shape, and
    nothing is padded; else ``_Shape._assembled`` extends each leaf
    functional and witness by zeros outside its block, concatenates the
    leaves' interior points and shifts each support to its block.  The
    leaves' admissions imply the product's, so no check and no linear
    program runs: a leaf functional stays primitive when padded, the
    concatenated point is interior because each functional reads only its
    own leaf's part, and a separating point for a leaf functional, padded
    with zeros, still satisfies every other inequality because all other
    functionals read it as zero.  The refuter searches a product leaf by
    leaf, so a leaf shared by many products is searched once.
    """
    leaves = tuple(
        itertools.chain.from_iterable(cone._shape.leaves or (cone._shape,) for cone in factors)
    )
    if sum(leaf.rank for leaf in leaves) != lattice.rank:
        raise ConeError("factor ranks do not sum to the product rank")
    shape = leaves[0] if len(leaves) == 1 else _SHAPES.get(leaves)
    if shape is None:
        shape = _SHAPES[leaves] = _Shape._assembled(leaves)
    return Cone(lattice, _shape=shape)
