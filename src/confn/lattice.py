"""Exact Picard lattice arithmetic.

A smooth projective variety enters the engine only through numerical data:
a free finitely generated abelian group (the Neron-Severi lattice, called
the Picard lattice here since every descriptor in scope has discrete
Picard group), a symmetric integer multilinear form of degree equal to
the dimension (the intersection form), and distinguished classes such as
the canonical class.  Everything in this module is exact integer
arithmetic on coefficient vectors; no floats appear anywhere.

The intersection form is stored sparsely: a map from weakly increasing
multi-indices over the basis to integers.  Absent entries read as zero.
Symmetry is therefore structural rather than checked, which is what makes
the property tests in the suite meaningful: any evaluation order over any
permutation of the arguments must agree.

Divisibility of intersection numbers is read from the form itself: the
gcd of its stored entries divides every evaluation.

A lattice is its own identity: two lattices with the same basis are
different lattices, and a class, form or cone built on one is refused by
the other.
"""

from __future__ import annotations

import itertools
import math

from .frozen import Frozen


class LatticeError(ValueError):
    """Raised for rank/lattice mismatches and malformed form data."""


class PicardLattice(Frozen):
    """Free Z-lattice of algebraic divisor classes with a named basis.

    Lattices compare and hash by identity.
    """

    __slots__ = ("basis",)

    def __init__(self, basis: tuple[str, ...]) -> None:
        object.__setattr__(self, "basis", basis)
        if not basis:
            raise LatticeError("a Picard lattice needs at least one basis class")
        if len(set(basis)) != len(basis):
            raise LatticeError(f"duplicate basis names: {basis!r}")
        for name in basis:
            if not name.isidentifier():
                raise LatticeError(f"basis name {name!r} is not an identifier")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def make(self, coeffs) -> "DivisorClass":
        return DivisorClass(self, tuple(coeffs))

    def basis_class(self, i: int) -> "DivisorClass":
        if type(i) is not int or not 0 <= i < self.rank:
            raise LatticeError(f"basis index {i!r} out of range for rank {self.rank}")
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return DivisorClass(self, tuple(coeffs))

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (0,) * self.rank)


class DivisorClass(Frozen):
    """Integer coefficient vector in a fixed Picard lattice."""

    __slots__ = ("lattice", "coeffs")

    def __init__(self, lattice: PicardLattice, coeffs: tuple[int, ...]) -> None:
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "coeffs", coeffs)
        if len(coeffs) != lattice.rank:
            raise LatticeError(
                f"expected {lattice.rank} coefficients, got {len(coeffs)}"
            )
        for c in coeffs:
            if type(c) is not int:
                raise LatticeError(f"non-integer coefficient {c!r}")

    def _check_same(self, other: "DivisorClass") -> None:
        if self.lattice is not other.lattice:
            raise LatticeError("divisor classes live on different lattices")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same(other)
        return DivisorClass(
            self.lattice, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        self._check_same(other)
        return DivisorClass(
            self.lattice, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "DivisorClass":
        return DivisorClass(self.lattice, tuple(-a for a in self.coeffs))

    def __mul__(self, n: int) -> "DivisorClass":
        if not isinstance(n, int):
            return NotImplemented
        return DivisorClass(self.lattice, tuple(n * a for a in self.coeffs))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def pretty(self) -> str:
        """Render as a signed combination of basis names, e.g. ``3*H - E1``."""
        parts: list[str] = []
        for c, name in zip(self.coeffs, self.lattice.basis):
            if c == 0:
                continue
            mag = abs(c)
            term = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts) if parts else "0"

    def __str__(self) -> str:
        return self.pretty()


def _sorted_index(idx: tuple, rank: int) -> tuple[int, ...]:
    """The multi-index ``idx`` sorted, refused unless each index is an int
    in range(rank)."""
    for i in idx:
        if type(i) is not int:
            raise LatticeError(f"multi-index {idx!r} has a non-integer index {i!r}")
        if not 0 <= i < rank:
            raise LatticeError(f"basis index {i} out of range for rank {rank}")
    return tuple(sorted(idx))


def _normalized_entries(
    rank: int, degree: int, entries
) -> tuple[tuple[tuple[int, ...], int], ...]:
    out: dict[tuple[int, ...], int] = {}
    for idx, value in dict(entries).items():
        if type(value) is not int:
            raise LatticeError(
                f"intersection number {value!r} at multi-index {idx!r} is not an integer"
            )
        key = _sorted_index(idx, rank)
        if len(key) != degree:
            raise LatticeError(
                f"multi-index {idx!r} has length {len(key)}, form degree is {degree}"
            )
        if key in out and out[key] != value:
            raise LatticeError(f"conflicting values for multi-index {key!r}")
        if value != 0:
            out[key] = value
    return tuple(sorted(out.items()))


class IntersectionForm(Frozen):
    """Sparse symmetric multilinear form of fixed degree on a lattice.

    The degree matches the dimension of the variety, so a surface carries
    a bilinear form (a Gram matrix), a threefold a cubic form, and so on.
    Entries are keyed by weakly increasing multi-indices; any multi-index
    not stored evaluates to zero.
    """

    __slots__ = ("lattice", "degree", "entries", "_table")

    def __init__(
        self,
        lattice: PicardLattice,
        degree: int,
        entries: tuple[tuple[tuple[int, ...], int], ...],
    ) -> None:
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "degree", degree)
        if degree < 1:
            raise LatticeError("the form degree must be at least 1")
        entries = _normalized_entries(lattice.rank, degree, dict(entries))
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_table", dict(entries))

    @classmethod
    def from_entries(
        cls, lattice: PicardLattice, degree: int, entries
    ) -> "IntersectionForm":
        return cls(lattice, degree, tuple(dict(entries).items()))

    @classmethod
    def from_gram(cls, lattice: PicardLattice, rows) -> "IntersectionForm":
        """Build the degree-2 form of a surface from a full Gram matrix."""
        rows = [list(r) for r in rows]
        n = lattice.rank
        if len(rows) != n or any(len(r) != n for r in rows):
            raise LatticeError(f"Gram matrix must be {n} x {n}")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise LatticeError(
                        f"Gram matrix is not symmetric at ({i}, {j})"
                    )
        entries = {
            (i, j): rows[i][j] for i in range(n) for j in range(i, n)
        }
        return cls.from_entries(lattice, 2, entries)

    @classmethod
    def rank_one(
        cls, lattice: PicardLattice, degree: int, top_value: int
    ) -> "IntersectionForm":
        """Form on a rank-1 lattice determined by the top self-intersection."""
        if lattice.rank != 1:
            raise LatticeError("rank_one requires a rank-1 lattice")
        return cls.from_entries(lattice, degree, {(0,) * degree: top_value})

    def entry(self, idx) -> int:
        key = _sorted_index(tuple(idx), self.lattice.rank)
        if len(key) != self.degree:
            raise LatticeError(
                f"multi-index of length {len(key)} against degree {self.degree}"
            )
        return self._table.get(key, 0)

    def evaluate(self, *classes: DivisorClass) -> int:
        """Full multilinear evaluation on ``degree`` divisor classes."""
        if len(classes) != self.degree:
            raise LatticeError(
                f"form of degree {self.degree} applied to {len(classes)} classes"
            )
        for cls_ in classes:
            if cls_.lattice is not self.lattice:
                raise LatticeError("divisor class lives on a different lattice")
        rank = self.lattice.rank
        total = 0
        for idx in itertools.product(range(rank), repeat=self.degree):
            coeff = 1
            for cls_, i in zip(classes, idx):
                coeff *= cls_.coeffs[i]
                if coeff == 0:
                    break
            if coeff == 0:
                continue
            total += coeff * self._table.get(tuple(sorted(idx)), 0)
        return total

    def self_intersection(self, cls_: DivisorClass, power: int) -> int:
        if power != self.degree:
            raise LatticeError(
                f"self-intersection power {power} does not match degree {self.degree}"
            )
        return self.evaluate(*([cls_] * power))

    def is_even(self) -> bool:
        """True when every self-intersection (D, D) of a surface form is even.

        For a degree-2 form this reduces to the diagonal Gram entries by
        expanding (sum c_i B_i)^2 modulo 2.
        """
        if self.degree != 2:
            raise LatticeError("evenness is defined for surface forms only")
        return all(self.entry((i, i)) % 2 == 0 for i in range(self.lattice.rank))

    def gcd(self) -> int:
        """The gcd of the stored entries; 0 when no entry is nonzero.

        By multilinearity every evaluation is an integer combination of
        stored entries, so this is the largest d dividing every
        intersection number.
        """
        return math.gcd(*self._table.values())

    def gram(self) -> list[list[int]]:
        if self.degree != 2:
            raise LatticeError("only surface forms have a Gram matrix")
        n = self.lattice.rank
        return [[self.entry((i, j)) for j in range(n)] for i in range(n)]

    def contract(self, fixed: DivisorClass) -> "IntersectionForm":
        """Plug one fixed class into the last slot, lowering the degree by 1."""
        if self.degree < 2:
            raise LatticeError("cannot contract a degree-1 form")
        if fixed.lattice is not self.lattice:
            raise LatticeError("contraction class lives on a different lattice")
        rank = self.lattice.rank
        entries: dict[tuple[int, ...], int] = {}
        for key in itertools.combinations_with_replacement(range(rank), self.degree - 1):
            value = sum(
                fixed.coeffs[i] * self._table.get(tuple(sorted(key + (i,))), 0)
                for i in range(rank)
            )
            if value:
                entries[key] = value
        return IntersectionForm.from_entries(self.lattice, self.degree - 1, entries)

    def scaled(self, factor: int) -> "IntersectionForm":
        return IntersectionForm.from_entries(
            self.lattice,
            self.degree,
            {k: factor * v for k, v in self.entries},
        )

    def with_lattice(self, lattice: PicardLattice) -> "IntersectionForm":
        """Rebind the same entries to another lattice of equal rank."""
        if lattice.rank != self.lattice.rank:
            raise LatticeError("lattice ranks differ")
        return IntersectionForm.from_entries(lattice, self.degree, dict(self.entries))

