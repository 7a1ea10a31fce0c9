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

Divisibility annotations record statements such as "every intersection
number of classes in this sublattice is divisible by N".  They are carried
by variety descriptors and re-checked, never trusted, whenever a
construction transforms the form.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field


class LatticeError(ValueError):
    """Raised for rank/lattice mismatches and malformed form data."""


_uid_counter = itertools.count(1)
_uid_lock = threading.Lock()


def _next_uid() -> int:
    # Identifier allocation is the only synchronized step in the whole
    # engine; every value below is immutable once constructed.
    with _uid_lock:
        return next(_uid_counter)


@dataclass(frozen=True)
class PicardLattice:
    """Free Z-lattice of algebraic divisor classes with a named basis."""

    basis: tuple[str, ...]
    uid: int = field(default_factory=_next_uid, compare=False)

    def __post_init__(self) -> None:
        if not self.basis:
            raise LatticeError("a Picard lattice needs at least one basis class")
        if len(set(self.basis)) != len(self.basis):
            raise LatticeError(f"duplicate basis names: {self.basis!r}")
        for name in self.basis:
            if not name.isidentifier():
                raise LatticeError(f"basis name {name!r} is not an identifier")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def make(self, coeffs) -> "DivisorClass":
        return DivisorClass(self, tuple(int(c) for c in coeffs))

    def basis_class(self, i: int) -> "DivisorClass":
        coeffs = [0] * self.rank
        coeffs[i] = 1
        return DivisorClass(self, tuple(coeffs))

    def zero(self) -> "DivisorClass":
        return DivisorClass(self, (0,) * self.rank)


@dataclass(frozen=True)
class DivisorClass:
    """Integer coefficient vector in a fixed Picard lattice."""

    lattice: PicardLattice
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.lattice.rank:
            raise LatticeError(
                f"expected {self.lattice.rank} coefficients, got {len(self.coeffs)}"
            )
        for c in self.coeffs:
            if not isinstance(c, int):
                raise LatticeError(f"non-integer coefficient {c!r}")

    def _check_same(self, other: "DivisorClass") -> None:
        if self.lattice.uid != other.lattice.uid:
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


def _normalized_entries(
    rank: int, degree: int, entries
) -> tuple[tuple[tuple[int, ...], int], ...]:
    out: dict[tuple[int, ...], int] = {}
    for idx, value in dict(entries).items():
        key = tuple(sorted(int(i) for i in idx))
        if len(key) != degree:
            raise LatticeError(
                f"multi-index {idx!r} has length {len(key)}, form degree is {degree}"
            )
        for i in key:
            if not 0 <= i < rank:
                raise LatticeError(f"basis index {i} out of range for rank {rank}")
        value = int(value)
        if key in out and out[key] != value:
            raise LatticeError(f"conflicting values for multi-index {key!r}")
        if value != 0:
            out[key] = value
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class IntersectionForm:
    """Sparse symmetric multilinear form of fixed degree on a lattice.

    The degree matches the dimension of the variety, so a surface carries
    a bilinear form (a Gram matrix), a threefold a cubic form, and so on.
    Entries are keyed by weakly increasing multi-indices; any multi-index
    not stored evaluates to zero.
    """

    lattice: PicardLattice
    degree: int
    entries: tuple[tuple[tuple[int, ...], int], ...]

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise LatticeError("the form degree must be at least 1")
        object.__setattr__(
            self,
            "entries",
            _normalized_entries(self.lattice.rank, self.degree, dict(self.entries)),
        )
        object.__setattr__(self, "_table", dict(self.entries))

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
        key = tuple(sorted(int(i) for i in idx))
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
            if cls_.lattice.uid != self.lattice.uid:
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

    def gram(self) -> list[list[int]]:
        if self.degree != 2:
            raise LatticeError("only surface forms have a Gram matrix")
        n = self.lattice.rank
        return [[self.entry((i, j)) for j in range(n)] for i in range(n)]

    def contract(self, fixed: DivisorClass) -> "IntersectionForm":
        """Plug one fixed class into the last slot, lowering the degree by 1."""
        if self.degree < 2:
            raise LatticeError("cannot contract a degree-1 form")
        if fixed.lattice.uid != self.lattice.uid:
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


@dataclass(frozen=True)
class FullLattice:
    """Scope marker: the divisibility statement covers the whole lattice."""


@dataclass(frozen=True)
class Sublattice:
    """Scope marker: the statement covers the span of the listed generators."""

    generators: tuple[DivisorClass, ...]

    def __post_init__(self) -> None:
        if not self.generators:
            raise LatticeError("a sublattice scope needs at least one generator")
        uid = self.generators[0].lattice.uid
        if any(g.lattice.uid != uid for g in self.generators):
            raise LatticeError("sublattice generators live on different lattices")


@dataclass(frozen=True)
class DivisibilityAnnotation:
    """Claim that all intersection numbers in scope are divisible by ``modulus``."""

    modulus: int
    scope: FullLattice | Sublattice = FullLattice()

    def __post_init__(self) -> None:
        if self.modulus < 2:
            raise LatticeError(f"divisibility modulus must be >= 2, got {self.modulus}")


def check_annotation(form: IntersectionForm, annotation: DivisibilityAnnotation) -> bool:
    """Re-verify a divisibility annotation against the actual form.

    Full-lattice scope reduces to the stored entries by multilinearity:
    every evaluation is an integer combination of basis monomials.  For a
    sublattice scope the form is evaluated on every multiset of generators.
    """
    n = annotation.modulus
    if isinstance(annotation.scope, FullLattice):
        return all(value % n == 0 for _, value in form.entries)
    gens = annotation.scope.generators
    if gens[0].lattice.uid != form.lattice.uid:
        raise LatticeError("annotation generators live off the form's lattice")
    for combo in itertools.combinations_with_replacement(gens, form.degree):
        if form.evaluate(*combo) % n != 0:
            return False
    return True
