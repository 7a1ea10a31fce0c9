"""Symbolic vanishing and positivity of h^0 along construction traces.

The only way the engine ever certifies a lower bound through sections is
by proving h^0 of a concrete line bundle to be zero or positive, walking
the provenance of the descriptor the bundle lives on, by its node class:

* on a curve, a bundle of negative degree has no sections;
* on a ``Product``, the Kunneth formula makes h^0 multiplicative over the
  factor components of a box-sum, so one vanishing factor kills the
  product and all-positive factors force positivity;
* on a ``Cover`` of degree d with branch bundle L, totally branched and
  cyclic, the pushforward of the structure sheaf splits as the sum of
  L^(-i) for i < d, so h^0 of a pullback is the sum of h^0(parent, A - iL);
* a class certified globally generated has a section, since a globally
  generated line bundle is a quotient of a trivial bundle and the zero
  sheaf is not a line bundle.

Anything outside these four facts is reported as unknown, never guessed.
Each fact carries a derivation trace for the certificate verifier.

One call decides each (descriptor, class, depth) once: a memo that lives
only for that call hands a repeated node its sign and trace lines, so
X x X walks X once and the trace is the same line for line.  Nothing is
kept across calls, so the verifier's call walks the tree afresh and
trusts nothing from the rule's.
"""

from __future__ import annotations

from .constructions import product_blocks, split_product_class
from .descriptors import Cover, Product, VarietyDescriptor, is_known_gg
from .frozen import Frozen
from .lattice import DivisorClass

ZERO = "zero"
POSITIVE = "positive"
UNKNOWN = "unknown"


class H0Fact(Frozen):
    """Sign of h^0 of one line bundle, with its derivation."""

    __slots__ = ("bundle", "value", "trace")

    def __init__(self, bundle: str, value: str, trace: tuple[str, ...]) -> None:
        object.__setattr__(self, "bundle", bundle)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "trace", trace)


def h0_sign(desc: VarietyDescriptor, cls_: DivisorClass) -> H0Fact:
    if cls_.lattice is not desc.lattice:
        raise ValueError("bundle class lives off the descriptor's lattice")
    value, trace = _sign(desc, cls_, 0, {})
    return H0Fact(bundle=cls_.pretty(), value=value, trace=tuple(trace))


def _sign(desc: VarietyDescriptor, cls_: DivisorClass, depth: int, memo: dict):
    """The sign and trace lines of one node, decided once per ``memo``."""
    key = (desc, cls_.coeffs, depth)
    if key not in memo:
        memo[key] = _decide(desc, cls_, depth, memo)
    return memo[key]


def _decide(desc: VarietyDescriptor, cls_: DivisorClass, depth: int, memo: dict):
    pad = "  " * depth
    if desc.dimension == 1 and cls_.coeffs[0] < 0:
        return ZERO, [
            pad
            + f"h^0({cls_.pretty()}) = 0: negative degree {cls_.coeffs[0]} on a curve"
        ]
    if is_known_gg(desc, cls_):
        return POSITIVE, [
            pad
            + f"h^0({cls_.pretty()}) > 0: the class is certified globally generated"
        ]
    if isinstance(desc.provenance, Product):
        return _sign_product(desc, cls_, depth, memo)
    if isinstance(desc.provenance, Cover):
        return _sign_cover(desc, cls_, depth, memo)
    return UNKNOWN, [pad + f"h^0({cls_.pretty()}): no applicable decomposition"]


def _sign_product(desc: VarietyDescriptor, cls_: DivisorClass, depth: int, memo: dict):
    pad = "  " * depth
    parts = split_product_class(desc, cls_)
    factors = [parent for _, parent in product_blocks(desc)]
    trace = [
        pad
        + f"h^0({cls_.pretty()}) on a product: Kunneth, h^0 of a box-sum is the "
        "product over the factors"
    ]
    values = []
    for parent, part in zip(factors, parts):
        v, t = _sign(parent, part, depth + 1, memo)
        values.append(v)
        trace.extend(t)
    if ZERO in values:
        trace.append(pad + "one factor vanishes, so the product vanishes")
        return ZERO, trace
    if all(v == POSITIVE for v in values):
        trace.append(pad + "every factor is positive, so the product is positive")
        return POSITIVE, trace
    trace.append(pad + "no factor vanishes and not all are certified positive")
    return UNKNOWN, trace


def _sign_cover(desc: VarietyDescriptor, cls_: DivisorClass, depth: int, memo: dict):
    pad = "  " * depth
    cover = desc.provenance
    parent, branch, degree = cover.parents[0], cover.branch, cover.degree
    trace = [
        pad
        + f"h^0({cls_.pretty()}) on a degree-{degree} cyclic cover: the "
        "pushforward of the structure sheaf splits as the sum of L^(-i), "
        f"i = 0..{degree - 1}, with L = {branch.pretty()}"
    ]
    values = []
    for i in range(degree):
        downstairs = parent.lattice.make(
            tuple(c - i * b for c, b in zip(cls_.coeffs, branch.coeffs))
        )
        v, t = _sign(parent, downstairs, depth + 1, memo)
        values.append(v)
        trace.extend(t)
    if all(v == ZERO for v in values):
        trace.append(pad + "every summand vanishes, so the pullback has no sections")
        return ZERO, trace
    if POSITIVE in values:
        trace.append(pad + "some summand is positive, so the pullback has sections")
        return POSITIVE, trace
    trace.append(pad + "the summands are not all decided")
    return UNKNOWN, trace
