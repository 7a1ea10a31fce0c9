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

Each (descriptor, class) node is decided once per memo: its sign and
its trace lines, unindented, are kept on the descriptor under the class's
coefficients, and a parent indents its children's lines by two spaces.
So X x X walks X once, and a tower level reads the factors that the
level below already decided.  The rules and the verifiers name separate
memos, so the verifier's walk reads only facts that a verifier walk
decided, and trusts nothing from the rule's.
"""

from __future__ import annotations

from .constructions import split_product_class
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


# the descriptor slots that hold each side's node facts
RULE_MEMO = "_h0_facts"
VERIFIER_MEMO = "_h0_checked"


def h0_sign(
    desc: VarietyDescriptor, cls_: DivisorClass, side: str = RULE_MEMO
) -> H0Fact:
    """The sign of h^0 of ``cls_``, walked through the memo named ``side``:
    ``RULE_MEMO`` for the rules, ``VERIFIER_MEMO`` for the verifiers."""
    if side not in (RULE_MEMO, VERIFIER_MEMO):
        raise ValueError(f"unknown memo {side!r}")
    if cls_.lattice is not desc.lattice:
        raise ValueError("bundle class lives off the descriptor's lattice")
    value, trace = _sign(desc, cls_, side)
    return H0Fact(bundle=cls_.pretty(), value=value, trace=trace)


def _sign(desc: VarietyDescriptor, cls_: DivisorClass, side: str):
    """The sign and unindented trace lines of one node, decided once per
    descriptor and ``side``."""
    facts = getattr(desc, side)
    if facts is None:
        facts = {}
        object.__setattr__(desc, side, facts)
    node = facts.get(cls_.coeffs)
    if node is None:
        node = facts[cls_.coeffs] = _decide(desc, cls_, side)
    return node


def _decide(desc: VarietyDescriptor, cls_: DivisorClass, side: str):
    if desc.dimension == 1 and cls_.coeffs[0] < 0:
        return ZERO, (
            f"h^0({cls_.pretty()}) = 0: negative degree {cls_.coeffs[0]} on a curve",
        )
    if is_known_gg(desc, cls_):
        return POSITIVE, (
            f"h^0({cls_.pretty()}) > 0: the class is certified globally generated",
        )
    if isinstance(desc.provenance, Product):
        return _sign_product(desc, cls_, side)
    if isinstance(desc.provenance, Cover):
        return _sign_cover(desc, cls_, side)
    return UNKNOWN, (f"h^0({cls_.pretty()}): no applicable decomposition",)


def _sign_product(desc: VarietyDescriptor, cls_: DivisorClass, side: str):
    trace = [
        f"h^0({cls_.pretty()}) on a product: Kunneth, h^0 of a box-sum is the "
        "product over the factors"
    ]
    values = []
    for parent, part in zip(desc.provenance.parents, split_product_class(desc, cls_)):
        v, t = _sign(parent, part, side)
        values.append(v)
        trace += ["  " + line for line in t]
    if ZERO in values:
        trace.append("one factor vanishes, so the product vanishes")
        return ZERO, tuple(trace)
    if all(v == POSITIVE for v in values):
        trace.append("every factor is positive, so the product is positive")
        return POSITIVE, tuple(trace)
    trace.append("no factor vanishes and not all are certified positive")
    return UNKNOWN, tuple(trace)


def _sign_cover(desc: VarietyDescriptor, cls_: DivisorClass, side: str):
    cover = desc.provenance
    parent, branch, degree = cover.parents[0], cover.branch, cover.degree
    trace = [
        f"h^0({cls_.pretty()}) on a degree-{degree} cyclic cover: the "
        "pushforward of the structure sheaf splits as the sum of L^(-i), "
        f"i = 0..{degree - 1}, with L = {branch.pretty()}"
    ]
    values = []
    for i in range(degree):
        downstairs = parent.lattice.make(
            tuple(c - i * b for c, b in zip(cls_.coeffs, branch.coeffs))
        )
        v, t = _sign(parent, downstairs, side)
        values.append(v)
        trace += ["  " + line for line in t]
    if all(v == ZERO for v in values):
        trace.append("every summand vanishes, so the pullback has no sections")
        return ZERO, tuple(trace)
    if POSITIVE in values:
        trace.append("some summand is positive, so the pullback has sections")
        return POSITIVE, tuple(trace)
    trace.append("the summands are not all decided")
    return UNKNOWN, tuple(trace)
