"""Sign-of-h^0 derivations along construction traces."""

import pytest

from confn.constructions import (
    box_sum,
    cyclic_cover,
    product,
    product_blocks,
    split_product_class,
)
from confn.descriptors import (
    Cover,
    Product,
    curve,
    del_pezzo7,
    hirzebruch1,
    is_known_gg,
    projective_space,
)
from confn.kunneth import POSITIVE, UNKNOWN, ZERO, h0_sign


def test_negative_degree_on_curve_vanishes():
    p1 = projective_space(1)
    fact = h0_sign(p1, p1.lattice.make([-1]))
    assert fact.value == ZERO
    assert "negative degree" in fact.trace[0]


def test_globally_generated_class_has_sections():
    f1 = hirzebruch1()
    fact = h0_sign(f1, f1.lattice.make([1, 2]))
    assert fact.value == POSITIVE
    assert "globally generated" in fact.trace[0]


def test_opaque_class_stays_unknown():
    f1 = hirzebruch1()
    # not nef, no decomposition applies
    fact = h0_sign(f1, f1.lattice.make([2, 1]))
    assert fact.value == UNKNOWN


def test_product_vanishing_through_one_factor():
    f1 = hirzebruch1()
    p1 = projective_space(1)
    x = product(f1, p1)
    # canonical of the product: fiber component has degree -2 on P^1
    fact = h0_sign(x, x.canonical)
    assert fact.value == ZERO
    assert any("one factor vanishes" in line for line in fact.trace)


def test_product_positive_needs_all_factors():
    p1 = projective_space(1)
    p2 = projective_space(2)
    x = product(p2, p1)
    good = box_sum(x, p2.lattice.make([3]), p1.lattice.make([0]))
    fact = h0_sign(x, good)
    # the box-sum is nef on a product of exact descriptors, so the
    # globally generated shortcut answers before Kunneth does
    assert fact.value == POSITIVE
    mixed = box_sum(x, p2.lattice.make([-1]), p1.lattice.make([5]))
    assert h0_sign(x, mixed).value == UNKNOWN


def test_product_unknown_when_no_factor_decides():
    g2 = curve(2)
    p1 = projective_space(1)
    x = product(g2, p1)
    cls_ = box_sum(x, g2.lattice.make([1]), p1.lattice.make([1]))
    fact = h0_sign(x, cls_)
    assert fact.value == UNKNOWN
    assert any("not all are certified positive" in line for line in fact.trace)


def _p1_cube():
    return product(product(projective_space(1), projective_space(1)), projective_space(1))


def test_cover_splits_into_branch_twists():
    # degree-2 cover branched over |2L|: h^0 of the canonical pullback
    # splits as h^0(K + L) + h^0(K), both zero here
    base = _p1_cube()
    ell = base.lattice.make([1, 1, 2])
    cover = cyclic_cover(base, ell, 2, assume=("pic_pullback_iso",))
    assert cover.canonical.coeffs == (-1, -1, 0)
    fact = h0_sign(cover, cover.canonical)
    assert fact.value == ZERO
    assert any("splits as the sum" in line for line in fact.trace)
    # each summand dies through a vanishing P^1 factor
    assert sum("one factor vanishes" in line for line in fact.trace) >= 2


def test_cover_positive_when_a_summand_is_positive():
    p4 = projective_space(4)
    h = p4.lattice.make([1])
    x = cyclic_cover(p4, h, 7)
    # K_X = H pulls back from O(1); the i = 0 summand is h^0(P^4, O(1)) > 0
    fact = h0_sign(x, x.canonical)
    assert fact.value == POSITIVE
    assert any("some summand is positive" in line for line in fact.trace)


def test_cover_nef_shortcut_and_split_vanishing():
    base = _p1_cube()
    ell = base.lattice.make([1, 1, 1])
    cover = cyclic_cover(base, ell, 2, assume=("pic_pullback_iso",))
    probe = cover.lattice.make([0, 0, 3])
    # nef, hence certified globally generated before any splitting
    fact = h0_sign(cover, probe)
    assert fact.value == POSITIVE
    awkward = cover.lattice.make([2, -1, 0])
    mixed = h0_sign(cover, awkward)
    assert mixed.value == ZERO  # both summands have a vanishing P^1 factor


def test_wrong_lattice_rejected():
    p1 = projective_space(1)
    p2 = projective_space(2)
    with pytest.raises(ValueError):
        h0_sign(p1, p2.lattice.make([1]))


# ------------------------------------------- the walk without the per-call memo


def _walked(desc, cls_, depth=0):
    """The sign and trace of h^0, by the recursion that walks every node
    of the tree, repeated factors included: the reference for the memo."""
    pad = "  " * depth
    head = f"h^0({cls_.pretty()})"
    if desc.dimension == 1 and cls_.coeffs[0] < 0:
        return ZERO, [pad + f"{head} = 0: negative degree {cls_.coeffs[0]} on a curve"]
    if is_known_gg(desc, cls_):
        return POSITIVE, [pad + f"{head} > 0: the class is certified globally generated"]
    node = desc.provenance
    if isinstance(node, Product):
        trace = [
            pad + f"{head} on a product: Kunneth, h^0 of a box-sum is the "
            "product over the factors"
        ]
        values = []
        for (_, parent), part in zip(product_blocks(desc), split_product_class(desc, cls_)):
            v, t = _walked(parent, part, depth + 1)
            values.append(v)
            trace += t
        if ZERO in values:
            return ZERO, trace + [pad + "one factor vanishes, so the product vanishes"]
        if all(v == POSITIVE for v in values):
            return POSITIVE, trace + [pad + "every factor is positive, so the product is positive"]
        return UNKNOWN, trace + [pad + "no factor vanishes and not all are certified positive"]
    if isinstance(node, Cover):
        parent, branch, degree = node.parents[0], node.branch, node.degree
        trace = [
            pad + f"{head} on a degree-{degree} cyclic cover: the "
            "pushforward of the structure sheaf splits as the sum of L^(-i), "
            f"i = 0..{degree - 1}, with L = {branch.pretty()}"
        ]
        values = []
        for i in range(degree):
            downstairs = parent.lattice.make(
                tuple(c - i * b for c, b in zip(cls_.coeffs, branch.coeffs))
            )
            v, t = _walked(parent, downstairs, depth + 1)
            values.append(v)
            trace += t
        if all(v == ZERO for v in values):
            return ZERO, trace + [pad + "every summand vanishes, so the pullback has no sections"]
        if POSITIVE in values:
            return POSITIVE, trace + [pad + "some summand is positive, so the pullback has sections"]
        return UNKNOWN, trace + [pad + "the summands are not all decided"]
    return UNKNOWN, [pad + f"{head}: no applicable decomposition"]


def _doubled(desc, times):
    for _ in range(times):
        desc = product(desc, desc)
    return desc


def _cover_tower():
    """c0 = cyclic_cover(P4, branch = H, degree = 7), d0 = c0 x P1 and
    d(k+1) = dk x dk, up to d4."""
    p4 = projective_space(4)
    c0 = cyclic_cover(p4, p4.lattice.make([1]), 7)
    return _doubled(product(c0, projective_space(1)), 4)


def _uneven_cube():
    """(P1 x P1) x P1 on one P1, which the walk meets at depths 2 and 1,
    with one class: a node is its descriptor, class and depth."""
    p1 = projective_space(1)
    return product(product(p1, p1), p1)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _doubled(projective_space(1), 4),
        lambda: _doubled(hirzebruch1(), 2),
        lambda: product(del_pezzo7(), del_pezzo7()),
        lambda: _doubled(del_pezzo7(), 1),
        _cover_tower,
        _uneven_cube,
    ],
    ids=["p1_16", "f1_4", "dp7_times_dp7", "dp7_squared", "cover_tower", "uneven_cube"],
)
def test_the_memo_walk_agrees_with_the_full_walk(make):
    x = make()
    classes = [x.canonical, x.lattice.make([-c for c in x.canonical.coeffs])]
    classes += [x.lattice.make([(-1) ** i * (i % 3) for i in range(x.rank)])]
    for cls_ in classes:
        fact = h0_sign(x, cls_)
        assert (fact.value, list(fact.trace)) == _walked(x, cls_)


def test_the_cover_tower_trace_has_a_line_per_node():
    x = _cover_tower()
    fact = h0_sign(x, x.canonical)
    assert fact.value == ZERO and len(fact.trace) == 222
