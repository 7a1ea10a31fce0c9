"""Lattice and intersection-form arithmetic.

The oracle below expands multilinear forms naively from the raw input
data (dense tensor, all index tuples), independently of the sparse
representation under test.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from confn.lattice import IntersectionForm, LatticeError, PicardLattice


def dense_tensor(rank: int, degree: int, sparse: dict) -> dict:
    """Symmetric completion of a weakly-increasing sparse entry dict."""
    table = {}
    for key, value in sparse.items():
        for perm in itertools.permutations(key):
            table[perm] = value
    for idx in itertools.product(range(rank), repeat=degree):
        table.setdefault(idx, 0)
    return table


def oracle_evaluate(rank: int, degree: int, sparse: dict, vectors) -> int:
    table = dense_tensor(rank, degree, sparse)
    total = 0
    for idx in itertools.product(range(rank), repeat=degree):
        term = table[idx]
        for slot, i in enumerate(idx):
            term *= vectors[slot][i]
        total += term
    return total


def surface(rows):
    lat = PicardLattice(tuple(f"B{i}" for i in range(len(rows))))
    return lat, IntersectionForm.from_gram(lat, rows)


# ---------------------------------------------------------------- basics


def test_divisor_arithmetic_and_pretty():
    lat = PicardLattice(("H", "E1", "E2"))
    d = lat.make([3, -1, -1])
    assert d.pretty() == "3*H - E1 - E2"
    assert (d + d).coeffs == (6, -2, -2)
    assert (d - d).is_zero()
    assert (-d).coeffs == (-3, 1, 1)
    assert (d * 2).coeffs == (6, -2, -2)


def test_mixed_lattice_arithmetic_rejected():
    a = PicardLattice(("H",))
    b = PicardLattice(("H",))
    with pytest.raises(LatticeError):
        a.make([1]) + b.make([1])


def test_make_checks_length():
    lat = PicardLattice(("H", "E"))
    with pytest.raises(LatticeError):
        lat.make([1])


def test_make_refuses_a_non_integer_coefficient():
    lat = PicardLattice(("H", "E"))
    with pytest.raises(LatticeError, match=r"^non-integer coefficient 0\.5$"):
        lat.make([0.5, 1])


def test_make_refuses_a_bool_coefficient():
    # a bool is an int to isinstance, so make([True, 0]) built H
    lat = PicardLattice(("H", "E"))
    with pytest.raises(LatticeError, match=r"^non-integer coefficient True$"):
        lat.make([True, 0])


# ------------------------------------------------- forms against oracle


def test_hirzebruch_gram_values():
    # basis (S, F): (S^2) = -1, (S.F) = 1, (F^2) = 0
    lat, form = surface([[-1, 1], [1, 0]])
    k = lat.make([-2, -3])
    assert form.evaluate(k, k) == 8
    assert form.evaluate(lat.make([1, 2]), lat.make([1, 2])) == 3
    assert form.evaluate(lat.make([1, 0]), lat.make([0, 1])) == 1


def test_delpezzo_gram_values():
    lat, form = surface([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
    k = lat.make([-3, 1, 1])
    big = lat.make([3, -1, -1])
    assert form.evaluate(k, k) == 7
    assert form.evaluate(big, big) == 7
    assert form.evaluate(k, big) == -7


def test_cubic_form_rank_one():
    lat = PicardLattice(("H",))
    form = IntersectionForm.rank_one(lat, 3, 1)
    h = lat.make([1])
    assert form.evaluate(h, h * 2, h * 3) == 6
    quartic = IntersectionForm.rank_one(lat, 4, 3)
    assert quartic.self_intersection(h * 2, 4) == 48


def test_evaluate_matches_oracle_random_grams():
    rng = random.Random(20251101)
    for _ in range(250):
        rank = rng.randint(1, 3)
        rows = [[0] * rank for _ in range(rank)]
        for i in range(rank):
            for j in range(i, rank):
                rows[i][j] = rows[j][i] = rng.randint(-5, 5)
        lat, form = surface(rows)
        sparse = {(i, j): rows[i][j] for i in range(rank) for j in range(i, rank)}
        u = [rng.randint(-4, 4) for _ in range(rank)]
        v = [rng.randint(-4, 4) for _ in range(rank)]
        expected = oracle_evaluate(rank, 2, sparse, [u, v])
        assert form.evaluate(lat.make(u), lat.make(v)) == expected


def test_evaluate_matches_oracle_cubic_sparse():
    rng = random.Random(7)
    lat = PicardLattice(("A", "B"))
    for _ in range(120):
        sparse = {}
        for key in [(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)]:
            value = rng.randint(-3, 3)
            if value:
                sparse[key] = value
        form = IntersectionForm.from_entries(lat, 3, sparse)
        vecs = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(3)]
        expected = oracle_evaluate(2, 3, sparse, vecs)
        got = form.evaluate(*(lat.make(v) for v in vecs))
        assert got == expected


def test_evaluate_symmetric_in_arguments():
    # 1000 seeded permutation checks across ranks and degrees
    rng = random.Random(991)
    cases = 0
    while cases < 1000:
        rank = rng.randint(1, 3)
        degree = rng.randint(2, 3)
        lat = PicardLattice(tuple(f"B{i}" for i in range(rank)))
        sparse = {}
        for key in itertools.combinations_with_replacement(range(rank), degree):
            value = rng.randint(-3, 3)
            if value:
                sparse[key] = value
        form = IntersectionForm.from_entries(lat, degree, sparse)
        vecs = [
            lat.make([rng.randint(-3, 3) for _ in range(rank)])
            for _ in range(degree)
        ]
        base = form.evaluate(*vecs)
        for perm in itertools.permutations(vecs):
            assert form.evaluate(*perm) == base
            cases += 1


@given(
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
def test_evaluate_linear_in_first_slot(a, b, c, x, y):
    lat, form = surface([[a, b], [b, c]])
    u = lat.make([x, y])
    v = lat.make([1, -2])
    w = lat.make([3, 1])
    assert form.evaluate(u + w, v) == form.evaluate(u, v) + form.evaluate(w, v)


def test_gram_round_trip():
    rows = [[2, 1, 0], [1, -4, 3], [0, 3, 6]]
    _, form = surface(rows)
    assert form.gram() == rows


def test_from_gram_rejects_asymmetric():
    lat = PicardLattice(("A", "B"))
    with pytest.raises(LatticeError):
        IntersectionForm.from_gram(lat, [[1, 2], [3, 4]])


def test_a_non_integer_intersection_number_is_refused_not_truncated():
    lat = PicardLattice(("H",))
    # int(5.9) would store (H^2) = 5
    message = r"^intersection number 5\.9 at multi-index \(0, 0\) is not an integer$"
    with pytest.raises(LatticeError, match=message):
        IntersectionForm.from_gram(lat, [[5.9]])
    with pytest.raises(LatticeError, match=r"non-integer index 0\.0$"):
        IntersectionForm.from_entries(lat, 2, {(0.0, 0): 1})


def test_a_bool_index_or_intersection_number_is_refused():
    lat = PicardLattice(("A", "B"))
    # the key (True, False) was stored as (False, True)
    message = r"^multi-index \(True, False\) has a non-integer index True$"
    with pytest.raises(LatticeError, match=message):
        IntersectionForm.from_entries(lat, 2, {(True, False): 3})
    message = r"^intersection number True at multi-index \(0, 1\) is not an integer$"
    with pytest.raises(LatticeError, match=message):
        IntersectionForm.from_entries(lat, 2, {(0, 1): True})


def test_entry_ignores_index_order():
    lat = PicardLattice(("A", "B"))
    form = IntersectionForm.from_entries(lat, 2, {(0, 1): 5})
    assert form.entry((1, 0)) == 5
    assert form.entry((0, 0)) == 0


@pytest.mark.parametrize(
    "idx, message",
    [
        # int() would read (0, 1) and (1, 1)
        ((0.7, 1.9), r"^multi-index \(0\.7, 1\.9\) has a non-integer index 0\.7$"),
        (("1", "1"), r"^multi-index \('1', '1'\) has a non-integer index '1'$"),
        # a negative index would wrap to the last basis class
        ((-1, 0), r"^basis index -1 out of range for rank 2$"),
        ((0, 2), r"^basis index 2 out of range for rank 2$"),
        # a bool would read as 0 or 1
        ((True, 0), r"^multi-index \(True, 0\) has a non-integer index True$"),
    ],
    ids=["float", "str", "negative", "past_the_end", "bool"],
)
def test_entry_refuses_an_index_it_would_truncate_or_wrap(idx, message):
    lat = PicardLattice(("S", "F"))
    form = IntersectionForm.from_gram(lat, [[-1, 1], [1, 0]])
    with pytest.raises(LatticeError, match=message):
        form.entry(idx)
    assert form.entry((0, 1)) == 1


@pytest.mark.parametrize(
    "i, message",
    [
        (-1, r"^basis index -1 out of range for rank 2$"),
        (2, r"^basis index 2 out of range for rank 2$"),
        (1.0, r"^basis index 1\.0 out of range for rank 2$"),
        # a bool is an int to isinstance, so True returned B
        (True, r"^basis index True out of range for rank 2$"),
    ],
    ids=["negative", "past_the_end", "float", "bool"],
)
def test_basis_class_refuses_an_index_out_of_range(i, message):
    lat = PicardLattice(("A", "B"))
    with pytest.raises(LatticeError, match=message):
        lat.basis_class(i)
    assert lat.basis_class(1).coeffs == (0, 1)


def test_is_even_looks_at_diagonal():
    _, even = surface([[2, 1], [1, 0]])
    _, odd = surface([[2, 1], [1, 1]])
    assert even.is_even()
    assert not odd.is_even()


def test_contract_agrees_with_full_evaluation():
    lat = PicardLattice(("H",))
    cubic = IntersectionForm.rank_one(lat, 3, 2)
    h = lat.make([1])
    restricted = cubic.contract(h * 5)
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert restricted.evaluate(h * a, h * b) == cubic.evaluate(
                h * a, h * b, h * 5
            )


def test_scaled_multiplies_every_entry():
    rows = [[1, 2], [2, -3]]
    _, form = surface(rows)
    doubled = form.scaled(2)
    assert doubled.gram() == [[2, 4], [4, -6]]


# ---------------------------------------------------------------- gcd


def test_form_gcd_of_the_entries():
    _, form = surface([[24, 48], [48, -24]])
    assert form.gcd() == 24
    _, negative = surface([[-6]])
    assert negative.gcd() == 6


def test_form_gcd_reads_the_whole_lattice():
    lat, form = surface([[5, 0], [0, -1]])
    h = lat.make([1, 0])
    assert form.evaluate(h, h) == 5
    assert form.gcd() == 1


def test_form_gcd_of_a_zero_form_is_zero():
    _, form = surface([[0, 0], [0, 0]])
    assert form.gcd() == 0


def test_form_gcd_divides_every_evaluation_random():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.choice([2, 3, 5, 7, 24])
        rank = rng.randint(1, 3)
        degree = rng.randint(2, 3)
        sparse = {
            key: n * rng.randint(-4, 4)
            for key in itertools.combinations_with_replacement(range(rank), degree)
        }
        lat = PicardLattice(tuple(f"B{i}" for i in range(rank)))
        form = IntersectionForm.from_entries(lat, degree, sparse)
        assert form.gcd() == math.gcd(*sparse.values())
        assert form.gcd() % n == 0
        vectors = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(degree)]
        value = form.evaluate(*(lat.make(v) for v in vectors))
        assert value == oracle_evaluate(rank, degree, sparse, vectors)
        if form.gcd():
            assert value % form.gcd() == 0
        else:
            assert value == 0
