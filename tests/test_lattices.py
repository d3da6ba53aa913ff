from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvtorus.errors import DimensionMismatch, Inconsistent, Singular
from nvtorus.lattices import (
    INFINITE,
    coset_transversal,
    hnf,
    integer_kernel,
    lattice_contains,
    lattice_index,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_vec,
    ratmat,
    solve_exact,
)

from helpers import brute_force_contains, det_by_cofactors


def test_hnf_already_canonical():
    assert hnf([(2, 0), (0, 1)], 2).rows == ((2, 0), (0, 1))


def test_hnf_gcd_collapse():
    lattice = hnf([(2, 0), (3, 0)], 2)
    assert lattice.rows == ((1, 0),)
    # (1,0) really is an integer combination of the generators
    assert brute_force_contains([(2, 0), (3, 0)], 2, (1, 0))


def test_hnf_empty():
    assert hnf([], 2).rows == ()


def test_hnf_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hnf([(1, 2, 3)], 2)


def test_contains_examples():
    lattice = hnf([(2, 0), (0, 1)], 2)
    assert lattice_contains(lattice, (4, 7))
    assert not lattice_contains(lattice, (1, 0))
    assert not lattice_contains(hnf([(1, 1)], 2), (2, 3))
    with pytest.raises(DimensionMismatch):
        lattice_contains(lattice, (1, 2, 3))


def test_index_examples():
    assert lattice_index(hnf([(2, 0), (0, 1)], 2)) == 2
    assert lattice_index(hnf([(1, 0), (0, 1)], 2)) == 1
    assert lattice_index(hnf([(1, 1)], 2)) == INFINITE


def test_solve_examples():
    assert solve_exact(mat_identity(2), [[3, 1], [4, 1]]) == ratmat([[3, 1], [4, 1]])
    assert solve_exact([[2, 0], [0, 1]], [[1], [0]]) == ((Fraction(1, 2),), (Fraction(0),))
    with pytest.raises(Inconsistent):
        solve_exact([[1, 0], [1, 0]], [[1], [2]])
    with pytest.raises(Singular):
        solve_exact([[1, 0], [1, 0]], [[1], [1]])


def test_solve_overdetermined_consistent():
    assert solve_exact([[1, 0], [0, 1], [1, 1]], [[1], [2], [3]]) == ratmat([[1], [2]])
    with pytest.raises(Inconsistent):
        solve_exact([[1, 0], [0, 1], [1, 1]], [[1], [2], [4]])


def test_integer_kernel_examples():
    assert integer_kernel([[0, 0], [0, 0]]).rows == ((1, 0), (0, 1))
    assert integer_kernel(mat_identity(2)).rows == ()
    kernel = integer_kernel([[Fraction(1, 2), 0], [0, 0]])
    assert kernel.rows == ((0, 1),)
    assert mat_vec([[Fraction(1, 2), 0], [0, 0]], (0, 1)) == (0, 0)
    assert mat_vec([[Fraction(1, 2), 0], [0, 0]], (1, 0)) != (0, 0)


small_vecs = st.integers(-6, 6)


@st.composite
def generator_sets(draw, k):
    count = draw(st.integers(0, k + 1))
    return [
        tuple(draw(small_vecs) for _ in range(k)) for _ in range(count)
    ]


@given(st.integers(2, 3).flatmap(lambda k: st.tuples(st.just(k), generator_sets(k))))
def test_hnf_is_a_closure_operator(data):
    k, gens = data
    lattice = hnf(gens, k)
    assert hnf(lattice.rows, k) == lattice


@given(st.integers(2, 3).flatmap(lambda k: st.tuples(st.just(k), generator_sets(k))))
@settings(max_examples=60)
def test_contains_matches_brute_force(data):
    k, gens = data
    lattice = hnf(gens, k)
    if gens:
        assert lattice_contains(lattice, tuple(2 * g for g in gens[0]))
    # integer combinations are contained; contained vectors are reachable
    import random

    rng = random.Random(hash(tuple(map(tuple, gens))) & 0xFFFF)
    for _ in range(5):
        coeffs = [rng.randint(-4, 4) for _ in gens]
        v = tuple(sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(k))
        assert lattice_contains(lattice, v)
    for _ in range(5):
        v = tuple(rng.randint(-5, 5) for _ in range(k))
        if lattice_contains(lattice, v) and lattice.rank:
            assert brute_force_contains(lattice.rows, k, v, bound=8)


@given(
    st.integers(2, 3).flatmap(
        lambda k: st.lists(
            st.tuples(*([small_vecs] * k)), min_size=k, max_size=k
        ).filter(lambda rows: det_by_cofactors(rows) != 0)
    )
)
def test_index_equals_abs_det(rows):
    k = len(rows)
    assert lattice_index(hnf(rows, k)) == abs(det_by_cofactors(rows))


@given(
    st.integers(2, 3).flatmap(
        lambda k: st.lists(
            st.tuples(*([st.fractions(min_value=-3, max_value=3, max_denominator=4)] * k)),
            min_size=1,
            max_size=3,
        )
    )
)
@settings(max_examples=60)
def test_integer_kernel_properties(rows):
    k = len(rows[0])
    kernel = integer_kernel(rows)
    for generator in kernel.rows:
        assert all(x == 0 for x in mat_vec(rows, generator))
    # every integer solution lies in the kernel lattice: all of a small box,
    # plus random draws from a wider one
    import itertools
    import random

    candidates = list(itertools.product(range(-3, 4), repeat=k))
    rng = random.Random(0)
    candidates += [
        tuple(rng.randint(-10, 10) for _ in range(k)) for _ in range(40)
    ]
    for z in candidates:
        if all(x == 0 for x in mat_vec(rows, z)):
            assert lattice_contains(kernel, z)


@given(
    st.lists(
        st.tuples(small_vecs, small_vecs, small_vecs), min_size=3, max_size=3
    ).filter(lambda rows: det_by_cofactors(rows) != 0)
)
@settings(max_examples=40)
def test_solve_and_inverse_agree(rows):
    inverse = mat_inverse(rows)
    assert mat_mul(rows, inverse) == mat_identity(3)
    assert mat_det(rows) == det_by_cofactors([list(map(Fraction, r)) for r in rows])


def test_mat_det_non_square():
    with pytest.raises(DimensionMismatch):
        mat_det([[1, 2, 3], [4, 5, 6]])


def test_coset_transversal_of_a_small_lattice():
    lattice = hnf([(2, 1), (0, 3)], 2)
    assert coset_transversal(lattice) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]


def test_coset_transversal_rejects_infinite_index():
    with pytest.raises(Singular):
        coset_transversal(hnf([(1, 2)], 2))


@given(st.integers(0, 10_000))
@settings(max_examples=60)
def test_coset_transversal_properties(seed):
    import itertools
    import random

    rng = random.Random(seed)
    k = rng.randint(1, 3)
    generators = [
        tuple(rng.randint(0, 3) for _ in range(k)) for _ in range(rng.randint(0, 3))
    ]
    generators += [
        tuple(rng.randint(1, 4) if c == j else 0 for c in range(k)) for j in range(k)
    ]
    lattice = hnf(generators, k)
    transversal = coset_transversal(lattice)
    assert len(transversal) == lattice_index(lattice)
    assert transversal == sorted(transversal)
    for a, b in itertools.combinations(transversal, 2):
        assert not lattice_contains(lattice, tuple(x - y for x, y in zip(a, b)))
    # the box of the orders of the basis vectors modulo the lattice
    orders = [
        next(m for m in itertools.count(1) if lattice_contains(lattice, (0,) * j + (m,) + (0,) * (k - j - 1)))
        for j in range(k)
    ]
    for z in itertools.product(*(range(o) for o in orders)):
        (reduced,) = [
            t for t in transversal
            if lattice_contains(lattice, tuple(x - y for x, y in zip(z, t)))
        ]
        assert reduced <= z
