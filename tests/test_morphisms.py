import gc
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvtorus.affine import decide_affine_irreducible, torsion_witness
from nvtorus.constructions import (
    cyclic_four_morphism,
    klein_four_morphism,
    rotation_morphism,
    translated_morphism,
)
from nvtorus.errors import IndexOutOfRange, NonCommutingImages
from nvtorus.lattices import lattice_contains, lattice_index, mat_vec, ratmat
from nvtorus.morphisms import (
    TorusMorphism,
    basis_orders,
    cycle_length,
    decompose,
    evaluate,
    index_orbits,
    linear_part,
    pure_permutation_morphism,
    recompose,
    stabilizer,
    translation_component,
    validate,
)
from nvtorus.nielsen import nielsen_of_morphism
from nvtorus.sampling import (
    random_morphism,
    random_realization,
    random_reducible_affine,
)
from nvtorus.wreath import Permutation, WreathElement, compose

from helpers import box_vectors


def swap_morphism():
    """k=2, n=2: first basis direction swaps the slots, second acts trivially."""
    return pure_permutation_morphism(
        2, [Permutation((2, 1)), Permutation.identity(2)]
    )


def positive_affine_morphism():
    image1 = WreathElement(2, 2, ((1, 0), (0, 0)), Permutation((2, 1)))
    return TorusMorphism(2, 2, (image1, WreathElement.identity(2, 2)))


random_psis = st.builds(
    lambda seed, k, n: random_morphism(random.Random(seed), k, n),
    st.integers(0, 10_000),
    st.integers(1, 3),
    st.integers(1, 4),
)


# -- validate ----------------------------------------------------------------


def test_validate_accepts_identity_pair():
    validate(swap_morphism())


def test_validate_accepts_rotation_data():
    validate(rotation_morphism(4, 2))


def test_validate_rejects_noncommuting():
    image1 = WreathElement(2, 2, ((1, 0), (0, 0)), Permutation((2, 1)))
    image2 = WreathElement(2, 2, ((0, 1), (0, 0)), Permutation.identity(2))
    with pytest.raises(NonCommutingImages):
        validate(TorusMorphism(2, 2, (image1, image2)))


# -- evaluate ----------------------------------------------------------------


def test_evaluate_at_zero():
    psi = positive_affine_morphism()
    assert evaluate(psi, (0, 0)) == WreathElement.identity(2, 2)


def test_evaluate_translated_formula():
    # value at (z1, z2): every slot translates by (z1, 0), slots cycle z1 times
    psi = translated_morphism(3)
    value = evaluate(psi, (2, 5))
    assert value.trans == ((2, 0), (2, 0), (2, 0))
    assert value.perm == psi.images[0].perm * psi.images[0].perm


@given(random_psis, st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_evaluate_is_a_morphism(psi, seed):
    rng = random.Random(seed)
    z1 = tuple(rng.randint(-4, 4) for _ in range(psi.k))
    z2 = tuple(rng.randint(-4, 4) for _ in range(psi.k))
    combined = tuple(a + b for a, b in zip(z1, z2))
    assert evaluate(psi, combined) == compose(evaluate(psi, z1), evaluate(psi, z2))


# -- orbits ------------------------------------------------------------------


def test_orbits_trivial():
    psi = pure_permutation_morphism(2, [Permutation.identity(3)] * 2)
    report = index_orbits(psi)
    assert report.orbits == ((1,), (2,), (3,))
    assert not report.irreducible


def test_orbits_rotation_is_irreducible():
    report = index_orbits(rotation_morphism(4, 2))
    assert report.orbits == ((1, 2, 3, 4),)
    assert report.irreducible


def test_orbits_mixed():
    psi = pure_permutation_morphism(
        2, [Permutation.parse("(1 2)", 3), Permutation.identity(3)]
    )
    assert index_orbits(psi).orbits == ((1, 2), (3,))


# -- stabilizers -------------------------------------------------------------


def test_stabilizer_trivial_action():
    psi = pure_permutation_morphism(2, [Permutation.identity(2)] * 2)
    assert stabilizer(psi, 1).rows == ((1, 0), (0, 1))


def test_stabilizer_swap():
    lattice = stabilizer(swap_morphism(), 1)
    assert lattice.rows == ((2, 0), (0, 1))
    assert lattice_index(lattice) == 2


def test_stabilizer_klein():
    lattice = stabilizer(klein_four_morphism(), 1)
    assert lattice.rows == ((2, 0), (0, 2))
    assert lattice_index(lattice) == 4


def test_stabilizer_agrees_with_direct_check():
    mixed = pure_permutation_morphism(
        2, [Permutation.parse("(1 2)", 4), Permutation.parse("(3 4)", 4)]
    )
    for psi in (swap_morphism(), klein_four_morphism(), translated_morphism(3), mixed):
        for i in range(1, psi.n + 1):
            lattice = stabilizer(psi, i)
            for z in box_vectors(psi.k, 4):
                fixes = evaluate(psi, z).perm.apply(i) == i
                assert lattice_contains(lattice, z) == fixes


def test_stabilizer_index_error():
    with pytest.raises(IndexOutOfRange):
        stabilizer(swap_morphism(), 3)


# -- cycle lengths and translation components --------------------------------


def test_cycle_length_examples():
    psi = rotation_morphism(5, 2)
    assert cycle_length(psi, 1, (5, 0)) == 1  # inside the stabilizer
    assert cycle_length(psi, 1, (1, 0)) == 5
    assert cycle_length(cyclic_four_morphism(), 1, (1, 1)) == 4


def test_cycle_length_lands_in_stabilizer():
    psi = cyclic_four_morphism()
    for z in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        length = cycle_length(psi, 1, z)
        assert lattice_contains(stabilizer(psi, 1), tuple(length * a for a in z))


def test_translation_component_examples():
    psi = rotation_morphism(3, 2)
    for i in (1, 2, 3):
        assert translation_component(psi, i, (2, 1)) == (0, 0)
    psi = translated_morphism(3)
    for i in (1, 2, 3):
        assert translation_component(psi, i, (4, -1)) == (4, 0)


@given(random_psis, st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_translation_cocycle_identity(psi, seed):
    rng = random.Random(seed)
    z1 = tuple(rng.randint(-3, 3) for _ in range(psi.k))
    z2 = tuple(rng.randint(-3, 3) for _ in range(psi.k))
    i = rng.randint(1, psi.n)
    combined = tuple(a + b for a, b in zip(z1, z2))
    moved = evaluate(psi, z1).perm.inverse().apply(i)
    assert translation_component(psi, i, combined) == tuple(
        a + b
        for a, b in zip(
            translation_component(psi, i, z1), translation_component(psi, moved, z2)
        )
    )


@given(random_psis, st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_cycle_sum_identity(psi, seed):
    rng = random.Random(seed)
    z = tuple(rng.randint(-3, 3) for _ in range(psi.k))
    i = rng.randint(1, psi.n)
    length = cycle_length(psi, i, z)
    perm_inv = evaluate(psi, z).perm.inverse()
    total = [0] * psi.k
    slot = i
    for _ in range(length):
        part = translation_component(psi, slot, z)
        total = [a + b for a, b in zip(total, part)]
        slot = perm_inv.apply(slot)
    scaled = tuple(length * a for a in z)
    assert translation_component(psi, i, scaled) == tuple(total)


# -- linear parts -------------------------------------------------------------


def test_linear_part_zero_translations():
    psi = rotation_morphism(4, 2)
    assert linear_part(psi, 1) == ratmat([[0, 0], [0, 0]])


def test_linear_part_translated():
    psi = translated_morphism(2)
    assert linear_part(psi, 1) == ratmat([[1, 0], [0, 0]])


def test_linear_part_positive_case():
    psi = positive_affine_morphism()
    matrix = linear_part(psi, 1)
    assert matrix == ratmat([[Fraction(1, 2), 0], [0, 0]])
    for row in stabilizer(psi, 1).rows:
        assert mat_vec(matrix, row) == tuple(
            Fraction(a) for a in translation_component(psi, 1, row)
        )


# -- same-orbit slots share structure ----------------------------------------


@given(random_psis)
@settings(max_examples=60, deadline=None)
def test_same_orbit_slots_share_everything(psi):
    rng = random.Random(13)
    for orbit in index_orbits(psi).orbits:
        base = stabilizer(psi, orbit[0])
        for i in orbit[1:]:
            assert stabilizer(psi, i) == base
        for _ in range(3):
            z = tuple(rng.randint(-3, 3) for _ in range(psi.k))
            lengths = {cycle_length(psi, i, z) for i in orbit}
            assert len(lengths) == 1
        for row in base.rows:
            values = {translation_component(psi, i, row) for i in orbit}
            assert len(values) == 1
        # and on a random stabilizer element
        combo = [0] * psi.k
        for row in base.rows:
            c = rng.randint(-2, 2)
            combo = [a + c * b for a, b in zip(combo, row)]
        values = {translation_component(psi, i, tuple(combo)) for i in orbit}
        assert len(values) == 1


# -- orders and decomposition --------------------------------------------------


def test_basis_orders():
    assert basis_orders(rotation_morphism(4, 2)) == (4, 1)
    psi = pure_permutation_morphism(
        2, [Permutation.parse("(1 2)", 3), Permutation.identity(3)]
    )
    assert basis_orders(psi) == (2, 1)
    assert basis_orders(psi, (3,)) == (1, 1)
    assert basis_orders(psi, (1, 2)) == (2, 1)


def test_decompose_irreducible_is_identity():
    psi = rotation_morphism(3, 2)
    parts = decompose(psi)
    assert len(parts) == 1
    component, index_map = parts[0]
    assert component == psi
    assert index_map == (1, 2, 3)


def test_decompose_mixed():
    psi = pure_permutation_morphism(
        2, [Permutation.parse("(1 2)", 3), Permutation.identity(3)]
    )
    parts = decompose(psi)
    assert [component.n for component, _ in parts] == [2, 1]
    assert [index_map for _, index_map in parts] == [(1, 2), (3,)]
    assert index_orbits(parts[0][0]).irreducible


def test_decompose_singletons():
    psi = pure_permutation_morphism(1, [Permutation.identity(3)])
    parts = decompose(psi)
    assert len(parts) == 3
    assert all(component.n == 1 for component, _ in parts)


@given(random_psis)
@settings(max_examples=60, deadline=None)
def test_decompose_recompose_round_trip(psi):
    assert recompose(decompose(psi), psi.k, psi.n) == psi


# -- per-morphism analysis ---------------------------------------------------


def test_analysis_lives_and_dies_with_its_morphism():
    _, _, psi = random_realization(random.Random(7), 2, 4)
    decide_affine_irreducible(psi)
    torsion_witness(psi)
    nielsen_of_morphism(psi)
    ref = weakref.ref(psi)
    del psi
    gc.collect()
    assert ref() is None


def test_decompose_returns_the_same_components():
    psi = random_reducible_affine(random.Random(3), 2, [2, 1, 3])
    first, second = decompose(psi), decompose(psi)
    assert len(first) == 3
    assert all(a[0] is b[0] for a, b in zip(first, second))


def test_irreducible_component_starts_with_the_analysis_of_psi():
    psi = rotation_morphism(3, 2)
    linear_part(psi, 2)
    ((component, _),) = decompose(psi)
    assert index_orbits(component) is index_orbits(psi)
    assert stabilizer(component, 2) is stabilizer(psi, 2)
    assert linear_part(component, 2) is linear_part(psi, 2)
