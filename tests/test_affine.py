import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvtorus import affine, morphisms
from nvtorus.affine import (
    AffineRealization,
    Outcome,
    Witness,
    affine_data,
    check_necessary,
    conjugate_morphism,
    construct_realization,
    cycle_condition_violations,
    decide_affine_irreducible,
    diagnose_realization,
    has_torsion_image,
    induced_morphism,
    rebase_lift,
    representative_set,
    scan_full_box,
    torsion_witness,
    verify_realization,
)
from nvtorus.constructions import (
    cyclic_four_morphism,
    klein_four_morphism,
    rotation_morphism,
    translated_morphism,
)
from nvtorus.errors import (
    BadDecomposition,
    ConditionViolated,
    NonIntegralTranslation,
    NotIrreducible,
)
from nvtorus.lattices import lattice_contains, ratmat, ratvec
from nvtorus.morphisms import (
    TorusMorphism,
    cycle_length,
    decompose,
    evaluate,
    index_orbits,
    pure_permutation_morphism,
    stabilizer,
    translation_component,
)
from nvtorus.sampling import random_deck, random_morphism, random_realization
from nvtorus.wreath import Permutation, WreathElement, cycle_of

from helpers import (
    box_affine_data,
    box_check_necessary,
    brute_force_torsion_witness,
    naive_power,
)


def positive_affine_morphism():
    image1 = WreathElement(2, 2, ((1, 0), (0, 0)), Permutation((2, 1)))
    return TorusMorphism(2, 2, (image1, WreathElement.identity(2, 2)))


def single_valued(matrix):
    k = len(matrix)
    image = [
        WreathElement(k, 1, (tuple(matrix[r][j] for r in range(k)),), Permutation.identity(1))
        for j in range(k)
    ]
    # column j of the matrix is the translation of basis direction j
    return TorusMorphism(k, 1, tuple(
        WreathElement(k, 1, (tuple(row[j] for row in matrix),), Permutation.identity(1))
        for j in range(k)
    ))


# -- representative sets -------------------------------------------------------


def test_representative_set_trivial():
    psi = pure_permutation_morphism(2, [Permutation.identity(3)] * 2)
    assert representative_set(psi) == []


def test_representative_set_rotation():
    psi = rotation_morphism(3, 2)
    assert representative_set(psi) == [(1, 0), (2, 0)]
    # cross-check: the permutation part is periodic with period (3, 1)
    for z1 in range(-6, 7):
        for z2 in range(-6, 7):
            assert (
                evaluate(psi, (z1, z2)).perm
                == evaluate(psi, (z1 % 3, 0)).perm
            )


def test_representative_set_klein():
    assert representative_set(klein_four_morphism()) == [(0, 1), (1, 0), (1, 1)]


# -- necessary condition -------------------------------------------------------


def test_check_necessary_rotation_witness():
    for n in (2, 3, 4):
        verdict = check_necessary(rotation_morphism(n, 2))
        assert verdict.outcome is Outcome.NECESSARY_FAILS
        assert verdict.witness == Witness(1, (1, 0), n, (0, 0))


def test_check_necessary_translated_witness():
    for n in (2, 3):
        verdict = check_necessary(translated_morphism(n))
        assert verdict.witness == Witness(1, (1, 0), n, (n, 0))


def test_check_necessary_single_valued_passes():
    psi = single_valued([[2, 1], [0, 3]])
    assert check_necessary(psi).outcome is Outcome.NECESSARY_PASSES


def test_witness_is_machine_checkable():
    verdict = check_necessary(rotation_morphism(3, 2))
    w = verdict.witness
    psi = rotation_morphism(3, 2)
    assert not lattice_contains(stabilizer(psi, w.index), w.z)
    scaled = tuple(w.cycle_length * a for a in w.z)
    value = translation_component(psi, w.index, scaled)
    assert value == w.value
    assert all(v % w.cycle_length == 0 for v in value)


# -- decision -------------------------------------------------------------------


def test_decide_rotation_not_affine():
    verdict = decide_affine_irreducible(rotation_morphism(3, 2))
    assert verdict.outcome is Outcome.NOT_AFFINE
    assert verdict.witness == Witness(1, (1, 0), 3, (0, 0))


def test_decide_positive_case():
    verdict = decide_affine_irreducible(positive_affine_morphism())
    assert verdict.outcome is Outcome.AFFINE
    r = verdict.realization
    assert r.matrix == ratmat([[Fraction(1, 2), 0], [0, 0]])
    assert r.points == (ratvec([0, 0]), ratvec([Fraction(-1, 2), 0]))
    assert verify_realization(r, positive_affine_morphism())


def test_decide_klein_not_affine():
    verdict = decide_affine_irreducible(klein_four_morphism())
    assert verdict.outcome is Outcome.NOT_AFFINE


def test_decide_rejects_reducible():
    psi = pure_permutation_morphism(2, [Permutation.identity(2)] * 2)
    with pytest.raises(NotIrreducible):
        decide_affine_irreducible(psi)


# -- construction ---------------------------------------------------------------


def test_construct_single_valued():
    psi = single_valued([[2, 1], [0, 3]])
    r = construct_realization(psi)
    assert r.matrix == ratmat([[2, 1], [0, 3]])
    assert r.points == (ratvec([0, 0]),)


def test_construct_raises_when_condition_fails():
    with pytest.raises(ConditionViolated):
        construct_realization(rotation_morphism(2, 2))


def test_construct_induce_round_trip():
    rng = random.Random(42)
    for _ in range(20):
        k = rng.randint(1, 3)
        n = rng.randint(1, 4)
        realization, perms, psi = random_realization(rng, k, n)
        assert construct_realization(psi) == realization
        assert induced_morphism(realization, perms) == psi
        assert verify_realization(realization, psi)


# -- induced morphisms ------------------------------------------------------------


def test_induced_single_valued_integer_matrix():
    r = AffineRealization(2, 1, [[2, 1], [0, 3]], [(0, 0)])
    psi = induced_morphism(r, (Permutation.identity(1),) * 2)
    assert psi == single_valued([[2, 1], [0, 3]])


def test_induced_rejects_non_integral():
    r = AffineRealization(2, 2, [[Fraction(1, 3), 0], [0, 0]], [(0, 0), (Fraction(1, 2), 0)])
    with pytest.raises(NonIntegralTranslation):
        induced_morphism(r, (Permutation((2, 1)), Permutation.identity(2)))


def test_degenerate_points_rejected_at_verify():
    psi = positive_affine_morphism()
    r = construct_realization(psi)
    shifted = AffineRealization(
        2, 2, r.matrix, (r.points[0], ratvec([Fraction(1, 2), 0]))
    )
    # shifted points induce different translations, so verification fails
    assert verify_realization(shifted, psi) is False
    # integral point difference means the map is not genuinely 2-valued
    degenerate = AffineRealization(2, 2, r.matrix, (r.points[0], ratvec([1, 0])))
    assert "coincide" in diagnose_realization(degenerate, psi)


def test_diagnose_reports_wrong_morphism():
    psi = positive_affine_morphism()
    r = construct_realization(psi)
    other = rotation_morphism(2, 2)
    assert diagnose_realization(r, other) is not None


# -- cycle condition ---------------------------------------------------------------


def test_cycle_condition_rotation():
    violations = cycle_condition_violations(rotation_morphism(3, 2))
    zs = {z for z, _ in violations}
    assert (1, 0) in zs
    full = [cycle for z, cycle in violations if z == (1, 0)]
    assert full and len(full[0]) == 3


def test_cycle_condition_translated():
    psi = translated_morphism(3)
    violations = cycle_condition_violations(psi)
    assert any(z == (1, 0) for z, _ in violations)
    value = translation_component(psi, 1, (1, 0))
    assert value == (1, 0)


def test_cycle_condition_positive_case_empty():
    assert cycle_condition_violations(positive_affine_morphism()) == []


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_cycle_condition_implies_necessary_failure(seed):
    rng = random.Random(seed)
    psi = random_morphism(rng, rng.randint(1, 3), rng.randint(1, 4))
    if cycle_condition_violations(psi):
        assert check_necessary(psi).outcome is Outcome.NECESSARY_FAILS


# -- torsion ------------------------------------------------------------------------


def test_torsion_examples():
    assert torsion_witness(rotation_morphism(3, 2)) == (1, 0)
    assert has_torsion_image(translated_morphism(3)) is False
    assert has_torsion_image(single_valued([[2, 1], [1, 1]])) is False
    assert has_torsion_image(klein_four_morphism())
    assert has_torsion_image(cyclic_four_morphism())


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_torsion_against_brute_force_order_search(seed):
    rng = random.Random(seed)
    psi = random_morphism(rng, rng.randint(1, 2), rng.randint(1, 4))
    witness = torsion_witness(psi)
    if witness is not None:
        value = evaluate(psi, witness)
        assert not value.is_identity
        assert naive_power(value, value.perm.order()).is_identity
    brute = brute_force_torsion_witness(psi, bound=2)
    if brute is not None:
        assert witness is not None


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_torsion_implies_necessary_failure(seed):
    rng = random.Random(seed)
    psi = random_morphism(rng, rng.randint(1, 3), rng.randint(2, 4))
    if has_torsion_image(psi):
        assert check_necessary(psi).outcome is Outcome.NECESSARY_FAILS


def test_affine_image_is_torsion_free():
    rng = random.Random(99)
    for _ in range(15):
        _, _, psi = random_realization(rng, rng.randint(1, 3), rng.randint(1, 4))
        assert not has_torsion_image(psi)


# -- rebasing lifts ------------------------------------------------------------------


def test_rebase_identity_decomposition():
    psi = positive_affine_morphism()
    length = cycle_length(psi, 1, (1, 0))
    perm_inv = evaluate(psi, (1, 0)).perm.inverse()
    parts = []
    slot = 1
    for _ in range(length):
        parts.append(translation_component(psi, slot, (1, 0)))
        slot = perm_inv.apply(slot)
    assert rebase_lift(psi, 1, (1, 0), parts) == psi


def test_rebase_swapped_decomposition():
    psi = positive_affine_morphism()
    swapped = rebase_lift(psi, 1, (1, 0), [(0, 0), (1, 0)])
    assert swapped.perms == psi.perms
    assert translation_component(swapped, 1, (1, 0)) == (0, 0)
    assert translation_component(swapped, 2, (1, 0)) == (1, 0)
    # rebasing back restores the original
    assert rebase_lift(swapped, 1, (1, 0), [(1, 0), (0, 0)]) == psi


def test_rebase_equal_split_makes_cycle_constant():
    psi = translated_morphism(3)
    # slot-1 translation of psi(3 * (1,0)) is (3, 0) = 3 * (1, 0)
    rebased = rebase_lift(psi, 1, (1, 0), [(1, 0)] * 3)
    cycle, _ = cycle_of(evaluate(psi, (1, 0)).perm, 1)
    values = {translation_component(rebased, i, (1, 0)) for i in cycle}
    assert values == {(1, 0)}


def test_rebase_rejects_bad_decompositions():
    psi = positive_affine_morphism()
    with pytest.raises(BadDecomposition):
        rebase_lift(psi, 1, (1, 0), [(1, 0)])
    with pytest.raises(BadDecomposition):
        rebase_lift(psi, 1, (1, 0), [(1, 0), (1, 0)])


@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_rebase_postcondition_and_preservation(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    n = rng.randint(2, 4)
    psi = random_morphism(rng, k, n, irreducible=True)
    candidates = [
        z for z in representative_set(psi) if not evaluate(psi, z).perm.is_identity
    ]
    z = rng.choice(candidates)
    i = rng.randint(1, n)
    cycle, length = cycle_of(evaluate(psi, z).perm, i)
    if length == 1:
        return
    total = translation_component(psi, i, tuple(length * a for a in z))
    parts = [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(length - 1)]
    parts.append(
        tuple(t - sum(p[c] for p in parts) for c, t in enumerate(total))
    )
    rebased = rebase_lift(psi, i, z, parts)
    # postcondition: prescribed values along the cycle
    assert [translation_component(rebased, slot, z) for slot in cycle] == parts
    # permutation data, stabilizers and stabilizer translations survive
    assert rebased.perms == psi.perms
    for slot in range(1, n + 1):
        base = stabilizer(psi, slot)
        assert stabilizer(rebased, slot) == base
        for row in base.rows:
            assert translation_component(rebased, slot, row) == translation_component(
                psi, slot, row
            )


# -- conjugation ----------------------------------------------------------------------


def test_conjugate_by_identity():
    psi = positive_affine_morphism()
    assert conjugate_morphism(psi, WreathElement.identity(2, 2)) == psi


def test_conjugate_by_translation_keeps_perms():
    psi = rotation_morphism(3, 2)
    deck = WreathElement(
        2, 3, ((1, 2), (0, -1), (3, 0)), Permutation.identity(3)
    )
    conjugated = conjugate_morphism(psi, deck)
    assert conjugated.perms == psi.perms
    # translations move by a coboundary: they change, but stabilizer values do not
    for row in stabilizer(psi, 1).rows:
        assert translation_component(conjugated, 1, row) == translation_component(
            psi, 1, row
        )


def test_conjugate_relabels_orbits():
    psi = pure_permutation_morphism(
        2, [Permutation.parse("(1 2)", 3), Permutation.identity(3)]
    )
    deck = WreathElement(
        2, 3, ((0, 0),) * 3, Permutation.parse("(1 3)", 3)
    )
    conjugated = conjugate_morphism(psi, deck)
    assert index_orbits(conjugated).orbits == ((1,), (2, 3))


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_decision_is_lift_invariant(seed):
    rng = random.Random(seed)
    k = rng.randint(1, 3)
    n = rng.randint(2, 4)
    if rng.random() < 0.5:
        psi = random_morphism(rng, k, n, irreducible=True)
    else:
        _, _, psi = random_realization(rng, k, n)
    deck = random_deck(rng, k, n)
    first = decide_affine_irreducible(psi)
    second = decide_affine_irreducible(conjugate_morphism(psi, deck))
    assert (first.outcome is Outcome.AFFINE) == (second.outcome is Outcome.AFFINE)


# -- full-box cross-validation -----------------------------------------------------


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_representative_scan_matches_full_box(seed):
    rng = random.Random(seed)
    psi = random_morphism(rng, rng.randint(1, 3), rng.randint(1, 3))
    assert check_necessary(psi).failed == scan_full_box(psi).failed


def test_affine_data_does_not_need_the_condition():
    # the translated family fails the divisibility condition, yet its affine
    # data exists; the points simply collide modulo Z^2
    matrix, points = affine_data(translated_morphism(3))
    assert matrix == ratmat([[1, 0], [0, 0]])
    assert points == (ratvec([0, 0]),) * 3


# -- coset scan against the box sweep ------------------------------------------------


def _assert_matches_box_sweep(psi):
    assert check_necessary(psi) == box_check_necessary(psi)
    for component, _ in decompose(psi):
        assert affine_data(component) == box_affine_data(component)


def test_coset_scan_matches_box_sweep():
    rng = random.Random(2024)
    for trial in range(400):
        k = rng.randint(1, 3)
        if trial % 2:
            psi = random_morphism(rng, k, rng.randint(1, 6), irreducible=True)
        else:
            n = rng.randint(2, 6)
            psi = random_morphism(rng, k, n)
            while index_orbits(psi).irreducible:
                psi = random_morphism(rng, k, n)
        _assert_matches_box_sweep(psi)


def test_coset_scan_matches_box_sweep_on_large_realizations():
    rng = random.Random(16)
    for _ in range(2):
        _, _, psi = random_realization(rng, 4, 16)
        _assert_matches_box_sweep(psi)


def test_coset_scan_work_is_bounded_by_the_cosets(monkeypatch):
    # G = Z/16 acting on itself, e_j adding g_j; A z = (g . z / 16, 0, 0, 0)
    # is integral only on the stabilizer, so the spec is affine.  The box of
    # permutation orders has 16^4 - 1 vectors, the quotient 15 nonzero cosets.
    k, n, gens = 4, 16, (1, 3, 5, 7)
    perms = tuple(
        Permutation(tuple((x + g) % n + 1 for x in range(n))) for g in gens
    )
    matrix = [[Fraction(g, n) for g in gens]] + [[0] * k for _ in range(k - 1)]
    points = [(Fraction(-x, n), 0, 0, 0) for x in range(n)]
    psi = induced_morphism(AffineRealization(k, n, matrix, points), perms)
    calls = []
    original = morphisms.evaluate

    def counting(phi, z):
        calls.append(z)
        return original(phi, z)

    monkeypatch.setattr(morphisms, "evaluate", counting)
    monkeypatch.setattr(affine, "evaluate", counting)
    verdict = decide_affine_irreducible(psi)
    assert verdict.outcome is Outcome.AFFINE
    assert diagnose_realization(verdict.realization, psi) is None
    assert len(calls) <= n + 4 * k
