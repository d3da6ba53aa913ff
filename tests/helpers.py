"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive: enumeration, folding, cofactor
expansion.  The production code is checked against these, never the other
way around.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from nvtorus.affine import Outcome, Verdict, Witness, representative_set
from nvtorus.lattices import is_integral, mat_vec, vec_scale, zero_vec
from nvtorus.morphisms import (
    TorusMorphism,
    evaluate,
    index_orbits,
    linear_part,
    stabilizer,
    translation_component,
)
from nvtorus.wreath import WreathElement, compose, cycle_of, invert


def brute_force_contains(rows, k, v, bound=5):
    """Is v an integer combination with coefficients in [-bound, bound]?"""
    if not rows:
        return not any(v)
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=len(rows)):
        candidate = [0] * k
        for c, row in zip(coeffs, rows):
            for j in range(k):
                candidate[j] += c * row[j]
        if tuple(candidate) == tuple(v):
            return True
    return False


def naive_power(a: WreathElement, m: int) -> WreathElement:
    base = a if m >= 0 else invert(a)
    result = WreathElement.identity(a.k, a.n)
    for _ in range(abs(m)):
        result = compose(result, base)
    return result


def det_by_cofactors(mat):
    """Determinant by first-row cofactor expansion; exact for any entries."""
    size = len(mat)
    if size == 1:
        return mat[0][0]
    total = 0
    for c in range(size):
        minor = [
            [mat[r][cc] for cc in range(size) if cc != c] for r in range(1, size)
        ]
        term = mat[0][c] * det_by_cofactors(minor)
        total += term if c % 2 == 0 else -term
    return total


def box_vectors(k: int, bound: int):
    """All integer vectors with entries in [-bound, bound], origin excluded."""
    for z in itertools.product(range(-bound, bound + 1), repeat=k):
        if any(z):
            yield z


def brute_force_torsion_witness(psi: TorusMorphism, bound: int = 3):
    """Search a box for z with psi(z) nontrivial of finite order.

    psi(z) has finite order iff psi(z)^N is trivial for N the order of its
    permutation part, because the translation of any higher power is a
    multiple of the translation at N.
    """
    for z in box_vectors(psi.k, bound):
        value = evaluate(psi, z)
        if value.is_identity:
            continue
        if naive_power(value, value.perm.order()).is_identity:
            return z
    return None


def box_check_necessary(psi: TorusMorphism) -> Verdict:
    """The divisibility scan over the whole box `representative_set`.

    Orbit by orbit, box vectors in lexicographic order, then slots; each
    slot tests its own linear part with rational arithmetic.  The first hit
    is the witness.
    """
    for orbit in index_orbits(psi).orbits:
        for z in representative_set(psi, orbit):
            moved = evaluate(psi, z)
            for i in orbit:
                if moved.perm.apply(i) == i:
                    continue
                if is_integral(mat_vec(linear_part(psi, i), z)):
                    length = cycle_of(moved.perm, i)[1]
                    value = translation_component(psi, i, vec_scale(length, z))
                    return Verdict(
                        Outcome.NECESSARY_FAILS, witness=Witness(i, z, length, value)
                    )
    return Verdict(Outcome.NECESSARY_PASSES)


def box_affine_data(psi: TorusMorphism):
    """Matrix and points of an irreducible morphism, swept over the whole box.

    Every box vector z assigns A z minus the slot-1 translation of psi(z) to
    slot sigma_z^-1(1); a slot that gets two different points raises.
    """
    assert index_orbits(psi).irreducible
    assert all(stabilizer(psi, i) == stabilizer(psi, 1) for i in range(1, psi.n + 1))
    matrix = linear_part(psi, 1)
    points = [None] * psi.n
    for z in [zero_vec(psi.k)] + representative_set(psi):
        moved = evaluate(psi, z)
        target = moved.perm.inverse().apply(1)
        candidate = tuple(
            Fraction(a) - b for a, b in zip(mat_vec(matrix, z), moved.trans[0])
        )
        assert points[target - 1] in (None, candidate)
        points[target - 1] = candidate
    assert None not in points
    return matrix, tuple(points)
