"""Deciding whether a morphism comes from an affine n-valued torus map.

The central test is a divisibility condition: a slot i and a vector z
outside the stabilizer of i obstruct affineness exactly when the slot-i
translation of psi(L z), with L the cycle length of z through i, is
divisible by L.  The test depends on z only modulo the stabilizer, so it is
scanned over one vector per coset: n vectors for an orbit of n slots, not
the box of permutation orders.  For irreducible morphisms the condition is
also sufficient, and a rational realization (one matrix, n translation
points) can be constructed explicitly from the same cosets.

The module also detects the two coarser obstructions (equal translations
along a cycle, torsion in the image), re-bases lifts by conjugating with
deck translations, and can cross-validate the coset scan against a
brute-force box scan.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    BadDecomposition,
    ConditionViolated,
    DimensionMismatch,
    NonCommutingImages,
    NonIntegralTranslation,
    NotIrreducible,
)
from .lattices import (
    IntVec,
    RatMat,
    RatVec,
    basis_vec,
    coset_transversal,
    integer_kernel,
    intvec,
    is_integral,
    mat_stack,
    mat_vec,
    ratmat,
    ratvec,
    to_intvec,
    vec_add,
    vec_scale,
    vec_sub,
    vec_sum,
    zero_vec,
)
from .morphisms import (
    TorusMorphism,
    basis_orders,
    evaluate,
    index_orbits,
    linear_part,
    per_morphism,
    stabilizer,
    translation_component,
)
from .wreath import Permutation, WreathElement, compose, conjugate, cycle_of, power


@dataclass(frozen=True)
class AffineRealization:
    """A rational matrix and n rational translation points.

    The first point is normalized to zero.  A valid realization has pairwise
    distinct points modulo Z^k, and together with permutation data it
    reproduces the morphism it was built from (see `induced_morphism`).
    """

    k: int
    n: int
    matrix: RatMat
    points: tuple[RatVec, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrix", ratmat(self.matrix))
        object.__setattr__(self, "points", tuple(ratvec(p) for p in self.points))
        if len(self.matrix) != self.k or any(len(r) != self.k for r in self.matrix):
            raise DimensionMismatch("realization matrix must be k x k")
        if len(self.points) != self.n or any(len(p) != self.k for p in self.points):
            raise DimensionMismatch("realization needs n points of length k")


@dataclass(frozen=True)
class Witness:
    """Data certifying a failed divisibility test, machine-recheckable."""

    index: int
    z: IntVec
    cycle_length: int
    value: IntVec


class Outcome(enum.Enum):
    AFFINE = "affine"
    NOT_AFFINE = "not_affine"
    NECESSARY_FAILS = "necessary_fails"
    NECESSARY_PASSES = "necessary_passes"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    witness: Witness | None = None
    realization: AffineRealization | None = None

    @property
    def failed(self) -> bool:
        return self.outcome in (Outcome.NOT_AFFINE, Outcome.NECESSARY_FAILS)


# ---------------------------------------------------------------------------
# representative sets and the necessary condition


def representative_set(
    psi: TorusMorphism, indices: Sequence[int] | None = None
) -> list[IntVec]:
    """The finite scan set {sum m_j e_j : 0 <= m_j < n_j} minus the origin.

    n_j is the order of the j-th basis permutation, restricted to ``indices``
    when given.  The permutation part of psi(z) on those indices, and the
    divisibility test, only depend on z through this box.
    """
    orders = basis_orders(psi, indices)
    out = []
    for coeffs in itertools.product(*(range(o) for o in orders)):
        if any(coeffs):
            out.append(tuple(coeffs))
    return out


def _values_on_box(psi: TorusMorphism, box: list[IntVec]) -> dict[IntVec, WreathElement]:
    """psi(z) for every z of a lexicographic box that starts at the origin.

    One `compose` per vector: for c the last nonzero entry of z, z - e_c is
    in the box and comes earlier.
    """
    table: dict[IntVec, WreathElement] = {}
    for z in box:
        c = max((j for j, a in enumerate(z) if a), default=None)
        if c is None:
            table[z] = WreathElement.identity(psi.k, psi.n)
        else:
            table[z] = compose(table[z[:c] + (z[c] - 1,) + z[c + 1:]], psi.images[c])
    return table


def _preimage_of_one(value: WreathElement) -> int:
    """The slot that the permutation part of ``value`` sends to slot 1."""
    return value.perm.image.index(1) + 1


@per_morphism
def _orbit_linear_part(
    psi: TorusMorphism, orbit: tuple[int, ...]
) -> tuple[tuple[IntVec, ...], int]:
    """The linear part of every slot of an orbit as ``(P, d)``, meaning A = P / d.

    psi(s) for s in the stabilizer commutes with the images that carry one
    slot of the orbit to another, so it fixes the whole orbit and translates
    all its slots by the same vector.  That is checked here on the HNF rows,
    and it makes the linear part of every slot equal to that of the first.
    """
    first = orbit[0]
    for row in stabilizer(psi, first).rows:
        value = evaluate(psi, row)
        base = value.trans[first - 1]
        if any(value.perm.apply(i) != i or value.trans[i - 1] != base for i in orbit):
            raise AssertionError("stabilizer images differ across the slots of an orbit")
    matrix = linear_part(psi, first)
    d = math.lcm(*(a.denominator for row in matrix for a in row))
    return tuple(tuple(int(a * d) for a in row) for row in matrix), d


@per_morphism
def check_necessary(psi: TorusMorphism) -> Verdict:
    """Scan for a divisibility obstruction to affineness.

    Runs orbit by orbit over one vector per coset of the orbit's stabilizer
    (`coset_transversal`, lexicographic) and then over the slots; the first
    hit is returned as the witness.  The test depends on z only through its
    coset, and reducing a vector of the box `representative_set` into the
    transversal never makes it larger lexicographically, so this is also the
    first hit of the box.  Passing is necessary for affineness of any
    morphism and sufficient for irreducible ones.
    """
    for orbit in index_orbits(psi).orbits:
        scaled, d = _orbit_linear_part(psi, orbit)
        for z in coset_transversal(stabilizer(psi, orbit[0]))[1:]:
            # A z is integral exactly when P z = 0 (mod d).
            if any(sum(p * c for p, c in zip(row, z)) % d for row in scaled):
                continue
            moved = evaluate(psi, z)
            for i in orbit:
                if moved.perm.apply(i) == i:
                    continue
                length = cycle_of(moved.perm, i)[1]
                value = translation_component(psi, i, vec_scale(length, z))
                if any(v % length for v in value):
                    raise AssertionError("witness failed its own recheck")
                return Verdict(
                    Outcome.NECESSARY_FAILS,
                    witness=Witness(i, z, length, value),
                )
    return Verdict(Outcome.NECESSARY_PASSES)


def scan_full_box(psi: TorusMorphism, multiplier: int = 2) -> Verdict:
    """Brute-force variant of `check_necessary` over the box |z_j| <= multiplier * n_j.

    Independent of the coset reduction and of the linear-part matrices:
    divisibility is tested directly on the translations of powers.  Used to
    cross-validate the production scan.
    """
    orders = basis_orders(psi)
    tables = []
    for j, order in enumerate(orders):
        half = multiplier * order
        table = {0: WreathElement.identity(psi.k, psi.n)}
        for m in range(1, half + 1):
            table[m] = compose(table[m - 1], psi.images[j])
        inverse = power(psi.images[j], -1)
        for m in range(1, half + 1):
            table[-m] = compose(table[-(m - 1)], inverse)
        tables.append(table)
    ranges = [range(-multiplier * o, multiplier * o + 1) for o in orders]
    for z in itertools.product(*ranges):
        if not any(z):
            continue
        value = tables[0][z[0]]
        for j in range(1, psi.k):
            value = compose(value, tables[j][z[j]])
        if value.perm.is_identity:
            continue
        powers = {1: value}
        for i in range(1, psi.n + 1):
            if value.perm.apply(i) == i:
                continue
            length = cycle_of(value.perm, i)[1]
            if length not in powers:
                powers[length] = power(value, length)
            slot_value = powers[length].trans[i - 1]
            if all(v % length == 0 for v in slot_value):
                return Verdict(
                    Outcome.NECESSARY_FAILS,
                    witness=Witness(i, tuple(z), length, slot_value),
                )
    return Verdict(Outcome.NECESSARY_PASSES)


# ---------------------------------------------------------------------------
# construction and verification of realizations


def affine_data(psi: TorusMorphism) -> tuple[RatMat, tuple[RatVec, ...]]:
    """Matrix and translation points canonically attached to an irreducible morphism.

    The matrix is the linear part on the common stabilizer; the point of slot
    (sigma_z)^-1(1) is A z minus the slot-1 translation of psi(z).  One z per
    coset of the stabilizer (`coset_transversal`) reaches every slot; the
    point is well defined, checked by shifting each z by the stabilizer's
    HNF rows, and the first point is zero.  This never needs the
    divisibility condition; without it the points are simply not pairwise
    distinct modulo Z^k.
    """
    report = index_orbits(psi)
    if not report.irreducible:
        raise NotIrreducible("affine data is only defined per irreducible morphism")
    common = stabilizer(psi, 1)
    for i in range(2, psi.n + 1):
        if stabilizer(psi, i) != common:
            raise AssertionError("stabilizers must coincide on a single orbit")
    scaled, d = _orbit_linear_part(psi, report.orbits[0])

    def candidate(z: IntVec, moved: WreathElement) -> RatVec:
        return tuple(
            Fraction(sum(p * c for p, c in zip(row, z)), d) - t
            for row, t in zip(scaled, moved.trans[0])
        )

    points: list[RatVec | None] = [None] * psi.n
    values = _values_on_box(psi, coset_transversal(common)).items()
    for z, moved in values:
        target = _preimage_of_one(moved)
        if points[target - 1] is None:
            points[target - 1] = candidate(z, moved)
        elif points[target - 1] != candidate(z, moved):
            raise AssertionError("translation points are not well defined")
    if any(p is None for p in points):
        raise AssertionError("representative sweep missed a slot")
    shifts = [(s, evaluate(psi, s)) for s in common.rows]
    for z, moved in values:
        for s, shift in shifts:
            shifted = compose(moved, shift)
            if points[_preimage_of_one(shifted) - 1] != candidate(vec_add(z, s), shifted):
                raise AssertionError("translation points are not well defined")
    return linear_part(psi, 1), tuple(points)  # type: ignore[arg-type]


def construct_realization(psi: TorusMorphism) -> AffineRealization:
    """Build the affine realization of an irreducible morphism.

    Raises ConditionViolated (with the witness) when the divisibility
    condition fails, NotIrreducible for several orbits.  The result passes
    `verify_realization`.
    """
    verdict = check_necessary_irreducible(psi)
    if verdict.failed:
        raise ConditionViolated(verdict.witness)
    matrix, points = affine_data(psi)
    realization = AffineRealization(psi.k, psi.n, matrix, points)
    reason = diagnose_realization(realization, psi)
    if reason is not None:
        raise AssertionError(f"constructed realization failed verification: {reason}")
    return realization


def check_necessary_irreducible(psi: TorusMorphism) -> Verdict:
    if not index_orbits(psi).irreducible:
        raise NotIrreducible("decision requires a single index orbit")
    return check_necessary(psi)


def decide_affine_irreducible(psi: TorusMorphism) -> Verdict:
    """Full affineness decision for an irreducible morphism."""
    verdict = check_necessary_irreducible(psi)
    if verdict.failed:
        return Verdict(Outcome.NOT_AFFINE, witness=verdict.witness)
    return Verdict(Outcome.AFFINE, realization=construct_realization(psi))


def induced_morphism(
    realization: AffineRealization, perms: Sequence[Permutation]
) -> TorusMorphism:
    """The morphism induced by a realization together with permutation data.

    The translation of basis direction j in slot i is
    ``A e_j + a_i - a_{sigma_j^-1(i)}``; raises NonIntegralTranslation when
    that is not an integer vector, i.e. the data are inconsistent.
    """
    k, n = realization.k, realization.n
    if len(perms) != k or any(p.n != n for p in perms):
        raise DimensionMismatch("need k permutations of degree n")
    for a in range(k):
        for b in range(a + 1, k):
            if perms[a] * perms[b] != perms[b] * perms[a]:
                raise NonCommutingImages(a + 1, b + 1)
    images = []
    for j, perm in enumerate(perms):
        inv = perm.inverse()
        column = mat_vec(realization.matrix, basis_vec(k, j))
        trans = []
        for i in range(1, n + 1):
            value = vec_sub(
                vec_sum([column, realization.points[i - 1]], k),
                realization.points[inv.apply(i) - 1],
            )
            if not is_integral(value):
                raise NonIntegralTranslation(
                    f"slot {i}, basis direction {j + 1}: translation {value} "
                    "is not integral"
                )
            trans.append(to_intvec(value))
        images.append(WreathElement(k, n, tuple(trans), perm))
    return TorusMorphism(k, n, tuple(images))


def diagnose_realization(
    realization: AffineRealization, psi: TorusMorphism
) -> str | None:
    """None when the realization induces psi and is genuinely n-valued,
    otherwise a short reason string."""
    if realization.k != psi.k or realization.n != psi.n:
        return "dimension mismatch"
    if any(realization.points[0]):
        return "first translation point is not zero"
    for i in range(psi.n):
        for j in range(i + 1, psi.n):
            if is_integral(vec_sub(realization.points[i], realization.points[j])):
                return f"points {i + 1} and {j + 1} coincide modulo Z^k"
    try:
        induced = induced_morphism(realization, psi.perms)
    except NonIntegralTranslation as exc:
        return f"inconsistent with permutation data: {exc}"
    if induced != psi:
        for j in range(psi.k):
            if induced.images[j] != psi.images[j]:
                return f"induced morphism differs at basis direction {j + 1}"
        return "induced morphism differs"
    return None


def verify_realization(realization: AffineRealization, psi: TorusMorphism) -> bool:
    return diagnose_realization(realization, psi) is None


# ---------------------------------------------------------------------------
# coarser obstructions


def cycle_condition_violations(
    psi: TorusMorphism,
) -> list[tuple[IntVec, tuple[int, ...]]]:
    """Nontrivial cycles on which all translation components of psi(z) agree.

    Scans the per-orbit representative vectors.  Any hit implies the
    necessary condition fails, which is asserted before returning.
    """
    out = []
    for orbit in index_orbits(psi).orbits:
        members = set(orbit)
        for z in representative_set(psi, orbit):
            moved = evaluate(psi, z)
            for cycle in moved.perm.cycles():
                if not set(cycle) <= members:
                    continue
                values = {moved.trans[i - 1] for i in cycle}
                if len(values) == 1:
                    out.append((z, cycle))
    if out and not check_necessary(psi).failed:
        raise AssertionError("equal-cycle obstruction without a divisibility witness")
    return out


def torsion_witness(psi: TorusMorphism) -> IntVec | None:
    """Generator of a finite-order nontrivial image element, or None.

    psi(z) has finite order exactly when every slot's linear part kills z;
    on that kernel lattice, psi(z) is nontrivial iff its permutation part
    is.  So it suffices to inspect the permutation parts of the kernel
    generators.
    """
    stacked = mat_stack(linear_part(psi, i) for i in range(1, psi.n + 1))
    kernel = integer_kernel(stacked)
    for generator in kernel.rows:
        if not evaluate(psi, generator).perm.is_identity:
            return generator
    return None


def has_torsion_image(psi: TorusMorphism) -> bool:
    return torsion_witness(psi) is not None


# ---------------------------------------------------------------------------
# changing the reference lift


def conjugate_morphism(psi: TorusMorphism, deck: WreathElement) -> TorusMorphism:
    """Conjugate every basis image by a deck element; models changing the lift."""
    if deck.k != psi.k or deck.n != psi.n:
        raise DimensionMismatch("deck element has wrong dimensions")
    images = tuple(conjugate(deck, im) for im in psi.images)
    return TorusMorphism(psi.k, psi.n, images)


def rebase_lift(
    psi: TorusMorphism,
    i: int,
    z: Sequence[int],
    decomposition: Sequence[Sequence[int]],
) -> TorusMorphism:
    """Redistribute the translations of psi(z) along the cycle through i.

    ``decomposition`` prescribes the new translation values along the cycle
    i, sigma_z^-1(i), sigma_z^-2(i), ...; it must have one entry per cycle
    element and sum to the slot-i translation of psi(length * z).  The result
    is psi conjugated by a pure-translation deck element, so permutation
    data, stabilizers and translations on stabilizers are unchanged.
    """
    z = intvec(z)
    parts = [intvec(p) for p in decomposition]
    moved = evaluate(psi, z)
    cycle, length = cycle_of(moved.perm, i)
    if len(parts) != length:
        raise BadDecomposition(
            f"expected {length} vectors along the cycle, got {len(parts)}"
        )
    total = translation_component(psi, i, vec_scale(length, z))
    if vec_sum(parts, psi.k) != total:
        raise BadDecomposition(
            f"decomposition sums to {vec_sum(parts, psi.k)}, expected {total}"
        )
    shifts = [zero_vec(psi.k)] * psi.n
    running = zero_vec(psi.k)
    for m in range(1, length):
        running = vec_add(
            running, vec_sub(moved.trans[cycle[m - 1] - 1], parts[m - 1])
        )
        shifts[cycle[m] - 1] = running
    deck = WreathElement(
        psi.k, psi.n, tuple(shifts), Permutation.identity(psi.n)
    )
    return conjugate_morphism(psi, deck)
