"""Morphisms Z^k -> (Z^k)^n x S_n and their structural analysis.

A morphism is stored by its values on the standard basis of Z^k.  The basis
images must pairwise commute; that is exactly the condition for the data to
extend to a homomorphism from the free abelian group.  On top of evaluation
this module computes the orbit partition of the n slots under the generated
permutation group, slot stabilizers (finite-index sublattices of Z^k), cycle
lengths, translation components and the rational matrix giving the linear
behaviour of a translation component on its stabilizer, plus the splitting
of a morphism into irreducible pieces, one per orbit.

A `TorusMorphism` is checked when it is constructed: non-commuting basis
images raise `NonCommutingImages`, so every instance is a valid morphism.
Each morphism also keeps its own analysis (values, orbits, stabilizers,
linear parts, decomposition and the divisibility scan of `affine`) for as
long as it lives; nothing is cached per process.  `validate` stays public
for callers who want an explicit check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from collections import deque
from typing import Iterable, Sequence

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    NonCommutingImages,
)
from .lattices import (
    IntVec,
    LatticeBasis,
    RatMat,
    basis_vec,
    hnf,
    intvec,
    mat_transpose,
    mat_vec,
    ratmat,
    solve_exact,
    vec_add,
    vec_sub,
    zero_vec,
)
from .wreath import Permutation, WreathElement, compose, cycle_of, power


@dataclass(frozen=True)
class TorusMorphism:
    """A morphism given by the images of the k standard basis vectors.

    Construction raises NonCommutingImages unless the images commute.
    """

    k: int
    n: int
    images: tuple[WreathElement, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.k:
            raise DimensionMismatch(f"expected {self.k} basis images")
        for im in self.images:
            if im.k != self.k or im.n != self.n:
                raise DimensionMismatch("basis image has wrong dimensions")
        validate(self)

    @property
    def perms(self) -> tuple[Permutation, ...]:
        """Permutation parts of the basis images."""
        return tuple(im.perm for im in self.images)


def pure_permutation_morphism(k: int, perms: Sequence[Permutation]) -> TorusMorphism:
    """The morphism with the given permutation data and all translations zero."""
    n = perms[0].n
    images = tuple(
        WreathElement(k, n, tuple(zero_vec(k) for _ in range(n)), p) for p in perms
    )
    return TorusMorphism(k, n, images)


def per_morphism(func):
    """Memoize ``func(psi, *args)`` on the morphism ``psi`` itself.

    Results are stored in the instance's ``__dict__``, keyed by function name
    and arguments, so they live exactly as long as the morphism and are never
    looked up by hashing it.  A stored result must not refer back to ``psi``.
    """
    name = func.__name__

    @wraps(func)
    def wrapper(psi, *args):
        memo = psi.__dict__.setdefault("_memo", {})
        key = (name, args)
        if key not in memo:
            memo[key] = func(psi, *args)
        return memo[key]

    return wrapper


def validate(psi: TorusMorphism) -> None:
    """Check that all basis images commute; raises NonCommutingImages if not."""
    for a in range(psi.k):
        for b in range(a + 1, psi.k):
            ab = compose(psi.images[a], psi.images[b])
            ba = compose(psi.images[b], psi.images[a])
            if ab != ba:
                raise NonCommutingImages(a + 1, b + 1)


def evaluate(psi: TorusMorphism, z: Sequence[int]) -> WreathElement:
    """Value of the morphism at z, the product of basis image powers."""
    return _evaluate(psi, intvec(z))


@per_morphism
def _evaluate(psi: TorusMorphism, z: IntVec) -> WreathElement:
    if len(z) != psi.k:
        raise DimensionMismatch(f"argument {z} does not have length {psi.k}")
    result = WreathElement.identity(psi.k, psi.n)
    for j, exponent in enumerate(z):
        if exponent:
            result = compose(result, power(psi.images[j], exponent))
    return result


@dataclass(frozen=True)
class OrbitReport:
    """Partition of the slots 1..n into orbits of the basis permutations."""

    orbits: tuple[tuple[int, ...], ...]
    stabilizers: tuple[LatticeBasis, ...]
    irreducible: bool


@per_morphism
def index_orbits(psi: TorusMorphism) -> OrbitReport:
    """Orbits of 1..n under the group generated by the basis permutations."""
    seen: set[int] = set()
    orbits = []
    for start in range(1, psi.n + 1):
        if start in seen:
            continue
        orbit = _orbit_of(psi, start)
        seen.update(orbit)
        orbits.append(orbit)
    stabs = tuple(stabilizer(psi, orbit[0]) for orbit in orbits)
    return OrbitReport(tuple(orbits), stabs, irreducible=len(orbits) == 1)


def _orbit_of(psi: TorusMorphism, i: int) -> tuple[int, ...]:
    frontier = deque([i])
    seen = {i}
    moves = [(p, p.inverse()) for p in psi.perms]
    while frontier:
        x = frontier.popleft()
        for p, inverse in moves:
            for y in (p.apply(x), inverse.apply(x)):
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return tuple(sorted(seen))


@per_morphism
def stabilizer(psi: TorusMorphism, i: int) -> LatticeBasis:
    """HNF basis of the sublattice of z with the permutation part of psi(z) fixing i.

    Computed by a breadth-first walk over the orbit of i: each orbit point
    gets a representative vector mapping i there, and every edge of the walk
    contributes a Schreier-style relation to the stabilizer lattice.
    """
    if not 1 <= i <= psi.n:
        raise IndexOutOfRange(f"slot {i} outside 1..{psi.n}")
    reps: dict[int, IntVec] = {i: zero_vec(psi.k)}
    frontier = deque([i])
    relations: list[IntVec] = []
    moves = [
        (p, p.inverse(), basis_vec(psi.k, j)) for j, p in enumerate(psi.perms)
    ]
    while frontier:
        x = frontier.popleft()
        for p, inverse, unit in moves:
            for vec, image in (
                (vec_add(reps[x], unit), p.apply(x)),
                (vec_sub(reps[x], unit), inverse.apply(x)),
            ):
                if image not in reps:
                    reps[image] = vec
                    frontier.append(image)
                else:
                    relations.append(vec_sub(vec, reps[image]))
    # The walk repeats many relations; the HNF does not depend on repeats.
    lattice = hnf(dict.fromkeys(relations), psi.k)
    if not lattice.is_full_rank:
        raise AssertionError("stabilizer of a finite orbit must have finite index")
    return lattice


def cycle_length(psi: TorusMorphism, i: int, z: Sequence[int]) -> int:
    """Length of the cycle through i of the permutation part of psi(z)."""
    return cycle_of(evaluate(psi, z).perm, i)[1]


def translation_component(psi: TorusMorphism, i: int, z: Sequence[int]) -> IntVec:
    """Translation vector of psi(z) in slot i."""
    if not 1 <= i <= psi.n:
        raise IndexOutOfRange(f"slot {i} outside 1..{psi.n}")
    return evaluate(psi, z).trans[i - 1]


@per_morphism
def linear_part(psi: TorusMorphism, i: int) -> RatMat:
    """The rational matrix A with A z equal to the slot-i translation of psi(z)
    for every z in the stabilizer of i.

    The translation component restricted to the stabilizer is additive, so A
    exists; it is solved from the stabilizer basis and verified on it.
    """
    lattice = stabilizer(psi, i)
    values = tuple(translation_component(psi, i, row) for row in lattice.rows)
    solution = solve_exact(ratmat(lattice.rows), ratmat(values))
    matrix = mat_transpose(solution)
    for row, value in zip(lattice.rows, values):
        if mat_vec(matrix, row) != tuple(value):
            raise AssertionError("linear part fails on a stabilizer basis vector")
    return matrix


def basis_orders(psi: TorusMorphism, indices: Iterable[int] | None = None) -> tuple[int, ...]:
    """Order of each basis permutation, restricted to ``indices`` when given."""
    if indices is None:
        return tuple(p.order() for p in psi.perms)
    wanted = tuple(indices)
    return tuple(p.order_on(wanted) for p in psi.perms)


@per_morphism
def decompose(psi: TorusMorphism) -> tuple[tuple[TorusMorphism, tuple[int, ...]], ...]:
    """Split into one irreducible morphism per orbit.

    Each entry is ``(component, index_map)`` where ``index_map[local - 1]``
    is the original slot of local slot ``local``; locals are assigned in
    ascending order of the original indices.  Repeat calls return the same
    component objects, so their analyses are shared.  A component equal to
    psi (a single orbit) starts with psi's orbit report, stabilizers and
    linear parts.
    """
    report = index_orbits(psi)
    out = []
    for orbit in report.orbits:
        index_map = orbit
        position = {orig: local for local, orig in enumerate(index_map, start=1)}
        images = []
        for im in psi.images:
            trans = tuple(im.trans[orig - 1] for orig in index_map)
            image = tuple(position[im.perm.apply(orig)] for orig in index_map)
            images.append(
                WreathElement(psi.k, len(orbit), trans, Permutation(image))
            )
        component = TorusMorphism(psi.k, len(orbit), tuple(images))
        if len(orbit) == psi.n:
            _share_analysis(psi, component)
        out.append((component, index_map))
    return tuple(out)


# Memoized results that hold no reference to their morphism, so an equal
# morphism may reuse them.
_SHAREABLE = frozenset({"index_orbits", "stabilizer", "linear_part"})


def _share_analysis(source: TorusMorphism, target: TorusMorphism) -> None:
    memo = target.__dict__.setdefault("_memo", {})
    for key, value in source.__dict__.get("_memo", {}).items():
        if key[0] in _SHAREABLE:
            memo.setdefault(key, value)


def recompose(
    parts: Sequence[tuple[TorusMorphism, Sequence[int]]], k: int, n: int
) -> TorusMorphism:
    """Inverse of `decompose`: push components back through their index maps."""
    trans = [[zero_vec(k)] * n for _ in range(k)]
    image = [list(range(1, n + 1)) for _ in range(k)]
    for component, index_map in parts:
        for j in range(k):
            im = component.images[j]
            for local, orig in enumerate(index_map, start=1):
                trans[j][orig - 1] = im.trans[local - 1]
                image[j][orig - 1] = index_map[im.perm.apply(local) - 1]
    images = tuple(
        WreathElement(k, n, tuple(trans[j]), Permutation(tuple(image[j])))
        for j in range(k)
    )
    return TorusMorphism(k, n, images)
