"""Random generators for morphisms, realizations and deck elements.

Used by the property and acceptance suites and by the experiment scripts.
Everything is driven by an explicit `random.Random`, so runs are
reproducible from a seed.

Morphisms are sampled in two steps: commuting permutation data first (built
from translation actions of abelian groups, block by block), then integer
translation data drawn from the full solution lattice of the commutation
constraints, which is linear in the translations once the permutations are
fixed.  Realizations are sampled directly (matrix compatible with the
stabilizer, then points), and the induced morphism is affine by
construction.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from .affine import AffineRealization, induced_morphism, representative_set
from .lattices import (
    LatticeBasis,
    integer_kernel,
    is_integral,
    mat_det,
    mat_identity,
    mat_sub,
    mat_transpose,
    mat_vec,
    ratmat,
    solve_exact,
    vec_sub,
    zero_vec,
)
from .morphisms import (
    TorusMorphism,
    evaluate,
    pure_permutation_morphism,
    recompose,
    stabilizer,
)
from .wreath import Permutation, WreathElement

# ---------------------------------------------------------------------------
# abelian permutation data


def abelian_structures(n: int) -> list[tuple[int, ...]]:
    """Invariant factors (d_1, d_2, ...) of every abelian group of order n.

    Each d_{i+1} divides d_i, so the number of factors is the least number
    of generators of the group; n = 6 gives only (6,).
    """
    if n == 1:
        return [()]
    factors = {}
    m = n
    p = 2
    while p * p <= m:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        factors[m] = factors.get(m, 0) + 1

    def partitions(total: int, cap: int) -> list[tuple[int, ...]]:
        if total == 0:
            return [()]
        out = []
        for first in range(min(total, cap), 0, -1):
            for rest in partitions(total - first, first):
                out.append((first,) + rest)
        return out

    shapes = [()]
    for prime, exponent in sorted(factors.items()):
        grown = []
        for shape in shapes:
            for part in partitions(exponent, exponent):
                powers = (prime**e for e in part)
                grown.append(
                    tuple(
                        a * b
                        for a, b in itertools.zip_longest(shape, powers, fillvalue=1)
                    )
                )
        shapes = grown
    return shapes


def _group_elements(shape: tuple[int, ...]) -> list[tuple[int, ...]]:
    return list(itertools.product(*(range(d) for d in shape)))


def _translation_perm(
    shape: tuple[int, ...], element: tuple[int, ...], slots: Sequence[int]
) -> list[tuple[int, int]]:
    """Pairs (slot, image slot) of the translation action on the given slots."""
    elements = _group_elements(shape)
    index = {e: i for i, e in enumerate(elements)}
    pairs = []
    for position, e in enumerate(elements):
        moved = tuple((a + b) % d for a, b, d in zip(e, element, shape))
        pairs.append((slots[position], slots[index[moved]]))
    return pairs


def _generates(shape: tuple[int, ...], elements: Sequence[tuple[int, ...]]) -> bool:
    zero = tuple(0 for _ in shape)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in elements:
            y = tuple((a + b) % d for a, b, d in zip(x, g, shape))
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    size = 1
    for d in shape:
        size *= d
    return len(seen) == size


def random_transitive_block(
    rng: random.Random, k: int, slots: Sequence[int]
) -> list[list[tuple[int, int]]]:
    """Per-generator translation pairs of a transitive abelian action on slots."""
    n = len(slots)
    shapes = [s for s in abelian_structures(n) if len(s) <= k]
    shape = rng.choice(shapes)
    elements = _group_elements(shape)
    for _ in range(64):
        chosen = [rng.choice(elements) for _ in range(k)]
        if _generates(shape, chosen):
            break
    else:
        # deterministic fallback: standard generators first, then padding
        chosen = []
        for axis in range(len(shape)):
            chosen.append(tuple(int(a == axis) for a in range(len(shape))))
        while len(chosen) < k:
            chosen.append(rng.choice(elements))
        rng.shuffle(chosen)
        assert _generates(shape, chosen)
    return [_translation_perm(shape, g, slots) for g in chosen]


def random_commuting_perms(
    rng: random.Random, k: int, n: int, irreducible: bool = False
) -> tuple[Permutation, ...]:
    """k commuting permutations of 1..n; transitive when irreducible is set."""
    if irreducible:
        blocks = [list(range(1, n + 1))]
    else:
        slots = list(range(1, n + 1))
        blocks = []
        while slots:
            size = rng.randint(1, len(slots))
            blocks.append(slots[:size])
            slots = slots[size:]
    images = [list(range(1, n + 1)) for _ in range(k)]
    for block in blocks:
        if irreducible:
            pairs_per_gen = random_transitive_block(rng, k, block)
        else:
            shape = rng.choice(abelian_structures(len(block)))
            elements = _group_elements(shape)
            pairs_per_gen = [
                _translation_perm(shape, rng.choice(elements), block)
                for _ in range(k)
            ]
        for j, pairs in enumerate(pairs_per_gen):
            for slot, image in pairs:
                images[j][slot - 1] = image
    return tuple(Permutation(tuple(img)) for img in images)


# ---------------------------------------------------------------------------
# translation data compatible with fixed permutations


def translation_solution_basis(perms: Sequence[Permutation], k: int) -> LatticeBasis:
    """Lattice of scalar translation assignments making the images commute.

    Variables are indexed (generator j, slot i); the commutation of images a
    and b is linear in them.  The same lattice serves every coordinate of
    Z^k independently.
    """
    n = perms[0].n
    nvars = k * n

    def var(j: int, slot: int) -> int:
        return j * n + (slot - 1)

    rows = []
    for a in range(k):
        for b in range(a + 1, k):
            inv_a = perms[a].inverse()
            inv_b = perms[b].inverse()
            for i in range(1, n + 1):
                coeffs = [0] * nvars
                coeffs[var(a, i)] += 1
                coeffs[var(b, inv_a.apply(i))] += 1
                coeffs[var(b, i)] -= 1
                coeffs[var(a, inv_b.apply(i))] -= 1
                if any(coeffs):
                    rows.append(coeffs)
    if not rows:
        rows = [[0] * nvars]
    return integer_kernel(rows)


def random_morphism(
    rng: random.Random,
    k: int,
    n: int,
    irreducible: bool = False,
    coeff_bound: int = 2,
) -> TorusMorphism:
    """A uniformly messy valid morphism with the sampled permutation data."""
    perms = random_commuting_perms(rng, k, n, irreducible=irreducible)
    basis = translation_solution_basis(perms, k)
    coords = []
    for _ in range(k):
        flat = [0] * (k * n)
        for row in basis.rows:
            weight = rng.randint(-coeff_bound, coeff_bound)
            if weight:
                flat = [a + weight * b for a, b in zip(flat, row)]
        coords.append(flat)
    images = []
    for j in range(k):
        trans = tuple(
            tuple(coords[c][j * n + i] for c in range(k)) for i in range(n)
        )
        images.append(WreathElement(k, n, trans, perms[j]))
    return TorusMorphism(k, n, tuple(images))


# ---------------------------------------------------------------------------
# realizations and deck elements


def random_realization(
    rng: random.Random,
    k: int,
    n: int,
    entry_bound: int = 2,
    nonzero_lefschetz: bool = False,
) -> tuple[AffineRealization, tuple[Permutation, ...], TorusMorphism]:
    """An affine realization with transitive permutation data, plus its morphism.

    The matrix is drawn so that it maps the common stabilizer into Z^k and
    no representative vector outside the stabilizer lands in Z^k (that is
    the divisibility condition, so the induced morphism is affine and the
    construction round-trips exactly).
    """
    perms = random_commuting_perms(rng, k, n, irreducible=True)
    skeleton = pure_permutation_morphism(k, perms)
    lattice = stabilizer(skeleton, 1)
    reps = representative_set(skeleton)
    moved_reps = [
        (z, evaluate(skeleton, z).perm) for z in reps
    ]
    for _ in range(500):
        values = [
            [rng.randint(-entry_bound, entry_bound) for _ in range(k)]
            for _ in range(k)
        ]
        matrix = mat_transpose(solve_exact(ratmat(lattice.rows), ratmat(values)))
        if any(
            not perm.is_identity and is_integral(mat_vec(matrix, z))
            for z, perm in moved_reps
        ):
            continue
        if nonzero_lefschetz and mat_det(mat_sub(mat_identity(k), matrix)) == 0:
            continue
        break
    else:
        raise RuntimeError("failed to sample a realizable matrix")
    points: list[tuple | None] = [None] * n
    points[0] = zero_vec(k)
    for z in reps:
        target = evaluate(skeleton, z).perm.inverse().apply(1)
        if points[target - 1] is None:
            offset = tuple(rng.randint(-1, 1) for _ in range(k))
            points[target - 1] = vec_sub(mat_vec(matrix, z), offset)
    assert all(p is not None for p in points)
    realization = AffineRealization(k, n, matrix, tuple(points))
    psi = induced_morphism(realization, perms)
    return realization, perms, psi


def random_deck(rng: random.Random, k: int, n: int, bound: int = 3) -> WreathElement:
    trans = tuple(
        tuple(rng.randint(-bound, bound) for _ in range(k)) for _ in range(n)
    )
    image = list(range(1, n + 1))
    rng.shuffle(image)
    return WreathElement(k, n, trans, Permutation(tuple(image)))


def random_reducible_affine(
    rng: random.Random, k: int, sizes: Sequence[int]
) -> TorusMorphism:
    """Direct sum of per-block affine-realizable morphisms on consecutive slots."""
    parts = []
    offset = 0
    for size in sizes:
        _, _, part = random_realization(rng, k, size)
        parts.append((part, range(offset + 1, offset + size + 1)))
        offset += size
    return recompose(parts, k, sum(sizes))
