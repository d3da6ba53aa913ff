"""Seeded inputs for the nvtorus benchmark, with their expected outputs.

The generator is pure Python and imports nothing from ``nvtorus``, so a
seed yields the same inputs whatever the library under test does (a fix to
``nvtorus.sampling`` cannot reshuffle the workloads), and the expected
outputs it records are an oracle independent of the library.

Every irreducible spec comes from a finite abelian group G acting on itself
by translation: basis vector e_j moves the slot of x to the slot of x + g_j.
A homomorphism chi: G -> (Q/Z)^k fixes the rest.  The matrix A has columns
chi(g_j) + m_j with integer m_j, the point of x is chi(x0 - x) plus an
integer offset (x0 sits in slot 1, its point is 0), and the translations are
those the points induce, A e_j + a_x - a_{x - g_j}.  A z is integral exactly
when phi(z) = sum z_j g_j lies in ker chi, so:

* chi injective gives an AFFINE spec whose realization is (A, a) exactly;
* ker chi = H != 0 gives a NOT AFFINE spec whose witness is the first box
  vector z (lexicographic, box prod [0, ord g_j)) with phi(z) in H - {0},
  at slot 1, with cycle length ord phi(z) and value L * A z.

Each workload is a fixed schedule of entries; the seed draws the data of
each entry (generators, labels, chi, matrices, decks) under bands that keep
the work of an entry alike across seeds.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("decide-irreducible", "nielsen-reducible", "verify-grid")


# ---------------------------------------------------------------------------
# finite abelian groups Z_{d_1} x ... x Z_{d_r}


def elements(shape):
    return list(itertools.product(*(range(d) for d in shape)))


def g_add(x, y, shape):
    return tuple((a + b) % d for a, b, d in zip(x, y, shape))


def g_sub(x, y, shape):
    return tuple((a - b) % d for a, b, d in zip(x, y, shape))


def g_mul(m, x, shape):
    return tuple((m * a) % d for a, d in zip(x, shape))


def g_order(x, shape):
    return math.lcm(1, *(d // math.gcd(a, d) for a, d in zip(x, shape)))


def generated(shape, gens):
    zero = tuple(0 for _ in shape)
    seen = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g_add(x, g, shape)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def phi(z, gens, shape):
    out = tuple(0 for _ in shape)
    for c, g in zip(z, gens):
        out = g_add(out, g_mul(c, g, shape), shape)
    return out


def box(gens, shape):
    """The scan box of today's library: prod [0, ord g_j), origin excluded."""
    orders = [g_order(g, shape) for g in gens]
    return [z for z in itertools.product(*(range(o) for o in orders)) if any(z)]


# ---------------------------------------------------------------------------
# wreath arithmetic on raw data: (trans, image), slots 1-based


def w_compose(a, b):
    """Acting by the result equals acting by b, then by a."""
    ta, pa = a
    tb, pb = b
    inv = [0] * len(pa)
    for i, img in enumerate(pa, start=1):
        inv[img - 1] = i
    trans = tuple(
        tuple(x + y for x, y in zip(ta[i], tb[inv[i] - 1])) for i in range(len(pa))
    )
    return trans, tuple(pa[c - 1] for c in pb)


def w_invert(a):
    ta, pa = a
    inv = [0] * len(pa)
    for i, img in enumerate(pa, start=1):
        inv[img - 1] = i
    trans = tuple(tuple(-x for x in ta[pa[i] - 1]) for i in range(len(pa)))
    return trans, tuple(inv)


def w_identity(k, n):
    return tuple((0,) * k for _ in range(n)), tuple(range(1, n + 1))


def w_evaluate(images, z):
    k = len(images)
    n = len(images[0][1])
    out = w_identity(k, n)
    for image, c in zip(images, z):
        step = image if c >= 0 else w_invert(image)
        for _ in range(abs(c)):
            out = w_compose(out, step)
    return out


def cycle_length(image, i):
    length, j = 1, image[i - 1]
    while j != i:
        length, j = length + 1, image[j - 1]
    return length


# ---------------------------------------------------------------------------
# text forms


def frac_str(value):
    value = Fraction(value)
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def vec_str(vec):
    return [frac_str(a) for a in vec]


def cycle_string(image):
    seen, cycles = set(), []
    for start in range(1, len(image) + 1):
        if start in seen:
            continue
        cycle, j = [start], image[start - 1]
        seen.add(start)
        while j != start:
            cycle.append(j)
            seen.add(j)
            j = image[j - 1]
        if len(cycle) > 1:
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(cycles) or "id"


def spec_text(images):
    """Spec file text in the canonical layout of the library's spec format."""
    k = len(images)
    n = len(images[0][1])
    records = ",\n".join(
        f'    {{"phi": {json.dumps([list(v) for v in trans])}, '
        f'"sigma": {json.dumps(cycle_string(image))}}}'
        for trans, image in images
    )
    return f'{{\n  "k": {k},\n  "n": {n},\n  "images": [\n{records}\n  ]\n}}\n'


# ---------------------------------------------------------------------------
# realization-induced blocks


def mat_det(m):
    rows = [[Fraction(a) for a in row] for row in m]
    size, det = len(rows), Fraction(1)
    for c in range(size):
        piv = next((r for r in range(c, size) if rows[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        for r in range(c + 1, size):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return det


def mat_vec(m, v):
    return tuple(sum((a * b for a, b in zip(row, v)), Fraction(0)) for row in m)


def pick_generators(rng, k, shape, box_lo, box_hi):
    elems = elements(shape)
    size = len(elems)
    for _ in range(20000):
        gens = [rng.choice(elems) for _ in range(k)]
        volume = math.prod(g_order(g, shape) for g in gens)
        if box_lo <= volume <= box_hi and len(generated(shape, gens)) == size:
            return gens
    raise RuntimeError(f"no generators for k={k}, shape={shape}, box {box_lo}..{box_hi}")


def pick_character(rng, k, shape, kernel):
    """Columns c_r of chi(x) = sum_r x_r c_r / d_r (mod 1) with ker chi == kernel."""
    elems = elements(shape)
    for _ in range(20000):
        cols = [tuple(rng.randrange(d) for _ in range(k)) for d in shape]
        ker = {x for x in elems if not any(chi_raw(x, cols, shape, k))}
        if ker == kernel:
            return cols
    raise RuntimeError(f"no character with the requested kernel on {shape}")


def chi_raw(x, cols, shape, k):
    """chi(x) as a vector of k fractions in [0, 1)."""
    return tuple(
        sum((Fraction(x[r] * cols[r][c], shape[r]) for r in range(len(shape))), Fraction(0)) % 1
        for c in range(k)
    )


def uniform(bound):
    return lambda rng: rng.randint(-bound, bound)


def sparse(bound):
    """Integer entries that are 0 about half of the time, else in [-bound, bound]."""
    return lambda rng: 0 if rng.random() < 0.5 else rng.randint(-bound, bound)


def draw_matrix(rng, chis, draw):
    """Columns chi(g_j) plus integers from ``draw(rng)``; ``chis`` lists chi(g_j)."""
    columns = [tuple(f + draw(rng) for f in chi) for chi in chis]
    return tuple(tuple(column[r] for column in columns) for r in range(len(chis)))


def draw_points(rng, k, shape, cols, x0):
    """The point of x is chi(x0 - x) plus an integer offset; x0's point is 0."""
    points = {}
    for x in elements(shape):
        base = chi_raw(g_sub(x0, x, shape), cols, shape, k)
        offset = (0,) * k if x == x0 else tuple(rng.randint(-1, 1) for _ in range(k))
        points[x] = tuple(a + b for a, b in zip(base, offset))
    return points


def induced_block(shape, gens, matrix, points, slot_of):
    """Per generator, the permutation and translations (dicts keyed by slot)
    that a realization induces on the slots of its orbit."""
    images = []
    for j, g in enumerate(gens):
        column = [row[j] for row in matrix]
        perm, trans = {}, {}
        for x in elements(shape):
            perm[slot_of[x]] = slot_of[g_add(x, g, shape)]
            value = tuple(a + b - c for a, b, c in zip(column, points[x], points[g_sub(x, g, shape)]))
            if any(v.denominator != 1 for v in value):
                raise AssertionError("induced translation is not integral")
            trans[slot_of[x]] = tuple(int(v) for v in value)
        images.append((perm, trans))
    return images


def realization_block(rng, k, shape, gens, cols, slots, draw):
    """Matrix, points and induced images of one orbit living on ``slots``.

    Group element elems[i] sits in slots[i]; the element in the smallest slot
    gets point 0, which is the library's normalization of a component.
    """
    elems = elements(shape)
    slot_of = dict(zip(elems, slots))
    matrix = draw_matrix(rng, [chi_raw(g, cols, shape, k) for g in gens], draw)
    points = draw_points(rng, k, shape, cols, elems[slots.index(min(slots))])
    return matrix, points, slot_of, induced_block(shape, gens, matrix, points, slot_of)


def assemble(k, n, blocks):
    """Merge per-block images (dicts keyed by global slot) into raw images."""
    out = []
    for j in range(k):
        perm, trans = {}, {}
        for block in blocks:
            perm.update(block[j][0])
            trans.update(block[j][1])
        out.append(
            (tuple(trans[s] for s in range(1, n + 1)), tuple(perm[s] for s in range(1, n + 1)))
        )
    return tuple(out)


def witness_position(gens, shape, kernel):
    for position, z in enumerate(box(gens, shape)):
        if phi(z, gens, shape) in kernel:
            return position, z
    return None, None


# ---------------------------------------------------------------------------
# decide-irreducible


# (k, shape, volume): AFFINE specs whose scan box prod ord(g_j) has exactly
# this volume, so that an entry costs the same under every seed; the volume
# runs from the coset count n up to 128 n.
DECIDE_AFFINE = [
    (2, (6,), 6), (2, (6,), 18), (2, (6,), 36), (2, (12,), 12), (2, (12,), 144), (2, (6, 2), 36),
    (3, (2, 2, 2), 8), (3, (8,), 128), (3, (4, 2), 64), (3, (12,), 144), (3, (4, 4), 16),
    (3, (16,), 256), (4, (2, 2, 2), 16), (4, (8,), 1024), (4, (4, 2, 2), 32), (4, (4, 4), 128),
]
# (family, k, n): rotation_morphism(n, k), translated_morphism(n), and
# conjugates of them by random deck elements; all exit at the first box vector.
DECIDE_FAMILIES = [
    ("rotation", 2, 6), ("rotation", 3, 8), ("rotation", 3, 12), ("rotation", 4, 16),
    ("translated", 2, 6), ("translated", 2, 12),
    ("rotation", 4, 8), ("rotation-deck", 2, 6), ("rotation-deck", 2, 12),
    ("rotation-deck", 4, 8), ("rotation-deck", 3, 16),
    ("translated-deck", 2, 6), ("translated-deck", 2, 12),
]
# (k, shape, volume, position): NOT AFFINE specs whose first witness is box
# vector number ``position`` (0-based), in the later 60% of the box.
DECIDE_DEEP = [
    (2, (12,), 12, 5), (2, (6, 2), 12, 5), (3, (4, 2), 32, 15), (3, (4, 4), 64, 33),
    (4, (2, 2, 2), 16, 6), (4, (4, 2, 2), 64, 31),
]


def _orbit_entry(n, label, matrix=None, points=None, witness=None):
    out = {"slots": list(range(1, n + 1)), "verdict": label}
    if label == "affine":
        out["matrix"] = [vec_str(row) for row in matrix]
        out["points"] = [vec_str(p) for p in points]
    else:
        out["witness"] = witness
    return out


def _labelled_slots(rng, n):
    slots = list(range(1, n + 1))
    rng.shuffle(slots)
    return slots


def decide_affine(rng, k, shape, volume):
    n = math.prod(shape)
    gens = pick_generators(rng, k, shape, volume, volume)
    cols = pick_character(rng, k, shape, {tuple(0 for _ in shape)})
    slots = _labelled_slots(rng, n)
    matrix, points, slot_of, block = realization_block(rng, k, shape, gens, cols, slots, uniform(2))
    by_slot = {slot_of[x]: p for x, p in points.items()}
    images = assemble(k, n, [block])
    expect = [_orbit_entry(n, "affine", matrix, [by_slot[s] for s in range(1, n + 1)])]
    scan = len(box(gens, shape))
    return images, expect, {"box": scan, "cosets": n, "scan": scan}


def decide_deep(rng, k, shape, volume, position):
    """NOT AFFINE spec whose first witness is the box vector at ``position``
    (0-based) of a box of the given volume."""
    n = math.prod(shape)
    elems = elements(shape)
    zero = tuple(0 for _ in shape)
    for _ in range(20000):
        gens = pick_generators(rng, k, shape, volume, volume)
        h = rng.choice(elems[1:])
        kernel = {g_mul(m, h, shape) for m in range(g_order(h, shape))}
        if witness_position(gens, shape, kernel - {zero})[0] == position:
            break
    else:
        raise RuntimeError(f"no witness at {position} for k={k}, shape={shape}")
    z = witness_position(gens, shape, kernel - {zero})[1]
    cols = pick_character(rng, k, shape, kernel)
    slots = _labelled_slots(rng, n)
    matrix, _, _, block = realization_block(rng, k, shape, gens, cols, slots, uniform(2))
    images = assemble(k, n, [block])
    length = g_order(phi(z, gens, shape), shape)
    value = [int(length * a) for a in mat_vec(matrix, z)]
    witness = {"i": 1, "z": list(z), "cycle_length": length, "value": value}
    expect = [_orbit_entry(n, "not_affine", witness=witness)]
    return images, expect, {"box": volume - 1, "cosets": n, "scan": position + 1}


def family_images(name, k, n):
    """rotation_morphism(n, k) or translated_morphism(n), as raw images."""
    cycle = (n,) + tuple(range(1, n))
    step = (1, 0) if name.startswith("translated") else (0,) * k
    first = (tuple(step for _ in range(n)), cycle)
    return (first,) + tuple(w_identity(k, n) for _ in range(k - 1))


def random_deck(rng, k, n, centralizing=None):
    """Deck element with translations in [-3, 3]; its permutation is random,
    or a random power of ``centralizing`` so that conjugation keeps the
    permutation data."""
    trans = tuple(tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(n))
    if centralizing is None:
        image = list(range(1, n + 1))
        rng.shuffle(image)
        return trans, tuple(image)
    perm = tuple(range(1, n + 1))
    for _ in range(rng.randrange(n)):
        perm = tuple(centralizing[c - 1] for c in perm)
    return trans, perm


def conjugate_images(deck, images):
    inverse = w_invert(deck)
    return tuple(w_compose(w_compose(deck, im), inverse) for im in images)


def decide_family(rng, name, k, n):
    images = family_images(name, k, n)
    if name.endswith("-deck"):
        images = conjugate_images(random_deck(rng, k, n), images)
    value = [n if (name.startswith("translated") and c == 0) else 0 for c in range(k)]
    witness = {"i": 1, "z": [1] + [0] * (k - 1), "cycle_length": n, "value": value}
    expect = [_orbit_entry(n, "not_affine", witness=witness)]
    return images, expect, {"box": n, "cosets": n, "scan": 1}


# ---------------------------------------------------------------------------
# nielsen-reducible


# k and block shapes (one orbit each, n <= 4 per block).  Each entry appears
# NIELSEN_REPEATS times per pass with fresh data.
NIELSEN = [
    (2, [(2,), (3,), ()]), (2, [(4,), (2,)]), (2, [(2, 2), (), ()]), (2, [(3,), (3,), (2,)]),
    (2, [(4,), (), (2,), ()]), (2, [(2,), (2,)]), (3, [(2,), (2,)]), (3, [(3,), (4,)]),
    (3, [(), (2,), (2, 2)]), (3, [(4,), (2,), ()]), (3, [(3,), ()]), (3, [(2, 2), (2,)]),
    (3, [(2,), (), ()]), (4, [(2,), ()]), (4, [(4,), (2,)]), (4, [(3,), (), ()]),
    (4, [(2, 2), ()]), (4, [(2,), (3,)]), (4, [(), ()]),
]
NIELSEN_REPEATS = 5
# Per k: the bound of the integer parts of matrix entries, and the band of
# parallelepiped offsets per point of today's fixed-point oracle, which keeps
# an entry's cost alike across seeds.
NIELSEN_ENTRY_BOUND = {2: 3, 3: 4, 4: 6}
NIELSEN_OFFSETS = {2: (32, 48), 3: (240, 360), 4: (800, 1200)}


def fixed_point_offsets(matrix, point):
    """Integer offsets today's ``count_fixed_points`` enumerates for one point."""
    k = len(matrix)
    lef = [[(1 if r == c else 0) - matrix[r][c] for c in range(k)] for r in range(k)]
    low = [sum(min(a, 0) for a in row) for row in lef]
    high = [sum(max(a, 0) for a in row) for row in lef]
    return math.prod(
        max(0, math.floor(high[r] - point[r]) - math.ceil(low[r] - point[r]) + 1)
        for r in range(k)
    )


def lefschetz_det(matrix):
    k = len(matrix)
    return mat_det([[(1 if r == c else 0) - matrix[r][c] for c in range(k)] for r in range(k)])


def local_key(k, slots, block):
    """The component decompose() cuts out of a block: slots renumbered ascending."""
    local = {s: i for i, s in enumerate(sorted(slots), start=1)}
    return (k,) + tuple(
        tuple((local[perm[s]], trans[s]) for s in sorted(slots)) for perm, trans in block
    )


def nielsen_block(rng, k, shape, slots, invertible):
    """One affine orbit on ``slots`` with det(I - A) != 0 (and det A != 0 when
    ``invertible``), its offsets per point inside the band for k."""
    elems = elements(shape)
    slot_of = dict(zip(elems, slots))
    x0 = elems[slots.index(min(slots))]
    low, high = NIELSEN_OFFSETS[k]
    draw = sparse(NIELSEN_ENTRY_BOUND[k])
    zero = (0,) * k
    for attempt in range(100000):
        if attempt % 200 == 0:
            gens = pick_generators(rng, k, shape, len(elems), 2 * len(elems))
            cols = pick_character(rng, k, shape, {tuple(0 for _ in shape)})
            chis = [chi_raw(g, cols, shape, k) for g in gens]
        matrix = draw_matrix(rng, chis, draw)
        if not low <= fixed_point_offsets(matrix, zero) <= high:  # x0's point is 0
            continue
        points = draw_points(rng, k, shape, cols, x0)
        offsets = sum(fixed_point_offsets(matrix, p) for p in points.values())
        if not low * len(elems) <= offsets <= high * len(elems):
            continue
        det = lefschetz_det(matrix)
        if det != 0 and (not invertible or mat_det(matrix) != 0):
            break
    else:
        raise RuntimeError(f"no block for k={k}, shape={shape}")
    by_slot = {slot_of[x]: p for x, p in points.items()}
    return induced_block(shape, gens, matrix, points, slot_of), {
        "slots": sorted(slots),
        "det": det,
        "matrix": [vec_str(row) for row in matrix],
        "points": [vec_str(by_slot[s]) for s in sorted(slots)],
        "fixed_points": int(len(elems) * abs(det)),
        "offsets": offsets,
        "box": math.prod(g_order(g, shape) for g in gens) - 1,
    }


def nielsen_spec(rng, k, shapes, seen):
    """A reducible affine spec, one block per shape on randomly chosen slots.

    The first block has an invertible matrix, so the image has no torsion;
    no block equals a component of an earlier spec of the pass.
    """
    n = sum(math.prod(s) for s in shapes)
    slots = _labelled_slots(rng, n)
    blocks, comps = [], []
    for number, shape in enumerate(shapes):
        mine, slots = slots[:math.prod(shape)], slots[math.prod(shape):]
        while True:
            block, comp = nielsen_block(rng, k, shape, mine, invertible=number == 0)
            key = local_key(k, mine, block)
            if key not in seen:
                seen.add(key)
                break
        blocks.append(block)
        comps.append(comp)
    comps.sort(key=lambda c: c["slots"][0])
    det_of = {s: c["det"] for c in comps for s in c["slots"]}
    total = sum(c["fixed_points"] for c in comps)
    expect = {
        "orbits": [c["slots"] for c in comps],
        "torsion": None,
        "factor_dets": [frac_str(det_of[s]) for s in range(1, n + 1)],
        "nielsen": str(total),
        "reidemeister": str(total),
        "components": [
            {key: c[key] for key in ("slots", "matrix", "points", "fixed_points")}
            for c in comps
        ],
    }
    descriptors = {
        "offsets": sum(c["offsets"] for c in comps),
        "fixed_points": total,
        "cosets": n,
        "box": sum(c["box"] for c in comps),
    }
    return assemble(k, n, blocks), expect, descriptors


# ---------------------------------------------------------------------------
# verify-grid


# Built-in constructions: (name, n, k, grid).
VERIFY_PLAIN = [
    ("rotation", 6, 2, 20), ("rotation", 7, 2, 20), ("rotation", 3, 3, 8),
    ("rotation", 4, 3, 8), ("translated", 4, 2, 20), ("klein-four", 4, 2, 20),
    ("cyclic-four", 4, 2, 20),
]
# epsilon_perturbation of a target read from a spec file over example_rotation
# (n, k): the translated morphism, or a deck-conjugate of the rotation
# morphism by a deck element commuting with its permutations.  Each n is
# used once per pass and differs from the plain rotations', so no measured op
# analyses a morphism an earlier op of its pass analysed.
VERIFY_PERTURB = [
    ("translated", 5, 2, 20), ("rotation-deck", 3, 2, 20), ("rotation-deck", 4, 2, 20),
    ("rotation-deck", 5, 3, 8),
]
# wrap_realization of a random affine realization: (k, shape, grid).
VERIFY_WRAP = [(2, (3,), 20), (2, (4,), 20), (2, (2, 2), 20), (3, (4,), 8)]


def affine_data_of(images, matrix):
    """Points the library's affine_data attaches to an irreducible morphism."""
    k, n = len(images), len(images[0][1])
    orders = [math.lcm(1, *(cycle_length(image, s) for s in range(1, n + 1))) for _, image in images]
    points = [None] * n
    for z in itertools.product(*(range(o) for o in orders)):
        trans, image = w_evaluate(images, z)
        target = image.index(1) + 1
        if points[target - 1] is None:
            points[target - 1] = tuple(a - b for a, b in zip(mat_vec(matrix, z), trans[0]))
    return points


def perturb_item(rng, name, n, k, grid):
    cycle = (n,) + tuple(range(1, n))
    images = family_images(name, k, n)
    if name.endswith("-deck"):
        images = conjugate_images(random_deck(rng, k, n, centralizing=cycle), images)
    matrix = [[Fraction(0)] * k for _ in range(k)]
    if name.startswith("translated"):
        matrix[0][0] = Fraction(1)
    points = affine_data_of(images, matrix)
    return {
        "input": {"kind": "perturb", "base": "rotation", "n": n, "k": k, "grid": grid,
                  "spec": spec_text(images)},
        "expect": {"matrix": [vec_str(r) for r in matrix], "points": [vec_str(p) for p in points],
                   "samples": grid**k},
        "raw": images,
    }


def wrap_item(rng, k, shape, grid):
    n = math.prod(shape)
    gens = pick_generators(rng, k, shape, 1, 10**9)
    cols = pick_character(rng, k, shape, {tuple(0 for _ in shape)})
    slots = _labelled_slots(rng, n)
    matrix, points, slot_of, block = realization_block(rng, k, shape, gens, cols, slots, uniform(2))
    by_slot = {slot_of[x]: p for x, p in points.items()}
    perms = [tuple(perm[s] for s in range(1, n + 1)) for perm, _ in block]
    return {
        "input": {"kind": "wrap", "n": n, "k": k, "grid": grid,
                  "matrix": [vec_str(r) for r in matrix],
                  "points": [vec_str(by_slot[s]) for s in range(1, n + 1)],
                  "perms": [cycle_string(p) for p in perms]},
        "expect": {"samples": grid**k},
        "raw": assemble(k, n, [block]),
    }


# ---------------------------------------------------------------------------
# workloads


def _decide_items(rng):
    draws = [("affine", decide_affine, entry) for entry in DECIDE_AFFINE]
    draws += [(entry[0], decide_family, entry) for entry in DECIDE_FAMILIES]
    draws += [("deep", decide_deep, entry) for entry in DECIDE_DEEP]
    items, seen = [], set()
    for kind, draw, entry in draws:
        text = None
        while text is None or text in seen:  # redraw the rare repeat of a spec
            images, expect, descriptors = draw(rng, *entry)
            text = spec_text(images)
        seen.add(text)
        items.append({"input": {"kind": kind, "spec": text}, "expect": expect, "raw": images,
                      "descriptors": descriptors})
    return items


def _nielsen_items(rng):
    items, seen = [], set()
    for _ in range(NIELSEN_REPEATS):
        for k, shapes in NIELSEN:
            images, expect, descriptors = nielsen_spec(rng, k, shapes, seen)
            items.append({"input": {"kind": "reducible", "spec": spec_text(images)},
                          "expect": expect, "descriptors": descriptors})
    return items


def cycles_image(n, cycles):
    image = list(range(1, n + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            image[a - 1] = b
    return tuple(image)


def plain_images(name, n, k):
    """Declared morphism of a built-in construction, as raw images."""
    if name in ("rotation", "translated"):
        return family_images(name, k, n)
    zero = tuple((0, 0) for _ in range(4))
    cycles = {"klein-four": ([(1, 2), (3, 4)], [(1, 3), (2, 4)]),
              "cyclic-four": ([(1, 2, 3, 4)], [(1, 3), (2, 4)])}[name]
    return tuple((zero, cycles_image(4, c)) for c in cycles)


def _verify_items(rng):
    items = []
    for name, n, k, grid in VERIFY_PLAIN:
        items.append({"input": {"kind": name, "n": n, "k": k, "grid": grid},
                      "expect": {"samples": grid**k}, "raw": plain_images(name, n, k)})
    for entry in VERIFY_PERTURB:
        items.append(perturb_item(rng, *entry))
    for entry in VERIFY_WRAP:
        items.append(wrap_item(rng, *entry))
    for item in items:
        item["descriptors"] = {"samples": item["expect"]["samples"]}
    return items


WARMUP = {
    # k = 1 morphisms and n = 2 rotations never occur in the measured sets.
    "decide-irreducible": {"kind": "rotation", "spec": spec_text(family_images("rotation", 1, 2))},
    "nielsen-reducible": {"kind": "reducible", "spec": spec_text(((((2,), (3,)), (1, 2)),))},
    "verify-grid": {"kind": "rotation", "n": 2, "k": 2, "grid": 4},
}


def build(workload, seed):
    """The inputs, expected outputs and input descriptors of one workload."""
    rng = random.Random(f"nvtorus-bench/{workload}/{seed}")
    items = {"decide-irreducible": _decide_items, "nielsen-reducible": _nielsen_items,
             "verify-grid": _verify_items}[workload](rng)
    texts = [it["input"].get("spec") for it in items if "spec" in it["input"]]
    if len(set(texts)) != len(texts):
        raise AssertionError("a spec occurs twice in one pass")
    rng.shuffle(items)
    for number, item in enumerate(items):
        item["id"] = number
    totals = {}
    for item in items:
        for key, value in item.pop("descriptors").items():
            totals[key] = totals.get(key, 0) + value
    digest = hashlib.sha256(
        json.dumps([it["input"] for it in items], sort_keys=True).encode()
    ).hexdigest()
    return {"workload": workload, "seed": seed, "items": items, "warmup": WARMUP[workload],
            "input_digest": digest, "descriptors": totals}
