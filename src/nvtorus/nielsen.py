"""Reidemeister and Nielsen numbers of affine n-valued torus maps.

Both numbers are determinant sums over the factor matrices: the Nielsen
number adds |det(I - A_i)| and the Reidemeister number does the same with
the convention that a vanishing determinant contributes infinity.  For a
morphism the numbers are computed per irreducible component and added.

`count_fixed_points` is an independent geometric oracle: it enumerates the
actual fixed points of each affine factor on the torus by exact integer
arithmetic, valid whenever no determinant vanishes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .affine import AffineRealization, Outcome, decide_affine_irreducible
from .errors import ComponentNotAffine, DegenerateLefschetz
from .lattices import (
    INFINITE,
    RatMat,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_sub,
    mat_vec,
    ratmat,
)
from .morphisms import TorusMorphism, decompose


@dataclass(frozen=True)
class NielsenReport:
    """Exact determinant data for a family of affine factors.

    ``reidemeister`` is the Nielsen sum when every determinant is nonzero
    and INFINITE otherwise.  ``nielsen`` stays an exact Fraction; it is
    expected to be an integer and `nielsen_integral` flags violations
    instead of rounding them away.
    """

    factor_dets: tuple[Fraction, ...]
    reidemeister: Fraction | float
    nielsen: Fraction
    components: tuple["ComponentBreakdown", ...] | None = None

    @property
    def nielsen_integral(self) -> bool:
        return self.nielsen.denominator == 1


@dataclass(frozen=True)
class ComponentBreakdown:
    indices: tuple[int, ...]
    report: NielsenReport


def nielsen_affine(matrices: Sequence[RatMat]) -> NielsenReport:
    """Determinant sums for explicitly given factor matrices A_1..A_n."""
    dets = tuple(mat_det(mat_sub(mat_identity(len(m)), ratmat(m))) for m in matrices)
    total = sum((abs(d) for d in dets), Fraction(0))
    reidemeister = INFINITE if any(d == 0 for d in dets) else total
    return NielsenReport(dets, reidemeister, total)


def nielsen_of_morphism(psi: TorusMorphism) -> NielsenReport:
    """Nielsen data of a morphism, added over its irreducible components.

    Every component must be affine-realizable; otherwise ComponentNotAffine
    is raised carrying the component position and the obstruction witness,
    since no formula applies to non-affine factors.
    """
    breakdown = []
    det_by_slot: dict[int, Fraction] = {}
    for position, (component, index_map) in enumerate(decompose(psi)):
        verdict = decide_affine_irreducible(component)
        if verdict.outcome is not Outcome.AFFINE:
            raise ComponentNotAffine(position, verdict.witness)
        matrix = verdict.realization.matrix
        report = nielsen_affine([matrix] * component.n)
        breakdown.append(ComponentBreakdown(index_map, report))
        for slot in index_map:
            det_by_slot[slot] = report.factor_dets[0]
    dets = tuple(det_by_slot[i] for i in range(1, psi.n + 1))
    total = sum((abs(d) for d in dets), Fraction(0))
    reidemeister = INFINITE if any(d == 0 for d in dets) else total
    return NielsenReport(dets, reidemeister, total, components=tuple(breakdown))


def count_fixed_points(realization: AffineRealization) -> int:
    """Geometric fixed-point count of the affine map given by a realization.

    For each factor i this counts the x in [0,1)^k with
    (I - A) x = a_i modulo Z^k, by enumerating the integer offsets m inside
    the image parallelepiped of the unit cell and checking the preimage
    exactly.  Requires det(I - A) != 0; in that regime the total equals the
    Nielsen number.
    """
    k = realization.k
    lefschetz = mat_sub(mat_identity(k), realization.matrix)
    if mat_det(lefschetz) == 0:
        raise DegenerateLefschetz("det(I - A) = 0; fixed points are not isolated")
    denominator = math.lcm(*(a.denominator for row in lefschetz for a in row))
    scaled = [[int(a * denominator) for a in row] for row in lefschetz]
    scaled_det = int(mat_det(scaled))
    inverse = mat_inverse(ratmat(scaled))
    adjugate = [[int(a * scaled_det) for a in row] for row in inverse]

    low = [sum(min(a, 0) for a in row) for row in lefschetz]
    high = [sum(max(a, 0) for a in row) for row in lefschetz]

    total = 0
    for point in realization.points:
        point_scale = math.lcm(*(a.denominator for a in point))
        point_int = [int(a * point_scale) for a in point]
        # x = denominator * adjugate * (point + m) / (scaled_det * point_scale)
        split = scaled_det * point_scale
        base = mat_vec(adjugate, point_int)
        ranges = [
            range(math.ceil(low[r] - point[r]), math.floor(high[r] - point[r]) + 1)
            for r in range(k)
        ]
        for offset in itertools.product(*ranges):
            shifted = mat_vec(adjugate, [m * point_scale for m in offset])
            inside = True
            for c in range(k):
                numerator = denominator * (base[c] + shifted[c])
                if split > 0:
                    if not 0 <= numerator < split:
                        inside = False
                        break
                else:
                    if not split < numerator <= 0:
                        inside = False
                        break
            if inside:
                total += 1
    return total
