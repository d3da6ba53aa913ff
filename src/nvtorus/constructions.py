"""Trigonometric n-valued torus maps and their numeric verification.

The built-in families realize morphisms that have no affine representative:
a circle of n points driven by t_1 (plain and with a translation term), and
two 4-valued maps whose permutation data generate the Klein four group and
the cyclic group of order four.  `epsilon_perturbation` upgrades any
zero-translation construction to one inducing a prescribed morphism with
the same permutation data, by adding a small multiple of it to an affine
part.

Floating point lives only in this module.  Verification samples a uniform
grid on the unit cell and checks the lift equivariance relations and
pairwise distinctness modulo Z^k at every sample; the inequalities being
checked are strict with margin by construction, so double precision is
enough.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from .affine import AffineRealization, affine_data, induced_morphism
from .errors import BadParameters, BaseMismatch, DimensionMismatch
from .morphisms import (
    TorusMorphism,
    basis_orders,
    index_orbits,
    pure_permutation_morphism,
)
from .wreath import Permutation, WreathElement

Factor = Callable[[np.ndarray], np.ndarray]

TWO_PI = 2.0 * math.pi


@dataclass
class SampledMultiMap:
    """A family of n lift factors R^k -> R^k with the morphism they induce."""

    k: int
    n: int
    factors: tuple[Factor, ...]
    declared: TorusMorphism
    metadata: dict[str, Any] = field(default_factory=dict)

    def factor(self, i: int, t: Sequence[float]) -> np.ndarray:
        """Evaluate lift factor i (1-based) at t."""
        return self.factors[i - 1](np.asarray(t, dtype=float))


@dataclass(frozen=True)
class VerificationReport:
    samples_checked: int
    max_equivariance_residual: float
    min_pairwise_separation: float
    passed: bool
    first_failure: tuple[float, ...] | None

    def to_json_dict(self) -> dict[str, Any]:
        sep = self.min_pairwise_separation
        return {
            "samples_checked": self.samples_checked,
            "max_equivariance_residual": self.max_equivariance_residual,
            "min_pairwise_separation": sep if math.isfinite(sep) else "inf",
            "passed": self.passed,
            "first_failure": list(self.first_failure) if self.first_failure else None,
        }


# ---------------------------------------------------------------------------
# morphisms of the built-in families


def backward_cycle(n: int) -> Permutation:
    """The n-cycle sending every slot to its predecessor (and 1 to n)."""
    return Permutation(tuple([n] + list(range(1, n))))


def rotation_morphism(n: int, k: int = 2) -> TorusMorphism:
    """All translations zero; the first basis direction cycles the slots."""
    perms = [backward_cycle(n)] + [Permutation.identity(n)] * (k - 1)
    return pure_permutation_morphism(k, perms)


def translated_morphism(n: int) -> TorusMorphism:
    """Like `rotation_morphism` on k=2 but every slot translates by (1, 0)."""
    trans = tuple(((1, 0),) * n)
    first = WreathElement(2, n, trans, backward_cycle(n))
    second = WreathElement.identity(2, n)
    return TorusMorphism(2, n, (first, second))


def klein_four_morphism() -> TorusMorphism:
    perms = [
        Permutation.from_cycles(4, [(1, 2), (3, 4)]),
        Permutation.from_cycles(4, [(1, 3), (2, 4)]),
    ]
    return pure_permutation_morphism(2, perms)


def cyclic_four_morphism() -> TorusMorphism:
    perms = [
        Permutation.from_cycles(4, [(1, 2, 3, 4)]),
        Permutation.from_cycles(4, [(1, 3), (2, 4)]),
    ]
    return pure_permutation_morphism(2, perms)


# ---------------------------------------------------------------------------
# built-in constructions


def _circle_point(angle: float) -> tuple[float, float]:
    return 0.25 * math.cos(angle), 0.25 * math.sin(angle)


def example_rotation(n: int, k: int = 2) -> SampledMultiMap:
    """n points on a circle of radius 1/4, rotated by t_1/n; constant in t_2..t_k.

    For k > 2 the remaining output coordinates are zero.
    """
    if n < 2 or k < 2:
        raise BadParameters("rotation construction needs n >= 2 and k >= 2")

    def make(i: int) -> Factor:
        def factor(t: np.ndarray) -> np.ndarray:
            out = np.zeros(k)
            out[0], out[1] = _circle_point(TWO_PI * (t[0] + i - 1) / n)
            return out

        return factor

    return SampledMultiMap(
        k=k,
        n=n,
        factors=tuple(make(i) for i in range(1, n + 1)),
        declared=rotation_morphism(n, k),
        metadata={"name": "rotation", "n": n, "k": k, "amplitude_bound": 0.25},
    )


def example_translated(n: int) -> SampledMultiMap:
    """The rotation family with t_1 added to the first coordinate (k = 2)."""
    if n < 2:
        raise BadParameters("translated construction needs n >= 2")

    def make(i: int) -> Factor:
        def factor(t: np.ndarray) -> np.ndarray:
            x, y = _circle_point(TWO_PI * (t[0] + i - 1) / n)
            return np.array([t[0] + x, y])

        return factor

    return SampledMultiMap(
        k=2,
        n=n,
        factors=tuple(make(i) for i in range(1, n + 1)),
        declared=translated_morphism(n),
        metadata={"name": "translated", "n": n, "k": 2},
    )


def example_klein_four() -> SampledMultiMap:
    """Four factors from two circles of radii 1/4 and 1/8 with period-2 arguments."""

    def make(a: int, b: int) -> Factor:
        def factor(t: np.ndarray) -> np.ndarray:
            big = TWO_PI * (t[0] + a) / 2
            small = TWO_PI * (t[1] + b) / 2
            return np.array(
                [
                    0.25 * math.cos(big) + 0.125 * math.cos(small),
                    0.25 * math.sin(big) + 0.125 * math.sin(small),
                ]
            )

        return factor

    offsets = [(0, 0), (1, 0), (0, 1), (1, 1)]
    return SampledMultiMap(
        k=2,
        n=4,
        factors=tuple(make(a, b) for a, b in offsets),
        declared=klein_four_morphism(),
        metadata={"name": "klein-four", "n": 4, "k": 2, "amplitude_bound": 0.375},
    )


def example_cyclic_four() -> SampledMultiMap:
    """Four factors on one circle with quarter-period offsets in t_1 + 2 t_2.

    The offsets (0, 3, 2, 1) are the assignment under which shifting t_1 by
    one realizes the 4-cycle (1 2 3 4) on the slots.
    """

    def make(c: int) -> Factor:
        def factor(t: np.ndarray) -> np.ndarray:
            angle = TWO_PI * (t[0] + 2 * t[1] + c) / 4
            return np.array([0.25 * math.cos(angle), 0.25 * math.sin(angle)])

        return factor

    offsets = [0, 3, 2, 1]
    return SampledMultiMap(
        k=2,
        n=4,
        factors=tuple(make(c) for c in offsets),
        declared=cyclic_four_morphism(),
        metadata={"name": "cyclic-four", "n": 4, "k": 2, "amplitude_bound": 0.25},
    )


BUILTIN_EXAMPLES = {
    "rotation": example_rotation,
    "translated": example_translated,
    "klein-four": example_klein_four,
    "cyclic-four": example_cyclic_four,
}


def wrap_realization(
    realization: AffineRealization, perms: Sequence[Permutation]
) -> SampledMultiMap:
    """Package an affine realization as a sampled map (exact up to rounding)."""
    declared = induced_morphism(realization, perms)
    matrix = np.array(realization.matrix, dtype=float)
    points = [np.array(p, dtype=float) for p in realization.points]

    def make(i: int) -> Factor:
        def factor(t: np.ndarray) -> np.ndarray:
            return matrix @ t + points[i - 1]

        return factor

    return SampledMultiMap(
        k=realization.k,
        n=realization.n,
        factors=tuple(make(i) for i in range(1, realization.n + 1)),
        declared=declared,
        metadata={"name": "affine"},
    )


# ---------------------------------------------------------------------------
# the perturbation construction


def epsilon_perturbation(
    psi: TorusMorphism, base: SampledMultiMap, bound_samples: int | None = None
) -> SampledMultiMap:
    """Realize ``psi`` by perturbing a zero-translation base with the same
    permutation data.

    The new factors are ``A t + a_i + eps * f_i(t)`` where (A, a_i) is the
    affine data of psi and ``eps = 1 / (2 M max_j n_j)`` for a strict bound
    M on the base factor components over one period cell.  M is estimated by
    dense sampling plus a 10% margin, and raised to any declared amplitude
    bound of the base; the policy is recorded in the metadata.
    """
    base_psi = base.declared
    if psi.k != base_psi.k or psi.n != base_psi.n:
        raise BaseMismatch("base and target have different dimensions")
    if psi.perms != base_psi.perms:
        raise BaseMismatch("base and target have different permutation data")
    if any(any(any(v) for v in im.trans) for im in base_psi.images):
        raise BaseMismatch("base translations must all be zero")
    if not index_orbits(base_psi).irreducible:
        raise BaseMismatch("base must be irreducible")

    orders = basis_orders(psi)
    if bound_samples is None:
        bound_samples = max(9, round(4096 ** (1.0 / psi.k)))
    sampled = 0.0
    axes = [
        [orders[j] * g / bound_samples for g in range(bound_samples)]
        for j in range(psi.k)
    ]
    for point in itertools.product(*axes):
        t = np.array(point)
        for i in range(1, psi.n + 1):
            sampled = max(sampled, float(np.max(np.abs(base.factor(i, t)))))
    bound = 1.1 * sampled
    amplitude = base.metadata.get("amplitude_bound")
    if amplitude is not None:
        bound = max(bound, float(amplitude))
    eps = 1.0 / (2.0 * bound * max(orders))

    matrix, points = affine_data(psi)
    matrix_f = np.array(matrix, dtype=float)
    points_f = [np.array(p, dtype=float) for p in points]

    def make(i: int) -> Factor:
        inner = base.factors[i - 1]

        def factor(t: np.ndarray) -> np.ndarray:
            return matrix_f @ t + points_f[i - 1] + eps * inner(t)

        return factor

    return SampledMultiMap(
        k=psi.k,
        n=psi.n,
        factors=tuple(make(i) for i in range(1, psi.n + 1)),
        declared=psi,
        metadata={
            "name": f"perturbed-{base.metadata.get('name', 'base')}",
            "epsilon": eps,
            "bound": bound,
            "bound_policy": "max(1.1 * sampled sup, declared amplitude bound)",
            "matrix": matrix,
            "points": points,
            "orders": orders,
        },
    )


# ---------------------------------------------------------------------------
# verification


def torus_sup_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Sup-norm distance between x and y modulo Z^k."""
    diff = np.abs(np.asarray(x) - np.asarray(y)) % 1.0
    return float(np.max(np.minimum(diff, 1.0 - diff)))


def verify(
    sampled: SampledMultiMap,
    grid: int = 50,
    tol_eq: float = 1e-9,
    sep_min: float = 0.05,
) -> VerificationReport:
    """Check equivariance and n-valuedness on a uniform grid of the unit cell.

    Deterministic for fixed parameters: the grid is swept lexicographically
    and the first failing sample (residual above tol_eq or separation below
    sep_min) is recorded.
    """
    if grid < 2:
        raise BadParameters("grid must have at least 2 points per axis")
    psi = sampled.declared
    if psi.k != sampled.k or psi.n != sampled.n:
        raise DimensionMismatch("declared morphism does not match the factors")
    inverses = [im.perm.inverse() for im in psi.images]
    shifts = [
        [np.array(im.trans[i], dtype=float) for i in range(psi.n)]
        for im in psi.images
    ]
    unit = np.eye(sampled.k)

    max_residual = 0.0
    min_separation = math.inf
    first_failure: tuple[float, ...] | None = None
    samples = 0
    for point in itertools.product(range(grid), repeat=sampled.k):
        t = np.array(point, dtype=float) / grid
        samples += 1
        values = [sampled.factors[i](t) for i in range(sampled.n)]
        local_residual = 0.0
        for j in range(sampled.k):
            shifted_t = t + unit[j]
            for i in range(sampled.n):
                expected = shifts[j][i] + values[inverses[j].apply(i + 1) - 1]
                residual = float(
                    np.max(np.abs(sampled.factors[i](shifted_t) - expected))
                )
                local_residual = max(local_residual, residual)
        local_separation = math.inf
        for a in range(sampled.n):
            for b in range(a + 1, sampled.n):
                local_separation = min(
                    local_separation, torus_sup_distance(values[a], values[b])
                )
        max_residual = max(max_residual, local_residual)
        min_separation = min(min_separation, local_separation)
        if first_failure is None and (
            local_residual > tol_eq or local_separation < sep_min
        ):
            first_failure = tuple(float(x) for x in t)
    passed = max_residual <= tol_eq and min_separation >= sep_min
    return VerificationReport(
        samples_checked=samples,
        max_equivariance_residual=max_residual,
        min_pairwise_separation=min_separation,
        passed=passed,
        first_failure=first_failure,
    )


def dump_samples_csv(sampled: SampledMultiMap, grid: int, stream) -> None:
    """Write factor values on the verification grid as CSV rows."""
    writer = csv.writer(stream)
    writer.writerow(
        [f"t{c + 1}" for c in range(sampled.k)]
        + ["factor"]
        + [f"v{c + 1}" for c in range(sampled.k)]
    )
    for point in itertools.product(range(grid), repeat=sampled.k):
        t = np.array(point, dtype=float) / grid
        for i in range(1, sampled.n + 1):
            value = sampled.factor(i, t)
            writer.writerow([*t.tolist(), i, *value.tolist()])
