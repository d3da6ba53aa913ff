"""Exact integer and rational linear algebra.

This module is the arithmetic substrate for the whole package: sublattices
of Z^k kept in Hermite normal form, membership, index and coset
transversal computations, exact rational linear solves and integer
kernels.  There is no floating point anywhere; rationals are
`fractions.Fraction`, which stays in lowest terms so equality is
structural.

Vectors are plain tuples, matrices are tuples of row tuples.  All values
are immutable and all functions are pure, so everything here is safe to
share between threads.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, Inconsistent, Singular

IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]
RatMat = tuple[RatVec, ...]

#: Sentinel for an infinite lattice index / infinite Reidemeister number.
INFINITE = math.inf


# ---------------------------------------------------------------------------
# vector and matrix helpers


def intvec(entries: Iterable[int]) -> IntVec:
    out = []
    for e in entries:
        i = int(e)
        if i != e:
            raise ValueError(f"non-integer entry {e!r}")
        out.append(i)
    return tuple(out)


def ratvec(entries: Iterable) -> RatVec:
    return tuple(Fraction(e) for e in entries)


def ratmat(rows: Iterable[Iterable]) -> RatMat:
    return tuple(ratvec(r) for r in rows)


def zero_vec(k: int) -> IntVec:
    return (0,) * k


def basis_vec(k: int, j: int) -> IntVec:
    """Standard basis vector with a 1 in position ``j`` (0-based)."""
    return tuple(1 if c == j else 0 for c in range(k))


def vec_add(u: Sequence, v: Sequence):
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_sub(u: Sequence, v: Sequence):
    return tuple(a - b for a, b in zip(u, v, strict=True))


def vec_neg(u: Sequence):
    return tuple(-a for a in u)


def vec_scale(c, u: Sequence):
    return tuple(c * a for a in u)


def vec_sum(vectors: Iterable[Sequence], k: int):
    total = list(zero_vec(k))
    for v in vectors:
        for c, a in enumerate(v):
            total[c] += a
    return tuple(total)


def is_integral(v: Sequence) -> bool:
    """True when every entry is an integer (ints or denominator-1 fractions)."""
    return all(isinstance(a, int) or Fraction(a).denominator == 1 for a in v)


def to_intvec(v: Sequence) -> IntVec:
    """Convert an integral rational vector to an IntVec; raises on non-integers."""
    if not is_integral(v):
        raise ValueError(f"vector {v} is not integral")
    return tuple(int(a) for a in v)


def mat_identity(k: int) -> RatMat:
    return tuple(ratvec(basis_vec(k, j)) for j in range(k))


def mat_vec(m: Sequence[Sequence], v: Sequence):
    return tuple(sum(a * b for a, b in zip(row, v, strict=True)) for row in m)


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]):
    bt = mat_transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_transpose(m: Sequence[Sequence]):
    return tuple(zip(*m)) if m else ()


def mat_sub(a: Sequence[Sequence], b: Sequence[Sequence]):
    return tuple(vec_sub(ra, rb) for ra, rb in zip(a, b, strict=True))


def mat_stack(mats: Iterable[Sequence[Sequence]]) -> RatMat:
    """Stack matrices vertically."""
    rows = []
    for m in mats:
        rows.extend(ratvec(r) for r in m)
    return tuple(rows)


def mat_det(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    k = len(m)
    if any(len(row) != k for row in m):
        raise DimensionMismatch("determinant of a non-square matrix")
    rows = [[Fraction(a) for a in row] for row in m]
    det = Fraction(1)
    for c in range(k):
        piv = next((i for i in range(c, k) if rows[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, k):
            f = rows[i][c] * inv
            if f:
                for cc in range(c, k):
                    rows[i][cc] -= f * rows[c][cc]
    return det


# ---------------------------------------------------------------------------
# Hermite normal form and lattices


@dataclass(frozen=True)
class LatticeBasis:
    """A sublattice of Z^k, stored as a row-style Hermite normal form basis.

    The rows are in echelon form with strictly increasing pivot columns,
    positive pivots and entries above each pivot reduced into [0, pivot).
    This makes the representation canonical: two generating sets span the
    same lattice iff `hnf` maps them to equal bases.
    """

    k: int
    rows: tuple[IntVec, ...]

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        """Pivot column (0-based) of each row."""
        return tuple(next(c for c, a in enumerate(row) if a != 0) for row in self.rows)

    @property
    def is_full_rank(self) -> bool:
        return self.rank == self.k

    def __contains__(self, v) -> bool:
        return lattice_contains(self, intvec(v))


def _row_reduce(rows: list[list[int]], width: int, transform: bool):
    """In-place integer row reduction to Hermite normal form.

    Returns ``(rank, uni)``: the first ``rank`` rows of ``rows`` are the HNF
    of the input lattice and the remaining rows are zero.  When ``transform``
    is set, ``uni`` is the unimodular matrix of accumulated row operations,
    so ``uni @ original == reduced`` and its rows past ``rank`` span the left
    kernel of the original rows.
    """
    m = len(rows)
    uni = [[int(a == b) for b in range(m)] for a in range(m)] if transform else None

    def submul(dst: int, src: int, q: int) -> None:
        if not q:
            return
        rd, rs = rows[dst], rows[src]
        for c in range(width):
            rd[c] -= q * rs[c]
        if uni is not None:
            ud, us = uni[dst], uni[src]
            for c in range(m):
                ud[c] -= q * us[c]

    rank = 0
    for col in range(width):
        if rank == m:
            break
        while True:
            nz = [i for i in range(rank, m) if rows[i][col] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: abs(rows[i][col]))
            if best != rank:
                rows[rank], rows[best] = rows[best], rows[rank]
                if uni is not None:
                    uni[rank], uni[best] = uni[best], uni[rank]
            if len(nz) == 1:
                break
            p = rows[rank][col]
            for i in range(rank + 1, m):
                submul(i, rank, rows[i][col] // p)
        if rows[rank][col] != 0:
            if rows[rank][col] < 0:
                rows[rank] = [-a for a in rows[rank]]
                if uni is not None:
                    uni[rank] = [-a for a in uni[rank]]
            p = rows[rank][col]
            for i in range(rank):
                submul(i, rank, rows[i][col] // p)
            rank += 1
    return rank, uni


def hnf(generators: Iterable[Sequence[int]], k: int) -> LatticeBasis:
    """Canonical HNF basis of the sublattice of Z^k spanned by ``generators``.

    Idempotent: feeding the rows of the result back in returns the same rows.
    """
    rows = []
    for g in generators:
        g = intvec(g)
        if len(g) != k:
            raise DimensionMismatch(f"generator {g} does not have length {k}")
        rows.append(list(g))
    rank, _ = _row_reduce(rows, k, transform=False)
    return LatticeBasis(k, tuple(intvec(r) for r in rows[:rank]))


def lattice_contains(lattice: LatticeBasis, v: Sequence[int]) -> bool:
    """Exact membership test by back-substitution along the HNF rows."""
    v = intvec(v)
    if len(v) != lattice.k:
        raise DimensionMismatch(f"vector {v} does not have length {lattice.k}")
    work = list(v)
    for row, piv in zip(lattice.rows, lattice.pivots):
        if work[piv] % row[piv] != 0:
            return False
        q = work[piv] // row[piv]
        if q:
            for c in range(piv, lattice.k):
                work[c] -= q * row[c]
    return not any(work)


def lattice_index(lattice: LatticeBasis) -> int | float:
    """Index of the lattice in Z^k: the pivot product, or INFINITE below full rank."""
    if not lattice.is_full_rank:
        return INFINITE
    result = 1
    for row, piv in zip(lattice.rows, lattice.pivots):
        result *= row[piv]
    return result


def coset_transversal(lattice: LatticeBasis) -> list[IntVec]:
    """One vector per coset of a full-rank lattice: the box prod_c [0, pivot_c).

    Listed in lexicographic order, starting at the origin, with exactly
    `lattice_index` vectors.  Reducing a vector with nonnegative entries by
    the HNF rows, column by column, lands in this box and never makes the
    vector larger in lexicographic order.
    """
    if not lattice.is_full_rank:
        raise Singular("a lattice below full rank has infinitely many cosets")
    pivots = (row[c] for c, row in enumerate(lattice.rows))
    return list(itertools.product(*(range(p) for p in pivots)))


# ---------------------------------------------------------------------------
# rational solving and integer kernels


def solve_exact(m: Sequence[Sequence], b: Sequence[Sequence]) -> RatMat:
    """Solve M X = B exactly over the rationals.

    M may be square invertible or overdetermined-but-consistent; the unique
    solution is returned.  Raises Inconsistent when the equations contradict
    each other and Singular when the solution is not unique.
    """
    m = ratmat(m)
    b = ratmat(b)
    n_rows = len(m)
    if len(b) != n_rows:
        raise DimensionMismatch("M and B have different row counts")
    n_cols = len(m[0]) if n_rows else 0
    aug = [list(m[i]) + list(b[i]) for i in range(n_rows)]
    rank = 0
    for c in range(n_cols):
        piv = next((i for i in range(rank, n_rows) if aug[i][c] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        inv = 1 / aug[rank][c]
        aug[rank] = [a * inv for a in aug[rank]]
        for i in range(n_rows):
            if i != rank and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * p for a, p in zip(aug[i], aug[rank])]
        rank += 1
        if rank == n_rows:
            break
    for i in range(rank, n_rows):
        if any(aug[i][n_cols:]):
            raise Inconsistent("system M X = B has contradictory equations")
    if rank < n_cols:
        raise Singular("system M X = B does not determine X uniquely")
    return tuple(tuple(aug[i][n_cols:]) for i in range(n_cols))


def mat_inverse(m: Sequence[Sequence]) -> RatMat:
    k = len(m)
    return solve_exact(m, mat_identity(k))


def integer_kernel(m: Sequence[Sequence]) -> LatticeBasis:
    """HNF basis of the lattice of integer vectors z with M z = 0.

    M may be rational; each row is scaled to integers first (same kernel).
    The result is saturated: it contains every integer vector of the
    rational kernel, not just combinations of scaled rational basis vectors.
    """
    m = ratmat(m)
    if not m:
        raise DimensionMismatch("integer_kernel needs at least one row to fix k")
    k = len(m[0])
    int_rows = []
    for row in m:
        scale = math.lcm(*(a.denominator for a in row)) if row else 1
        int_rows.append([int(a * scale) for a in row])
    # z is in the kernel iff the row vector z annihilates the transpose.
    cols = [[int_rows[r][c] for r in range(len(int_rows))] for c in range(k)]
    rank, uni = _row_reduce(cols, len(int_rows), transform=True)
    return hnf([uni[i] for i in range(rank, k)], k)
