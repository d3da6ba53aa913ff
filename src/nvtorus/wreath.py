"""Exact arithmetic in the semidirect product (Z^k)^n x S_n.

An element carries n integer translation vectors, one per slot, and a
permutation of the n slots.  The group acts on ordered configurations of n
points in R^k by permuting slots and then translating, and the product is
chosen so that acting by a product equals acting twice (see `act`).

Permutations are 1-indexed image arrays; cycle notation such as
``"(1 2)(3 4)"`` is accepted and produced only at the parsing boundary.
All values are immutable, all operations pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

from .errors import DimensionMismatch, IndexOutOfRange
from .lattices import IntVec, intvec, vec_add, vec_neg, zero_vec

_CYCLE_TOKEN = re.compile(r"\(([^()]*)\)")


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} stored as its image array."""

    image: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "image", tuple(int(a) for a in self.image))
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise ValueError(f"{self.image} is not a bijection of 1..{len(self.image)}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        image = list(range(1, n + 1))
        seen: set[int] = set()
        for cycle in cycles:
            for a in cycle:
                if not 1 <= a <= n:
                    raise ValueError(f"cycle entry {a} outside 1..{n}")
                if a in seen:
                    raise ValueError(f"cycle entry {a} appears twice")
                seen.add(a)
            for a, b in zip(cycle, cycle[1:]):
                image[a - 1] = b
            if len(cycle) > 1:
                image[cycle[-1] - 1] = cycle[0]
        return cls(tuple(image))

    @classmethod
    def parse(cls, text: str, n: int) -> "Permutation":
        """Parse cycle notation like ``"(1 2)(3 4)"``; ``"id"`` or ``"()"`` is the identity."""
        stripped = text.strip()
        if stripped in ("id", "()", ""):
            return cls.identity(n)
        if _CYCLE_TOKEN.sub("", stripped).strip():
            raise ValueError(f"cannot parse permutation {text!r}")
        cycles = []
        for body in _CYCLE_TOKEN.findall(stripped):
            entries = [int(tok) for tok in re.split(r"[\s,]+", body.strip()) if tok]
            if not entries:
                raise ValueError(f"empty cycle in {text!r}")
            cycles.append(entries)
        return cls.from_cycles(n, cycles)

    @property
    def n(self) -> int:
        return len(self.image)

    def apply(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"index {i} outside 1..{self.n}")
        return self.image[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, a in enumerate(self.image, start=1):
            inv[a - 1] = i
        return Permutation(tuple(inv))

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: ``(a * b)(i) == a(b(i))``."""
        if self.n != other.n:
            raise DimensionMismatch("permutations of different degree")
        return Permutation(tuple(self.image[b - 1] for b in other.image))

    @property
    def is_identity(self) -> bool:
        return all(a == i for i, a in enumerate(self.image, start=1))

    def cycles(self, include_fixed: bool = False) -> list[tuple[int, ...]]:
        """Disjoint cycles, each starting at its smallest element, sorted by it."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self.apply(start)
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self.apply(nxt)
            if len(cycle) > 1 or include_fixed:
                out.append(tuple(cycle))
        return out

    def order(self) -> int:
        return reduce(math.lcm, (len(c) for c in self.cycles(include_fixed=True)), 1)

    def order_on(self, indices: Iterable[int]) -> int:
        """Order of the restriction to an invariant index set."""
        wanted = set(indices)
        lengths = [len(c) for c in self.cycles(include_fixed=True) if set(c) <= wanted]
        if sum(lengths) != len(wanted):
            raise ValueError(f"index set {sorted(wanted)} is not invariant")
        return reduce(math.lcm, lengths, 1)

    def cycle_string(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return "id"
        return "".join("(" + " ".join(str(a) for a in c) + ")" for c in cyc)

    def __str__(self) -> str:
        return self.cycle_string()


def cycle_of(perm: Permutation, i: int) -> tuple[tuple[int, ...], int]:
    """The cycle of ``perm`` through ``i`` listed as i, perm^-1(i), perm^-2(i), ...

    Returns the cycle and its length; ``perm**length`` fixes ``i`` and no
    smaller positive power does.
    """
    if not 1 <= i <= perm.n:
        raise IndexOutOfRange(f"index {i} outside 1..{perm.n}")
    inv = perm.inverse()
    cycle = [i]
    nxt = inv.apply(i)
    while nxt != i:
        cycle.append(nxt)
        nxt = inv.apply(nxt)
    return tuple(cycle), len(cycle)


@dataclass(frozen=True)
class WreathElement:
    """One element (z_1, ..., z_n; sigma) of (Z^k)^n x S_n."""

    k: int
    n: int
    trans: tuple[IntVec, ...]
    perm: Permutation

    def __post_init__(self):
        object.__setattr__(self, "trans", tuple(intvec(v) for v in self.trans))
        if len(self.trans) != self.n:
            raise DimensionMismatch(f"expected {self.n} translation vectors")
        if any(len(v) != self.k for v in self.trans):
            raise DimensionMismatch(f"translations must have length {self.k}")
        if self.perm.n != self.n:
            raise DimensionMismatch("permutation degree differs from slot count")

    @classmethod
    def identity(cls, k: int, n: int) -> "WreathElement":
        return cls(k, n, tuple(zero_vec(k) for _ in range(n)), Permutation.identity(n))

    @property
    def is_identity(self) -> bool:
        return self.perm.is_identity and all(not any(v) for v in self.trans)

    def act(self, points: Sequence[Sequence]) -> tuple:
        """Action on an ordered configuration: permute slots, then translate."""
        if len(points) != self.n:
            raise DimensionMismatch(f"expected {self.n} points")
        inv = self.perm.inverse()
        return tuple(
            vec_add(self.trans[i - 1], points[inv.apply(i) - 1])
            for i in range(1, self.n + 1)
        )


def _check_compatible(a: WreathElement, b: WreathElement) -> None:
    if a.k != b.k or a.n != b.n:
        raise DimensionMismatch("elements live in different groups")


def compose(a: WreathElement, b: WreathElement) -> WreathElement:
    """Group product: acting by ``compose(a, b)`` equals acting by b, then by a."""
    _check_compatible(a, b)
    # Slot a(j) receives b's translation of slot j.
    trans: list = [None] * a.n
    for j, i in enumerate(a.perm.image):
        trans[i - 1] = vec_add(a.trans[i - 1], b.trans[j])
    return WreathElement(a.k, a.n, tuple(trans), a.perm * b.perm)


def invert(a: WreathElement) -> WreathElement:
    trans = tuple(vec_neg(a.trans[a.perm.apply(i) - 1]) for i in range(1, a.n + 1))
    return WreathElement(a.k, a.n, trans, a.perm.inverse())


def power(a: WreathElement, m: int) -> WreathElement:
    """m-fold product, by binary exponentiation; inverse powers for m < 0."""
    if m < 0:
        return power(invert(a), -m)
    result = WreathElement.identity(a.k, a.n)
    square = a
    while m:
        if m & 1:
            result = compose(result, square)
        square = compose(square, square)
        m >>= 1
    return result


def conjugate(d: WreathElement, a: WreathElement) -> WreathElement:
    """d a d^-1."""
    _check_compatible(d, a)
    return compose(compose(d, a), invert(d))
