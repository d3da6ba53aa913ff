import math
import random

import pytest

from nvtorus.affine import verify_realization
from nvtorus.morphisms import index_orbits, pure_permutation_morphism
from nvtorus.sampling import (
    abelian_structures,
    random_commuting_perms,
    random_realization,
)


def test_abelian_structures_are_invariant_factors():
    assert abelian_structures(6) == [(6,)]
    assert abelian_structures(12) == [(12,), (6, 2)]
    for n in range(1, 65):
        for shape in abelian_structures(n):
            assert math.prod(shape) == n
            assert all(a % b == 0 for a, b in zip(shape, shape[1:]))


@pytest.mark.parametrize("k, n", [(1, 6), (2, 30)])
def test_irreducible_sampling_with_cyclic_groups(k, n):
    rng = random.Random(0)
    perms = random_commuting_perms(rng, k, n, irreducible=True)
    assert index_orbits(pure_permutation_morphism(k, perms)).irreducible
    realization, _, psi = random_realization(rng, k, n)
    assert index_orbits(psi).irreducible
    assert verify_realization(realization, psi)
