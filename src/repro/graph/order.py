"""Variable orders ``o(.)`` for inductive form and partial cycle search.

The paper assumes a *random* total order on variables and reports that
random performs as well as or better than any other order tried
(Section 2.4).  We provide random, creation, and reverse-creation orders
so the ablation benchmark can compare them.

An order is materialized as a rank array: ``rank[i]`` is ``o(X_i)``,
a permutation of ``0..n-1``.  The graph holds it as its ``ranks`` list
and gives variables created later the next highest ranks
(:meth:`~repro.graph.base.ConstraintGraphBase.grow`), which keeps
incremental use well-defined.
"""

from __future__ import annotations

import random
from typing import List, Protocol


class OrderSpec(Protocol):
    """Factory turning a variable count into a rank array."""

    name: str

    def ranks(self, num_vars: int) -> List[int]:
        """Return ``rank[i] = o(X_i)``, a permutation of ``0..n-1``."""


def shuffled_ranks(seed: object, num_vars: int) -> List[int]:
    """The ranks of ``random.Random(seed).shuffle`` over the variables.

    The reference for the native kernel's ``random_ranks``, which
    :meth:`RandomOrder.ranks` calls when it built.
    """
    positions = list(range(num_vars))
    random.Random(seed).shuffle(positions)
    # positions[r] = which variable has rank r; invert to rank-by-var.
    ranks = [0] * num_vars
    for rank, var_index in enumerate(positions):
        ranks[var_index] = rank
    return ranks


class RandomOrder:
    """A uniformly random order, deterministic in the seed (the default)."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.name = f"random(seed={seed})"

    def ranks(self, num_vars: int) -> List[int]:
        # Imported late: repro.solver imports this package.
        from ..solver.native import kernel

        if kernel is None or num_vars > 2 ** 31:
            return shuffled_ranks(self.seed, num_vars)
        return kernel.random_ranks(
            random.Random(self.seed).getrandbits, num_vars)


class CreationOrder:
    """Variables are ordered by creation index (o(X_i) = i)."""

    name = "creation"

    def ranks(self, num_vars: int) -> List[int]:
        return list(range(num_vars))


class ReverseCreationOrder:
    """Variables are ordered by reversed creation index."""

    name = "reverse-creation"

    def ranks(self, num_vars: int) -> List[int]:
        return list(range(num_vars - 1, -1, -1))

