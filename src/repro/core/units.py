"""Reconciliation units: group pairs and their split descendants.

PBS-for-large-d reconciles g *group pairs* independently (§3); a group pair
whose BCH decoding fails is hash-split into three *sub-group-pairs* (§3.2),
recursively if necessary.  We call any such pair a **unit**.

A unit is identified by its group index and the sequence of split branches
taken to reach it.  Each split level contributes a *membership constraint*
``(salt, branch)``; together with the group constraint these define the
unit's sub-universe, which Procedure 3's fake-element check tests
recovered candidates against (the element must hash into the unit, not
just into the right bin).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.hashing.families import SaltedHash

#: Over-capacity groups split into this many sub-group-pairs (§3.2 argues
#: three-way beats two-way: re-failure probability 9.5e-10 vs 1.2e-3 in the
#: paper's d=1000 example).
SPLIT_WAYS = 3


@dataclass
class UnitId:
    """Identity of a unit: group index plus split path."""

    group: int
    path: tuple[int, ...] = ()

    def child(self, branch: int) -> "UnitId":
        return UnitId(self.group, self.path + (branch,))

    def label(self) -> str:
        if not self.path:
            return f"g{self.group}"
        return f"g{self.group}/" + "/".join(str(b) for b in self.path)

    def __hash__(self) -> int:  # dataclass with tuple field: make it hashable
        return hash((self.group, self.path))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UnitId)
            and self.group == other.group
            and self.path == other.path
        )


@dataclass
class MembershipConstraint:
    """One hash constraint defining a unit's sub-universe."""

    salt: int
    buckets: int
    branch: int

    @cached_property
    def hash(self) -> SaltedHash:
        return SaltedHash(self.salt)

    def accepts(self, value: int) -> bool:
        return self.hash.bucket(value, self.buckets) == self.branch

    def accepts_vec(self, values: np.ndarray) -> np.ndarray:
        return self.hash.bucket_vec(values, self.buckets) == self.branch
