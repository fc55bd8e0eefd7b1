"""PBS parameterization.

Bundles the knobs of §3 (delta, g), §3.1 (n, t), §3.3 (r, p0) and the
universe size, and constructs them from a known or estimated difference
cardinality via the analytical optimizer (§5.1) — exactly the flow of
§6.2: estimate ``d_hat``, inflate by ``gamma = 1.38``, optimize (n, t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from repro.analysis.optimizer import groups_for, optimize_params
from repro.bch.codec import BCHCodec
from repro.errors import ParameterError
from repro.estimators.tow import DEFAULT_GAMMA
from repro.gf import field_for

#: The paper fixes delta = 5 as the communication/computation sweet spot
#: (§3, Appendix J.2 studies the knob).
DEFAULT_DELTA = 5


@dataclass(frozen=True)
class PBSParams:
    """Frozen parameter set for one PBS execution."""

    n: int               #: parity-bitmap length per group, 2^m - 1
    t: int               #: BCH error-correction capacity per group
    g: int               #: number of groups
    delta: int = DEFAULT_DELTA  #: design average differences per group
    r: int = 3           #: target number of rounds (design point)
    p0: float = 0.99     #: target success probability
    log_u: int = 32      #: signature length log|U|
    split_model: str = "three-way"  #: analysis model used for tuning

    def __post_init__(self) -> None:
        m = (self.n + 1).bit_length() - 1
        if self.n != (1 << m) - 1 or m < 2:
            raise ParameterError(f"n={self.n} is not 2^m - 1 with m >= 2")
        if self.t < 1 or self.t > self.n:
            raise ParameterError(f"capacity t={self.t} out of range for n={self.n}")
        if self.g < 1:
            raise ParameterError(f"g={self.g} must be >= 1")
        if self.log_u < 8 or self.log_u > 64:
            raise ParameterError(f"log_u={self.log_u} unsupported")

    @property
    def m(self) -> int:
        """Bits per bitmap position / codeword symbol."""
        return (self.n + 1).bit_length() - 1

    @cached_property
    def codec(self) -> BCHCodec:
        """The BCH sketch codec for one group's parity bitmap."""
        return BCHCodec(field_for(self.m), self.t)

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_d(
        cls,
        d: int,
        delta: int = DEFAULT_DELTA,
        r: int = 3,
        p0: float = 0.99,
        log_u: int = 32,
        split_model: str = "three-way",
    ) -> "PBSParams":
        """Optimal parameters for a known difference cardinality (§5.1).

        A pure function of its arguments, so it is memoized: equal
        arguments return the same frozen instance, which also shares its
        lazily built :attr:`codec`.
        """
        return _from_d(cls, max(1, d), delta, r, p0, log_u, split_model)

    @classmethod
    def from_estimate(
        cls,
        d_hat: float,
        gamma: float = DEFAULT_GAMMA,
        **kwargs,
    ) -> "PBSParams":
        """§6.2 flow: design for the conservative ``ceil(gamma * d_hat)``."""
        return cls.from_d(max(1, math.ceil(gamma * d_hat)), **kwargs)


@lru_cache(maxsize=512, typed=True)
def _from_d(cls, d, delta, r, p0, log_u, split_model) -> PBSParams:
    """:meth:`PBSParams.from_d` itself (``__wrapped__`` is uncached)."""
    best = optimize_params(d, delta=delta, r=r, p0=p0, split_model=split_model)
    return cls(
        n=best.n,
        t=best.t,
        g=groups_for(d, delta),
        delta=delta,
        r=r,
        p0=p0,
        log_u=log_u,
        split_model=split_model,
    )
