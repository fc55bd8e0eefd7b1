"""Hash functions and hash families.

The paper builds every randomized component on seedable uniform hashing (it
uses the xxHash library [11]).  We provide:

* :mod:`repro.hashing.families` — a splitmix64-based salted family with a
  numpy-vectorized bulk path, used for all partitioning (bins, groups,
  IBF cells, Bloom filters) and for the bit-sliced Tug-of-War sketches;
* :mod:`repro.hashing.fourwise` — a four-wise independent family (degree-3
  polynomials over GF(2^61 - 1)) required by the Tug-of-War estimator (§6).
"""

from repro.hashing.families import SaltedHash, bucket_of, mix64, mix64_vec
from repro.hashing.fourwise import FourWiseHash, mulmod_p61, mulmod_p61_vec

__all__ = [
    "SaltedHash",
    "bucket_of",
    "mix64",
    "mix64_vec",
    "FourWiseHash",
    "mulmod_p61",
    "mulmod_p61_vec",
]
