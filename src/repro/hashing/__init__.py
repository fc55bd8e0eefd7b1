"""Hash functions and hash families.

The paper builds every randomized component on seedable uniform hashing (it
uses the xxHash library [11]).  We provide:

* :mod:`repro.hashing.families` — a splitmix64-based salted family with a
  numpy-vectorized bulk path, used for all partitioning (bins, groups,
  IBF cells, Bloom filters) and for the bit-sliced Tug-of-War sketches;
* :mod:`repro.hashing.fourwise` — a four-wise independent family (degree-3
  polynomials over GF(2^61 - 1)) required by the Tug-of-War estimator (§6).
"""
