"""BCH syndrome sketches and decoding.

PBS and PinSketch both "sketch" a set of nonzero field elements as the
vector of odd power sums ``s_k = sum v^k`` (k = 1, 3, ..., 2t-1) over
GF(2^m) — exactly the syndromes of a binary BCH code of designed distance
2t+1 evaluated on the characteristic vector of the set (§2.5, [13], [36]).
Two sketches XOR to the sketch of the symmetric difference, and decoding a
sketch of at most t elements recovers those elements:

1. reconstruct the even syndromes via ``s_{2k} = s_k^2`` (Frobenius),
2. Berlekamp–Massey for the error-locator polynomial,
3. root finding (vectorized Chien search over table fields; the Berlekamp
   trace algorithm, or candidate evaluation, over GF(2^32)).
"""
