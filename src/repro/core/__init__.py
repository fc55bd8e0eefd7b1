"""The Parity Bitmap Sketch protocol — the paper's primary contribution.

Layering (bottom-up):

* :mod:`repro.core.checksum` / :mod:`repro.core.partition` — the set
  checksum ``c(S)`` (§2.2.3) and vectorized hash-partitioning into groups,
  bins and split branches (§2.2.1, §3, §3.2).
* :mod:`repro.core.units` — reconciliation *units*: a group pair or one of
  its (recursively) split sub-group-pairs, with the membership constraints
  that Procedure 3's sub-universe check enforces.
* :mod:`repro.core.messages` — the wire format (bit-packed) of the two
  messages exchanged per round.
* :mod:`repro.core.sessions` — Alice's and Bob's per-host state machines
  (PBS-for-small-d per unit, §2; multi-group multi-round orchestration and
  three-way splits, §3).
* :mod:`repro.core.protocol` — the driver that runs the two sessions over
  a byte-accounting channel, including the ToW estimation handshake (§6.2).
* :mod:`repro.core.params` — parameter selection (optimal (n, t) via the
  analytical framework, §5.1).
"""
