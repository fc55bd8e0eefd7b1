"""The end-to-end PBS protocol driver.

Runs Alice's and Bob's sessions over a byte-accounting channel:

* optional §6.2 estimation handshake — Alice ships ``l`` Tug-of-War
  sketches (labelled ``"estimator"`` on the channel so benchmarks can
  exclude the fixed 336-byte cost, as the paper does), Bob answers with
  ``d_hat``, and both sides derive the same
  :class:`~repro.core.params.PBSParams` from ``ceil(1.38 * d_hat)``;
* ``max_rounds`` exchanges of sketch / reply messages;
* optional bidirectional completion: Alice, knowing ``A xor B``, pushes
  ``B \\ A``'s complement — i.e. the elements of ``A \\ B`` — to Bob so
  that both hosts hold ``A ∪ B`` (§1.1).

The returned :class:`~repro.transport.runner.ReconciliationResult`
aggregates success, the learned difference, bytes, rounds and the paper's
two computational metrics (encoding and decoding time).
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.elements import contains, element_array
from repro.core.params import PBSParams
from repro.core.sessions import AliceSession, BobSession, _as_element_array
from repro.estimators.tow import DEFAULT_GAMMA, ToWEstimator
from repro.transport.channel import Channel, Direction
from repro.transport.runner import ReconciliationResult
from repro.utils.seeds import derive_seed

#: Safety cap for "run as many rounds as needed" mode (Appendix J.1).
_UNLIMITED_ROUNDS = 64


class PBSProtocol:
    """Configurable PBS runner.

    >>> proto = PBSProtocol(seed=1)
    >>> result = proto.run({1, 2, 3, 4}, {3, 4, 5}, true_d=3)
    >>> (result.success, sorted(result.difference))
    (True, [1, 2, 5])
    """

    def __init__(
        self,
        params: PBSParams | None = None,
        seed: int = 0,
        delta: int = 5,
        r: int = 3,
        p0: float = 0.99,
        log_u: int = 32,
        gamma: float = DEFAULT_GAMMA,
        split_model: str = "three-way",
        max_rounds: int | None = None,
        estimator_sketches: int = 128,
        estimator_family: str = "fourwise",
        bidirectional: bool = False,
        split_ways: int = 3,
        membership_check: bool = True,
        batch: bool = True,
    ) -> None:
        self.params = params
        self.seed = seed
        self.delta = delta
        self.r = r
        self.p0 = p0
        self.log_u = log_u
        self.gamma = gamma
        self.split_model = split_model
        self.max_rounds = max_rounds
        self.estimator_sketches = estimator_sketches
        self.estimator_family = estimator_family
        self.bidirectional = bidirectional
        self.split_ways = split_ways
        self.membership_check = membership_check
        #: route encode/decode through the batched multi-group BCH engine
        #: (the scalar per-group path stays available for cross-checking)
        self.batch = batch

    # -- parameter acquisition ------------------------------------------------
    def _estimate_d(self, set_a, set_b, channel: Channel) -> int:
        """The §6.2 handshake; returns the conservative design d."""
        estimator = ToWEstimator(
            n_sketches=self.estimator_sketches,
            seed=derive_seed(self.seed, "estimator"),
            family=self.estimator_family,
        )
        arr_a = _as_element_array(set_a, self.log_u)
        arr_b = _as_element_array(set_b, self.log_u)
        sketch_a = estimator.sketch(arr_a)
        payload = struct.pack("<I", len(arr_a)) + estimator.serialize(
            sketch_a, len(arr_a)
        )
        channel.send(Direction.ALICE_TO_BOB, payload, round_no=0, label="estimator")
        # Bob's side: deserialize, sketch B, estimate, reply with d_hat.
        (size_a,) = struct.unpack_from("<I", payload)
        received = estimator.deserialize(payload[4:], size_a)
        sketch_b = estimator.sketch(arr_b)
        d_hat = estimator.estimate(received, sketch_b)
        channel.send(
            Direction.BOB_TO_ALICE,
            struct.pack("<d", d_hat),
            round_no=0,
            label="estimator",
        )
        return max(1, round(d_hat))

    def _resolve_params(
        self, set_a, set_b, channel: Channel, true_d: int | None,
        estimated_d: int | None,
    ) -> PBSParams:
        if self.params is not None:
            return self.params
        if true_d is not None and estimated_d is None:
            # d known exactly (the §2-§5 setting): no inflation.
            design_d = max(1, true_d)
        else:
            if estimated_d is None:
                estimated_d = self._estimate_d(set_a, set_b, channel)
            # §6.2: conservatively design for ceil(gamma * d_hat).
            design_d = ToWEstimator.conservative(estimated_d, self.gamma)
        return PBSParams.from_d(
            design_d,
            delta=self.delta,
            r=self.r,
            p0=self.p0,
            log_u=self.log_u,
            split_model=self.split_model,
        )

    # -- main entry point ---------------------------------------------------------
    def run(
        self,
        set_a,
        set_b,
        channel: Channel | None = None,
        true_d: int | None = None,
        estimated_d: int | None = None,
    ) -> ReconciliationResult:
        """Reconcile: Alice (holding ``set_a``) learns ``A xor B``.

        ``true_d`` skips the estimation handshake with the exact
        cardinality (the §2–§5 "d known" setting); ``estimated_d`` injects
        an externally computed conservative estimate (used by the
        evaluation harness to share one ToW run across protocols).
        """
        channel = channel if channel is not None else Channel()
        params = self._resolve_params(set_a, set_b, channel, true_d, estimated_d)
        session_seed = derive_seed(self.seed, "session")
        alice = AliceSession(
            set_a,
            params,
            session_seed,
            split_ways=self.split_ways,
            membership_check=self.membership_check,
            batch=self.batch,
        )
        bob = BobSession(
            set_b, params, session_seed, split_ways=self.split_ways,
            batch=self.batch,
        )

        budget = self.max_rounds if self.max_rounds is not None else self.r
        if budget < 1:
            budget = _UNLIMITED_ROUNDS
        rounds_used = 0
        for round_no in range(1, budget + 1):
            if alice.done:
                break
            message = alice.build_sketch_message(round_no)
            wire = message.serialize(params.t, params.m)
            channel.send(
                Direction.ALICE_TO_BOB, wire, round_no=round_no, label="sketch"
            )
            reply = bob.handle_sketch_message(
                type(message).deserialize(wire, params.t, params.m)
            )
            reply_wire = reply.serialize(params.t, params.m, params.log_u)
            channel.send(
                Direction.BOB_TO_ALICE, reply_wire, round_no=round_no, label="reply"
            )
            alice.handle_reply(
                type(reply).deserialize(reply_wire, params.t, params.m, params.log_u),
                round_no,
            )
            rounds_used = round_no

        difference = alice.difference()
        if self.bidirectional and alice.done:
            # Alice pushes A \ B so Bob can also form the union (§1.1).
            arr_a = _as_element_array(set_a, params.log_u)
            a_only = element_array(difference)
            a_only = a_only[contains(arr_a, a_only)]
            channel.send(
                Direction.ALICE_TO_BOB,
                a_only.astype(np.uint64).tobytes(),
                round_no=rounds_used + 1,
                label="union-push",
            )

        return ReconciliationResult(
            success=alice.done,
            difference=difference,
            rounds=rounds_used,
            channel=channel,
            encode_s=alice.encode_s + bob.encode_s,
            decode_s=alice.decode_s + bob.decode_s,
            extra={
                "params": params,
                "resolved_by_round": dict(alice.resolved_by_round),
                "recovered_by_round": dict(alice.recovered_by_round),
            },
        )


def reconcile_pbs(
    set_a,
    set_b,
    seed: int = 0,
    true_d: int | None = None,
    estimated_d: int | None = None,
    **kwargs,
) -> ReconciliationResult:
    """One-call convenience wrapper around :class:`PBSProtocol`.

    >>> r = reconcile_pbs({1, 2, 9}, {1, 2, 7}, seed=3, true_d=2)
    >>> sorted(r.difference)
    [7, 9]
    """
    protocol = PBSProtocol(seed=seed, **kwargs)
    return protocol.run(set_a, set_b, true_d=true_d, estimated_d=estimated_d)
