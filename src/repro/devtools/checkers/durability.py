"""durable-before-ack: never acknowledge a mutation before it is durable.

The cluster tier's contract (``docs/architecture.md``, "durable before
ack") says a client-visible acknowledgement may only be sent after the
corresponding storage write (``record_create``/``record_diff``, or the
shared :func:`repro.cluster.storage.apply_mutation` path that wraps
them) has returned.  The replication tier (PR-10) adds two more edges
of the same contract: a follower's replication cursor may only be
written after its durable apply/bootstrap (the cursor must never
overstate the applied prefix — elections trust it), and under quorum
mode the primary may only resolve a mutation's future after the quorum
count (``wait_durable``) returns.  This checker walks every function in
``cluster/`` modules: when a function contains both an ack-style send
and a durable write, the first ack must come lexically *after* the
first durable write.  Purely lexical by design — it catches the cheap,
common regression (a reply hoisted above the storage call during a
refactor), not every interleaving a control-flow analysis could prove.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from typing import ClassVar

from repro.devtools.astutil import call_name, last_segment, scope_body, scopes
from repro.devtools.checkers import Checker
from repro.devtools.findings import Finding
from repro.devtools.source import SourceFile

#: Callee names (last segment) that make a mutation durable:
#: the storage writes, a follower's durable apply/bootstrap
#: (``restart``), and the primary's quorum count (``wait_durable``).
DURABLE_CALLS = frozenset({
    "record_create", "record_diff", "apply_mutation",
    "apply", "restart", "wait_durable",
})

#: Callee names (last segment) that acknowledge a mutation to a peer:
#: wire replies, a resolved mutation future (``set_result``), the shard
#: worker's ack callback (``ack``: it ships the mutation and answers
#: its submitter), and a follower's replication-cursor write (the ack
#: an election trusts).
ACK_CALLS = frozenset({
    "send_frame", "_reply_ok", "reply_ok", "_send", "ack",
    "set_result", "write_cursor", "_write_cursor",
})


class DurableBeforeAck(Checker):
    id: ClassVar[str] = "durable-before-ack"
    description: ClassVar[str] = (
        "in cluster/ handlers, an ack send is reachable before the "
        "corresponding record_create/record_diff/apply_mutation"
    )
    hint: ClassVar[str] = (
        "move the ack after the durable write returns; a crash between "
        "ack and write loses acknowledged data"
    )

    def check_file(self, src: SourceFile) -> Iterable[Finding]:
        if src.tree is None or "cluster" not in src.rel.split("/"):
            return []
        findings: list[Finding] = []
        for scope in scopes(src.tree):
            if isinstance(scope, ast.Module):
                continue
            first_ack: ast.Call | None = None
            first_durable: ast.Call | None = None
            for node in scope_body(scope):
                if not isinstance(node, ast.Call):
                    continue
                callee = last_segment(call_name(node))
                if callee in ACK_CALLS:
                    if first_ack is None or node.lineno < first_ack.lineno:
                        first_ack = node
                elif callee in DURABLE_CALLS:
                    if (
                        first_durable is None
                        or node.lineno < first_durable.lineno
                    ):
                        first_durable = node
            if (
                first_ack is not None
                and first_durable is not None
                and first_ack.lineno < first_durable.lineno
            ):
                findings.append(
                    self.finding(
                        src, first_ack.lineno, first_ack.col_offset,
                        f"{scope.name}() sends an ack (line "
                        f"{first_ack.lineno}) before its durable write "
                        f"(line {first_durable.lineno})",
                    )
                )
        return findings
