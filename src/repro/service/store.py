"""The per-shard set store: many named logical sets.

Each reconciliation session runs against an immutable *snapshot* of one
named set — PBS requires Bob's set to hold still for the whole multi-round
exchange, but the live set keeps moving as other sessions complete.  On
completion the session's additions are applied to the *live* set, so
concurrent sessions against the same name merge: two clients that both
snapshotted ``B`` leave the store at ``B ∪ (A1 \\ B) ∪ (A2 \\ B)``.

A set is held as an element array (:mod:`repro.core.elements`: sorted,
distinct, read-only ``uint64``) plus a small overlay of the elements
added and removed since that array was built.  A snapshot folds the
overlay into a new array and returns a reference to it — O(1) when the
set has not changed since the last snapshot, one pass over the array
when it has — so an applied diff costs O(d log n) and no snapshot ever
copies the set into Python objects.  Arrays are never written in
place, which is what keeps an older snapshot frozen.

Every :class:`~repro.cluster.router.ClusterStore` shard holds one; the
server reaches it only through the cluster.  The store is memory only:
a shard's mutations reach it through
:func:`repro.cluster.storage.apply_mutation`, which records each one in
the shard's storage backend first.  The store is designed for a
single-threaded asyncio server: methods are plain synchronous functions
(no awaits inside), which on one event loop is already atomic.  A
per-set monotonically increasing ``version`` lets clients detect that a
second sync pass is needed for full convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.elements import contains, element_array, merge
from repro.errors import ReproError

#: An overlay larger than ``1/OVERLAY_FRACTION`` of its base array is
#: folded in at once rather than at the next snapshot: that bounds the
#: overlay's Python-object memory, and the fold stays amortized O(1) per
#: changed element.
OVERLAY_FRACTION = 8


class UnknownSetError(ReproError, KeyError):
    """A session referenced a set name the store does not hold."""


@dataclass
class _NamedSet:
    base: np.ndarray = field(default_factory=lambda: element_array(()))
    added: set[int] = field(default_factory=set)    #: in the set, not in base
    removed: set[int] = field(default_factory=set)  #: in base, not in the set
    version: int = 0          #: bumped on every mutation
    reconciles: int = 0       #: completed sessions against this set

    def __len__(self) -> int:
        return len(self.base) + len(self.added) - len(self.removed)

    def values(self) -> np.ndarray:
        """The current contents as an element array (folds the overlay)."""
        if self.added or self.removed:
            self.base = merge(
                self.base,
                element_array(self.added),
                element_array(self.removed),
            )
            self.added = set()
            self.removed = set()
        return self.base

    def apply(self, add: np.ndarray, remove: np.ndarray) -> int:
        """Add, then remove, as one session's mutation; returns how many
        elements changed (the version moves only when some did)."""
        changed = 0
        if len(add):
            in_base = contains(self.base, add)
            revived = self.removed.intersection(add[in_base].tolist())
            self.removed -= revived
            fresh = set(add[~in_base].tolist())
            fresh -= self.added
            self.added |= fresh
            changed += len(revived) + len(fresh)
        if len(remove):
            in_base = contains(self.base, remove)
            gone = set(remove[in_base].tolist())
            gone -= self.removed
            self.removed |= gone
            dropped = self.added.intersection(remove[~in_base].tolist())
            self.added -= dropped
            changed += len(gone) + len(dropped)
        overlay = len(self.added) + len(self.removed)
        if overlay > len(self.base) // OVERLAY_FRACTION:
            self.values()
        if changed:
            self.version += 1
        self.reconciles += 1
        return changed


@dataclass
class Snapshot:
    """One session's frozen view of a named set."""

    name: str
    version: int
    values: np.ndarray    #: the set's element array, shared, read-only

    def __len__(self) -> int:
        return len(self.values)


class SetStore:
    """Registry of named element sets with snapshot/apply semantics."""

    def __init__(self) -> None:
        self._sets: dict[str, _NamedSet] = {}

    # -- registry -------------------------------------------------------------
    def names(self) -> list[str]:
        return sorted(self._sets)

    def __contains__(self, name: str) -> bool:
        return name in self._sets

    def create(self, name: str, values=(), version: int = 0) -> None:
        """Create (or replace) a named set from an iterable of elements.

        ``version`` seeds the mutation counter — journal recovery uses it
        to restore a set at the exact version it had when snapshotted.
        """
        self._sets[name] = _NamedSet(base=element_array(values),
                                     version=version)

    def items(self) -> list[tuple[str, np.ndarray, int]]:
        """``(name, values, version)`` for every set (snapshot compaction)."""
        return [
            (name, entry.values(), entry.version)
            for name, entry in sorted(self._sets.items())
        ]

    def get(self, name: str) -> set[int]:
        """The live set as a Python ``set`` (a copy, off the hot path)."""
        return set(self.entry(name).values().tolist())

    def size(self, name: str) -> int:
        return len(self.entry(name))

    def version(self, name: str) -> int:
        return self.entry(name).version

    # -- session lifecycle -----------------------------------------------------
    def snapshot(self, name: str) -> Snapshot:
        """Freeze one set for a reconciliation session."""
        entry = self.entry(name)
        return Snapshot(name=name, version=entry.version, values=entry.values())

    def apply_diff(self, name: str, add=(), remove=()) -> int:
        """Fold a completed session's difference into the live set.

        Returns how many elements actually changed (an element both added
        by this session and already added by a concurrent one counts 0).
        """
        return self.entry(name).apply(element_array(add),
                                      element_array(remove))

    # -- introspection ---------------------------------------------------------
    def stats(self) -> dict:
        """JSON-able per-set summary for the metrics endpoint."""
        return {
            name: {
                "size": len(entry),
                "version": entry.version,
                "reconciles": entry.reconciles,
            }
            for name, entry in sorted(self._sets.items())
        }

    def entry(self, name: str) -> _NamedSet:
        """The live set itself, for a caller that must look it up before
        it mutates it (see :func:`~repro.cluster.storage.apply_mutation`);
        raises :class:`UnknownSetError`."""
        try:
            return self._sets[name]
        except KeyError:
            raise UnknownSetError(f"no such set: {name!r}") from None
