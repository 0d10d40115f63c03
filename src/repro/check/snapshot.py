"""State capture, restore, and canonical fingerprints.

A world is an ordinary Python object graph: simulator, endpoints,
queues, pending events.  :class:`StateCapturer` freezes it with
``copy.deepcopy`` -- bound methods rebind ``__self__`` through the
deepcopy memo, so every callback and scheduled event in the copy
points at the *copied* component, never back into the live world.
That property is what the SNAP001 lint protects: a lambda or
generator stored on sim state deepcopies by reference and would
silently alias the original.

Fingerprints canonicalise a world's *behavioural* state vector --
sorted dict items, deques as tuples, enums by value -- and hash it.
Two states with equal fingerprints have identical futures, which is
what lets the explorer merge them (see DESIGN §11 for the soundness
argument about what the vector may omit).
"""

from __future__ import annotations

import copy
import enum
import hashlib
from typing import Any, TypeVar

T = TypeVar("T")


class StateCapturer:
    """Snapshot/restore for a world object graph.

    ``capture`` returns a frozen deep copy; ``restore`` returns a fresh
    live copy of that frozen snapshot.  Each restore is independent --
    the explorer restores the same snapshot once per branch and mutates
    each copy freely.
    """

    def __init__(self) -> None:
        self.captures = 0
        self.restores = 0

    def capture(self, world: T) -> T:
        """Freeze the world: a deep copy sharing nothing mutable with it."""
        self.captures += 1
        return copy.deepcopy(world)

    def restore(self, frozen: T) -> T:
        """A fresh live world from a frozen snapshot (never the snapshot)."""
        self.restores += 1
        return copy.deepcopy(frozen)


def canonical(value: Any) -> Any:
    """Reduce ``value`` to a deterministic, hashable structure.

    Dicts become sorted item tuples, sets become sorted tuples, any
    sequence becomes a tuple, enums collapse to their value.  Unordered
    containers must canonicalise to the same result regardless of
    insertion history or the states would never merge.
    """
    if isinstance(value, enum.Enum):
        return canonical(value.value)
    if isinstance(value, dict):
        return tuple(sorted(
            (repr(key), canonical(item)) for key, item in value.items()))
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(canonical(item)) for item in value))
    if isinstance(value, (list, tuple)) or value.__class__.__name__ == "deque":
        return tuple(canonical(item) for item in value)
    if isinstance(value, (str, bytes, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"state vector contains un-canonicalisable {type(value).__name__}: "
        f"{value!r} -- reduce it to primitives in state_vector()")


def fingerprint(state_vector: Any) -> str:
    """A stable hash of a canonicalised state vector."""
    digest = hashlib.sha256(repr(canonical(state_vector)).encode())
    return digest.hexdigest()[:32]
