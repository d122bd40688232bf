"""Temporary attribute replacement with guaranteed restoration."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple

_MISSING = object()

Replacement = Tuple[object, str, object]


@contextmanager
def patched(replacements: Sequence[Replacement]) -> Iterator[None]:
    """Set ``owner.name = value`` for each triple for the duration of the
    block, then put back exactly what was there before, also when the block
    raises.

    The original is read from the owner's own ``__dict__``, so a name that
    a class only inherits is deleted again on exit instead of being pinned
    on the subclass.
    """
    saved: List[Tuple[object, str, object]] = []
    try:
        for owner, name, value in replacements:
            saved.append((owner, name, vars(owner).get(name, _MISSING)))
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, original in reversed(saved):
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
