"""The one switch of CPython's cyclic garbage collector in the engine.

A database, its link tables, a placement and an experiment log hold no
reference cycles, so reference counting alone frees them. A collector pass
during generation (a database load regenerates too) or a transaction run
finds nothing to free and only costs time, in proportion to the number of
live objects it walks.

Pausing the collector is not enough on its own: the objects a paused block
allocates would still sit in the youngest generation when it is switched
back on, so the caller's next allocations would start a pass over the whole
new database, and the passes that promote it would walk it again. So the
block's objects go straight to the oldest generation on exit, which only a
full collection walks.
"""
from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Turn the cyclic collector off for the body of the `with` block.

    On exit, also when the body raises, the collector is on again exactly
    when it was on at entry, so a caller that had turned it off keeps it off.

    When it was on and no object is frozen, what the block allocated goes
    straight to the oldest generation on exit, so no young-generation pass
    walks it:
    - entry runs `gc.collect(1)`, which empties the two young generations,
      so the caller's own recent objects are collected or aged as before;
    - exit runs `gc.freeze()` and then `gc.unfreeze()`, which move every
      tracked object into the oldest generation and reset the youngest's
      count, each in constant time.
    This frees nothing less: a full collection still walks the oldest
    generation, and the engine's data holds no cycles for it to find.

    The promotion is skipped, and the collector only paused, when it was off
    at entry, or when objects are frozen (CPython 3.12.1 starts with some),
    since `gc.unfreeze()` would thaw them.
    """
    enabled = gc.isenabled()
    promote = enabled and gc.get_freeze_count() == 0
    if promote:
        gc.collect(1)
    gc.disable()
    try:
        yield
    finally:
        if promote:
            gc.freeze()
            gc.unfreeze()
        if enabled:
            gc.enable()
