"""The one switch of CPython's cyclic garbage collector in the engine.

A database, its link tables, a placement and an experiment log hold no
reference cycles, so reference counting alone frees them. A collector pass
during generation, a database load or a transaction run finds nothing to
free and only costs time, in proportion to the number of live objects it
walks.
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
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
