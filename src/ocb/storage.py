"""Simulated page store: object placement, LRU buffer, split I/O counters.

Transaction I/O and clustering-overhead I/O are tracked separately so a
clustering policy's cost never pollutes the workload's own fault counts:
object accesses count transaction reads, placement rewrites count overhead
reads and writes.

An object access costs one dict lookup and one LRU step when the object fits
on one page, as every object of the `default` and `dstc-club` presets does.
An object larger than a page spans a run of pages and takes a slower path
that touches each page of its run in order.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from .errors import ParameterError, PlacementError, require_finite


@dataclass
class StorageParams:
    page_size: int = 4096
    buffer_pages: int = 128
    io_cost: float = 1.0  # simulated time units per page read or write
    cpu_cost: float = 0.001  # simulated time units per object access
    spanning: bool = True  # oversized objects may occupy a dedicated page run

    def validate(self) -> None:
        if self.page_size < 1:
            raise ParameterError("page_size must be >= 1")
        if self.buffer_pages < 1:
            raise ParameterError("buffer_pages must be >= 1")
        require_finite(io_cost=self.io_cost, cpu_cost=self.cpu_cost)
        if self.io_cost < 0 or self.cpu_cost < 0:
            raise ParameterError("io_cost and cpu_cost must be >= 0")

    def to_dict(self) -> dict:
        return {
            "page_size": self.page_size,
            "buffer_pages": self.buffer_pages,
            "io_cost": self.io_cost,
            "cpu_cost": self.cpu_cost,
            "spanning": self.spanning,
        }


def _pack_first_fit(order, sizes, page_size, spanning):
    """First-fit pack object ids (in the given order) onto pages.

    Returns the placement. An object larger than a page gets a dedicated
    run of contiguous pages when spanning is allowed.
    """
    placement: dict[int, tuple[int, int]] = {}
    free: list[int] = []  # free bytes per open page, index = page id
    min_size = min((sizes[o] for o in order), default=0)
    open_pages: list[int] = []  # page ids that can still take min_size bytes
    for oid in order:
        size = sizes[oid]
        if size > page_size:
            if not spanning:
                raise PlacementError(
                    f"object {oid} ({size} bytes) exceeds page size {page_size}")
            start = len(free)
            run = -(-size // page_size)  # ceil division
            free.extend([0] * run)
            placement[oid] = (start, 0)
            continue
        target = -1
        for idx, page in enumerate(open_pages):
            if free[page] >= size:
                target = idx
                break
        if target == -1:
            page = len(free)
            free.append(page_size)
            open_pages.append(page)
        else:
            page = open_pages[target]
        placement[oid] = (page, page_size - free[page])
        free[page] -= size
        if free[page] < min_size:
            open_pages.remove(page)
    return placement


class StorageState:
    """Mutable per-experiment state: placement, page map, buffer, counters.

    `placement` maps each object id to its (first page, byte offset). It is
    read-only outside `rewrite_placement`: `_install`, which sets it for
    `place_sequential` and `rewrite_placement`, derives from it the page
    maps that `access_object` reads, so an edit made anywhere else would
    leave them stale.
    """

    def __init__(self, params: StorageParams, sizes: dict[int, int]):
        params.validate()
        self.params = params
        self.sizes = sizes
        self.placement: dict[int, tuple[int, int]] = {}
        self._runs: dict[int, int] = {}  # oversized object id -> page run length
        self._page_of: dict[int, int] = {}  # single-page object id -> its page
        self._buffer: "OrderedDict[int, None]" = OrderedDict()
        self.transaction_reads = 0
        self.overhead_reads = 0
        self.overhead_writes = 0
        self.objects_accessed = 0

    # -- placement ---------------------------------------------------------

    def _install(self, placement: dict[int, tuple[int, int]]) -> None:
        self.placement = placement
        page_size = self.params.page_size
        sizes = self.sizes
        self._runs = {}
        self._page_of = {}
        for oid, (page, _offset) in placement.items():
            size = sizes[oid]
            if size > page_size:
                self._runs[oid] = -(-size // page_size)
            else:
                self._page_of[oid] = page

    def pages_of(self, object_id: int) -> range:
        page, _ = self.placement[object_id]
        return range(page, page + self._runs.get(object_id, 1))

    def pack_order(self, order) -> dict[int, tuple[int, int]]:
        """First-fit placement for the given object order (not applied)."""
        return _pack_first_fit(order, self.sizes, self.params.page_size,
                               self.params.spanning)

    # -- access ------------------------------------------------------------

    def access_object(self, object_id: int) -> bool:
        """Touch an object's page(s) through the buffer; True on a fault.

        A single-page object is found in `_page_of` and costs one LRU step.
        A spanning object misses there and touches each page of its run in
        order; an unknown id raises KeyError and changes no counter.
        """
        buffer = self._buffer
        try:
            page = self._page_of[object_id]
        except KeyError:
            if object_id not in self.placement:
                raise KeyError(f"unknown object id {object_id}") from None
            self.objects_accessed += 1
            fault = False
            for page in self.pages_of(object_id):
                if page in buffer:
                    buffer.move_to_end(page)
                else:
                    fault = True
                    self.transaction_reads += 1
                    buffer[page] = None
                    if len(buffer) > self.params.buffer_pages:
                        buffer.popitem(last=False)
            return fault
        self.objects_accessed += 1
        if page in buffer:
            buffer.move_to_end(page)
            return False
        self.transaction_reads += 1
        buffer[page] = None
        if len(buffer) > self.params.buffer_pages:
            buffer.popitem(last=False)
        return True

    def buffered_pages(self) -> list[int]:
        return list(self._buffer)

    # -- reorganization ----------------------------------------------------

    def _validate_placement(self, placement: dict[int, tuple[int, int]]) -> None:
        if set(placement) != set(self.placement):
            raise PlacementError("new placement must cover exactly the placed objects")
        page_size = self.params.page_size
        fill: dict[int, int] = {}
        run_pages: set[int] = set()
        for oid, (page, offset) in placement.items():
            size = self.sizes[oid]
            if size > page_size:
                if not self.params.spanning:
                    raise PlacementError(
                        f"object {oid} ({size} bytes) exceeds page size {page_size}")
                run = -(-size // page_size)
                for p in range(page, page + run):
                    if p in run_pages or p in fill:
                        raise PlacementError(f"page {p} overlaps an oversized run")
                    run_pages.add(p)
            else:
                if offset + size > page_size:
                    raise PlacementError(f"object {oid} overflows page {page}")
                fill[page] = fill.get(page, 0) + size
                if fill[page] > page_size:
                    raise PlacementError(f"page {page} overfull")
        if run_pages & set(fill):
            raise PlacementError("oversized page run shared with other objects")

    def rewrite_placement(self, new_placement: dict[int, tuple[int, int]]) -> tuple[int, int]:
        """Move objects to a new placement, counting relocation I/O.

        Each page that moved objects leave is one overhead read, each page
        they land on is one overhead write, however many objects share it;
        pages whose contents changed are dropped from the buffer. Returns
        (reads, writes).
        """
        self._validate_placement(new_placement)
        page_size = self.params.page_size
        old_pages: set[int] = set()
        new_pages: set[int] = set()
        for oid, new_pos in new_placement.items():
            old_pos = self.placement[oid]
            if new_pos == old_pos:
                continue
            size = self.sizes[oid]
            run = -(-size // page_size) if size > page_size else 1
            old_pages.update(range(old_pos[0], old_pos[0] + run))
            new_pages.update(range(new_pos[0], new_pos[0] + run))
        self.overhead_reads += len(old_pages)
        self.overhead_writes += len(new_pages)
        for page in old_pages | new_pages:
            self._buffer.pop(page, None)
        self._install(new_placement)
        return len(old_pages), len(new_pages)


def place_sequential(db, storage_params: StorageParams) -> StorageState:
    """Baseline placement: objects packed first-fit in ascending id order."""
    sizes = {obj.id: obj.size for obj in db.objects}
    state = StorageState(storage_params, sizes)
    state._install(_pack_first_fit([obj.id for obj in db.objects], sizes,
                                   storage_params.page_size, storage_params.spanning))
    return state
