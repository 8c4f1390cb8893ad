"""Simulated page store: object placement, LRU buffer, split I/O counters.

Transaction I/O and clustering-overhead I/O are tracked separately so a
clustering policy's cost never pollutes the workload's own fault counts:
object accesses count transaction reads, placement rewrites count overhead
reads and writes.

A placement puts each object at a (page, offset) position and gives it the
bytes from `page * page_size + offset`. It is valid by one rule: pages are
>= 0; an object that fits on a page takes its `size` bytes at an offset in
[0, page_size - size]; a larger one takes all of a run of pages, from
offset 0; and no byte is taken twice. Runs depend only on object sizes, so
a `StorageState` derives them once, when it is made, and refuses them there
when `spanning` is off.

An object access costs one list index and one LRU step when the object fits
on one page, as every object of the `default` and `dstc-club` presets does;
an object in a run touches each page of its run in order. The buffer is
always full (see `StorageState`), so a page fault is one insert and one
eviction of the least recently used frame, with no size test. A placement
rewrite costs one validation loop, which reads each object's page, offset,
extent length and largest offset by list index, and two sorts, then a few
passes at C level over the id-indexed lists of a `Placement`. The first-fit
packing that produces a new placement is one Python loop over the objects
in the requested order.
"""
from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress, count, islice
from operator import lt, ne

from .errors import PlacementError
from .params import ParamGroup, bounded


@dataclass(frozen=True)
class StorageParams(ParamGroup):
    page_size: int = bounded(4096, 1)
    buffer_pages: int = bounded(128, 1)
    io_cost: float = bounded(1.0, 0)  # simulated time units per page read or write
    cpu_cost: float = bounded(0.001, 0)  # simulated time units per object access
    spanning: bool = True  # oversized objects may occupy a dedicated page run


class Placement(Mapping):
    """A read-only map of object id -> (first page, byte offset), held as
    `pages[oid]` and `offsets[oid]`; other indices, 0 among them, hold None.
    `keys()` is a `dict_keys`, so comparing or subtracting key sets stays at C level.
    """

    __slots__ = ("pages", "offsets", "_keys")

    def __init__(self, ids, pages: list, offsets: list):
        self._keys = dict.fromkeys(ids).keys()
        self.pages = pages
        self.offsets = offsets

    def __getitem__(self, object_id):
        if object_id in self._keys:
            return self.pages[object_id], self.offsets[object_id]
        raise KeyError(object_id)

    def __iter__(self):
        return iter(self._keys)

    def __len__(self):
        return len(self._keys)

    def keys(self):
        return self._keys

    def __repr__(self):
        return f"Placement({dict(self)!r})"


class StorageState:
    """Mutable per-experiment state over frozen params: placement, page map, buffer, counters.

    `placement` is a `Placement` of the object ids 1..len(sizes). A state
    is made with the objects packed first-fit in the order of `sizes`. The
    placement is replaced only by `rewrite_placement`: `_install`, which
    sets it there and when the state is made, copies its page list into
    the page map that `access_object` reads, so an edit made anywhere else
    would leave it stale.

    The LRU buffer `_buffer`, least recently used first, is always full: it
    holds F frames, F = min(buffer_pages, the most pages a placement can
    occupy: one per object plus the extra pages of each run). A frame with
    no page in it holds a sentinel, a unique negative id. No access touches
    a sentinel, as pages are >= 0, so sentinels stay at the least recent
    end and evicting one is taking a free frame. Pages never outnumber F,
    since only occupied pages stay buffered: a rewrite drops each page that
    objects leave and puts a fresh sentinel at the least recent end for
    each page it drops. So with buffer_pages above F no page is evicted, as
    in a buffer of buffer_pages frames.
    """

    def __init__(self, params: StorageParams, sizes: dict[int, int]):
        if sizes.keys() != set(range(1, len(sizes) + 1)):
            raise PlacementError(f"object ids must be 1..{len(sizes)}")
        self.params = params
        self.sizes = sizes
        page_size = params.page_size
        # oversized object id -> page run length
        self._runs: dict[int, int] = {oid: -(-size // page_size)
                                      for oid, size in sizes.items() if size > page_size}
        if self._runs and not params.spanning:
            oid = next(iter(self._runs))
            raise PlacementError(
                f"object {oid} ({sizes[oid]} bytes) exceeds page size {page_size}")
        frames = min(params.buffer_pages,
                     len(sizes) + sum(self._runs.values()) - len(self._runs))
        self._buffer: "OrderedDict[int, None]" = OrderedDict.fromkeys(range(-frames, 0))
        self._sentinels = count(-frames - 1, -1)  # fresh ids for frames a rewrite frees
        # object id -> the bytes it takes, and the largest offset it may start at
        # (0 for a run); made by the first rewrite, so a state that never rewrites has none
        self._extents: tuple[list[int], list[int]] | None = None
        self.transaction_reads = 0
        self.overhead_reads = 0
        self.overhead_writes = 0
        self.objects_accessed = 0
        self._install(self.pack_order(list(sizes)))

    # -- placement ---------------------------------------------------------

    def _install(self, placement: Placement) -> None:
        self.placement = placement
        # object id -> its page; None for an object in a run, and at index 0
        page_of = placement.pages.copy()
        for oid in self._runs:
            page_of[oid] = None
        self._page_of = page_of

    def pages_of(self, object_id: int) -> range:
        page, _ = self.placement[object_id]
        return range(page, page + self._runs.get(object_id, 1))

    def pack_order(self, order) -> Placement:
        """First-fit placement for the given object order (not applied).

        An object larger than a page gets a run of new pages to itself.
        A page closes once it cannot take the order's smallest positive
        size. A zero-size object fits the first open page, which is the
        first page opened, so when the order holds one that page never
        closes.
        """
        page_size = self.params.page_size
        pages: list = [None] * (len(self.sizes) + 1)
        offsets = pages.copy()
        free: list[int] = []  # free bytes per open page, index = page id
        order_sizes = list(map(self.sizes.__getitem__, order))
        min_size = min(filter(None, order_sizes), default=0)
        keep_first = 0 in order_sizes
        open_pages: list[int] = []  # page ids that can still take min_size bytes
        for oid, size in zip(order, order_sizes):
            if size > page_size:
                pages[oid], offsets[oid] = len(free), 0
                free.extend([0] * self._runs[oid])
                continue
            for page in open_pages:
                left = free[page]
                if left >= size:
                    break
            else:
                page = len(free)
                left = page_size
                free.append(left)
                open_pages.append(page)
            pages[oid], offsets[oid] = page, page_size - left
            left -= size
            free[page] = left
            if left < min_size and not (keep_first and page == open_pages[0]):
                open_pages.remove(page)
        return Placement(order, pages, offsets)

    # -- access ------------------------------------------------------------

    def access_object(self, object_id: int) -> bool:
        """Touch an object's page(s) through the buffer; True on a fault.

        A single-page object's page is at its id in `_page_of` and costs one
        LRU step. A spanning object finds None there and touches each page of
        its run in order; an unknown id, 0 and below too, raises KeyError and
        changes no counter.
        """
        buffer = self._buffer
        try:
            page = self._page_of[object_id] if object_id > 0 else None
        except (IndexError, TypeError):
            page = None
        if page is None:
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
                    buffer.popitem(False)
            return fault
        self.objects_accessed += 1
        if page in buffer:
            buffer.move_to_end(page)
            return False
        self.transaction_reads += 1
        buffer[page] = None
        buffer.popitem(False)
        return True

    # -- reorganization ----------------------------------------------------

    def _validate_placement(self, placement: Mapping) -> Placement:
        """Check `placement` by the module's rule and return it as a Placement.

        It must place exactly the placed objects. Each object is one test
        against two id-indexed extent tables, made by the first call: the
        bytes it takes (a run's whole pages) and the largest offset it may
        start at (0 for a run). The extents are disjoint when, with the
        starts and the ends each sorted, no start lies before the end before
        it; the message names where the first overlap begins.
        """
        if placement.keys() != self.placement.keys():
            raise PlacementError("new placement must cover exactly the placed objects")
        if not isinstance(placement, Placement):
            pages = [None] * len(self._page_of)
            offsets = pages.copy()
            for oid, (page, offset) in placement.items():
                pages[oid], offsets[oid] = page, offset
            placement = Placement(placement, pages, offsets)
        page_size = self.params.page_size
        if self._extents is None:
            lengths = [0, *map(self.sizes.__getitem__, range(1, len(self.sizes) + 1))]
            rooms = [page_size - length for length in lengths]
            for oid, run in self._runs.items():
                lengths[oid], rooms[oid] = run * page_size, 0
            self._extents = lengths, rooms
        lengths, rooms = self._extents
        pages, offsets = placement.pages, placement.offsets
        starts, ends = [], []
        add_start, add_end = starts.append, ends.append
        for oid in placement.keys():  # in placing order, so the starts sort fast
            page = pages[oid]
            offset = offsets[oid]
            if page < 0 or not 0 <= offset <= rooms[oid]:
                if oid in self._runs:
                    raise PlacementError(f"oversized object {oid} must start at offset 0 of "
                                         f"a page >= 0, not at offset {offset} of page {page}")
                raise PlacementError(f"object {oid} ({lengths[oid]} bytes) does not fit "
                                     f"at offset {offset} of page {page}")
            start = page * page_size + offset
            add_start(start)
            add_end(start + lengths[oid])
        starts.sort()
        ends.sort()
        overlap = next(compress(islice(starts, 1, None),
                                map(lt, islice(starts, 1, None), ends)), None)
        if overlap is not None:
            page, offset = divmod(overlap, page_size)
            raise PlacementError(f"objects overlap from offset {offset} of page {page}")
        return placement

    def rewrite_placement(self, new_placement: Mapping) -> tuple[int, int]:
        """Move objects to a new placement, counting relocation I/O.

        Each page that moved objects leave is one overhead read, each page
        they land on is one overhead write, however many objects share it;
        pages whose contents changed are dropped from the buffer, each
        leaving a free frame. Returns (reads, writes).

        Any mapping works; one that is not a `Placement` is converted. Besides
        validation, a rewrite is a few passes at C level: comparing the page
        and offset lists marks the moved objects, their first pages form the
        old and new page sets, and only moved oversized objects, looked up in
        the page runs derived from the sizes, expand to their whole run.
        """
        new = self._validate_placement(new_placement)
        old = self.placement
        moved = list(map(ne, zip(new.pages, new.offsets), zip(old.pages, old.offsets)))
        old_pages = set(compress(old.pages, moved))
        new_pages = set(compress(new.pages, moved))
        for oid, run in self._runs.items():
            if moved[oid]:
                old_page, new_page = old.pages[oid], new.pages[oid]
                old_pages.update(range(old_page, old_page + run))
                new_pages.update(range(new_page, new_page + run))
        self.overhead_reads += len(old_pages)
        self.overhead_writes += len(new_pages)
        buffer = self._buffer
        for page in (old_pages | new_pages).intersection(buffer):
            del buffer[page]
            free = next(self._sentinels)
            buffer[free] = None
            buffer.move_to_end(free, last=False)
        self._install(new)
        return len(old_pages), len(new_pages)


def place_sequential(db, storage_params: StorageParams) -> StorageState:
    """Baseline placement: objects packed first-fit in ascending id order."""
    return StorageState(storage_params, {obj.id: obj.size for obj in db.objects})
