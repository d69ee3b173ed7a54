"""The baseline Linux IOVA allocator (``drivers/iommu/iova.c``, ~v3.4).

This is the allocator behind the paper's ``strict`` and ``defer`` modes.
Allocation is top-down from ``limit_pfn`` over a red-black tree of live
ranges, with the ``cached32_node`` optimization: the search normally
starts from the most-recently inserted node instead of the top of the
tree.

The paper (§3.2) found "a nontrivial pathology ... that regularly causes
some allocations to be linear in the number of currently allocated
IOVAs".  The pathology is emergent in this implementation exactly as in
the kernel: when the cached node is reset by a free (``free.pfn_lo >=
cached.pfn_lo`` moves the cache *up* past long-lived mappings), the next
allocation has to descend node-by-node through the live set to find a
gap, and mixed allocation sizes (the Mellanox driver maps a small header
buffer and a multi-page data buffer per packet) fragment the space so
holes rarely fit.  ``stats.alloc_visits`` exposes the cost.
"""

from __future__ import annotations

from typing import Optional

from repro import datapath as _datapath
from repro.iova.base import (
    IovaAllocator,
    IovaExhaustedError,
    IovaNotFoundError,
    IovaRange,
)
from repro.iova.rbtree import RBNode, RBTree


class LinuxIovaAllocator(IovaAllocator):
    """Faithful model of the v3.4 Linux per-domain IOVA allocator."""

    def __init__(self, limit_pfn: int) -> None:
        super().__init__(limit_pfn)
        self.tree = RBTree()
        #: Linux's ``cached32_node`` — the search hint.
        self._cached: Optional[RBNode] = None
        #: the node the last :meth:`find` returned and the visits its
        #: search took, until the tree next changes
        self._found: Optional[RBNode] = None
        self._found_visits = 0

    # -- allocation (alloc_iova / __alloc_and_insert_iova_range) ----------

    def alloc(self, pages: int = 1) -> IovaRange:
        """Allocate ``pages`` contiguous I/O virtual pages, top-down."""
        if pages <= 0:
            raise ValueError("pages must be positive")
        self.stats.allocs += 1
        visits_before = self.tree.visits

        limit_pfn, curr = self._get_cached_node()
        walk_steps = 0
        found: Optional[int] = None
        predecessor = RBTree.predecessor
        while curr is not None:
            walk_steps += 1
            rng = curr.rng
            if limit_pfn < rng.pfn_lo:
                # The candidate window lies entirely below this node.
                pass
            elif limit_pfn <= rng.pfn_hi:
                # The window top lands inside this node: clamp below it.
                limit_pfn = rng.pfn_lo - 1
            else:
                # Node is fully below the window top: is the gap big enough?
                if rng.pfn_hi + pages <= limit_pfn:
                    found = limit_pfn
                    break
                limit_pfn = rng.pfn_lo - 1
            curr = predecessor(curr)
        if curr is None:
            # Ran past the lowest node: the region below is all free.
            if limit_pfn - pages + 1 >= 0:
                found = limit_pfn
        if found is None:
            self.stats.last_alloc_visits = walk_steps
            self.stats.alloc_visits += walk_steps
            raise IovaExhaustedError(
                f"no free IOVA range of {pages} pages below pfn {self.limit_pfn}"
            )

        new_rng = IovaRange(found - pages + 1, found)
        node = self.tree.insert(new_rng)
        self._found = None
        # __cached_rbnode_insert_update: remember the new node as the hint.
        self._cached = node
        walk_steps += self.tree.visits - visits_before
        self.stats.last_alloc_visits = walk_steps
        self.stats.alloc_visits += walk_steps
        return new_rng

    def _get_cached_node(self):
        """Linux's ``__get_cached_rbnode``: pick search start + clamped limit."""
        if self._cached is None:
            return self.limit_pfn, self.tree.rightmost()
        # Start just below the cached node, from its predecessor.
        limit = self._cached.rng.pfn_lo - 1
        return limit, RBTree.predecessor(self._cached)

    # -- lookup (find_iova) -------------------------------------------------

    def find(self, pfn: int) -> IovaRange:
        """Binary-search the tree for the live range containing ``pfn``."""
        self.stats.finds += 1
        visits_before = self.tree.visits
        node = self.tree.find_containing(pfn)
        self.stats.last_find_visits = self.tree.visits - visits_before
        self.stats.find_visits += self.stats.last_find_visits
        self._found = node
        self._found_visits = self.stats.last_find_visits
        if node is None:
            raise IovaNotFoundError(f"no allocated IOVA contains pfn {pfn}")
        return node.rng

    # -- free (__free_iova) ---------------------------------------------------

    def free(self, rng: IovaRange) -> None:
        """Release ``rng``; updates the cached hint like the kernel does."""
        self.stats.frees += 1
        tree = self.tree
        node = self._found
        if _datapath.COLUMNAR_ENABLED and node is not None and node.rng is rng:
            # Freeing the range the last find returned, with the tree
            # unchanged since: the search below would retrace that
            # find's path (every pfn of a range takes the same one), so
            # take its node and add its visits instead.
            visits = self._found_visits
            tree.visits += visits
        else:
            visits_before = tree.visits
            node = tree.find_containing(rng.pfn_lo)
            if node is None or node.rng != rng:
                raise IovaNotFoundError(f"range {rng} is not allocated")
            visits = tree.visits - visits_before
        self._found = None
        # __cached_rbnode_delete_update: a free at-or-above the hint moves
        # the hint to the freed node's successor (possibly far up-tree).
        if self._cached is not None and rng.pfn_lo >= self._cached.rng.pfn_lo:
            self._cached = RBTree.successor(node)
        elif self._cached is node:
            self._cached = RBTree.successor(node)
        tree.delete(node)
        self.stats.last_free_visits = visits
        self.stats.free_visits += visits

    def live_count(self) -> int:
        """Number of currently-allocated ranges."""
        return len(self.tree)
