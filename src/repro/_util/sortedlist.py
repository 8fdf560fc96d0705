"""An indexed sorted container for the scheduler hot path.

:class:`SortedKeyList` is a two-level ("list of lists") sorted sequence
in the style of the ``sortedcontainers`` package: items live in bounded
sublists kept in key order, with a parallel index of per-sublist maximum
keys.  Locating an item's sublist is a binary search over the maxes;
inserting or deleting inside a sublist moves at most ``2 * load``
elements.  That makes every queue operation the simulator needs —
``add``, ``pop(0)``, ``pop(i)`` near the head, and ``remove`` —
O(log n) amortized instead of the O(n) of ``insort`` + ``list.pop(0)``
on a flat sorted list, which is what turns a deep pending queue into an
O(n^2) scheduler pass.

Keys are extracted once per operation via the ``key`` callable and must
give a *total* order (the simulator's queue key ends in the unique
jobid, so ties never occur there; equal keys are still handled — items
with equal keys keep no particular relative order).

The reference O(n) flat-list container the tests and the hot-path
benchmark hold this one to lives outside the package, in
``tests/sortedlist_oracle.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterable, Iterator

__all__ = ["SortedKeyList"]

#: target sublist size; sublists split at 2*load and merge away at 0.
#: 512 keeps the maxes index ~n/512 long while memmoves inside a
#: sublist stay within a couple of cache lines of pointers.
DEFAULT_LOAD = 512


class SortedKeyList:
    """A sorted-by-key sequence with O(log n) add/remove/indexed-pop."""

    __slots__ = ("_key", "_load", "_lists", "_keys", "_maxes", "_len")

    def __init__(self, key: Callable[[Any], Any],
                 iterable: Iterable[Any] = (), *,
                 load: int = DEFAULT_LOAD) -> None:
        if load < 2:
            raise ValueError("load must be >= 2")
        self._key = key
        self._load = load
        self._lists: list[list[Any]] = []   # sublists of items, key order
        self._keys: list[list[Any]] = []    # parallel sublists of keys
        self._maxes: list[Any] = []         # _keys[i][-1] for each sublist
        self._len = 0
        for item in iterable:
            self.add(item)

    # -- mutation ---------------------------------------------------------------

    def add(self, item: Any) -> None:
        """Insert ``item`` keeping key order; O(log n) amortized."""
        k = self._key(item)
        if not self._maxes:
            self._lists.append([item])
            self._keys.append([k])
            self._maxes.append(k)
            self._len = 1
            return
        pos = bisect_right(self._maxes, k)
        if pos == len(self._maxes):
            pos -= 1
            self._lists[pos].append(item)
            self._keys[pos].append(k)
            self._maxes[pos] = k
        else:
            sub_keys = self._keys[pos]
            i = bisect_right(sub_keys, k)
            self._lists[pos].insert(i, item)
            sub_keys.insert(i, k)
        self._len += 1
        if len(self._lists[pos]) > 2 * self._load:
            self._split(pos)

    def _split(self, pos: int) -> None:
        lst, keys = self._lists[pos], self._keys[pos]
        half = len(lst) // 2
        self._lists[pos:pos + 1] = [lst[:half], lst[half:]]
        self._keys[pos:pos + 1] = [keys[:half], keys[half:]]
        self._maxes[pos:pos + 1] = [keys[half - 1], keys[-1]]

    def pop(self, index: int = 0) -> Any:
        """Remove and return the item at ``index`` (head by default)."""
        pos, i = self._locate(index)
        return self._delete(pos, i)

    def remove(self, item: Any) -> None:
        """Remove ``item`` located by its key; O(log n).

        Raises :class:`ValueError` when no stored item equals ``item``.
        Items sharing the key (possible only with a non-total order)
        are scanned left-to-right for identity/equality.
        """
        k = self._key(item)
        pos = bisect_left(self._maxes, k)
        while pos < len(self._maxes):
            sub_keys = self._keys[pos]
            i = bisect_left(sub_keys, k)
            while i < len(sub_keys) and sub_keys[i] == k:
                if self._lists[pos][i] is item or \
                        self._lists[pos][i] == item:
                    self._delete(pos, i)
                    return
                i += 1
            if i < len(sub_keys):
                break
            pos += 1
        raise ValueError(f"{item!r} not in SortedKeyList")

    def _delete(self, pos: int, i: int) -> Any:
        item = self._lists[pos].pop(i)
        self._keys[pos].pop(i)
        self._len -= 1
        if not self._lists[pos]:
            del self._lists[pos]
            del self._keys[pos]
            del self._maxes[pos]
        else:
            self._maxes[pos] = self._keys[pos][-1]
        return item

    # -- access -----------------------------------------------------------------

    def _locate(self, index: int) -> tuple[int, int]:
        """Map a sequence index to (sublist, offset).

        Walks the sublist lengths front-to-back: O(index / load +
        n / load) worst case, O(1) for the head — the simulator only
        indexes within the backfill window, far smaller than the queue.
        """
        if index < 0:
            index += self._len
        if not 0 <= index < self._len:
            raise IndexError("SortedKeyList index out of range")
        for pos, lst in enumerate(self._lists):
            if index < len(lst):
                return pos, index
            index -= len(lst)
        raise IndexError("unreachable")   # pragma: no cover

    def __getitem__(self, index: int) -> Any:
        pos, i = self._locate(index)
        return self._lists[pos][i]

    def islice(self, start: int, stop: int) -> list[Any]:
        """Materialize ``items[start:stop]`` (non-negative bounds).

        O(stop) — one bulk slice per touched sublist, no per-item
        locate.  The simulator's backfill pass uses this to snapshot
        its scan window once per pass.
        """
        out: list[Any] = []
        if stop <= start:
            return out
        idx = 0
        for lst in self._lists:
            nxt = idx + len(lst)
            if nxt > start:
                out.extend(lst[max(0, start - idx):stop - idx])
                if nxt >= stop:
                    break
            idx = nxt
        return out

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Any]:
        for lst in self._lists:
            yield from lst

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return f"SortedKeyList({list(self)!r})"

