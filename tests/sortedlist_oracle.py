"""The flat-list pending queue: reference for the indexed container.

:class:`repro._util.sortedlist.SortedKeyList` replaced a flat list kept
sorted with ``bisect.insort``, whose ``add``/``pop``/``remove`` are
O(n).  :class:`LegacySortedKeyList` keeps that container behind the
same interface so the tests and ``benchmarks/bench_sched_hotpath.py``
can run the same simulation on both and demand bit-identical results
(swap it in by patching ``repro.sched.simulator.SortedKeyList``).
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable, Iterable, Iterator


class LegacySortedKeyList:
    """Reference implementation: flat list + ``insort`` (O(n) ops).

    Interface-identical to :class:`SortedKeyList`; used as the
    equivalence baseline in tests and as the "seed implementation"
    leg of ``benchmarks/bench_sched_hotpath.py``.
    """

    __slots__ = ("_key", "_items")

    def __init__(self, key: Callable[[Any], Any],
                 iterable: Iterable[Any] = (), **_: Any) -> None:
        self._key = key
        self._items: list[Any] = []
        for item in iterable:
            self.add(item)

    def add(self, item: Any) -> None:
        insort(self._items, item, key=self._key)

    def pop(self, index: int = 0) -> Any:
        return self._items.pop(index)

    def remove(self, item: Any) -> None:
        self._items.remove(item)

    def islice(self, start: int, stop: int) -> list[Any]:
        return self._items[start:stop]

    def __getitem__(self, index: int) -> Any:
        return self._items[index]

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._items)

    def __repr__(self) -> str:   # pragma: no cover - debug aid
        return f"LegacySortedKeyList({self._items!r})"
