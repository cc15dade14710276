"""Hash-consed assumption-dependency sets (the IDO fast path).

Every speculative interval carries IDO, the set of assumption identifiers
its fate rides on (Eq 3).  The naive transcription copies the parent's
set at every guess and re-freezes it for every message tag, which makes a
depth-*n* guess chain cost O(n²) set copies and every send O(|IDO|).

:class:`DepSet` replaces those copies with immutable, *interned* sets:

* one canonical object per distinct member set (per machine), so
  structural equality is pointer equality and re-derived sets are free;
* cached unary/binary operations — ``add``, ``discard``, ``union`` — so
  the Eq 8/12 rewrites that recur across a DOM sweep hit a memo instead
  of rebuilding frozensets;
* a cached message-tag key view (:attr:`DepSet.tag_keys`), so tagging a
  send is O(1) after the first send from a given dependency state.

Interning is scoped to a :class:`DepSetInterner` owned by one
:class:`~repro.core.machine.Machine`.  The canonical table holds its
sets *weakly*: a DepSet lives as long as something carries it — an
interval's IDO, or an operation memo until the next fossil pass clears
them — and leaves the table when the last of those goes, so nobody has
to work out which sets are still reachable.  The ``id()``-keyed memos
stay sound because each entry strongly holds its operands (CPython ids
are stable while an object is held).

Semantics are untouched: a DepSet behaves exactly like the frozenset of
its members for membership, iteration, comparison, and equality — the
Lemma 5.1 / Theorem 5.1 invariant checks run against DepSets unchanged.
"""

from __future__ import annotations

import weakref
from operator import attrgetter
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .aid import AssumptionId


_KEY = attrgetter("key")


class DepSet:
    """An immutable, interned set of :class:`AssumptionId`.

    Instances are only created by a :class:`DepSetInterner`; two DepSets
    from the same interner are equal iff they are the same object.
    Comparison against plain ``set``/``frozenset`` falls back to member
    equality so existing tests and user code keep reading naturally.
    """

    __slots__ = ("members", "_interner", "_tag_keys", "__weakref__")

    def __init__(self, members: frozenset, interner: "DepSetInterner") -> None:
        self.members = members
        self._interner = interner
        self._tag_keys: Optional[frozenset] = None

    # ------------------------------------------------------------------
    # set protocol
    # ------------------------------------------------------------------
    def __contains__(self, aid: object) -> bool:
        return aid in self.members

    def __iter__(self) -> Iterator["AssumptionId"]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __bool__(self) -> bool:
        return bool(self.members)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DepSet):
            if other._interner is self._interner:
                return other is self
            return self.members == other.members
        if isinstance(other, (set, frozenset)):
            return self.members == other
        return NotImplemented

    def __le__(self, other) -> bool:
        if isinstance(other, DepSet):
            return self is other or self.members <= other.members
        return self.members <= other

    # ------------------------------------------------------------------
    # interned views
    # ------------------------------------------------------------------
    @property
    def tag_keys(self) -> frozenset:
        """The message-tag view: the members' string keys, computed once.

        Sends tag messages with the sender's current dependencies; with
        interning, every send from the same dependency state reuses this
        one frozenset instead of re-deriving it per message.
        """
        keys = self._tag_keys
        if keys is None:
            keys = self._tag_keys = frozenset(map(_KEY, self.members))
        return keys


class _TableRef(weakref.ref):
    """The table's weak reference to an interned set; remembers the key it
    sits under so that its death can remove the entry."""

    __slots__ = ("members",)


class DepSetInterner:
    """Hash-consing table plus operation memos for one machine's DepSets.

    ``stats`` is the owning machine's counter dict (shared by reference);
    the interner bumps ``depset_hits`` on every memoized operation and
    ``depset_misses`` when a genuinely new set has to be built, so the
    benchmark layer can report interning effectiveness without a second
    bookkeeping pass.
    """

    def __init__(self, stats: Optional[dict] = None) -> None:
        if stats is None:
            stats = {}
        stats.setdefault("depset_hits", 0)
        stats.setdefault("depset_misses", 0)
        self.stats = stats
        #: members -> weak reference to the canonical set.  (By hand, not
        #: a WeakValueDictionary: one is a microsecond per set slower, on
        #: the path every guess takes.)
        self._table: dict[frozenset, _TableRef] = {}
        self._high = 0                  # the table's largest size a pass saw
        self._on_death = self._forget
        #: (id(base), id(aid)) -> base ∪ {aid}
        self._add_memo: dict[tuple[int, int], DepSet] = {}
        #: (id(base), id(aid)) -> base ∖ {aid}
        self._discard_memo: dict[tuple[int, int], DepSet] = {}
        #: (id(a), id(b)) -> a ∪ b
        self._union_memo: dict[tuple[int, int], DepSet] = {}
        #: The memo operands no memo value reaches, held so that the ids
        #: in the memo keys cannot be recycled while the entry exists (an
        #: AID operand is a member of the held base or result).
        self._memo_operands: list[DepSet] = []
        self.empty = self.intern(frozenset())

    def __len__(self) -> int:
        """Number of distinct dependency sets currently alive."""
        return len(self._table)

    # ------------------------------------------------------------------
    # canonicalisation
    # ------------------------------------------------------------------
    def intern(self, members: Iterable) -> DepSet:
        """Return the canonical DepSet for ``members``."""
        if isinstance(members, DepSet):
            return members
        if not isinstance(members, frozenset):
            members = frozenset(members)
        ref = self._table.get(members)
        ds = ref() if ref is not None else None
        if ds is None:
            ds = DepSet(members, self)
            ref = _TableRef(ds, self._on_death)
            ref.members = members
            self._table[members] = ref
            self.stats["depset_misses"] += 1
        else:
            self.stats["depset_hits"] += 1
        return ds

    def _forget(self, ref: _TableRef) -> None:
        if self._table.get(ref.members) is ref:
            del self._table[ref.members]

    def clear_memos(self) -> int:
        """Drop the operation memos and, with them, every interned set
        that only a memo kept alive; returns how many sets that freed.

        Fossil collection calls this once per pass, which bounds the memos
        by the work between two passes.  A dropped set may be re-derived
        later; it re-interns as a fresh canonical object, and since the
        old one is gone by then the two can never meet.  A table left
        mostly empty is rebuilt: a dict keeps the capacity of its largest
        size.
        """
        before = len(self._table)
        self._add_memo.clear()
        self._discard_memo.clear()
        self._union_memo.clear()
        self._memo_operands.clear()
        left, self._high = len(self._table), max(self._high, before)
        if 4 * left < self._high:
            self._table, self._high = dict(self._table), left
        return before - left

    # ------------------------------------------------------------------
    # memoized operations (the machine's hot rewrites)
    # ------------------------------------------------------------------
    def add(self, base: DepSet, aid: "AssumptionId") -> DepSet:
        """``base ∪ {aid}`` — the Eq 3 inheritance step of a guess."""
        if aid in base.members:
            self.stats["depset_hits"] += 1
            return base
        key = (id(base), id(aid))
        ds = self._add_memo.get(key)
        if ds is None:
            ds = self.intern(base.members | {aid})
            self._add_memo[key] = ds
            self._memo_operands.append(base)
        else:
            self.stats["depset_hits"] += 1
        return ds

    def extend(self, base: DepSet, aids: Iterable["AssumptionId"]) -> DepSet:
        """Fold :meth:`add` over ``aids`` (implicit guesses from a tag)."""
        ds = base
        for aid in aids:
            ds = self.add(ds, aid)
        return ds

    def discard(self, base: DepSet, aid: "AssumptionId") -> DepSet:
        """``base ∖ {aid}`` — the Eq 8/12 release of a resolved AID."""
        if aid not in base.members:
            self.stats["depset_hits"] += 1
            return base
        key = (id(base), id(aid))
        ds = self._discard_memo.get(key)
        if ds is None:
            ds = self.intern(base.members - {aid})
            self._discard_memo[key] = ds
            self._memo_operands.append(base)
        else:
            self.stats["depset_hits"] += 1
        return ds

    def union(self, a: DepSet, b: DepSet) -> DepSet:
        """``a ∪ b`` — the Eq 12 dependency merge of a speculative affirm."""
        if a is b or not b.members:
            self.stats["depset_hits"] += 1
            return a
        if not a.members:
            self.stats["depset_hits"] += 1
            return b
        key = (id(a), id(b))
        ds = self._union_memo.get(key)
        if ds is None:
            ds = self.intern(a.members | b.members)
            self._union_memo[key] = ds
            self._memo_operands += (a, b)
        else:
            self.stats["depset_hits"] += 1
        return ds
