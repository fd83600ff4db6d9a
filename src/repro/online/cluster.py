"""`ClusterStore`: the resolver's deterministic union-find entity state.

Online resolution folds pairwise decisions into entity clusters: a *merge*
unions the two records' clusters, a *split* records a cannot-link constraint
between them, and everything else leaves the state untouched.  The store is a
union-find over record keys (``"<source>:<record_id>"``, see
:func:`record_key`) with two properties the event log depends on:

* **Determinism** — the representative of a cluster is always its
  lexicographically smallest member key, independent of merge order or path
  compression, so two stores that saw the same *set* of merges export the
  same :meth:`to_dict` bytes.  This is what lets the test suite assert that
  replaying the event log reconstructs the live store bit-identically.
* **Constraint transparency** — cannot-links are stored as the original
  record-key pairs (exactly what the split events carry), with a root-level
  index maintained for O(1) :meth:`can_merge` checks.  Replaying a log
  therefore rebuilds constraints from the events alone, with no hidden
  root-naming state.

Singleton clusters are implicit: every record the resolver has seen is a
cluster of one until a merge says otherwise, and :meth:`to_dict` exports only
multi-member clusters plus the constraint pairs — so the exported state is a
pure function of the (non-reverted) merge/split decisions.  The store keeps a
sorted member list per multi-member root, so reading a cluster costs its size,
not the number of records seen.
"""

from __future__ import annotations

from ..data.records import Record
from ..exceptions import DataError


def record_key(record: Record) -> str:
    """The store identity of a record: ``"<source>:<record_id>"``.

    Qualifying by source keeps left/right tables with overlapping id spaces
    (``"0"`` on both sides of a generated wave) from colliding in one store.
    """
    return f"{record.source}:{record.record_id}"


class ClusterStore:
    """Union-find over record keys with cannot-link constraints."""

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        #: Canonical (min, max) record-key pairs carrying a cannot-link.
        self._cannot_pairs: set[tuple[str, str]] = set()
        #: Root-level index of the pairs above, updated on every union.
        self._root_cannot: dict[str, set[str]] = {}
        #: Sorted member keys of every multi-member cluster, by root.
        self._members: dict[str, list[str]] = {}

    # ------------------------------------------------------------- membership
    def add(self, key: str) -> None:
        """Ensure ``key`` exists (as a singleton unless already clustered)."""
        self._parent.setdefault(key, key)

    def __contains__(self, key: str) -> bool:
        return key in self._parent

    def __len__(self) -> int:
        return len(self._parent)

    def find(self, key: str) -> str:
        """The cluster representative (smallest member key) of ``key``."""
        if key not in self._parent:
            raise DataError(f"unknown record key {key!r} in cluster store")
        root = key
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[key] != root:  # path compression
            self._parent[key], key = root, self._parent[key]
        return root

    # -------------------------------------------------------------- decisions
    def can_merge(self, a: str, b: str) -> bool:
        """Whether no cannot-link constraint separates the two clusters."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return True
        return root_b not in self._root_cannot.get(root_a, ())

    def merge(self, a: str, b: str) -> str:
        """Union the clusters of ``a`` and ``b``; returns the new root.

        The smaller root key wins, so cluster naming never depends on the
        order the merge arguments (or earlier merges) arrived in.  Merging
        across a cannot-link is refused — callers are expected to check
        :meth:`can_merge` and escalate instead.
        """
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            return root_a
        if root_b in self._root_cannot.get(root_a, ()):
            raise DataError(
                f"cannot merge {a!r} and {b!r}: a cannot-link constraint "
                f"separates their clusters ({root_a!r} / {root_b!r})"
            )
        winner, loser = sorted((root_a, root_b))
        self._parent[loser] = winner
        self._members[winner] = sorted(
            self._members.pop(winner, [winner]) + self._members.pop(loser, [loser])
        )
        # Re-root the loser's constraints onto the winner.
        moved = self._root_cannot.pop(loser, set())
        if moved:
            merged = self._root_cannot.setdefault(winner, set())
            merged.update(moved)
            for other in moved:
                peers = self._root_cannot[other]
                peers.discard(loser)
                peers.add(winner)
        return winner

    def split(self, a: str, b: str) -> None:
        """Record a cannot-link between ``a`` and ``b`` (and their clusters)."""
        root_a, root_b = self.find(a), self.find(b)
        if root_a == root_b:
            raise DataError(
                f"cannot split {a!r} and {b!r}: they are already in one "
                f"cluster ({root_a!r})"
            )
        self._cannot_pairs.add((min(a, b), max(a, b)))
        self._root_cannot.setdefault(root_a, set()).add(root_b)
        self._root_cannot.setdefault(root_b, set()).add(root_a)

    # ------------------------------------------------------------- inspection
    def members(self, key: str) -> list[str]:
        """Sorted member keys of the cluster containing ``key`` (a new list)."""
        root = self.find(key)
        return list(self._members.get(root, (root,)))

    def clusters(self) -> dict[str, list[str]]:
        """Every multi-member cluster as ``{root: sorted members}``, by root."""
        return {root: list(self._members[root]) for root in sorted(self._members)}

    def cannot_links(self) -> list[list[str]]:
        """The recorded cannot-link record-key pairs, sorted."""
        return [list(pair) for pair in sorted(self._cannot_pairs)]

    def to_dict(self) -> dict:
        """Canonical JSON-safe state: multi-member clusters + constraints.

        Singletons are excluded on purpose: the export is then a pure
        function of the applied merge/split decisions, which is what makes
        ``replay(log).to_dict() == live.to_dict()`` a meaningful (and
        bit-exact) invariant even though the live store also tracks records
        that never appeared in any decision.
        """
        return {"clusters": self.clusters(), "cannot_links": self.cannot_links()}
