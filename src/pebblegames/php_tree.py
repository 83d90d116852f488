"""php-trees: the canonical-play trees of strategies.

A php-tree has pigeon-labeled nodes and hole-labeled edges, no label
repeated along a root path, and level-``k`` branching at most ``n - k``.
The tree built from a strategy table encodes every play of a canonical
anti-strategy; it is complete exactly when no canonical anti-strategy wins.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from pebblegames.matching import GameSize, Record
from pebblegames.simple_game import SimpleStrategy

# A node is addressed by its root path of edge labels (holes are unique
# along any root path, so the path of holes identifies the node).
HolePath = tuple[int, ...]


@dataclass(frozen=True)
class PhpTree:
    """Rooted tree with node labels (pigeons) keyed by hole paths."""

    n: int
    nodes: dict[HolePath, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if () not in self.nodes:
            raise ValueError("php-tree needs a labeled root")

    def children(self, path: HolePath) -> list[int]:
        """Outgoing edge labels at a node, sorted."""
        return sorted(
            p[-1] for p in self.nodes if len(p) == len(path) + 1 and p[: len(path)] == path
        )

    @property
    def depth(self) -> int:
        return max(len(p) for p in self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def validate_php_tree(tree: PhpTree) -> bool:
    """The five defining conditions.  Branching needs no check of its own:
    the children of a level-``k`` node carry distinct holes, each in range
    and off its root path, so there are at most ``n - k`` of them."""
    n = tree.n
    nodes = tree.nodes
    # With every parent present, every prefix of a root path is a node, so
    # a condition on a whole root path holds once each node meets it
    # against its own ancestors.
    if any(path and path[:-1] not in nodes for path in nodes):
        return False
    for path, label in nodes.items():
        if not 0 <= label <= n:
            return False
        if path:
            # Edge labels along a root path are the path entries themselves.
            hole = path[-1]
            if not 0 <= hole < n or hole in path[:-1]:
                return False
            if label in [nodes[path[:k]] for k in range(len(path))]:
                return False
    return True


def is_complete(tree: PhpTree) -> bool:
    """Depth ``n`` with branching exactly ``n - k`` at every level-k node."""
    if tree.depth != tree.n:
        return False
    child_counts = Counter(path[:-1] for path in tree.nodes if path)
    return all(child_counts[path] == tree.n - len(path) for path in tree.nodes)


def is_symmetric(tree: PhpTree) -> bool:
    """Node label plus edge label determines the child label."""
    seen: dict[tuple[int, int], int] = {}
    for path, label in tree.nodes.items():
        if not path:
            continue
        parent_label = tree.nodes[path[:-1]]
        key = (parent_label, path[-1])
        if key in seen and seen[key] != label:
            return False
        seen[key] = label
    return True


def build_php_tree(strat: SimpleStrategy) -> PhpTree:
    """The canonical-play tree of a table.

    From a node with root path ``(v_0..v_i)``, a fresh hole ``h`` opens a
    child exactly when the table sends the node's pigeon to a pigeon not yet
    on the path; the child is labeled by that pigeon.  The result is
    symmetric by construction.
    """
    n = strat.size.n
    nodes: dict[HolePath, int] = {(): strat.init}

    def grow(path: HolePath, labels_on_path: tuple[int, ...]) -> None:
        current = labels_on_path[-1]
        for h in range(n):
            if h in path:
                continue
            nxt = strat.table[current][h]
            if nxt in labels_on_path:
                continue
            child = path + (h,)
            nodes[child] = nxt
            grow(child, labels_on_path + (nxt,))

    grow((), (strat.init,))
    return PhpTree(n, nodes)


def find_loose_pairs(tree: PhpTree, size: GameSize) -> frozenset[Record]:
    """Pairs ``(p, h)`` never realized as node-label plus outgoing edge."""
    nodes = tree.nodes
    realized = {(nodes[path[:-1]], path[-1]) for path in nodes if path and path[:-1] in nodes}
    return frozenset(
        Record(p, h)
        for p in size.pigeons
        for h in size.holes
        if (p, h) not in realized
    )


# ---------------------------------------------------------------------------
# Shortest qualifying path to a loop edge.


def shortest_loop_witness(strat: SimpleStrategy, loop_tail: int, loop_hole: int) -> Optional[int]:
    """Length of the shortest locally consistent walk from the initial node
    ending at the loop's tail, avoiding the loop hole everywhere and the
    tail pigeon internally.  ``None`` when unreachable, ``0`` when the
    initial node is the tail itself."""
    if strat.init == loop_tail:
        return 0
    n = strat.size.n
    # BFS over (current edge); edges carrying the loop hole are excluded, and
    # the search stops at the first edge into the loop tail, so no walk
    # leaves the tail and surviving walks meet the path constraint.
    frontier: set[tuple[int, int]] = set()
    for h in range(n):
        if h == loop_hole:
            continue
        frontier.add((strat.init, h))
    seen = set(frontier)
    dist = 1
    while frontier:
        hits = any(strat.table[p][h] == loop_tail for p, h in frontier)
        if hits:
            return dist
        nxt = set()
        for p, h in frontier:
            head = strat.table[p][h]
            for h2 in range(n):
                if h2 == loop_hole:
                    continue
                e2 = (head, h2)
                # local consistency between consecutive edges
                if (head == p) != (h2 == h):
                    continue
                if e2 not in seen:
                    seen.add(e2)
                    nxt.add(e2)
        frontier = nxt
        dist += 1
    return None
