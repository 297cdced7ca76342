"""Enumeration of all connected graphs up to isomorphism, for small n.

Builds level n+1 by attaching a new vertex to every non-empty subset of
each level-n graph (every connected graph arises this way: remove any
non-cut vertex), deduplicating with a degree/WL-hash bucket plus exact
isomorphism checks. Counts are validated against the known sequence
1, 1, 2, 6, 21, 112, 853, 11117 for n = 1..8 before use.
"""

from functools import cache
from itertools import combinations

import networkx as nx

CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def _bucket_key(g: nx.Graph):
    degs = tuple(sorted(d for _, d in g.degree()))
    return (
        g.number_of_nodes(),
        g.number_of_edges(),
        degs,
        nx.weisfeiler_lehman_graph_hash(g, iterations=2),
    )


def connected_graphs(max_n: int):
    """Yield (n, edge_tuple) for every connected graph with 1..max_n vertices,
    one representative per isomorphism class. Vertices are 0..n-1."""
    level = [nx.Graph()]
    level[0].add_node(0)
    yield 1, ()
    for n in range(1, max_n):
        buckets: dict = {}
        nxt = []
        for g in level:
            for size in range(1, n + 1):
                for subset in combinations(range(n), size):
                    h = g.copy()
                    h.add_node(n)
                    h.add_edges_from((v, n) for v in subset)
                    key = _bucket_key(h)
                    known = buckets.setdefault(key, [])
                    if any(nx.is_isomorphic(h, other) for other in known):
                        continue
                    known.append(h)
                    nxt.append(h)
        level = nxt
        for g in level:
            yield n + 1, tuple(sorted(tuple(sorted(e)) for e in g.edges()))


def enumerate_validated(max_n: int):
    """All connected graphs up to max_n vertices, with count validation."""
    per_n: dict[int, list[tuple]] = {k: [] for k in range(1, max_n + 1)}
    for n, edges in connected_graphs(max_n):
        per_n[n].append(edges)
    for n in range(1, max_n + 1):
        assert len(per_n[n]) == CONNECTED_COUNTS[n], (
            f"enumerator produced {len(per_n[n])} connected graphs on {n} "
            f"vertices, expected {CONNECTED_COUNTS[n]}"
        )
    return per_n


@cache
def small_graphs() -> list[tuple[int, tuple]]:
    """(n, edges) of every connected graph with 1..6 vertices, validated."""
    return [(n, edges) for n, graphs in enumerate_validated(6).items() for edges in graphs]
