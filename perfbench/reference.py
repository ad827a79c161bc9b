"""Independent oracles and input generators for the benchmark.

Nothing here calls into ``lcsplit``.  A graph is a tuple of neighbour
bitmasks indexed 0..n (index 0 unused, bit v of ``adj[u]`` set iff u~v), and
a quotient tree is read in the JSON form that ``lcsplit.qasst.to_json_dict``
writes, which the CLI keeps byte-stable.  The generators reproduce
``lcsplit.qasst_ops.random_dh`` and ``extend_graph`` on bitmasks, so inputs
depend only on the seed and never on the code under test.
"""

from __future__ import annotations

import random
from collections import deque

PENDANT = "pendant"
FALSE_TWIN = "false_twin"
TRUE_TWIN = "true_twin"
EXTENSION_KINDS = (PENDANT, FALSE_TWIN, TRUE_TWIN)


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- bitmask graphs ---------------------------------------------------------------


def from_edges(n: int, edges) -> tuple:
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return tuple(adj)


def edges_of(adj) -> list[tuple[int, int]]:
    """Edges (u, v) with u < v in lexicographic order."""
    return [(u, v) for u in range(1, len(adj)) for v in bits(adj[u] >> (u + 1) << (u + 1))]


def edge_count(adj) -> int:
    return sum(m.bit_count() for m in adj) // 2


def max_degree(adj) -> int:
    return max((m.bit_count() for m in adj), default=0)


def key_string(adj) -> bytes:
    """The documented order key of a labeled graph: ``n;u-v;...`` over sorted edges."""
    parts = [str(len(adj) - 1)] + [f"{u}-{v}" for u, v in edges_of(adj)]
    return ";".join(parts).encode("ascii")


def lc(adj, v: int) -> tuple:
    """Local complement at v: toggle every edge among v's neighbours."""
    nb = adj[v]
    out = list(adj)
    for u in bits(nb):
        out[u] ^= nb & ~(1 << u)
    return tuple(out)


def apply_lcs(adj, seq) -> tuple:
    for v in seq:
        adj = lc(adj, v)
    return adj


def is_connected(adj, removed: int = 0) -> bool:
    """Connectivity of the graph with the vertex set ``removed`` (a mask) deleted."""
    n = len(adj) - 1
    alive = ((1 << (n + 1)) - 2) & ~removed
    if not alive:
        return True
    start = alive & -alive
    seen = frontier = start
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen == alive


def extend(adj, kind: str, anchor: int) -> tuple:
    """One-vertex extension adding vertex n+1 (pendant / false twin / true twin)."""
    p = len(adj)
    if kind == PENDANT:
        new = 1 << anchor
    elif kind == FALSE_TWIN:
        new = adj[anchor]
    elif kind == TRUE_TWIN:
        new = adj[anchor] | 1 << anchor
    else:
        raise ValueError(f"unknown extension kind {kind!r}")
    out = list(adj)
    for u in bits(new):
        out[u] |= 1 << p
    out.append(new)
    return tuple(out)


def squeeze(mask: int, v: int) -> int:
    """A vertex set with v dropped and the vertices above it moved down by one."""
    return (mask & ((1 << v) - 1)) | (mask >> (v + 1) << v)


def delete(adj, v: int) -> tuple:
    """Delete vertex v and relabel the vertices above it down by one."""
    return tuple(squeeze(m, v) for i, m in enumerate(adj) if i != v)


def family_graph(tag: str, params) -> tuple:
    """The graphs of ``lcsplit.families`` the formula checks use.

    ``cycle`` is C_n; ``KPartite`` the complete multipartite graph; and
    ``CliqueStar`` CS^1, every block a clique and block 1 joined to all others.
    """
    if tag == "cycle":
        n = params[0]
        return from_edges(n, [(v, v % n + 1) for v in range(1, n + 1)])
    blocks, start = [], 1
    for size in params:
        blocks.append(range(start, start + size))
        start += size
    edges = []
    for i, a in enumerate(blocks):
        if tag == "CliqueStar":
            edges += [(u, v) for u in a for v in a if u < v]
        for b in blocks[i + 1:]:
            if tag == "KPartite" or i == 0:
                edges += [(u, v) for u in a for v in b]
    return from_edges(start - 1, edges)


def random_connected(rng: random.Random, n: int, p: float) -> tuple:
    """G(n, p) edges plus a random spanning tree, so the graph is connected."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[i], order[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    for a in range(1, n + 1):
        for b in range(a + 1, n + 1):
            if rng.random() < p:
                edges.add((a, b))
    return from_edges(n, edges)


def relabel(adj, perm: dict[int, int]) -> tuple:
    """The graph with vertex v renamed perm[v]."""
    return from_edges(len(adj) - 1, ((perm[u], perm[v]) for u, v in edges_of(adj)))


def random_dh(n: int, seed) -> tuple:
    """Bit-for-bit the graph ``lcsplit.qasst_ops.random_dh(n, seed)`` returns."""
    rng = random.Random(seed)
    adj: tuple = (0, 0)
    for _ in range(2, n + 1):
        anchor = rng.randint(1, len(adj) - 1)
        kinds = [PENDANT, TRUE_TWIN]
        if adj[anchor]:
            kinds.append(FALSE_TWIN)
        adj = extend(adj, rng.choice(kinds), anchor)
    return adj


def kernel_size(adj) -> int:
    """Vertices left after stripping pendants and twins until none remain.

    Removes the least pendant first, else the later vertex of the first twin
    pair found; a distance-hereditary graph ends with one vertex.
    """
    live = {v: adj[v] for v in range(1, len(adj))}
    while len(live) > 1:
        v = _removable(live)
        if v is None:
            break
        for u in bits(live.pop(v)):
            live[u] &= ~(1 << v)
    return len(live)


def _removable(live: dict[int, int]):
    for v, nb in live.items():
        if nb.bit_count() == 1:
            return v
    seen = set()
    for v, nb in live.items():
        open_key, closed_key = ("open", nb), ("closed", nb | 1 << v)
        if open_key in seen or closed_key in seen:
            return v
        seen.update((open_key, closed_key))
    return None


def join_across_split(a, x: int, b, y: int) -> tuple:
    """Glue graphs a and b at marker vertices x and y (both deleted).

    Every neighbour of x becomes adjacent to every neighbour of y, so the
    two remaining sides form a split of the result.  Vertices of a come
    first, then those of b, each in their original order.
    """
    na, nb = len(a) - 1, len(b) - 1
    left = [v for v in range(1, na + 1) if v != x]
    right = [v for v in range(1, nb + 1) if v != y]
    new_a = {v: i + 1 for i, v in enumerate(left)}
    new_b = {v: len(left) + i + 1 for i, v in enumerate(right)}
    edges = [(new_a[u], new_a[v]) for u, v in edges_of(a) if x not in (u, v)]
    edges += [(new_b[u], new_b[v]) for u, v in edges_of(b) if y not in (u, v)]
    edges += [(new_a[u], new_b[w]) for u in bits(a[x]) for w in bits(b[y])]
    return from_edges(len(left) + len(right), edges)


# -- orbits -------------------------------------------------------------------------


def orbit_depths(adj, limit: float = float("inf")) -> dict[tuple, int] | None:
    """Every member of the LC orbit of ``adj`` with its BFS distance from it.

    Returns None as soon as the orbit has more than ``limit`` members.
    """
    adj = tuple(adj)
    n = len(adj) - 1
    depth = {adj: 0}
    queue = deque([adj])
    while queue:
        cur = queue.popleft()
        d = depth[cur] + 1
        for v in range(1, n + 1):
            nxt = lc(cur, v)
            if nxt not in depth:
                depth[nxt] = d
                queue.append(nxt)
        if len(depth) > limit:
            return None
    return depth


def graph_in_orbit_band(rng: random.Random, n: int, lo: int, hi: int) -> tuple:
    """A random connected graph on n vertices whose orbit has lo..hi members."""
    while True:
        adj = random_connected(rng, n, rng.uniform(0.2, 0.5))
        depth = orbit_depths(adj, limit=hi)
        if depth is not None and len(depth) >= lo:
            return adj


def _refine(adj) -> tuple[list[int], tuple]:
    """Colour refinement from degrees.

    Returns the final colour of each vertex and a certificate; isomorphic
    graphs get equal certificates and colours that any isomorphism keeps.
    """
    n = len(adj) - 1
    col = [0] + [adj[v].bit_count() for v in range(1, n + 1)]
    rounds = []
    classes = -1
    while True:
        sigs = [None] + [(col[v], tuple(sorted(col[u] for u in bits(adj[v]))))
                         for v in range(1, n + 1)]
        order = sorted(set(sigs[1:]))
        rounds.append(tuple(sorted(sigs[1:])))
        index = {s: i for i, s in enumerate(order)}
        col = [0] + [index[sigs[v]] for v in range(1, n + 1)]
        if len(order) == classes:
            return col, tuple(rounds)
        classes = len(order)


def _isomorphic(a, ca: list[int], b, cb: list[int]) -> bool:
    """Exact isomorphism test between equally refined graphs, by backtracking."""
    n = len(a) - 1
    order = sorted(range(1, n + 1), key=lambda v: (sum(1 for u in range(1, n + 1) if ca[u] == ca[v]), v))
    image = [0] * (n + 1)
    used = 0

    def place(i: int) -> bool:
        nonlocal used
        if i == n:
            return True
        v = order[i]
        for w in range(1, n + 1):
            if used >> w & 1 or cb[w] != ca[v]:
                continue
            if any((a[v] >> u & 1) != (b[w] >> image[u] & 1) for u in order[:i]):
                continue
            image[v] = w
            used |= 1 << w
            if place(i + 1):
                return True
            used &= ~(1 << w)
        return False

    return place(0)


def iso_classes(members) -> list[list[tuple]]:
    """Partition graphs into isomorphism classes (each a list of members)."""
    buckets: dict[tuple, list[tuple[tuple, list[int], list[tuple]]]] = {}
    for g in members:
        col, cert = _refine(g)
        reps = buckets.setdefault(cert, [])
        for rep, rep_col, cls in reps:
            if _isomorphic(rep, rep_col, g, col):
                cls.append(g)
                break
        else:
            reps.append((g, col, [g]))
    return [cls for reps in buckets.values() for _, _, cls in reps]


# -- quotient trees in JSON form ----------------------------------------------------


def _json_node(node):
    """("L", v) for a leaf-node, ("S", j) for a split-node toward quotient j."""
    if isinstance(node, dict):
        return ("S", int(node["j"]))
    return ("L", int(node))


def tree_key(data: dict) -> frozenset:
    """Canonical key of a quotient tree, independent of quotient numbering.

    Split-nodes are named by the set (bitmask) of original vertices behind
    them, as ``Qasst.structure_key`` does, computed in one pass over the tree.
    """
    quots = data["quotients"]
    leaves = [sum(1 << int(v) for v in q["leaf_nodes"]) for q in quots]
    nbrs = [[int(s["j"]) for s in q["split_nodes"]] for q in quots]
    far: dict[tuple[int, int], int] = {}

    def behind(i: int, j: int) -> int:
        # Iterative post-order over the subtree entered from i into j.
        stack = [(i, j, False)]
        while stack:
            pi, pj, done = stack.pop()
            if (pi, pj) in far:
                continue
            kids = [k for k in nbrs[pj] if k != pi]
            if done:
                mask = leaves[pj]
                for k in kids:
                    mask |= far[(pj, k)]
                far[(pi, pj)] = mask
            else:
                stack.append((pi, pj, True))
                stack.extend((pj, k, False) for k in kids if (pj, k) not in far)
        return far[(i, j)]

    def label(node, i: int):
        kind, x = _json_node(node)
        return ("S", behind(i, x)) if kind == "S" else ("L", x)

    out = []
    for i, q in enumerate(quots):
        nodes = [int(v) for v in q["leaf_nodes"]] + list(q["split_nodes"])
        out.append((
            frozenset(label(v, i) for v in nodes),
            frozenset(frozenset((label(a, i), label(b, i))) for a, b in q["edges"]),
        ))
    return frozenset(out)


def _is_prime(q: dict) -> bool:
    """True iff a quotient in JSON form is neither complete nor a star."""
    nodes = [("L", int(v)) for v in q["leaf_nodes"]] + [("S", int(s["j"])) for s in q["split_nodes"]]
    m = len(nodes)
    if m <= 3:
        return False
    deg = dict.fromkeys(nodes, 0)
    for a, b in q["edges"]:
        deg[_json_node(a)] += 1
        deg[_json_node(b)] += 1
    degs = sorted(deg.values())
    return degs != [m - 1] * m and degs != [1] * (m - 1) + [m - 1]


def is_prime_leaf(data: dict, v: int) -> bool:
    """True iff vertex v is a leaf-node of a prime quotient of the tree."""
    return any(_is_prime(q) for q in data["quotients"] if v in map(int, q["leaf_nodes"]))


def relabel_leaves(data: dict, removed: int) -> dict:
    """The JSON tree with leaf labels above ``removed`` shifted down by one."""
    def shift(node):
        if isinstance(node, dict):
            return node
        v = int(node)
        return v - 1 if v > removed else v

    return {
        "quotients": [
            {
                "leaf_nodes": [shift(v) for v in q["leaf_nodes"]],
                "split_nodes": q["split_nodes"],
                "edges": [[shift(a), shift(b)] for a, b in q["edges"]],
            }
            for q in data["quotients"]
        ],
        "tree_edges": data["tree_edges"],
    }
