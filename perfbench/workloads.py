"""The benchmark's workloads.

Each workload turns ``--seed`` into an endless, deterministic sequence of
blocks.  A block has a fixed composition (which sizes and op types it
holds); the seed picks the concrete graphs and vertices.  Block ``b`` is
generated from ``Random(f"{name}:{seed}:{b}")`` with the generators in
:mod:`perfbench.reference`, so it is the same whichever code is measured and
however many blocks a run reaches.  ``make_block`` does not call ``lcsplit``;
``load`` then builds the ``lcsplit`` graphs of the block's inputs.

An op is one request.  ``run`` makes the call that is timed; ``verdict``
checks its output against an oracle afterwards, outside the timed region,
and returns ``None`` for a right answer or a short failure label.  Labels
starting with ``KNOWN_DEFECT`` mark the one failure the seed code is known to
have; they still count as failures.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field

from . import reference as ref

KNOWN_DEFECT = "known-defect"


@dataclass
class Op:
    kind: str
    args: tuple
    desc: str  # deterministic text of the inputs, for the digest
    graphs: tuple = ()  # lcsplit graphs of the inputs, made by Workload.load


@dataclass
class Block:
    ops: list[Op]
    header: list[str] = field(default_factory=list)  # inputs shared by the block's ops
    state: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for line in self.header + [op.desc for op in self.ops]:
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()


def graph_desc(adj) -> str:
    return f"{len(adj) - 1}:" + ",".join(f"{u}-{v}" for u, v in ref.edges_of(adj))


def masks(g) -> tuple:
    """Bitmask form of an ``lcsplit`` graph, read through its public API."""
    return (0,) + tuple(g.neighborhood_mask(v) for v in range(1, g.n + 1))


class Workload:
    name = ""
    why = ""
    # Ops a run makes per second of ``--seconds``: about the rate of the
    # baseline machine, so that the run's length follows ``--seconds`` while
    # the seed alone fixes which ops it attempts.
    OPS_PER_S = 1.0

    def __init__(self, lib, seed: int, workdir: str):
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.blocks: dict[int, Block] = {}

    def block(self, b: int) -> Block:
        if b not in self.blocks:
            self.blocks[b] = self.load(self.inputs(b))
        return self.blocks[b]

    def inputs(self, b: int) -> Block:
        """Block ``b`` before ``load``; made without ``lcsplit``."""
        return self.make_block(random.Random(f"{self.name}:{self.seed}:{b}"), b)

    def load(self, block: Block) -> Block:
        for op in block.ops:
            op.graphs = tuple(self.graph(adj) for adj in self.input_graphs(op))
        return block

    def graph(self, adj):
        return self.lib.graphs.SimpleGraph(len(adj) - 1, ref.edges_of(adj))

    def make_block(self, rng: random.Random, b: int) -> Block:
        raise NotImplementedError

    def input_graphs(self, op: Op) -> tuple:
        """The op's input graphs that ``load`` turns into ``lcsplit`` graphs."""
        return ()

    def start_block(self, block: Block) -> None:
        """Reset per-block state before the block's first op."""

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result):
        raise NotImplementedError

    def verdict(self, op: Op, result, error) -> str | None:
        if error is not None:
            return f"raised {type(error).__name__}"
        try:
            return self.check(op, result)
        except Exception as exc:  # a malformed output is a failed op, not a crash
            return f"check raised {type(exc).__name__}: {exc}"


# -- orbit-oracle -------------------------------------------------------------


ORBIT_KINDS = ("size", "min-edge", "min-degree", "iso-classes", "transform")

# (name, family tag or "cycle", parameters, published orbit size)
FORMULA_FAMILIES = (
    ("K2,2,2,2", "KPartite", (2, 2, 2, 2), 149),
    ("C8", "cycle", (8,), 2932),
    ("CS2,2,2,2", "CliqueStar", (2, 2, 2, 2), 148),
    ("K2^5", "KPartite", (2, 2, 2, 2, 2), 526),
    ("K2,2,3", "KPartite", (2, 2, 3), 50),
    ("C9", "cycle", (9,), 8140),
)


class OrbitOracle(Workload):
    name = "orbit-oracle"
    OPS_PER_S = 15
    why = (
        "Orbit queries and formula checks on 6..10-vertex graphs: local complements, member keying and"
        " orbit dedup do the work; qasst is never entered, so qasst changes should change nothing."
    )
    # Each slot is ((n, least, most orbit members), op kind).  Graphs are
    # drawn at random until their orbit size falls in the band, so every
    # block asks the same mix of orbit sizes (about 15 to 9000 members) and
    # only the graphs change with the seed.  Counts are set so that the median op is a
    # cheap kind on 7 vertices and the 90th percentile op one on 8: each
    # quantile lies inside a group of like-cost ops, not between two.
    # Iso-classes is not asked on 8 or 9 vertices (0.5 s and 5 s per op).
    TINY, SMALL, MID, LARGE, HUGE = (6, 15, 45), (6, 170, 180), (7, 480, 540), (8, 1300, 1500), (9, 8400, 9000)
    CHEAP = ("size", "min-edge", "min-degree", "transform")
    SLOTS = tuple(zip([TINY] * 5, ORBIT_KINDS)) + tuple(zip([SMALL] * 5, ORBIT_KINDS)) \
        + tuple(zip([MID] * 9, CHEAP * 2 + ("iso-classes",))) + tuple(zip([LARGE] * 5, CHEAP + ("size",)))

    def make_block(self, rng, b):
        slots = list(self.SLOTS)
        if b % 4 == 3:
            slots.append((self.HUGE, self.CHEAP[b // 4 % 4]))
        ops = [self._graph_op(rng, band, kind) for band, kind in slots]
        ops.append(self._formula_op(rng, FORMULA_FAMILIES[b % len(FORMULA_FAMILIES)]))
        rng.shuffle(ops)
        return Block(ops)

    def _graph_op(self, rng, band, kind):
        n = band[0]
        adj = ref.graph_in_orbit_band(rng, *band)
        if kind != "transform":
            return Op(kind, (adj,), f"{kind}|{graph_desc(adj)}")
        target = ref.apply_lcs(adj, [rng.randint(1, n) for _ in range(rng.randint(n, 2 * n))])
        return Op(kind, (adj, target), f"{kind}|{graph_desc(adj)}|{graph_desc(target)}")

    @staticmethod
    def _formula_op(rng, family):
        name, tag, params, _ = family
        base = ref.family_graph(tag, params)
        n = len(base) - 1
        adj = ref.relabel(base, dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n))))
        return Op("formula", (adj, family), f"formula|{name}|{graph_desc(adj)}")

    def input_graphs(self, op):
        return op.args if op.kind == "transform" else op.args[:1]

    def run(self, op):
        orbit = self.lib.orbit
        if op.kind == "transform":
            return orbit.transformation_between(*op.graphs)
        if op.kind == "formula":
            return self._formula(op.graphs[0], op.args[1])
        o = orbit.enumerate_orbit(op.graphs[0])
        if op.kind == "size":
            return len(o)
        if op.kind == "min-edge":
            return orbit.min_edge_member(o)
        if op.kind == "min-degree":
            return orbit.min_max_degree_member(o)
        return orbit.orbit_iso_classes(o)

    def _formula(self, g, family):
        _, tag, params, _ = family
        orbit, counting = self.lib.orbit, self.lib.counting
        if tag == "cycle":
            return {"size": (counting.bouchet_cycle_count(params[0]), len(orbit.enumerate_orbit(g)))}
        o = orbit.enumerate_orbit(g)
        out = {
            "size": (counting.orbit_size(tag, params), len(o)),
            "min-edge": (counting.min_edge_rep(tag, params)[0].value, orbit.min_edge_member(o)[1]),
            "min-degree": (counting.min_max_degree_rep(tag, params)[0].value,
                           orbit.min_max_degree_member(o)[1]),
        }
        if len(set(params)) == 1:
            out["iso-classes"] = (counting.iso_class_count(tag, len(params)),
                                  len(orbit.orbit_iso_classes(o)))
        return out

    def check(self, op, result):
        depth = ref.orbit_depths(op.args[0])
        if op.kind == "size":
            return None if result == len(depth) else "wrong orbit size"
        if op.kind in ("min-edge", "min-degree"):
            measure = ref.edge_count if op.kind == "min-edge" else ref.max_degree
            best = min(depth, key=lambda m: (measure(m), ref.key_string(m)))
            graph, value = result
            return None if masks(graph) == best and value == measure(best) else f"wrong {op.kind} member"
        if op.kind == "iso-classes":
            return self._check_iso(depth, result)
        if op.kind == "transform":
            target = op.args[1]
            if ref.apply_lcs(op.args[0], result) != target:
                return "sequence does not reach the target"
            return None if len(result) == depth[target] else "sequence is not shortest"
        for what, (formula, oracle) in result.items():
            if formula != oracle:
                return f"formula {what} {formula} != oracle {oracle}"
        return None if result["size"][1] == len(depth) == op.args[1][3] else "wrong family orbit size"

    @staticmethod
    def _check_iso(depth, result):
        classes = ref.iso_classes(depth)
        least = sorted((min(cls, key=ref.key_string) for cls in classes), key=ref.key_string)
        size = {min(cls, key=ref.key_string): len(cls) for cls in classes}
        got = [(masks(rep), count) for rep, count in result]
        return None if got == [(rep, size[rep]) for rep in least] else "wrong isomorphism classes"


# -- dh-decompose -----------------------------------------------------------------


class DhDecompose(Workload):
    name = "dh-decompose"
    OPS_PER_S = 15
    why = (
        "The decompose CLI on random distance-hereditary graphs, n log-uniform 40..200: elimination,"
        " extension replay, tree copies and JSON I/O do the work; split search does none."
    )
    # The cubic cost makes n = 200 about 20 times dearer than n = 40; with n
    # up to 300 a 12-second run would hold only about 60 ops.
    N_RANGE = (40, 200)
    BLOCK_OPS = 10  # one n from each tenth of the log-uniform range

    def make_block(self, rng, b):
        lo, hi = (math.log(x) for x in self.N_RANGE)
        ops = []
        for i in range(self.BLOCK_OPS):
            n = round(math.exp(lo + (i + rng.random()) / self.BLOCK_OPS * (hi - lo)))
            adj = ref.random_dh(n, rng.getrandbits(32))
            path = os.path.join(self.workdir, f"dh-{b}-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"n": n, "edges": ref.edges_of(adj)}, fh)
            ops.append(Op("decompose", (adj, path), f"decompose|{graph_desc(adj)}"))
        rng.shuffle(ops)
        return Block(ops)

    def run(self, op):
        out = os.path.join(self.workdir, "out.json")
        return self.lib.cli.main(["decompose", "--input", op.args[1], "--output", out])

    def check(self, op, code):
        out = os.path.join(self.workdir, "out.json")
        if code != 0:
            return f"exit code {code}"
        with open(out, encoding="utf-8") as fh:
            data = json.load(fh)
        os.remove(out)
        qasst = self.lib.qasst
        graph = qasst.reconstruct(qasst.from_json_dict(data))
        return None if masks(graph) == op.args[0] else "tree does not reconstruct the input"


# -- prime-kernel -----------------------------------------------------------------


def prime_core(rng: random.Random, k: int) -> tuple:
    """A connected graph on k >= 5 vertices with no pendant and no twins."""
    if rng.random() < 0.5:
        base = ref.from_edges(k, [(i, i % k + 1) for i in range(1, k + 1)])
        return ref.relabel(base, dict(zip(range(1, k + 1), rng.sample(range(1, k + 1), k))))
    while True:
        adj = ref.random_connected(rng, k, rng.uniform(0.3, 0.6))
        if ref.kernel_size(adj) == k:
            return adj


def prime_kernel_graph(rng: random.Random, k: int, join: bool, extensions: int) -> tuple[tuple, int]:
    """A non-DH graph whose pendant/twin kernel has exactly k vertices.

    The kernel is one prime core, or (``join``) two cores glued across a
    split so that split search has to recurse.  The result is relabeled at
    random and grown by one-vertex extensions, which leave the kernel size
    unchanged.  Returns the graph and the set (a mask) of kernel vertices
    never used as an extension anchor: as long as the cores are prime, these
    are the leaf-nodes of its prime quotients.
    """
    while True:
        if join:
            a = rng.randint(5, k - 3)
            left, right = prime_core(rng, a), prime_core(rng, k + 2 - a)
            adj = ref.join_across_split(left, rng.randint(1, a), right, rng.randint(1, k + 2 - a))
        else:
            adj = prime_core(rng, k)
        if ref.kernel_size(adj) == k:
            break
    adj = ref.relabel(adj, dict(zip(range(1, k + 1), rng.sample(range(1, k + 1), k))))
    untouched = (1 << (k + 1)) - 2
    for _ in range(extensions):
        anchor = rng.randint(1, len(adj) - 1)
        adj = ref.extend(adj, rng.choice(ref.EXTENSION_KINDS), anchor)
        untouched &= ~(1 << anchor)
    return adj, untouched


class PrimeKernel(Workload):
    name = "prime-kernel"
    OPS_PER_S = 12.5
    why = (
        "compute_qasst on non-DH graphs with 10..17-vertex prime kernels, some joined across a split:"
        " kernel split search does the work and elimination is light."
    )
    SMALL_N = 14  # up to here the tree is also compared with the brute-force oracle
    # (kernel size, joined across a split) of each op of a block.  Split
    # search costs about 2^(k-1), so each k is its own cost level; with two
    # ops at 14 and at 17 the median op and the 90th percentile op each fall
    # inside a level rather than between two.
    KERNELS = ((10, False), (11, True), (12, False), (13, True), (14, False),
               (14, True), (15, False), (16, True), (17, False), (17, True))

    def make_block(self, rng, b):
        ops = []
        for k, join in rng.sample(self.KERNELS, len(self.KERNELS)):
            if k <= 12:
                extensions = rng.randint(0, self.SMALL_N - k)
            else:
                extensions = rng.randint(20, 40)
            adj, _ = prime_kernel_graph(rng, k, join=join, extensions=extensions)
            ops.append(Op("decompose", (adj, k), f"decompose|{k}|{graph_desc(adj)}"))
        return Block(ops)

    def input_graphs(self, op):
        return op.args[:1]

    def run(self, op):
        return self.lib.qasst.compute_qasst(op.graphs[0])

    def check(self, op, tree):
        qasst = self.lib.qasst
        adj, graph = op.args[0], op.graphs[0]
        if masks(qasst.reconstruct(tree)) != adj:
            return "tree does not reconstruct the input"
        if graph.n <= self.SMALL_N:
            oracle = qasst.compute_qasst_by_splits(graph)
            if ref.tree_key(qasst.to_json_dict(tree)) != ref.tree_key(qasst.to_json_dict(oracle)):
                return "tree differs from the brute-force split decomposition"
        return None


# -- qasst-dynamic -------------------------------------------------------------------


class QasstDynamic(Workload):
    name = "qasst-dynamic"
    OPS_PER_S = 120
    why = (
        "Writes on in-memory quotient trees from both generators (half lc_propagate, the rest extend and"
        " single-vertex induce): the update path, sharing Qasst.copy and extend with decompose."
    )
    # Eight short streams per block rather than a few long ones: the cost of
    # an op grows with the tree's edge count, which varies several-fold
    # between random trees, and more trees per block even it out.
    STREAMS = ("dh", "prime") * 4
    N0 = 100  # every stream starts at, and stays within one of, this many vertices
    OPS_PER_STREAM = 30
    # Share of the induce ops of a prime stream that delete a kernel vertex
    # never used as an extension anchor (a leaf-node of a prime quotient
    # while the quotient lasts), so the known defect shows in every run.
    PRIME_LEAF_SHARE = 0.5

    def make_block(self, rng, b):
        graphs, ops = [], []
        current, prime_leaves = [], []
        for kind in self.STREAMS:
            if kind == "dh":
                adj, leaves = ref.random_dh(self.N0, rng.getrandbits(32)), 0
            else:
                k = rng.randint(10, 12)
                adj, leaves = prime_kernel_graph(rng, k, join=len(graphs) % 2 == 1, extensions=self.N0 - k)
            graphs.append(adj)
            current.append(adj)
            prime_leaves.append(leaves)
        for step in range(self.OPS_PER_STREAM):
            for s, adj in enumerate(current):
                op, prime_leaves[s] = self._next_op(rng, s, adj, prime_leaves[s], step)
                current[s] = op.args[-1]
                ops.append(op)
        return Block(ops, header=[graph_desc(adj) for adj in graphs], state={"graphs": graphs})

    def _next_op(self, rng, s, adj, prime_leaves, step):
        """The stream's next op, and its set of untouched kernel vertices after it."""
        n = len(adj) - 1
        if step % 2 == 0:
            v = rng.randint(1, n)
            return Op("lc", (s, v, ref.lc(adj, v)), f"{s}|lc|{v}"), prime_leaves
        grow = n < self.N0 or (n == self.N0 and rng.random() < 0.5)
        if grow:
            kind, anchor = rng.choice(ref.EXTENSION_KINDS), rng.randint(1, n)
            op = Op("extend", (s, kind, anchor, ref.extend(adj, kind, anchor)), f"{s}|extend|{kind}|{anchor}")
            return op, prime_leaves & ~(1 << anchor)
        targets = [v for v in ref.bits(prime_leaves) if ref.is_connected(adj, 1 << v)]
        if targets and rng.random() < self.PRIME_LEAF_SHARE:
            v = rng.choice(targets)
        else:
            v = next(v for v in rng.sample(range(1, n + 1), n) if ref.is_connected(adj, 1 << v))
        keep = [u for u in range(1, n + 1) if u != v]
        return Op("induce", (s, v, keep, ref.delete(adj, v)), f"{s}|induce|{v}"), ref.squeeze(prime_leaves, v)

    def start_block(self, block):
        """Set every stream to its starting tree, computed on the block's first use."""
        if "trees" not in block.state:
            block.state["trees"] = [self.lib.qasst.compute_qasst(self.graph(adj)) for adj in block.state["graphs"]]
        self.trees = list(block.state["trees"])
        self._next = None

    def run(self, op):
        ops = self.lib.qasst_ops
        tree = self.trees[op.args[0]]
        if op.kind == "lc":
            return ops.lc_propagate(tree, op.args[1])
        if op.kind == "extend":
            return ops.extend(tree, ops.ExtensionKind(op.args[1], op.args[2]), len(op.args[3]) - 1)
        return ops.induced_qasst(tree, op.args[2])

    def verdict(self, op, result, error):
        """Check the op and move its stream on.

        An accepted tree becomes the stream's next tree.  After a failure the
        stream goes on from a freshly computed tree of the right graph, so
        every version of the code sees the same sequence of graphs.
        """
        failure, tree = super().verdict(op, result, error), self._next
        self._next = None
        if tree is None:
            tree = self.lib.qasst.compute_qasst(self.graph(op.args[-1]))
        self.trees[op.args[0]] = tree
        return failure

    def check(self, op, result):
        """Failure label or None; leaves the tree to go on from in ``_next``."""
        qasst = self.lib.qasst
        expected = op.args[-1]
        if op.kind != "induce":
            if masks(qasst.reconstruct(result)) != expected:
                return "tree does not reconstruct the graph"
            self._next = result
            return None
        data = ref.relabel_leaves(qasst.to_json_dict(result), op.args[1])
        tree = qasst.from_json_dict(data)
        if masks(qasst.reconstruct(tree)) != expected:
            return "tree does not reconstruct the graph"
        oracle = qasst.compute_qasst(self.graph(expected))
        if ref.tree_key(data) == ref.tree_key(qasst.to_json_dict(oracle)):
            self._next = tree
            return None
        self._next = oracle
        if ref.is_prime_leaf(qasst.to_json_dict(self.trees[op.args[0]]), op.args[1]):
            return f"{KNOWN_DEFECT}: induce deleting a leaf-node of a prime quotient is not the split decomposition"
        return "induced tree is not the split decomposition"


WORKLOADS = {cls.name: cls for cls in (OrbitOracle, DhDecompose, PrimeKernel, QasstDynamic)}
