"""Seeded mutation fuzzing of graph and tree JSON through the CLI, in process.

Every mutated payload is written to a temp file and run through
``cli.main``: trees through ``reconstruct`` and ``qasst lc|induce|extend``,
graphs through ``decompose``, ``lc``, ``count phi --input`` and ``orbit
size|list|min-edge --limit 2000``.  Each run must return 0, or 2 with
exactly one ``lcsplit:`` line on stderr, and raise nothing; ``orbit`` may
also return 3, its budget spent, with one such line.  Where the mutated
tree still stands for a graph and ``qasst induce`` accepts the keep set,
the induced tree must reconstruct, leaves relabelled to 1..k, to that
graph's induced subgraph.

``orbit`` runs on mutated graphs only, whose size the mutations bound: a
graph takes one or two mutations, each adding at most one vertex ("new
vertex", or a "bad value" of n + 1), so n never passes the base graph's
n + 2, which is at most 14.  Each ``orbit`` run must end within
``ORBIT_WALL_S`` of wall time, a bound loose enough for a shared 2-core
machine, and exactly ``ORBIT_BUDGET_EXITS`` of them spend their budget.
"""

import contextlib
import copy
import io
import json
import random
import time

import pytest

from lcsplit import cli, families, graphs, qasst
from lcsplit.errors import LcsplitError
from lcsplit.qasst_ops import EXTENSION_KINDS, random_dh

ORBIT_WALL_S = 5.0
# Orbit runs in test_mutated_graphs that spend their --limit 2000 budget; a faster BFS must keep the count.
ORBIT_BUDGET_EXITS = 15


def _base_trees() -> list[dict]:
    named = [
        families.cycle_graph(7),
        families.path_graph(6),
        families.complete_multipartite_graph([2, 2, 2]),
        families.repeater_graph(4),
    ]
    dh = [random_dh(4 + seed % 12, 7000 + seed)[0] for seed in range(30)]
    return [qasst.to_json_dict(qasst.compute_qasst(g)) for g in named + dh]


def _nodes(quot: dict) -> list:
    return quot["leaf_nodes"] + quot["split_nodes"]


def _leaves(tree: dict) -> list[int]:
    return [v for quot in tree["quotients"] for v in quot["leaf_nodes"]]


def _isolate(quot: dict, node) -> None:
    quot["edges"] = [e for e in quot["edges"] if node not in e]


def _join(quot: dict, node, rng: random.Random) -> None:
    others = [v for v in _nodes(quot) if v != node]
    quot["edges"] += [[node, v] for v in rng.sample(others, rng.randint(0, len(others)))]


def _mutate_tree(tree: dict, rng: random.Random) -> str:
    """Apply one mutation to tree JSON in place; returns its name."""
    quots = tree["quotients"]
    quot = rng.choice(quots)
    kind = rng.choice(["drop edge", "add edge", "move leaf", "new leaf", "isolate", "rewire"])
    if kind == "drop edge" and quot["edges"]:
        quot["edges"].pop(rng.randrange(len(quot["edges"])))
    elif kind == "add edge":
        quot["edges"].append([rng.choice(_nodes(quot)), rng.choice(_nodes(quot))])
    elif kind == "move leaf" and quot["leaf_nodes"]:
        leaf = quot["leaf_nodes"].pop(rng.randrange(len(quot["leaf_nodes"])))
        _isolate(quot, leaf)
        dest = rng.choice(quots)
        dest["leaf_nodes"].append(leaf)
        _join(dest, leaf, rng)
    elif kind == "new leaf":
        leaf = rng.choice([max(_leaves(tree), default=0) + 1, rng.randint(-1, 40)])
        quot["leaf_nodes"].append(leaf)
        _join(quot, leaf, rng)
    elif kind in ("isolate", "rewire"):
        node = rng.choice(_nodes(quot))
        _isolate(quot, node)
        if kind == "rewire":
            _join(quot, node, rng)
    return kind


def _mutate_graph(data: dict, rng: random.Random) -> str:
    """Apply one mutation to graph JSON in place; returns its name."""
    n, edges = data["n"], data["edges"]
    kind = rng.choice(["drop edge", "add edge", "isolate", "new vertex", "bad value"])
    if kind == "drop edge" and edges:
        edges.pop(rng.randrange(len(edges)))
    elif kind == "add edge":
        edges.append([rng.randint(0, n + 1), rng.randint(0, n + 1)])
    elif kind == "isolate":
        v = rng.randint(1, n)
        data["edges"] = [e for e in edges if v not in e]
    elif kind == "new vertex":
        data["n"] = n + 1
        edges += [[v, n + 1] for v in rng.sample(range(1, n + 1), rng.randint(0, min(n, 3)))]
    elif kind == "bad value":
        bad = rng.choice([-1, 0, n + 1, "3", 3.5, None, [], True])
        if edges and rng.random() < 0.7:
            edges[rng.randrange(len(edges))][rng.randrange(2)] = bad
        else:
            data["n"] = bad
    return kind


def _run(argv: list[str], exits=(cli.EXIT_OK, cli.EXIT_USAGE)) -> tuple[int, str]:
    """``cli.main(argv)`` with stderr captured; the exit must be one of ``exits``, and any but 0 print one ``lcsplit:`` line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    text = err.getvalue()
    assert code in exits, (argv, code, text)
    if code != cli.EXIT_OK:
        assert text.startswith("lcsplit: ") and text.count("\n") == 1, (argv, text)
    else:
        assert text == "", (argv, text)
    return code, text


def _graph_of(data: dict):
    """The graph a tree payload stands for, or None if ``reconstruct`` refuses it."""
    try:
        return qasst.reconstruct(qasst.from_json_dict(data))
    except LcsplitError:
        return None


def _relabelled(data: dict, new_of_old: dict) -> dict:
    def rn(node):
        return node if isinstance(node, dict) else new_of_old[node]

    out = copy.deepcopy(data)
    for quot in out["quotients"]:
        quot["leaf_nodes"] = [rn(v) for v in quot["leaf_nodes"]]
        quot["edges"] = [[rn(a), rn(b)] for a, b in quot["edges"]]
    return out


@pytest.fixture
def files(tmp_path):
    return tmp_path / "in.json", tmp_path / "out.json"


def test_mutated_trees(files):
    src, dst = files
    rng = random.Random(2020)
    bases = _base_trees()
    counts = {"induced": 0, "refused": 0}
    for _ in range(300):
        tree = copy.deepcopy(rng.choice(bases))
        for _ in range(rng.randint(1, 2)):
            _mutate_tree(tree, rng)
        src.write_text(json.dumps(tree))
        leaves = _leaves(tree)
        common = ["--input", str(src), "--output", str(dst)]
        _run(["reconstruct"] + common)
        _run(["qasst", "lc", "--vertex", str(rng.choice(leaves + [0]))] + common)
        kind = rng.choice(EXTENSION_KINDS)
        _run(["qasst", "extend", "--kind", kind, "--anchor", str(rng.choice(leaves + [0]))] + common)
        keep = sorted(set(rng.sample(leaves, rng.randint(1, len(leaves))))) if leaves else [1]
        code, _ = _run(["qasst", "induce", "--keep", ",".join(map(str, keep))] + common)
        counts["refused" if code else "induced"] += 1
        g = _graph_of(tree)
        if code == cli.EXIT_OK and g is not None:
            sub, mapping = graphs.induced_subgraph(g, keep)
            out = json.loads(dst.read_text())
            assert _graph_of(_relabelled(out, {old: new for new, old in mapping.items()})) == sub, tree
    assert min(counts.values()) >= 50, counts


def test_mutated_graphs(files):
    src, dst = files
    rng = random.Random(2021)
    bases = [graphs.to_json_dict(random_dh(3 + seed % 10, 8000 + seed)[0]) for seed in range(20)]
    bases += [graphs.to_json_dict(g) for g in (families.cycle_graph(6), families.path_graph(5))]
    codes = []
    for _ in range(100):
        data = copy.deepcopy(rng.choice(bases))
        n = data["n"]
        for _ in range(rng.randint(1, 2)):
            _mutate_graph(data, rng)
        src.write_text(json.dumps(data))
        common = ["--input", str(src), "--output", str(dst)]
        codes.append(_run(["decompose"] + common)[0])
        codes.append(_run(["lc", "--vertex", str(rng.randint(0, n + 1))] + common)[0])
        codes.append(_run(["count", "phi"] + common)[0])
        for action in ("size", "list", "min-edge"):
            argv = ["orbit", action, "--limit", "2000"] + common
            start = time.perf_counter()
            codes.append(_run(argv, (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_BUDGET))[0])
            elapsed = time.perf_counter() - start
            assert elapsed < ORBIT_WALL_S, (argv, data, elapsed)
    assert codes.count(cli.EXIT_OK) >= 50 and codes.count(cli.EXIT_USAGE) >= 50
    assert codes.count(cli.EXIT_BUDGET) == ORBIT_BUDGET_EXITS
