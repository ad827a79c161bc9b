"""Pinned output bytes: SHA-256 digests over the tree and orbit outputs of seeded graph sets.

:data:`DIGEST` covers ``decompose`` JSON and DOT, ``strong_split_sides``
and the JSON of ``lc_propagate``, ``extend`` and one- and multi-vertex
``induced_qasst`` results, over random distance-hereditary graphs, paths,
cycles and random graphs that are not distance-hereditary.  Any change to
what these print, quotient numbering included, changes the digest.  Tree
JSON is written by ``to_json_text``, as the CLI writes it.

:data:`ORBIT_DIGEST` covers the orbit layer: ``transformation_between``
on seeded pairs (g, an LC image of g), the ``orbit list`` text of C6 and
K2,3, and ``min_edge_member`` and ``min_max_degree_member`` on a few graphs.
"""

import hashlib
import json
import random

from helpers import random_connected_graph
from oracles import strong_split_sides
from lcsplit import cli
from lcsplit.errors import LcsplitError
from lcsplit.families import (
    clique_star_graph,
    complete_bipartite_graph,
    complete_multipartite_graph,
    cycle_graph,
    path_graph,
)
from lcsplit.graphs import apply_sequence, to_json_text as graph_json_text
from lcsplit.orbit import enumerate_orbit, min_edge_member, min_max_degree_member, transformation_between
from lcsplit.qasst import compute_qasst, to_dot, to_json_dict, to_json_text
from lcsplit.qasst_ops import EXTENSION_KINDS, ExtensionKind, extend, induced_qasst, lc_propagate, random_dh

DIGEST = "f7527a5fab506dc5499bd3acbe79b343e520f60b2cd4a104118292a87754a99c"
ORBIT_DIGEST = "2383b64981a47bfda25933f5b51f0eb4669e132ee564a00f5f76a3035ba05ee6"


def _graphs():
    for n in (8, 20, 45, 90, 180):
        for seed in range(4):
            yield random_dh(n, seed)[0]
    for n in (3, 4, 5, 7, 12, 25, 60):
        yield path_graph(n)
        yield cycle_graph(n)
    rng = random.Random(121)
    for _ in range(40):
        yield random_connected_graph(rng.randint(6, 14), rng, rng.uniform(0.1, 0.6))


def _outputs(write=to_json_text):
    """Every output, in a fixed order, each tree's JSON by ``write``; an op that raises gives its error."""
    rng = random.Random(122)

    def attempt(op, *args):
        try:
            return write(op(*args))
        except LcsplitError as exc:
            return f"{type(exc).__name__}: {exc}"

    for g in _graphs():
        q = compute_qasst(g)
        yield write(q)
        yield to_dot(q)
        yield repr(sorted(sorted(side) for side in strong_split_sides(q)))
        vertices = range(1, g.n + 1)
        for v in rng.sample(vertices, 2):
            out = lc_propagate(q, v)
            yield write(out)
            yield to_dot(out)
        anchor = rng.choice(vertices)
        for kind in EXTENSION_KINDS:
            yield attempt(extend, q, ExtensionKind(kind, anchor), g.n + 1)
        for v in rng.sample(vertices, 2):
            yield attempt(induced_qasst, q, [u for u in vertices if u != v])
        gone = set(rng.sample(vertices, min(3, g.n - 1)))
        yield attempt(induced_qasst, q, [u for u in vertices if u not in gone])


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def test_output_digest():
    assert _digest(_outputs()) == DIGEST


def _orbit_outputs(tmp_path, capsys):
    """The orbit layer's outputs, in a fixed order: LC sequences, ``orbit list`` text and orbit minima."""
    rng = random.Random(123)
    for _ in range(100):
        n = rng.randint(3, 8)
        g = random_connected_graph(n, rng, rng.uniform(0.1, 0.6))
        seq = [rng.randint(1, n) for _ in range(rng.randint(0, 6))]
        yield repr(transformation_between(g, apply_sequence(g, seq)))
    for g in (cycle_graph(6), complete_bipartite_graph(2, 3)):
        src = tmp_path / "g.json"
        src.write_text(graph_json_text(g), encoding="utf-8")
        assert cli.main(["orbit", "list", "--input", str(src)]) == 0
        yield capsys.readouterr().out
    for g in (cycle_graph(6), complete_bipartite_graph(2, 3), complete_multipartite_graph([2, 2, 2]),
              clique_star_graph([2, 2, 2], 1), path_graph(5), random_connected_graph(7, rng, 0.3)):
        o = enumerate_orbit(g)
        for least in (min_edge_member, min_max_degree_member):
            best, value = least(o)
            yield f"{value} {graph_json_text(best)}"


def test_orbit_digest(tmp_path, capsys):
    assert _digest(_orbit_outputs(tmp_path, capsys)) == ORBIT_DIGEST


def test_direct_writer_equals_json_dumps():
    """``to_json_text`` prints what ``json.dumps(to_json_dict(q), indent=2, sort_keys=True)`` prints, on every tree."""
    trees = 0

    def write(q):
        nonlocal trees
        trees += 1
        text = to_json_text(q)
        assert text == json.dumps(to_json_dict(q), indent=2, sort_keys=True)
        return text

    for _ in _outputs(write):
        pass
    assert trees > 500


def test_graph_set_has_leafless_quotients():
    """The digest covers trees with two or more quotients that hold no leaf-node."""
    trees = [compute_qasst(g) for g in _graphs()]
    assert sum(sum(not quot.leaf_nodes() for quot in q.quotients.values()) >= 2 for q in trees) >= 5
