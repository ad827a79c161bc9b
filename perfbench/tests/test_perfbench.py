"""Tests of the benchmark itself: determinism, checks, tracing, output.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import reference as ref  # noqa: E402
from perfbench import run as bench  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import KNOWN_DEFECT, WORKLOADS, Op, masks, prime_kernel_graph  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


@pytest.fixture
def lib():
    return bench.load_lcsplit()


def make(lib, name, seed, tmp_path):
    return WORKLOADS[name](lib, seed, str(tmp_path))


# -- inputs ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(lib, name, tmp_path):
    a = make(lib, name, 7, tmp_path / "a")
    b = make(lib, name, 7, tmp_path / "b")
    c = make(lib, name, 8, tmp_path / "c")
    for d in ("a", "b", "c"):
        (tmp_path / d).mkdir()
    assert a.block(0).digest() == b.block(0).digest()
    assert a.block(1).digest() == b.block(1).digest()
    assert a.block(0).digest() != c.block(0).digest()
    assert a.block(0).digest() != a.block(1).digest()


def test_dh_generator_matches_lcsplit(lib):
    for seed in (1, 2, 99):
        g, _ = lib.qasst_ops.random_dh(60, seed)
        assert masks(g) == ref.random_dh(60, seed)


def test_family_graphs_match_lcsplit(lib):
    fam = lib.families
    for tag, params, graph in (("cycle", (9,), fam.cycle_graph(9)),
                               ("KPartite", (2, 2, 3), fam.complete_multipartite_graph((2, 2, 3))),
                               ("CliqueStar", (2, 3, 2, 2), fam.clique_star_graph((2, 3, 2, 2), 1))):
        assert ref.family_graph(tag, params) == masks(graph)


def test_untouched_kernel_vertices_are_prime_leaves(lib):
    rng = random.Random(4)
    for join in (False, True):
        adj, untouched = prime_kernel_graph(rng, 11, join=join, extensions=30)
        assert untouched
        tree = lib.qasst.to_json_dict(lib.qasst.compute_qasst(lib.graphs.SimpleGraph(len(adj) - 1, ref.edges_of(adj))))
        assert all(ref.is_prime_leaf(tree, v) for v in ref.bits(untouched))


def test_kernel_size_matches_lcsplit_elimination(lib):
    rng = random.Random(3)
    for k in (10, 12, 14):
        adj, _ = prime_kernel_graph(rng, k, join=k == 12, extensions=15)
        g = lib.graphs.SimpleGraph(len(adj) - 1, ref.edges_of(adj))
        kernel, _ = lib.qasst.eliminate_extensions(g)
        assert ref.kernel_size(adj) == len(kernel) == k


def test_tree_key_agrees_with_structure_key(lib):
    rng = random.Random(5)
    trees = []
    for k in (10, 11):
        adj, _ = prime_kernel_graph(rng, k, join=True, extensions=6)
        trees.append(lib.qasst.compute_qasst(lib.graphs.SimpleGraph(len(adj) - 1, ref.edges_of(adj))))
    trees.append(lib.qasst.compute_qasst(lib.qasst_ops.random_dh(30, 4)[0]))
    for q1 in trees:
        for q2 in trees:
            same = q1.structure_key() == q2.structure_key()
            assert (ref.tree_key(lib.qasst.to_json_dict(q1)) == ref.tree_key(lib.qasst.to_json_dict(q2))) == same


def test_reference_orbit_and_iso_classes(lib):
    c5 = lib.families.cycle_graph(5)
    depth = ref.orbit_depths(masks(c5))
    assert len(depth) == len(lib.orbit.enumerate_orbit(c5)) == 132
    classes = ref.iso_classes(depth)
    assert len(classes) == len(lib.orbit.orbit_iso_classes(lib.orbit.enumerate_orbit(c5)))


# -- checks ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_has_expected_failures(lib, name, tmp_path):
    result = bench.measure(make(lib, name, 1, tmp_path), max_ops=12)
    assert result.ops == 12
    # The only failures the seed code has are prime-quotient induce ops.
    assert result.unexpected == 0
    if name != "qasst-dynamic":
        assert result.failed == 0


def test_known_defect_shows_on_qasst_dynamic(lib, tmp_path):
    runs = []
    for _ in range(2):
        workload = make(lib, "qasst-dynamic", 1, tmp_path)
        runs.append(bench.measure(workload, max_ops=len(workload.block(0).ops)))
    assert runs[0].unexpected == 0
    assert runs[0].failed > 0
    # The same seed and op count attempt the same ops and fail the same ones.
    assert runs[0].failures == runs[1].failures
    assert runs[0].digest.hexdigest() == runs[1].digest.hexdigest()


def test_wrong_answers_are_failures(lib, tmp_path):
    workload = make(lib, "orbit-oracle", 1, tmp_path)
    op = next(op for op in workload.block(0).ops if op.kind == "size")
    assert workload.verdict(op, workload.run(op), None) is None
    assert workload.verdict(op, workload.run(op) + 1, None) == "wrong orbit size"
    assert workload.verdict(op, None, ValueError("boom")) == "raised ValueError"


def test_known_defect_is_reported_as_failure(lib, tmp_path):
    """Induce on a tree whose prime quotient loses a leaf is a failure."""
    workload = make(lib, "qasst-dynamic", 1, tmp_path)
    workload.start_block(workload.block(0))
    c6 = ref.from_edges(6, [(i, i % 6 + 1) for i in range(1, 7)])
    workload.trees[0] = lib.qasst.compute_qasst(workload.graph(c6))
    op = Op("induce", (0, 6, [1, 2, 3, 4, 5], ref.delete(c6, 6)), "0|induce|6")
    label = workload.verdict(op, workload.run(op), None)
    assert label is not None and label.startswith(KNOWN_DEFECT)


def test_other_wrong_induce_on_prime_tree_is_unexpected(lib, tmp_path):
    """A wrong tree is the known defect only if a prime quotient lost a leaf."""
    workload = make(lib, "qasst-dynamic", 1, tmp_path)
    workload.start_block(workload.block(0))
    c6 = ref.from_edges(6, [(i, i % 6 + 1) for i in range(1, 7)])
    g = ref.extend(c6, ref.PENDANT, 1)  # vertex 7 hangs off the prime C6
    workload.trees[0] = lib.qasst.compute_qasst(workload.graph(g))
    # Vertex 7 deleted but the two-node quotient left unmerged: the tree
    # reconstructs C6 and is not its split decomposition.
    data = lib.qasst.to_json_dict(workload.trees[0])
    for q in data["quotients"]:
        q["leaf_nodes"] = [v for v in q["leaf_nodes"] if v != 7]
        q["edges"] = [e for e in q["edges"] if 7 not in e]
    wrong = lib.qasst.from_json_dict(data)
    op = Op("induce", (0, 7, [1, 2, 3, 4, 5, 6], c6), "0|induce|7")
    assert workload.verdict(op, wrong, None) == "induced tree is not the split decomposition"


# -- tracing --------------------------------------------------------------------------


def _function_attrs():
    return {
        (name, attr): obj
        for name, mod in sys.modules.items() if name.startswith("lcsplit")
        for attr, obj in vars(mod).items() if callable(obj)
    }


def test_traced_run_removes_every_wrapper(lib, tmp_path):
    before = _function_attrs()
    methods = {m: vars(lib.qasst.Qasst)[m] for m in ("copy", "normalize", "validate")}
    tracer = Tracer()
    workload = make(lib, "dh-decompose", 1, tmp_path)
    with tracer.installed():
        assert lib.orbit.canonical_key is not before[("lcsplit.orbit", "canonical_key")]
        assert lib.orbit.canonical_key is lib.graphs.canonical_key
        bench.measure(workload, max_ops=2, tracer=tracer)
    assert _function_attrs() == before
    assert {m: vars(lib.qasst.Qasst)[m] for m in methods} == methods
    assert tracer.value("qasst.compute_qasst", "calls") == 2
    assert tracer.value("cli.main", "calls") == 2
    assert tracer.value("qasst_ops.replay", "calls") == tracer.counts["qasst.eliminated_vertices"] > 0


def test_checks_are_not_traced(lib, tmp_path):
    tracer = Tracer()
    workload = make(lib, "prime-kernel", 1, tmp_path)
    with tracer.installed():
        bench.measure(workload, max_ops=3, tracer=tracer)
    # The checks call reconstruct; the timed ops never do.
    assert tracer.value("qasst.compute_qasst", "calls") == 3
    assert tracer.value("qasst.reconstruct", "calls") == 0


# -- the command and BENCHMARK.json ---------------------------------------------


def run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_declared_metrics(trace):
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end" if trace == "0" else "per_layer"]}
    for workload in ("prime-kernel", "qasst-dynamic"):
        out = run_cli(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", trace)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
        for name in wanted:
            assert f"\n{name} " in "\n" + out.stdout


def test_spec_matches_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {n: c.why for n, c in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench.PER_LAYER)


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    out = run_cli(tmp_path, "--workload", "orbit-oracle", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert "{" not in out.stdout
