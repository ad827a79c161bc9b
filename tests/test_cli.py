"""End-to-end tests of the lcsplit command-line interface."""

import contextlib
import io
import json
import os
import pathlib
import random
import re
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_connected_graph
from oracles import classify_bipartite_member
from lcsplit import cli, counting, families, graphs, orbit, qasst, qasst_ops
from lcsplit.errors import BudgetExceededError
from lcsplit.graphs import SimpleGraph, from_json_dict


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestGen:
    def test_graph_json(self, capsys):
        code, out = run(capsys, "gen", "complete_bipartite", "--params", "2,2")
        assert code == 0
        g = from_json_dict(json.loads(out))
        assert g == SimpleGraph(4, [(1, 3), (1, 4), (2, 3), (2, 4)])

    def test_dot_format(self, capsys):
        code, out = run(capsys, "gen", "cycle", "--params", "4", "--format", "dot")
        assert code == 0
        assert out.startswith("graph") and "1 -- 2" in out

    def test_deterministic_bytes(self, capsys):
        _, out1 = run(capsys, "gen", "clique_star", "--params", "2,2,2", "--center", "1")
        _, out2 = run(capsys, "gen", "clique_star", "--params", "2,2,2", "--center", "1")
        assert out1 == out2

    def test_bad_params_is_usage_error(self, capsys):
        code, _ = run(capsys, "gen", "cycle", "--params", "x")
        assert code == cli.EXIT_USAGE

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["frobnicate"])
        assert info.value.code == 2

    def test_every_family_matches_its_constructor(self, capsys):
        cases = [
            (["complete", "--params", "5"], families.complete_graph(5)),
            (["star", "--params", "4"], families.star_graph(4)),
            (["path", "--params", "6"], families.path_graph(6)),
            (["cycle", "--params", "7"], families.cycle_graph(7)),
            (["complete_bipartite", "--params", "2,3"], families.complete_bipartite_graph(2, 3)),
            (["complete_multipartite", "--params", "2,3,1"], families.complete_multipartite_graph([2, 3, 1])),
            (["clique_star", "--params", "2,3,2", "--center", "2"], families.clique_star_graph([2, 3, 2], 2)),
            (["repeater", "--params", "4"], families.repeater_graph(4)),
            (["multi_leaf_repeater", "--params", "3,2,2"], families.multi_leaf_repeater_graph([3, 2, 2])),
        ]
        assert [argv[0] for argv, _ in cases] == list(families.FAMILY_TAGS)
        for argv, g in cases:
            code, out = run(capsys, "gen", *argv)
            assert (code, out) == (0, json.dumps(graphs.to_json_dict(g), indent=2, sort_keys=True) + "\n")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["complete", "--params", "3,3"], "expected 1 parameter(s), got 2"),
            (["star", "--params", ""], "expected 1 parameter(s), got 0"),
            (["path", "--params", "1,2"], "expected 1 parameter(s), got 2"),
            (["cycle", "--params", "3,4,5"], "expected 1 parameter(s), got 3"),
            (["complete_bipartite", "--params", "3"], "expected 2 parameter(s), got 1"),
            (["repeater", "--params", "3,3"], "expected 1 parameter(s), got 2"),
            (["clique_star", "--params", "2,2,2"], "clique_star requires a center index r"),
            # Both caps are checked ahead of the parameter count.
            (["path", "--params", "100001,1"], "graphs are limited to 100000 vertices"),
            (["complete", "--params", "2000,1"], "generated graphs are limited to 1000000 edges"),
        ],
    )
    def test_refusal_messages(self, capsys, argv, message):
        code = cli.main(["gen"] + argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (cli.EXIT_USAGE, "", f"lcsplit: {message}\n")


class TestPipelines:
    def graph_file(self, tmp_path, capsys, *gen_args):
        path = tmp_path / ("-".join(gen_args[1:2]) + ".json")
        code = cli.main(list(gen_args) + ["--output", str(path)])
        assert code == 0
        capsys.readouterr()
        return str(path)

    def test_decompose_reconstruct_round_trip(self, tmp_path, capsys):
        src = self.graph_file(tmp_path, capsys, "gen", "cycle", "--params", "5")
        qpath = tmp_path / "q.json"
        assert cli.main(["decompose", "--input", src, "--output", str(qpath)]) == 0
        data = json.loads(qpath.read_text())
        assert len(data["quotients"]) == 1  # C5 is prime
        code, out = run(capsys, "reconstruct", "--input", str(qpath))
        assert code == 0
        assert json.loads(out) == json.loads(open(src).read())

    def test_lc_sequence(self, tmp_path, capsys):
        src = self.graph_file(tmp_path, capsys, "gen", "path", "--params", "3")
        code, out = run(capsys, "lc", "--input", src, "--sequence", "2,2")
        assert code == 0
        assert json.loads(out) == json.loads(open(src).read())

    def test_orbit_size_and_budget(self, tmp_path, capsys):
        src = self.graph_file(tmp_path, capsys, "gen", "complete_bipartite", "--params", "2,2")
        code, out = run(capsys, "orbit", "size", "--input", src)
        assert code == 0 and out.strip() == "11"
        code, _ = run(capsys, "orbit", "size", "--input", src, "--limit", "3")
        assert code == cli.EXIT_BUDGET

    def test_orbit_transform(self, tmp_path, capsys):
        src = self.graph_file(tmp_path, capsys, "gen", "complete", "--params", "4")
        dst = self.graph_file(tmp_path, capsys, "gen", "star", "--params", "3")
        code, out = run(capsys, "orbit", "transform", "--input", src, "--to", dst)
        assert code == 0
        assert json.loads(out)["sequence"]

    def test_qasst_lc(self, tmp_path, capsys):
        src = self.graph_file(tmp_path, capsys, "gen", "path", "--params", "4")
        qpath = tmp_path / "q.json"
        assert cli.main(["decompose", "--input", src, "--output", str(qpath)]) == 0
        capsys.readouterr()
        code, out = run(capsys, "qasst", "lc", "--vertex", "2", "--input", str(qpath))
        assert code == 0
        assert "quotients" in json.loads(out)

    def test_qasst_absent_vertex_is_usage_error(self, tmp_path, capsys):
        src = self.graph_file(tmp_path, capsys, "gen", "path", "--params", "4")
        qpath = tmp_path / "q.json"
        assert cli.main(["decompose", "--input", src, "--output", str(qpath)]) == 0
        capsys.readouterr()
        for argv in (["lc", "--vertex", "9"], ["extend", "--kind", "pendant", "--anchor", "9"]):
            assert cli.main(["qasst", *argv, "--input", str(qpath)]) == cli.EXIT_USAGE
            assert capsys.readouterr().err == "lcsplit: vertex 9 is not a leaf-node of any quotient\n"

    def test_qasst_induce_empty_keep_is_usage_error(self, tmp_path, capsys):
        src = self.graph_file(tmp_path, capsys, "gen", "path", "--params", "4")
        qpath = tmp_path / "q.json"
        assert cli.main(["decompose", "--input", src, "--output", str(qpath)]) == 0
        capsys.readouterr()
        code = cli.main(["qasst", "induce", "--keep", "", "--input", str(qpath)])
        assert code == cli.EXIT_USAGE
        assert capsys.readouterr().err.startswith("lcsplit: ")

    def test_count_phi_on_long_path(self, tmp_path, capsys):
        # A tree of 1098 quotients: no recursion-depth failure.
        src = self.graph_file(tmp_path, capsys, "gen", "path", "--params", "1100")
        code, out = run(capsys, "count", "phi", "--input", src)
        assert code == 0
        a = {4: 11, 5: 30}  # phi(P_n), then a(n) = 2a(n-1) + 2a(n-2)
        for n in range(6, 1101):
            a[n] = 2 * a[n - 1] + 2 * a[n - 2]
        assert int(out) == a[1100]


class TestCounts:
    def test_count_orbit(self, capsys):
        code, out = run(capsys, "count", "orbit", "--family", "bipartite", "--params", "2,2")
        assert (code, out.strip()) == (0, "11")
        code, out = run(capsys, "count", "orbit", "--family", "clique_star", "--params", "2,2,2")
        assert (code, out.strip()) == (0, "41")

    def test_count_path_cycle(self, capsys):
        code, out = run(capsys, "count", "path", "--n", "5")
        assert (code, out.strip()) == (0, "120")
        code, out = run(capsys, "count", "cycle", "--n", "5")
        assert (code, out.strip()) == (0, "132")

    @pytest.mark.parametrize("family, make", [("kpartite", families.complete_multipartite_graph),
                                              ("clique_star", lambda blocks: families.clique_star_graph(blocks, 1))])
    @pytest.mark.parametrize("params", ["2,2,2", "3,3,3"])
    def test_count_iso_classes_equals_the_bfs(self, capsys, family, make, params):
        blocks = [int(x) for x in params.split(",")]
        classes = orbit.orbit_iso_classes(orbit.enumerate_orbit(make(blocks)))
        assert run(capsys, "count", "iso-classes", "--family", family, "--params", params) == (0, f"{len(classes)}\n")
        assert len(classes) == 5

    @pytest.mark.parametrize("params, message", [
        ("2,3,4", "count iso-classes needs equal blocks"),  # the BFS finds 16 classes
        ("2,2,3", "count iso-classes needs equal blocks"),  # and 10 here
        ("1,1,1", "need k >= 3 blocks with all n_i >= 2"),
        ("0,-5,7", "need k >= 3 blocks with all n_i >= 2"),
        ("2,2", "need k >= 3 blocks with all n_i >= 2"),
    ])
    @pytest.mark.parametrize("family", ["kpartite", "clique_star"])
    def test_count_iso_classes_refuses_blocks_its_formula_does_not_cover(self, capsys, family, params, message):
        code = cli.main(["count", "iso-classes", "--family", family, "--params", params])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (cli.EXIT_USAGE, "", f"lcsplit: {message}\n")

    def test_counts_past_the_int_str_digit_limit(self, capsys):
        # About 4366 digits, past str()'s default limit of 4300.  The expected
        # values come from powers of 1 + sqrt(3) in Z[sqrt(3)], not from the
        # recurrence the library runs.
        def power(m):  # (1 + sqrt 3)^m as (a, b) = a + b sqrt 3
            a, b, x, y = 1, 0, 1, 1
            while m:
                if m & 1:
                    a, b = a * x + 3 * b * y, a * y + b * x
                x, y = x * x + 3 * y * y, 2 * x * y
                m >>= 1
            return a, b

        def cycle(n):
            return 2 * power(n)[0] - 4 * (2 ** (n - 1) + (-1) ** n) // 3

        assert (power(6)[1], cycle(5)) == (120, 132)  # n = 5, as in test_count_path_cycle
        for what, want in (("path", power(10001)[1]), ("cycle", cycle(10000))):
            code, out = run(capsys, "count", what, "--n", "10000")
            assert code == 0 and len(out.strip()) > 4300
            assert _from_decimal(out.strip()) == want

    @pytest.mark.parametrize("what", ["path", "cycle"])
    def test_count_past_the_cap_exits_two(self, capsys, what):
        from lcsplit import counting

        code = cli.main(["count", what, "--n", str(counting.MAX_COUNT_N + 1)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_USAGE, "")
        assert captured.err == f"lcsplit: {what} count limited to n <= {counting.MAX_COUNT_N}, got {counting.MAX_COUNT_N + 1}\n"

    def test_decimal_writer_matches_str(self):
        rng = random.Random(5)
        values = [0, 1, 2**2000, 2**2001, 10**602, 10**3000 + 7, 10**3900 - 1]
        values += [rng.getrandbits(rng.randint(1, 12900)) for _ in range(300)]
        for x in values:
            assert cli._decimal(x) == str(x)

    def test_decimal_writer_matches_the_divmod_splitter(self):
        def by_divmod(x):  # the quadratic writer the subquadratic one replaced
            if x.bit_length() <= 2000:
                return str(x)
            k = x.bit_length() * 3 // 20
            high, low = divmod(x, 10**k)
            return by_divmod(high) + by_divmod(low).zfill(k)

        rng = random.Random(17)
        values = [rng.randrange(10 ** (d - 1), 10**d) for d in (5000, 5001, 12345, 33333, 50000)]
        for k in (603, 604, 5000, 50000):
            values += [10**k - 1, 10**k]
        values += [2**k for k in (2000, 2001, 16610, 166096)]
        for x in values:
            assert cli._decimal(x) == by_divmod(x)

    def test_big_class_multiplicities_are_printed_exactly(self, capsys):
        block = "7" * 2000
        params = ",".join([block] * 5)
        code, out = run(capsys, "count", "orbit", "--family", "kpartite", "--params", params)
        assert code == 0 and len(out.strip()) > 8000
        code, table = run(capsys, "sym", "enumerate", "--family", "kpartite", "--params", params)
        assert code == 0
        assert table.splitlines()[-1] == f"total: {out.strip()}"

    def test_json_integer_past_the_digit_limit_is_usage_error(self, capsys):
        params = ",".join(["9" * 4300] * 4)
        code = cli.main(["rep", "min-edge", "--family", "kpartite", "--params", params])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_USAGE, "")
        assert captured.err == "lcsplit: an integer in the output is too long to write as JSON\n"
        code, out = run(capsys, "rep", "min-edge", "--family", "kpartite", "--params", params, "--format", "table")
        assert code == 0 and "value" in out

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_tree_leaf_past_the_digit_limit_is_usage_error(self, tmp_path, capsys, fmt):
        # The largest leaf the JSON parser reads, plus one, is one digit too long to print.
        big = "9" * 4300
        path = tmp_path / "q.json"
        path.write_text(f'{{"quotients": [{{"leaf_nodes": [1, {big}], "split_nodes": [], "edges": [[1, {big}]]}}],'
                        ' "tree_edges": []}')
        code = cli.main(["qasst", "extend", "--kind", "pendant", "--anchor", "1", "--format", fmt, "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_USAGE, "")
        assert captured.err == f"lcsplit: an integer in the output is too long to write as {fmt.upper()}\n"

    def test_sym_enumerate_over_the_cap_is_usage_error(self, capsys):
        code = cli.main(["sym", "enumerate", "--family", "clique_star", "--params", ",".join(["2"] * 17)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_USAGE, "")
        assert captured.err.startswith("lcsplit: symmetry classes are limited to 1000000")

    def test_rep_table(self, capsys):
        code, out = run(
            capsys, "rep", "min-edge", "--family", "kpartite", "--params", "2,2,2",
            "--format", "table",
        )
        assert code == 0
        assert "value" in out and "6" in out

    def test_sym_transform(self, capsys):
        code, out = run(
            capsys, "sym", "transform", "--family", "kpartite", "--params", "2,2,2,2",
            "--case", "3", "--j", "1", "--I", "2",
        )
        assert code == 0
        assert json.loads(out)["sequence"] == [1, 3]


def _from_decimal(text):
    """The int a digit string spells, read 500 digits at a time (no int <-> str limit applies)."""
    assert text.isdigit() and text[0] != "0"
    value = 0
    for i in range(0, len(text), 500):
        value = value * 10 ** len(text[i:i + 500]) + int(text[i:i + 500])
    return value


class TestVerify:
    def test_desk_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "desk")
        assert code == 0
        assert "10/10 checks passed" in out
        assert "FAIL" not in out

    def test_extended_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "extended")
        assert code == 0
        assert "15/15 checks passed" in out
        assert "FAIL" not in out
        assert all(f"E0{i}" in out for i in range(1, 6))

    def test_output_is_deterministic(self, capsys):
        _, out1 = run(capsys, "verify", "--suite", "desk", "--seed", "7")
        _, out2 = run(capsys, "verify", "--suite", "desk", "--seed", "7")
        assert out1 == out2


class TestBudgetEnv:
    def test_env_budget(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "g.json"
        cli.main(["gen", "complete_bipartite", "--params", "2,2", "--output", str(path)])
        capsys.readouterr()
        monkeypatch.setenv("LCSPLIT_BUDGET", "3")
        code, _ = run(capsys, "orbit", "size", "--input", str(path))
        assert code == cli.EXIT_BUDGET

    def test_invalid_env_budget(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "g.json"
        cli.main(["gen", "path", "--params", "3", "--output", str(path)])
        capsys.readouterr()
        monkeypatch.setenv("LCSPLIT_BUDGET", "zero")
        code, _ = run(capsys, "orbit", "size", "--input", str(path))
        assert code == cli.EXIT_USAGE


class TestParserReuse:
    """The parser is built once per process; each call still parses afresh."""

    def test_parser_built_once(self, capsys, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, "gen", "path", "--params", "3")[0] == cli.EXIT_OK
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_calls_share_no_parsed_state(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "g.json"
        cli.main(["gen", "complete_bipartite", "--params", "2,2", "--output", str(path)])
        capsys.readouterr()
        monkeypatch.delenv("LCSPLIT_BUDGET", raising=False)
        size = ["orbit", "size", "--input", str(path)]
        assert run(capsys, *size, "--limit", "3")[0] == cli.EXIT_BUDGET
        code, out = run(capsys, *size)
        assert code == cli.EXIT_OK and out
        # LCSPLIT_BUDGET is read again on every call.
        monkeypatch.setenv("LCSPLIT_BUDGET", "3")
        assert run(capsys, *size)[0] == cli.EXIT_BUDGET
        monkeypatch.setenv("LCSPLIT_BUDGET", "zero")
        assert run(capsys, *size)[0] == cli.EXIT_USAGE
        monkeypatch.delenv("LCSPLIT_BUDGET")
        assert run(capsys, *size) == (code, out)


_BAD_GRAPHS = ['{}', '{"n": 3}', '[1, 2]', '{"n": "x", "edges": []}', '{"n": 3, "edges": [[1]]}',
               # Non-integer numbers are refused, not truncated.
               '{"n": 3.7, "edges": [[1, 2], [2, 3]]}', '{"n": true, "edges": []}',
               '{"n": 3, "edges": [[1.9, 2], [2, 3]]}', '{"n": 2, "edges": [["1", 2]]}',
               # Every edge's types are checked before any edge's range.
               '{"n": 3, "edges": [[1, 4], [2, 1.5]]}', '{"n": 3, "edges": [[true, 2]]}']
# What decompose says to each of _BAD_GRAPHS, in order, after "lcsplit: malformed graph JSON: ".
_BAD_GRAPH_MESSAGES = [
    "KeyError: 'n'", "KeyError: 'edges'", "TypeError: list indices must be integers or slices, not str",
    "ValueError: could not convert string to float: 'x'", "ValueError: not enough values to unpack (expected 2, got 1)",
    "TypeError: expected an integer, got 3.7", "TypeError: expected an integer, got True",
    "TypeError: expected an integer, got 1.9", "TypeError: expected an integer, got '1'",
    "TypeError: expected an integer, got 1.5", "TypeError: expected an integer, got True",
]
_P4_TREE = (
    '{"quotients": [{"leaf_nodes": [1, 2], "split_nodes": [{"i": 0, "j": 1}],'
    ' "edges": [[1, 2], [2, {"i": 0, "j": 1}]]}, {"leaf_nodes": [3, 4], "split_nodes": [{"i": 1, "j": 0}],'
    ' "edges": [[3, 4], [3, {"i": 1, "j": 0}]]}], "tree_edges": [[{"i": 0, "j": 1}, {"i": 1, "j": 0}]]}'
)
_BAD_TREES = [
    '{}',
    '{"quotients": [{"leaf_nodes": [1], "edges": []}], "tree_edges": []}',
    '{"quotients": [{"leaf_nodes": [1], "split_nodes": [{"i": 0}], "edges": []}]}',
    '{"quotients": [{"leaf_nodes": ["a"], "split_nodes": [], "edges": []}]}',
    '{"quotients": [{"leaf_nodes": [1.5, 2], "split_nodes": [], "edges": [[1, 2]]}]}',
    '{"quotients": [{"leaf_nodes": [1, 2], "split_nodes": [], "edges": [[true, 2]]}]}',
    '{"quotients": [{"leaf_nodes": [1, 2], "split_nodes": [{"i": 0.0, "j": 1}], "edges": [[1, 2]]},'
    ' {"leaf_nodes": [3, 4], "split_nodes": [{"i": 1, "j": 0}], "edges": [[3, 4]]}]}',
    # Leaf-nodes are distinct positive integers, at least one.
    '{"quotients": [{"leaf_nodes": [0, 1], "split_nodes": [], "edges": [[0, 1]]}], "tree_edges": []}',
    '{"quotients": [{"leaf_nodes": [-3, 1], "split_nodes": [], "edges": [[-3, 1]]}], "tree_edges": []}',
    '{"quotients": [{"leaf_nodes": [], "split_nodes": [], "edges": []}], "tree_edges": []}',
] + [
    # P4's tree as ``decompose`` writes it, edited into payloads it cannot write.
    _P4_TREE.replace(', "tree_edges": [[{"i": 0, "j": 1}, {"i": 1, "j": 0}]]', ""),
    _P4_TREE.replace('"tree_edges": [[{"i": 0, "j": 1}, {"i": 1, "j": 0}]]', '"tree_edges": []'),
    _P4_TREE.replace('"tree_edges": [[{"i": 0, "j": 1}, {"i": 1, "j": 0}]]', '"tree_edges": [[1, 3]]'),
    _P4_TREE[:-2] + ', [{"i": 1, "j": 0}, {"i": 0, "j": 1}]]}',  # one pair listed twice
    _P4_TREE.replace('"leaf_nodes": [1, 2]', '"leaf_nodes": [1, 2, 2]'),
    _P4_TREE.replace('"split_nodes": [{"i": 0, "j": 1}]', '"split_nodes": [{"i": 0, "j": 1}, {"i": 0, "j": 1}]'),
    _P4_TREE.replace('"edges": [[1, 2], ', '"edges": [[1, 2], [2, 1], '),  # an edge listed twice
    _P4_TREE.replace('"edges": [[3, 4], ', '"edges": [[3, 4], [3, 4], '),
]


class TestMalformedInput:
    @pytest.mark.parametrize(
        "command, text",
        [("decompose", t) for t in _BAD_GRAPHS] + [("reconstruct", t) for t in _BAD_TREES],
    )
    def test_usage_error_not_traceback(self, tmp_path, capsys, command, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        code = cli.main([command, "--input", str(path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert err.startswith("lcsplit: ")

    @pytest.mark.parametrize(
        "data, input_name, output_name",
        [
            (None, "missing.json", None),
            (None, ".", None),
            (b"\xff\xfe{}", "in.json", None),
            (b"[" * 200_000 + b"]" * 200_000, "in.json", None),
            (b'{"n": 1' + b"0" * 5000 + b', "edges": []}', "in.json", None),
            (b'{"n": 2, "edges": [[1, 2]]}', "in.json", "no-such-dir/out.json"),
        ],
        ids=["missing", "directory", "not-utf8", "nested", "long-integer", "no-output-dir"],
    )
    def test_io_fault_is_usage_error(self, tmp_path, capsys, data, input_name, output_name):
        if data is not None:
            (tmp_path / input_name).write_bytes(data)
        output = "-" if output_name is None else str(tmp_path / output_name)
        code = cli.main(["decompose", "--input", str(tmp_path / input_name), "--output", output])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_USAGE, "")
        assert captured.err.startswith("lcsplit: ") and captured.err.count("\n") == 1


class TestGraphReaderRefusals:
    """The graph reader words each refusal as the checked reference path does: n's size, n's type, every edge's types, then each edge's range."""

    @pytest.mark.parametrize("text, message", list(zip(_BAD_GRAPHS, _BAD_GRAPH_MESSAGES, strict=True)))
    def test_message_is_the_checked_paths(self, tmp_path, capsys, text, message):
        path = tmp_path / "in.json"
        path.write_text(text)
        assert cli.main(["decompose", "--input", str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"lcsplit: malformed graph JSON: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ('{"n": 3, "edges": [[1, 2], [0, 3]]}', "edge (0,3) out of range 1..3"),
        ('{"n": 3, "edges": [[1, 2], [3, 3]]}', "self-loop at vertex 3"),
        ('{"n": 100001, "edges": []}', "graphs are limited to 100000 vertices"),
        ('{"n": -1, "edges": []}', "malformed graph JSON: ValueError: vertex count must be non-negative, got -1"),
    ])
    def test_range_and_size_refusals(self, tmp_path, capsys, text, message):
        path = tmp_path / "in.json"
        path.write_text(text)
        assert cli.main(["decompose", "--input", str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"lcsplit: {message}\n"

    def test_repeated_and_reversed_edges_are_accepted(self, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text('{"n": 3, "edges": [[1, 2], [2, 1], [2, 3], [1, 2], [3, 2]]}')
        assert from_json_dict(json.loads(path.read_text())) == families.path_graph(3)
        code, out = run(capsys, "decompose", "--input", str(path))
        assert (code, out) == (cli.EXIT_OK, qasst.to_json_text(qasst.compute_qasst(families.path_graph(3))) + "\n")


class TestRepeatedQuotientEdge:
    @pytest.mark.parametrize("text, i", [(_BAD_TREES[-2], 0), (_BAD_TREES[-1], 1)])
    def test_refused_in_either_orientation(self, tmp_path, capsys, text, i):
        path = tmp_path / "in.json"
        path.write_text(text)
        assert cli.main(["reconstruct", "--input", str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"lcsplit: quotient {i} lists an edge twice\n"


class TestQuotientRefusalMessages:
    """Each fault in a quotient's node or edge list is refused with its own message; the first edge at fault decides."""

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ('"edges": [[1, 2], ', '"edges": [[1, 9], ', "bad quotient edge {1, 9}"),
            ('"edges": [[1, 2], ', '"edges": [[2, 2], ', "bad quotient edge {2}"),
            ('"edges": [[1, 2], ', '"edges": [[1, {"i": 0, "j": 5}], ', "bad quotient edge {1, SplitNode(i=0, j=5)}"),
            ('"edges": [[1, 2], ', '"edges": [[1, 9], [1, "x"], ',
             "malformed QASST JSON: TypeError: expected an integer, got 'x'"),
            ('"edges": [[1, 2], ', '"edges": [[1, 2, 3], ',
             "malformed QASST JSON: ValueError: too many values to unpack (expected 2)"),
            ('"edges": [[1, 2], ', '"edges": [[1, {"i": 0}], ', "malformed QASST JSON: KeyError: 'j'"),
            ('"leaf_nodes": [1, 2]', '"leaf_nodes": [1, 2, 2]', "quotient 0 lists a node twice"),
        ],
        ids=["unknown-endpoint", "self-loop", "unknown-split-node", "malformed-after-bad", "triple", "half-split-node",
             "node-twice"],
    )
    def test_message(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "in.json"
        path.write_text(_P4_TREE.replace(old, new, 1))
        assert cli.main(["reconstruct", "--input", str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == f"lcsplit: {message}\n"


class TestSplitNodeLocationNames:
    # P4's tree with the two split-node names swapped: a well-formed tree of
    # labels, but JSON names each split-node by the quotient that lists it.
    _SWAPPED = (
        _P4_TREE.replace('{"i": 0, "j": 1}', "A").replace('{"i": 1, "j": 0}', '{"i": 0, "j": 1}')
        .replace("A", '{"i": 1, "j": 0}')
    )

    def test_from_json_dict_refuses_a_name_listed_elsewhere(self):
        from lcsplit.errors import MalformedQasstError
        from lcsplit.qasst import from_json_dict as tree_from_json

        assert self._SWAPPED != _P4_TREE
        with pytest.raises(MalformedQasstError, match=r"split-node SplitNode\(i=1, j=0\) stored in quotient 0"):
            tree_from_json(json.loads(self._SWAPPED))

    @pytest.mark.parametrize("command", [["reconstruct"], ["qasst", "lc", "--vertex", "1"]])
    def test_cli_exits_two(self, tmp_path, capsys, command):
        path = tmp_path / "in.json"
        path.write_text(self._SWAPPED)
        assert cli.main(command + ["--input", str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "lcsplit: split-node SplitNode(i=1, j=0) stored in quotient 0\n"


class TestTreeEdgesInAnyOrder:
    def test_partner_pair_reversed_is_accepted(self, tmp_path, capsys):
        pair = '[[{"i": 0, "j": 1}, {"i": 1, "j": 0}]]}'
        reversed_pair = _P4_TREE.replace(pair, '[[{"i": 1, "j": 0}, {"i": 0, "j": 1}]]}')
        assert _P4_TREE.endswith(pair)
        path = tmp_path / "in.json"
        for text in (_P4_TREE, reversed_pair):
            path.write_text(text)
            assert cli.main(["reconstruct", "--input", str(path)]) == cli.EXIT_OK
            assert from_json_dict(json.loads(capsys.readouterr().out)) == SimpleGraph(4, [(1, 2), (2, 3), (3, 4)])


class TestSizeCap:
    def test_over_limit_graph_exits_two_before_allocation(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("SimpleGraph built for an over-limit n")

        monkeypatch.setattr(graphs, "SimpleGraph", refuse)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"n": 10**15, "edges": [[1, 2]]}))
        for command in (["decompose"], ["orbit", "size"]):
            assert cli.main(command + ["--input", str(path)]) == cli.EXIT_USAGE
            assert f"limited to {graphs.MAX_VERTICES} vertices" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, params, n",
        [("path", "11", 11), ("star", "10", 11), ("repeater", "6", 12), ("complete_multipartite", "4,4,3", 11)],
    )
    def test_gen_over_limit_exits_two(self, capsys, monkeypatch, family, params, n):
        monkeypatch.setattr(graphs, "MAX_VERTICES", 10)
        assert cli.main(["gen", family, "--params", params]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "lcsplit: graphs are limited to 10 vertices\n"
        monkeypatch.setattr(graphs, "MAX_VERTICES", n)
        assert cli.main(["gen", family, "--params", params]) == cli.EXIT_OK
        assert from_json_dict(json.loads(capsys.readouterr().out)).n == n


    @pytest.mark.parametrize(
        "argv, edges",
        [
            (["complete", "--params", "5"], 10),
            (["star", "--params", "10"], 10),
            (["path", "--params", "11"], 10),
            (["cycle", "--params", "7"], 7),
            (["complete_bipartite", "--params", "3,4"], 12),
            (["complete_multipartite", "--params", "2,2,3"], 16),
            (["clique_star", "--params", "2,2,3", "--center", "3"], 17),
            (["repeater", "--params", "4"], 10),
            (["multi_leaf_repeater", "--params", "3,2,2"], 7),
        ],
    )
    def test_gen_over_edge_cap_exits_two_before_building(self, capsys, monkeypatch, argv, edges):
        def refuse(*args, **kwargs):
            raise AssertionError("SimpleGraph built past the edge cap")

        with monkeypatch.context() as patch:
            patch.setattr(families, "MAX_EDGES", edges - 1)
            patch.setattr(families, "SimpleGraph", refuse)
            assert cli.main(["gen"] + argv) == cli.EXIT_USAGE
            assert capsys.readouterr().err == f"lcsplit: generated graphs are limited to {edges - 1} edges\n"
        monkeypatch.setattr(families, "MAX_EDGES", edges)
        assert cli.main(["gen"] + argv) == cli.EXIT_OK
        assert len(from_json_dict(json.loads(capsys.readouterr().out)).edges()) == edges

    def test_gen_complete_at_the_vertex_cap_is_refused_by_edges(self, capsys):
        assert cli.main(["gen", "complete", "--params", str(graphs.MAX_VERTICES)]) == cli.EXIT_USAGE
        cap = families.MAX_EDGES
        assert capsys.readouterr().err == f"lcsplit: generated graphs are limited to {cap} edges\n"

    @staticmethod
    def _triangle_chain(n: int) -> dict:
        """Tree JSON of K_n as a chain of n - 2 complete triangle quotients, one leaf each but at the ends."""
        def s(i, j):
            return {"i": i, "j": j}

        k = n - 2
        quotients = []
        for i in range(k):
            nodes = [s(i, j) for j in (i - 1, i + 1) if 0 <= j < k]
            leaves = [1, 2] if i == 0 else [n - 1, n] if i == k - 1 else [i + 2]
            ends = leaves + nodes
            edges = [[a, b] for x, a in enumerate(ends) for b in ends[x + 1:]]
            quotients.append({"leaf_nodes": leaves, "split_nodes": nodes, "edges": edges})
        tree_edges = [[s(i, i + 1), s(i + 1, i)] for i in range(k - 1)]
        return {"quotients": quotients, "tree_edges": tree_edges}

    def test_reconstruct_at_the_edge_cap(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(self._triangle_chain(12)))
        monkeypatch.setattr(families, "MAX_EDGES", 66)
        assert cli.main(["reconstruct", "--input", str(path)]) == cli.EXIT_OK
        g = from_json_dict(json.loads(capsys.readouterr().out))
        assert g == families.complete_graph(12) and len(g.edges()) == 66

    def test_reconstruct_over_the_edge_cap_exits_two_before_any_mask(self, tmp_path, capsys, monkeypatch):
        reach, folds = qasst._reach, []

        def count_only(q, order, up, leaf):
            folds.append(leaf(2))
            if leaf(2) != 1:
                raise AssertionError("a leaf mask was built before the edge cap was checked")
            return reach(q, order, up, leaf)

        path = tmp_path / "chain.json"
        path.write_text(json.dumps(self._triangle_chain(12)))
        monkeypatch.setattr(families, "MAX_EDGES", 65)
        monkeypatch.setattr(qasst, "_reach", count_only)
        assert cli.main(["reconstruct", "--input", str(path)]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == "lcsplit: reconstructed graphs are limited to 65 edges\n"
        assert folds == [1]  # the count ran, and no fold of masks

    def test_edge_count_matches_reconstruction(self):
        rng = random.Random(2020)
        for trial in range(120):
            n = rng.randint(2, 24)
            if trial % 2:
                g, _ = qasst_ops.random_dh(n, rng.random())
            else:
                g = random_connected_graph(n, rng, rng.uniform(0.1, 0.6))
            q = qasst.compute_qasst(g)
            for _ in range(rng.randint(0, 4)):
                q = qasst_ops.lc_propagate(q, rng.randint(1, n))
            assert qasst._edge_count(q, *q.validate()) == len(qasst.reconstruct(q).edges())


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=9)
    | st.sampled_from([10**15, -(10**15), 2**64])
    | st.floats(min_value=-20, max_value=20)
    | st.sampled_from([float("inf"), float("-inf"), float("nan"), 1e300])
    | st.text(max_size=3)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "edges", "x"]), inner, max_size=3),
    max_leaves=12,
)
_PAIRS = st.lists(st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=2), max_size=12)
_GRAPHISH = st.fixed_dictionaries(
    {"n": st.integers(min_value=-1, max_value=6) | _JSON,
     "edges": _PAIRS | st.lists(st.lists(_SCALARS, max_size=3), max_size=6) | _JSON}
)
_WELL_FORMED = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.fixed_dictionaries(
        {"n": st.just(n),
         "edges": st.lists(st.lists(st.integers(1, n), min_size=2, max_size=2), max_size=12)}
    )
)
_GARBAGE = st.one_of(
    _WELL_FORMED.map(json.dumps),
    _GRAPHISH.map(json.dumps),
    _JSON.map(json.dumps),
    st.text(max_size=30),
)


class TestGarbageGraphFuzz:
    """decompose / orbit size on garbage graph JSON exit 0, 2 or 3, never a traceback."""

    @settings(max_examples=300, deadline=None)
    @given(_GARBAGE, st.sampled_from([["decompose"], ["orbit", "size", "--limit", "10"]]))
    def test_exit_code_is_in_contract(self, text, command):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            stdin, sys.stdin = sys.stdin, io.StringIO(text)
            try:
                code = cli.main(command + ["--input", "-"])
            finally:
                sys.stdin = stdin
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_BUDGET)
        if code != cli.EXIT_OK:
            assert err.getvalue().startswith("lcsplit: ")


DESK_STDOUT = "\n".join([
    "id   status  check                                            detail",
    "---  ------  " + "-" * 47 + "  " + "-" * 125,
    "D01  pass    bipartite orbit sizes match nm+n+m+3             "
    "K2,2:11 K2,3:14 K3,3:18",
    "D02  pass    bipartite minimal representatives (binary star)  "
    "K2,2:3e/2d K2,3:4e/3d K3,3:5e/3d",
    "D03  pass    k=3 orbit sizes, phi sum, disjointness           "
    "40 + 41 = 81, disjoint",
    "D04  pass    isomorphism-class counts                         "
    "K2,2:4 K2,3:6 K2,2,2:5 CS2,2,2:5",
    "D05  pass    repeater R3 orbit membership                     "
    "R3 in O(CS1_2,2,2)",
    "D06  pass    k=3 optimal representatives vs oracle            "
    "KPartite:6e/3d CliqueStar:6e/3d",
    "D07  pass    closure tables over both k=3 orbits              "
    "486 vertex steps verified",
    "D08  pass    decompose/reconstruct round-trips                "
    "4 graphs",
    "D09  pass    path/cycle count evaluations                     "
    "paths [16, 44, 120], cycles [44, 132]; labeled oracle P3=4, C4=11 "
    "(formula counts a different equivalence, mismatch expected)",
    "D10  pass    symmetry-class totals equal orbit sizes          "
    "18 (tag, n_list) pairs",
    "10/10 checks passed",
]) + "\n"


class TestVerifyContract:
    """The verify output is pinned byte for byte, and each orbit is enumerated once per run."""

    def test_desk_stdout_is_pinned(self, capsys, monkeypatch):
        monkeypatch.delenv("LCSPLIT_BUDGET", raising=False)
        code = cli.main(["verify", "--suite", "desk"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert captured.out == DESK_STDOUT
        assert captured.err == ""

    def test_extended_over_budget_prints_only_the_budget_line(self, capsys, monkeypatch):
        monkeypatch.setenv("LCSPLIT_BUDGET", "100")
        code = cli.main(["verify", "--suite", "extended"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_BUDGET
        assert captured.out == ""
        assert captured.err == (
            "lcsplit: orbit budget exceeded: more than 100 members (found 100 before aborting)\n"
        )

    @pytest.mark.parametrize("suite, graphs_enumerated", [("desk", 7), ("extended", 12)])
    def test_each_orbit_enumerated_once(self, capsys, monkeypatch, suite, graphs_enumerated):
        from lcsplit import orbit

        seen = []
        enumerate_orbit = orbit.enumerate_orbit

        def counting(g, *args, **kwargs):
            seen.append(g)
            return enumerate_orbit(g, *args, **kwargs)

        monkeypatch.delenv("LCSPLIT_BUDGET", raising=False)
        monkeypatch.setattr(orbit, "enumerate_orbit", counting)
        assert cli.main(["verify", "--suite", suite]) == cli.EXIT_OK
        capsys.readouterr()
        assert len(seen) == len(set(seen)) == graphs_enumerated


class TestRefusalsPinned:
    """Refusals no other test reaches: each CLI one exits 2 with its message, each library one raises its type."""

    INPUTS = {"n0": '{"n": 0, "edges": []}', "p3": graphs.to_json_text(families.path_graph(3)),
              "p4": graphs.to_json_text(families.path_graph(4))}

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "complete", "--params", "0"], "complete graph needs n >= 1"),
            (["gen", "star", "--params", "0"], "star graph needs n >= 1 spokes"),
            (["gen", "path", "--params", "0"], "path graph needs n >= 1"),
            (["gen", "cycle", "--params", "2"], "cycle graph needs n >= 3"),
            (["gen", "complete_multipartite", "--params", "3"], "complete multipartite needs k >= 2 blocks of size >= 1"),
            (["gen", "repeater", "--params", "2"], "repeater needs n >= 3"),
            (["orbit", "size", "--input", "{n0}"], "orbit enumeration needs n >= 1"),
            (["orbit", "transform", "--input", "{p3}", "--to", "{p4}"], "graphs have different vertex counts"),
            (["count", "orbit", "--family", "bipartite", "--params", "1,3"], "bipartite orbit formula needs n, m >= 2"),
            (["count", "iso-classes", "--family", "bipartite", "--params", "2,1"], "need n, m >= 2"),
            (["sym", "transform", "--family", "clique_star", "--params", "2,2,2", "--case", "1", "--I", "1", "--r", "4"],
             "base center r must be in 1..3"),
        ],
    )
    def test_cli_exits_two(self, tmp_path, capsys, argv, message):
        for name, text in self.INPUTS.items():
            (tmp_path / f"{name}.json").write_text(text)
        code = cli.main([a.format(**{name: str(tmp_path / f"{name}.json") for name in self.INPUTS}) for a in argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (cli.EXIT_USAGE, "", f"lcsplit: {message}\n")

    def test_sym_transform_base_center_defaults_to_one(self, capsys):
        argv = ["sym", "transform", "--family", "clique_star", "--params", "2,2,2", "--case", "1", "--I", "1"]
        assert run(capsys, *argv) == run(capsys, *argv, "--r", "1")
        assert run(capsys, *argv)[0] == cli.EXIT_OK

    @staticmethod
    def _library_calls():
        from lcsplit import symmetry
        from lcsplit.errors import InvalidCaseError, InvalidSpecError, MalformedQasstError, NotConnectedError, SizeLimitError

        p3 = families.path_graph(3)
        spokes = (qasst.STAR_SPOKE,) * 3
        return [
            (lambda: orbit.enumerate_orbit(p3, limit=0), ValueError, "budget must be >= 1"),
            (lambda: qasst_ops.ExtensionKind("bogus", 1), ValueError, "unknown extension kind 'bogus'"),
            (lambda: qasst_ops.extend_graph(p3, "bogus", 1), ValueError, "unknown extension kind 'bogus'"),
            (lambda: qasst_ops.random_dh(0, 1), ValueError, "need n >= 1"),
            (lambda: qasst.is_distance_hereditary(SimpleGraph(4, [(1, 2), (3, 4)])), NotConnectedError,
             "distance-hereditary test requires a connected graph"),
            (lambda: qasst.compute_qasst_by_splits(families.cycle_graph(19)), SizeLimitError,
             "split enumeration limited to 18 vertices, got 19"),
            (lambda: symmetry.SymmetryCase(families.KPARTITE, 4, None, frozenset()), InvalidCaseError,
             "case id must be 1, 2 or 3, got 4"),
            (lambda: symmetry.build_star_qasst((2, 2, 2), qasst.COMPLETE, spokes, {1: 5}), InvalidCaseError,
             "center 5 not in block 1"),
            (lambda: symmetry.analyze_star_member(families.cycle_graph(6), (2, 2, 2)), MalformedQasstError,
             "graph does not have the star-shaped QASST"),
            (lambda: families.check_tag("bogus"), InvalidSpecError, "unknown orbit tag 'bogus'"),
            (lambda: families.mlr_orbit_home(2), InvalidSpecError, "multi-leaf repeater needs k >= 3"),
        ]

    def test_library_raises(self):
        for call, error, message in self._library_calls():
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error and str(info.value) == message


class TestSymTransformRange:
    """Every block index given to sym transform must lie in 1..k."""

    @pytest.mark.parametrize("extra, message", [
        (["--case", "1", "--I", "1,4"], "block index 4 out of 1..3"),
        (["--case", "2", "--j", "0"], "pointer index 0 out of 1..3"),
    ])
    def test_out_of_range_index_is_usage_error(self, capsys, extra, message):
        argv = ["sym", "transform", "--family", "kpartite", "--params", "2,2,2"] + extra
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE
        assert captured.out == ""
        assert captured.err == f"lcsplit: {message}\n"


def _graphs_written():
    """Graphs of every shape the CLI writes: n = 0, 1 and 2, P9, K30, C6's orbit members and a random graph."""
    from lcsplit import orbit

    out = [SimpleGraph(0), SimpleGraph(1), SimpleGraph(2), SimpleGraph(2, [(1, 2)])]
    out += [families.path_graph(9), families.complete_graph(30)]
    out += orbit.enumerate_orbit(families.cycle_graph(6)).sorted_members()
    out.append(random_connected_graph(12, random.Random(25), 0.3))
    return out


def _cli_payloads():
    """One of every kind of JSON payload the CLI writes that is neither a graph nor a tree, from the functions that build them."""
    from lcsplit import counting, families, orbit, symmetry

    g = families.build(families.FamilySpec("complete_bipartite", (2, 3), None))
    o = orbit.enumerate_orbit(g)
    best, edges = orbit.min_edge_member(o)
    low, delta = orbit.min_max_degree_member(o)
    case = symmetry.SymmetryCase(families.KPARTITE, 1, None, frozenset({1, 2}))
    return [
        {"sequence": orbit.transformation_between(g, best)},
        {"edge_count": edges, "graph": graphs.to_json_dict(best)},
        {"max_degree": delta, "graph": graphs.to_json_dict(low)},
        cli._rep_rows(counting.min_edge_rep(families.KPARTITE, [2, 2, 3])),
        {"sequence": symmetry.synthesize_transformation(case, [2, 2, 3])},
        {"sequence": []},
    ]


_ANY_JSON = st.recursive(
    _SCALARS | st.text(alphabet="ab[]{},:\"\\ é\n", max_size=5),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(alphabet="ab[]{},:\"\\ é", max_size=3) | st.sampled_from(["i", "j", "edges"]), inner, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    """The CLI writes ``json.dumps(data, indent=2, sort_keys=True)`` byte for byte."""

    def test_every_cli_payload(self):
        for g in _graphs_written():
            text = json.dumps(graphs.to_json_dict(g), indent=2, sort_keys=True)
            assert graphs.to_json_text(g) == text
            assert graphs.to_json_text(g, 1) == text.replace("\n", "\n  "), g  # one level down, as a list item
        for data in _cli_payloads():
            assert cli._dump_json(data) == json.dumps(data, indent=2, sort_keys=True)

    def test_graph_commands_print_json_dumps(self, tmp_path, capfdbinary):
        from lcsplit import orbit

        g = families.cycle_graph(6)
        src, tree = tmp_path / "g.json", tmp_path / "q.json"
        src.write_text(json.dumps(graphs.to_json_dict(g)))
        tree.write_text(json.dumps(qasst.to_json_dict(qasst.compute_qasst(g))))
        runs = [
            (["gen", "complete", "--params", "7"], graphs.to_json_dict(families.complete_graph(7))),
            (["gen", "path", "--params", "1"], graphs.to_json_dict(families.path_graph(1))),
            (["lc", "--vertex", "2", "--input", str(src)], graphs.to_json_dict(graphs.local_complement(g, 2))),
            (["reconstruct", "--input", str(tree)], graphs.to_json_dict(g)),
            (["orbit", "list", "--input", str(src)],
             [graphs.to_json_dict(m) for m in orbit.enumerate_orbit(g).sorted_members()]),
        ]
        for argv, data in runs:
            assert cli.main(argv) == cli.EXIT_OK
            assert capfdbinary.readouterr().out == (json.dumps(data, indent=2, sort_keys=True) + "\n").encode(), argv

    @settings(max_examples=200, deadline=None)
    @given(_ANY_JSON)
    def test_any_json_value(self, data):
        assert cli._dump_json(data) == json.dumps(data, indent=2, sort_keys=True)

    @pytest.mark.parametrize("family, params", [("path", "1"), ("path", "2"), ("star", "5"), ("cycle", "5"), ("repeater", "6")])
    def test_decompose_prints_the_direct_tree_text(self, tmp_path, capfdbinary, family, params):
        src = tmp_path / "g.json"
        assert cli.main(["gen", family, "--params", params, "--output", str(src)]) == cli.EXIT_OK
        assert cli.main(["decompose", "--input", str(src)]) == cli.EXIT_OK
        q = qasst.compute_qasst(from_json_dict(json.loads(src.read_text())))
        text = qasst.to_json_text(q)
        assert capfdbinary.readouterr().out == (text + "\n").encode()
        assert text == json.dumps(qasst.to_json_dict(q), indent=2, sort_keys=True)


class TestEmptyTree:
    """A tree with no quotients or no leaf-nodes stands for no graph: every command that reads a tree exits 2."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"quotients": [], "tree_edges": []}', "tree has no quotients"),
            ('{"quotients": [{"leaf_nodes": [], "split_nodes": [], "edges": []}], "tree_edges": []}',
             "tree has no leaf-nodes"),
        ],
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["reconstruct"],
            ["qasst", "lc", "--vertex", "1"],
            ["qasst", "induce", "--keep", "1"],
            ["qasst", "extend", "--kind", "pendant", "--anchor", "1"],
        ],
    )
    def test_refused(self, tmp_path, capsys, argv, text, message):
        path = tmp_path / "empty.json"
        path.write_text(text)
        code = cli.main(argv + ["--input", str(path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_USAGE and captured.out == ""
        assert captured.err == f"lcsplit: {message}\n"


class TestInducedTreeChain:
    """Every tree ``qasst`` writes is read back by ``qasst``; only ``reconstruct`` needs leaves 1..n."""

    def test_chain_matches_library(self, tmp_path, capsys):
        from lcsplit import qasst, qasst_ops

        g = families.path_graph(6)
        src = tmp_path / "g.json"
        src.write_text(json.dumps(graphs.to_json_dict(g)))
        steps = [
            (["decompose"], qasst.compute_qasst),
            (["qasst", "induce", "--keep", "2,3,4,5,6"], lambda q: qasst_ops.induced_qasst(q, [2, 3, 4, 5, 6])),
            (["qasst", "lc", "--vertex", "4"], lambda q: qasst_ops.lc_propagate(q, 4)),
            (["qasst", "induce", "--keep", "3,4,5,6"], lambda q: qasst_ops.induced_qasst(q, [3, 4, 5, 6])),
            # The tree holds 6 = n + 1 and no 1 or 2: extend adds the largest label + 1.
            (["qasst", "extend", "--kind", "true_twin", "--anchor", "4"],
             lambda q: qasst_ops.extend(q, qasst_ops.ExtensionKind("true_twin", 4), 7)),
        ]
        cur, path = g, src
        for i, (argv, op) in enumerate(steps):
            out = tmp_path / f"step{i}.json"
            code = cli.main(argv + ["--input", str(path), "--output", str(out)])
            assert code == cli.EXIT_OK, (argv, capsys.readouterr().err)
            cur = op(cur)
            assert json.loads(out.read_text()) == qasst.to_json_dict(cur), argv
            path = out
        assert sorted(cur.leaves()) == [3, 4, 5, 6, 7]
        for induced in (tmp_path / "step1.json", path):
            assert cli.main(["reconstruct", "--input", str(induced)]) == cli.EXIT_USAGE
            assert capsys.readouterr().err == "lcsplit: leaf-nodes do not cover 1..n\n"


class TestClosedPipe:
    """A stdout pipe whose reader is gone is a usage error (exit 2), not a traceback."""

    @pytest.mark.parametrize("argv", [["gen", "path", "--params", "3"], ["verify"]], ids=["gen", "verify"])
    def test_exits_two_with_one_line(self, argv):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("LCSPLIT_BUDGET", None)
        read, write = os.pipe()
        os.close(read)  # no reader: every write to the pipe fails with EPIPE
        try:
            done = subprocess.run(
                [sys.executable, "-c", "import sys; from lcsplit.cli import main; sys.exit(main())", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, check=False,
            )
        finally:
            os.close(write)
        assert done.returncode == cli.EXIT_USAGE
        assert "Traceback" not in done.stderr
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("lcsplit: cannot write output"), done.stderr


def _orbit_input(tmp_path, *gen_args):
    path = tmp_path / "g.json"
    assert cli.main(["gen", *gen_args, "--output", str(path)]) == cli.EXIT_OK
    return str(path)


class TestOrbitByteCap:
    """The orbit budget is lowered so that the members fit in ``orbit.MAX_ORBIT_BYTES``."""

    def test_lowered_budget_exits_three(self, tmp_path, capsys, monkeypatch):
        src = _orbit_input(tmp_path, "path", "--params", "8")
        monkeypatch.setattr(orbit, "MAX_ORBIT_BYTES", 40 * (9 * 8 // 8 + 128))  # 40 members of P8
        code = cli.main(["orbit", "size", "--input", src])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_BUDGET, "")
        assert captured.err == "lcsplit: orbit budget exceeded: more than 40 members (found 40 before aborting)\n"
        with pytest.raises(BudgetExceededError) as info:
            orbit.enumerate_orbit(families.path_graph(8))
        assert info.value.partial_count == 40

    def test_no_member_fits_exits_two_before_flattening(self, tmp_path, capsys, monkeypatch):
        def refuse(g):
            raise AssertionError("flat integer built for a graph past the cap")

        monkeypatch.setattr(orbit, "_flat", refuse)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"n": 100000, "edges": [[99999, 100000]]}))
        code = cli.main(["orbit", "size", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_USAGE, "")
        assert captured.err == (
            f"lcsplit: one orbit member of a 100000-vertex graph exceeds the {orbit.MAX_ORBIT_BYTES}-byte cap\n"
        )


# Every member of the orbit of K2,2, in the order `orbit list` writes them.
_K22_MEMBERS = [
    [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], [(1, 2), (1, 3), (1, 4), (3, 4)],
    [(1, 2), (1, 3), (2, 3), (3, 4)], [(1, 2), (1, 3), (3, 4)], [(1, 2), (1, 4), (2, 4), (3, 4)],
    [(1, 2), (1, 4), (3, 4)], [(1, 2), (2, 3), (2, 4), (3, 4)], [(1, 2), (2, 3), (3, 4)],
    [(1, 2), (2, 4), (3, 4)], [(1, 3), (1, 4), (2, 3), (2, 4)], [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)],
]


def _pinned(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


class TestEveryAction:
    """Each CLI action and refusal that no other test reaches, with its output pinned."""

    def test_orbit_list(self, tmp_path, capsys):
        src = _orbit_input(tmp_path, "complete_bipartite", "--params", "2,2")
        code, out = run(capsys, "orbit", "list", "--input", src)
        members = [graphs.to_json_dict(SimpleGraph(4, edges)) for edges in _K22_MEMBERS]
        assert (code, out) == (0, _pinned(members))

    @pytest.mark.parametrize("action, measure, value", [("min-edge", "edge_count", 3), ("min-degree", "max_degree", 2)])
    def test_orbit_minima(self, tmp_path, capsys, action, measure, value):
        src = _orbit_input(tmp_path, "complete_bipartite", "--params", "2,2")
        code, out = run(capsys, "orbit", action, "--input", src)
        best = graphs.to_json_dict(SimpleGraph(4, [(1, 2), (1, 3), (3, 4)]))
        assert (code, out) == (0, _pinned({measure: value, "graph": best}))

    @pytest.mark.parametrize(
        "argv, value",
        [
            (["iso-classes", "--family", "bipartite", "--params", "2,3"], "6"),
            (["iso-classes", "--family", "kpartite", "--params", "2,2,2"], "5"),
            (["phi", "--params", "2,2,2"], "81"),
        ],
    )
    def test_counts(self, capsys, argv, value):
        assert run(capsys, "count", *argv) == (0, value + "\n")

    def test_lc_vertex(self, tmp_path, capsys):
        src = _orbit_input(tmp_path, "path", "--params", "3")
        code, out = run(capsys, "lc", "--vertex", "2", "--input", src)
        assert (code, out) == (0, _pinned(graphs.to_json_dict(families.complete_graph(3))))

    def test_limit_zero_exits_two(self, tmp_path, capsys):
        src = _orbit_input(tmp_path, "path", "--params", "3")
        with pytest.raises(SystemExit) as info:
            cli.main(["orbit", "size", "--limit", "0", "--input", src])
        assert info.value.code == cli.EXIT_USAGE
        assert "--limit must be >= 1" in capsys.readouterr().err

    def test_env_budget_zero_exits_two(self, tmp_path, capsys, monkeypatch):
        src = _orbit_input(tmp_path, "path", "--params", "3")
        monkeypatch.setenv("LCSPLIT_BUDGET", "0")
        code = cli.main(["orbit", "size", "--input", src])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (cli.EXIT_USAGE, "", "lcsplit: LCSPLIT_BUDGET must be >= 1\n")

    def test_verify_with_a_wrong_formula_exits_one(self, capsys, monkeypatch):
        monkeypatch.delenv("LCSPLIT_BUDGET", raising=False)
        monkeypatch.setattr(counting, "bipartite_orbit_size", lambda n, m: n * m + n + m + 4)
        code, out = run(capsys, "verify", "--suite", "desk")
        assert code == cli.EXIT_VERIFY
        rows = [line.split()[:2] for line in out.splitlines()[2:-1]]
        assert [status for _, status in rows] == ["FAIL"] + ["pass"] * 9 and rows[0][0] == "D01"
        assert out.endswith("\n9/10 checks passed\n")

    @pytest.mark.parametrize(
        "quotients, message",
        [
            # Two quotients, neither with a split-node.
            ([([1, 2], [], [[1, 2]]), ([3], [], [])], "quotient 0 has no split-node"),
            # Three quotients joined in a cycle: three pairs, not two.
            ([([1], [(0, 1), (0, 2)], [[1, (0, 1)], [1, (0, 2)]]),
              ([2], [(1, 0), (1, 2)], [[2, (1, 0)], [2, (1, 2)]]),
              ([3], [(2, 0), (2, 1)], [[3, (2, 0)], [3, (2, 1)]])],
             "tree-edge count is not (quotients - 1)"),
            # Four pairs for five quotients, but a 3-cycle and a separate edge.
            ([([1], [(0, 1), (0, 2)], [[1, (0, 1)], [1, (0, 2)]]),
              ([2], [(1, 0), (1, 2)], [[2, (1, 0)], [2, (1, 2)]]),
              ([3], [(2, 0), (2, 1)], [[3, (2, 0)], [3, (2, 1)]]),
              ([4], [(3, 4)], [[4, (3, 4)]]),
              ([5], [(4, 3)], [[5, (4, 3)]])],
             "quotient tree is disconnected"),
        ],
        ids=["bare-quotient", "edge-count", "disconnected"],
    )
    def test_tree_refusals(self, tmp_path, capsys, quotients, message):
        def node(v):
            return {"i": v[0], "j": v[1]} if isinstance(v, tuple) else v

        payload = {
            "quotients": [
                {"leaf_nodes": leaves, "split_nodes": [node(s) for s in splits],
                 "edges": [[node(a), node(b)] for a, b in edges]}
                for leaves, splits, edges in quotients
            ],
            "tree_edges": [],
        }
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(payload))
        code = cli.main(["reconstruct", "--input", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (cli.EXIT_USAGE, "", f"lcsplit: {message}\n")

    def test_false_twin_on_the_one_vertex_tree(self, tmp_path, capsys):
        src = tmp_path / "g.json"
        src.write_text('{"n": 1, "edges": []}')
        tree = tmp_path / "q.json"
        assert cli.main(["decompose", "--input", str(src), "--output", str(tree)]) == cli.EXIT_OK
        code = cli.main(["qasst", "extend", "--kind", "false_twin", "--anchor", "1", "--input", str(tree)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (cli.EXIT_USAGE, "")
        assert captured.err == "lcsplit: false twin of an isolated vertex disconnects\n"


def _readme_examples():
    """Each command line of README's CLI block that ends in ``# <integer>``, with that integer."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        match = re.fullmatch(r"(lcsplit .*?)\s+#\s*(\d+)\s*", line)
        if match:
            examples.append((match.group(1), int(match.group(2))))
    return examples


class TestReadmeExamples:
    """README's worked examples run in-process; each stage's stdout is the next stage's stdin."""

    def test_examples_are_found(self):
        assert [value for _, value in _readme_examples()] == [11, 40, 120]

    @pytest.mark.parametrize("line, value", _readme_examples())
    def test_example(self, capsys, monkeypatch, line, value):
        monkeypatch.delenv("LCSPLIT_BUDGET", raising=False)
        out = ""
        for stage in line.split("|"):
            argv = shlex.split(stage)
            assert argv[0] == "lcsplit"
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            code, out = run(capsys, *argv[1:])
            assert code == cli.EXIT_OK, stage
        assert out == f"{value}\n"


class TestUsageErrors:
    """A command without an option it needs exits 2 with one line on stderr and nothing on stdout."""

    @pytest.mark.parametrize("argv, message", [
        (["lc", "--input", "{graph}"], "lc needs --vertex or --sequence"),
        (["orbit", "transform", "--input", "{graph}"], "orbit transform needs --to <graph.json>"),
        (["qasst", "lc", "--input", "{tree}"], "qasst lc needs --vertex"),
        (["qasst", "induce", "--input", "{tree}"], "qasst induce needs --keep"),
        (["qasst", "extend", "--kind", "pendant", "--input", "{tree}"], "qasst extend needs --kind and --anchor"),
        (["count", "path"], "count path needs --n"),
        (["count", "orbit", "--params", "2,2,2"], "count orbit needs --family and --params"),
        (["count", "orbit", "--family", "bipartite", "--params", "2,2,2"], "bipartite takes exactly two parameters"),
        (["sym", "transform", "--family", "kpartite", "--params", "2,2,2"], "sym transform needs --case"),
    ], ids=["lc", "orbit-transform", "qasst-lc", "qasst-induce", "qasst-extend", "count-path", "count-orbit",
            "bipartite-params", "sym-transform"])
    def test_missing_option(self, tmp_path, capsys, argv, message):
        graph = tmp_path / "g.json"
        graph.write_text(graphs.to_json_text(families.path_graph(4)))
        tree = tmp_path / "q.json"
        tree.write_text(qasst.to_json_text(qasst.compute_qasst(families.path_graph(4))))
        code = cli.main([a.format(graph=graph, tree=tree) for a in argv])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (cli.EXIT_USAGE, "", f"lcsplit: {message}\n")


class TestVerifyUnderOptimize:
    """``verify`` judges the same when Python strips ``assert`` statements (``-O``)."""

    def test_a_wrong_formula_fails_under_dash_o(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("LCSPLIT_BUDGET", None)
        code = (
            "import sys; from lcsplit import counting; from lcsplit.cli import main; "
            "counting.bipartite_orbit_size = lambda n, m: n * m + n + m + 4; sys.exit(main(['verify']))"
        )
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=False)
        assert done.returncode == cli.EXIT_VERIFY, done.stderr
        (row,) = [line for line in done.stdout.splitlines() if line.startswith("D01")]
        assert "FAIL" in row and "|O(K_2,2)| = 11, formula 12" in row
        assert "9/10 checks passed" in done.stdout

    def test_the_package_holds_no_assert_statement(self):
        import ast

        package = pathlib.Path(cli.__file__).resolve().parent
        found = [
            f"{path.name}:{node.lineno}"
            for path in sorted(package.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.Assert)
        ]
        assert found == []


class TestLibraryRefusalsPinned:
    """Library refusals that no other test reaches, each pinned by type and message."""

    @staticmethod
    def _library_calls():
        from lcsplit.errors import InvalidCaseError, InvalidSpecError, MalformedQasstError
        from lcsplit import symmetry

        # Block {1,2,3,4} is a C5 with its split-node (1-2-3-4-s-1), hung off a
        # complete centre with two star-centre blocks {5,6} and {7,8}.
        prime_block = SimpleGraph(
            8, [(1, 2), (2, 3), (3, 4)] + [(a, b) for a in (1, 4) for b in (5, 6, 7, 8)]
            + [(a, b) for a in (5, 6) for b in (7, 8)]
        )
        # Five twin pairs joined in a cycle: the centre is a C5 on five split-nodes.
        pairs = [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
        ring = SimpleGraph(10, [(a, b) for i in range(4) for a in pairs[i] for b in pairs[i + 1]]
                           + [(a, b) for a in pairs[0] for b in pairs[4]])
        return [
            (lambda: counting.iso_class_count(families.KPARTITE, 2), InvalidSpecError, "need k >= 3"),
            (lambda: qasst.QuotientGraph([1, 2], [(1, 3)]), MalformedQasstError, "bad quotient edge {1, 3}"),
            (lambda: symmetry.build_star_qasst((2, 2, 2), qasst.COMPLETE, (qasst.COMPLETE, qasst.COMPLETE, "x")),
             InvalidCaseError, "unknown quotient kind 'x'"),
            (lambda: classify_bipartite_member(families.cycle_graph(5), 2, 3), MalformedQasstError,
             "graph does not have the two-quotient QASST"),
            (lambda: symmetry.analyze_star_member(prime_block, (4, 2, 2)), MalformedQasstError,
             "prime outer quotient"),
            (lambda: symmetry.analyze_star_member(ring, (2,) * 5), MalformedQasstError,
             "central quotient is neither star nor complete"),
        ]

    def test_library_raises(self):
        for call, error, message in self._library_calls():
            with pytest.raises(error) as info:
                call()
            assert type(info.value) is error and str(info.value) == message

    def test_graph_equality_and_repr(self):
        assert (SimpleGraph(2) == 3) is False
        assert repr(families.path_graph(3)) == "SimpleGraph(n=3, edges=[(1, 2), (2, 3)])"
