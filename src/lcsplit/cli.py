"""The ``lcsplit`` command-line interface.

Subcommands: gen, lc, orbit, decompose, reconstruct, qasst, count, rep,
sym, verify.  Graphs and quotient trees travel as JSON on stdin/stdout
(or files via --input/--output); --format dot emits Graphviz instead.

Exit codes: 0 success, 1 verification failure, 2 usage error (a closed
stdout pipe too), 3 orbit budget exceeded.  Output is deterministic for a
fixed invocation and seed.  The environment variable LCSPLIT_BUDGET
overrides the default orbit budget of 10**6 members, which is lowered so
that the BFS's member store fits in ``orbit.MAX_ORBIT_BYTES``.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import os
import random
import sys

from . import counting, families, graphs, orbit, qasst, qasst_ops, symmetry
from .errors import BudgetExceededError, InvalidSpecError, LcsplitError, check

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def default_budget() -> int:
    raw = os.environ.get("LCSPLIT_BUDGET")
    if raw is None:
        return orbit.DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise InvalidSpecError(f"LCSPLIT_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InvalidSpecError("LCSPLIT_BUDGET must be >= 1")
    return value


# -- plumbing -----------------------------------------------------------------


def _parse_ints(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise InvalidSpecError(f"expected comma-separated integers, got {text!r}") from exc


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write_text(text: str, path: str) -> None:
    if not text.endswith("\n"):
        text += "\n"
    try:
        if path == "-":
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:  # BrokenPipeError too, when the reader of stdout is gone
        if path == "-":  # the interpreter's flush at exit then writes nowhere instead of failing again
            sys.stdout = open(os.devnull, "w")
        raise InvalidSpecError(f"cannot write output: {exc}") from exc


def _decimal(x: int) -> str:
    """``str(x)`` for ``x >= 0`` of any length; ``str`` stops at a digit limit, 4300 by default.

    Past 2000 bits, x is split at half its width and joined back as
    high * 2**w + low in exact decimal arithmetic, in subquadratic time
    (the method of CPython 3.12's ``_pylong``).
    """
    pow2 = functools.cache(lambda w: decimal.Decimal(2) ** w)

    def convert(x: int, width: int) -> decimal.Decimal:
        if width <= 2000:  # at most 603 digits; no limit may be set below 640
            return decimal.Decimal(str(x))
        w = width // 2
        high = x >> w
        return convert(high, width - w) * pow2(w) + convert(x - (high << w), w)

    with decimal.localcontext() as ctx:
        ctx.prec, ctx.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        return str(convert(x, x.bit_length()))


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read_text(path))
    except OSError as exc:
        raise InvalidSpecError(f"cannot read input: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise InvalidSpecError(f"malformed JSON input: {exc}") from exc


def _load(mod, path: str):
    """The graph (``mod`` = graphs) or quotient tree (``mod`` = qasst) in the JSON file at ``path``."""
    return mod.from_json_dict(_load_json(path))


def _dump_json(data) -> str:
    """``json.dumps(data, indent=2, sort_keys=True)``: LC sequences, ``rep`` rows and ``orbit min-edge|min-degree``."""
    try:
        return json.dumps(data, indent=2, sort_keys=True)
    except ValueError as exc:  # an int past the interpreter's int -> str digit limit
        raise InvalidSpecError("an integer in the output is too long to write as JSON") from exc


def _emit(mod, obj, fmt: str, out: str) -> None:
    """Write a graph (``mod`` = graphs) or quotient tree (``mod`` = qasst) as JSON or DOT, by its module's writer.

    A leaf-node past the int -> str digit limit (``qasst extend`` adds the largest label + 1) is refused.
    """
    try:
        text = mod.to_dot(obj) if fmt == "dot" else mod.to_json_text(obj)
    except ValueError as exc:
        raise InvalidSpecError(f"an integer in the output is too long to write as {fmt.upper()}") from exc
    _write_text(text, out)


def _table(rows: list[list], header: list[str]) -> str:
    rows = [[_decimal(cell) if isinstance(cell, int) else cell for cell in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    lines = []
    for row in [header, ["-" * w for w in widths]] + rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


# The orbit families' CLI names; argparse ``choices`` admit no other.
_ORBIT_TAGS = {"kpartite": families.KPARTITE, "clique_star": families.CLIQUE_STAR}


# -- subcommand handlers ------------------------------------------------------


def cmd_gen(args) -> int:
    spec = families.FamilySpec(args.family, tuple(_parse_ints(args.params)), args.center)
    _emit(graphs, families.build(spec), args.format, args.output)
    return EXIT_OK


def cmd_lc(args) -> int:
    g = _load(graphs, args.input)
    if args.vertex is not None:
        seq = [args.vertex]
    elif args.sequence is not None:
        seq = _parse_ints(args.sequence)
    else:
        raise InvalidSpecError("lc needs --vertex or --sequence")
    _emit(graphs, graphs.apply_sequence(g, seq), args.format, args.output)
    return EXIT_OK


def cmd_orbit(args) -> int:
    g = _load(graphs, args.input)
    if args.action == "transform":
        if args.to is None:
            raise InvalidSpecError("orbit transform needs --to <graph.json>")
        h = _load(graphs, args.to)
        seq = orbit.transformation_between(g, h, limit=args.limit)
        _write_text(_dump_json({"sequence": seq}), args.output)
        return EXIT_OK
    o = orbit.enumerate_orbit(g, limit=args.limit)
    if args.action == "size":
        _write_text(str(len(o)), args.output)
    elif args.action == "list":
        members = [graphs.to_json_text(m, 1) for m in o.sorted_members()]
        _write_text(graphs._list_text(members, 0), args.output)
    else:  # min-edge | min-degree
        key, fn = (
            ("edge_count", orbit.min_edge_member) if args.action == "min-edge"
            else ("max_degree", orbit.min_max_degree_member)
        )
        best, value = fn(o)
        _write_text(_dump_json({key: value, "graph": graphs.to_json_dict(best)}), args.output)
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = _load(graphs, args.input)
    _emit(qasst, qasst.compute_qasst(g), args.format, args.output)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    q = _load(qasst, args.input)
    _emit(graphs, qasst.reconstruct(q), args.format, args.output)
    return EXIT_OK


def cmd_qasst(args) -> int:
    q = _load(qasst, args.input)
    if args.action == "lc":
        if args.vertex is None:
            raise InvalidSpecError("qasst lc needs --vertex")
        out = qasst_ops.lc_propagate(q, args.vertex)
    elif args.action == "induce":
        if args.keep is None:
            raise InvalidSpecError("qasst induce needs --keep")
        out = qasst_ops.induced_qasst(q, _parse_ints(args.keep))
    else:  # extend
        if args.kind is None or args.anchor is None:
            raise InvalidSpecError("qasst extend needs --kind and --anchor")
        out = qasst_ops.extend(q, qasst_ops.ExtensionKind(args.kind, args.anchor), max(q.leaves()) + 1)
    _emit(qasst, out, args.format, args.output)
    return EXIT_OK


def cmd_count(args) -> int:
    if args.what in ("path", "cycle"):
        if args.n is None:
            raise InvalidSpecError(f"count {args.what} needs --n")
        fn = counting.bouchet_path_count if args.what == "path" else counting.bouchet_cycle_count
        value = fn(args.n)
    elif args.what == "phi":
        if args.params is not None:
            value = counting.kpartite_phi(_parse_ints(args.params))
        else:
            value = counting.phi_count(qasst.compute_qasst(_load(graphs, args.input)))
    else:
        if args.family is None or args.params is None:
            raise InvalidSpecError(f"count {args.what} needs --family and --params")
        params = _parse_ints(args.params)
        if args.family == "bipartite":
            if len(params) != 2:
                raise InvalidSpecError("bipartite takes exactly two parameters")
            fn = counting.bipartite_orbit_size if args.what == "orbit" else counting.bipartite_iso_class_count
            value = fn(*params)
        elif args.what == "orbit":
            value = counting.orbit_size(_ORBIT_TAGS[args.family], params)
        else:  # iso-classes; the formula holds for equal blocks only
            families.check_blocks(params)
            if len(set(params)) > 1:
                raise InvalidSpecError("count iso-classes needs equal blocks")
            value = counting.iso_class_count(_ORBIT_TAGS[args.family], len(params))
    _write_text(_decimal(value), args.output)
    return EXIT_OK


def _rep_rows(reps, k: int) -> list[dict]:
    return [
        {
            "case": rep.case.case_id,
            "j": rep.case.j,
            "I": sorted(rep.case.I),
            "kinds": list(symmetry.case_assignment(rep.case, k)[1]),
            "value": rep.value,
        }
        for rep in reps
    ]


def cmd_rep(args) -> int:
    tag = _ORBIT_TAGS[args.family]
    params = _parse_ints(args.params)
    fn = counting.min_edge_rep if args.what == "min-edge" else counting.min_max_degree_rep
    rows = _rep_rows(fn(tag, params), len(params))
    if args.format == "table":
        table_rows = [
            [r["case"], r["j"] if r["j"] is not None else "-",
             ",".join(map(str, r["I"])) or "-", " ".join(r["kinds"]), r["value"]]
            for r in rows
        ]
        _write_text(_table(table_rows, ["case", "j", "I", "kinds", "value"]), args.output)
    else:
        _write_text(_dump_json(rows), args.output)
    return EXIT_OK


def cmd_sym(args) -> int:
    tag = _ORBIT_TAGS[args.family]
    params = _parse_ints(args.params)
    if args.action == "enumerate":
        cases = symmetry.enumerate_cases(tag, params)
        rows = []
        for case, mult in cases:
            rows.append([
                case.case_id,
                case.j if case.j is not None else "-",
                ",".join(map(str, sorted(case.I))) or "-",
                mult,
            ])
        rows.sort(key=lambda r: (r[0], 0 if r[1] == "-" else r[1], r[2]))
        total = sum(r[3] for r in rows)
        text = _table(rows, ["case", "j", "I", "members"])
        _write_text(f"{text}\ntotal: {_decimal(total)}", args.output)
        return EXIT_OK
    # transform
    if args.case is None:
        raise InvalidSpecError("sym transform needs --case")
    I = frozenset(_parse_ints(args.I)) if args.I is not None else frozenset()
    case = symmetry.SymmetryCase(tag, args.case, args.j, I)
    seq = symmetry.synthesize_transformation(case, params, r=args.r)
    _write_text(_dump_json({"sequence": seq}), args.output)
    return EXIT_OK


# -- verification driver ------------------------------------------------------


def _orbit_pair(orbits, n_list):
    """The orbits of K_{n_1..n_k} and CS^1 on these blocks, checked disjoint."""
    ok = orbits(families.complete_multipartite_graph(n_list))
    oc = orbits(families.clique_star_graph(n_list, 1))
    # Both graphs have sum(n_list) vertices, so equal flats are equal members.
    check(ok.flats.keys().isdisjoint(oc.flats), "orbits intersect")
    return ok, oc


def _reps_vs_oracle(orbits, n_list) -> str:
    """Both orbits' closed-form optimal representatives against the oracle's best members."""
    details = []
    for tag, o in zip((families.KPARTITE, families.CLIQUE_STAR), _orbit_pair(orbits, n_list)):
        _, edges = orbit.min_edge_member(o)
        reps = counting.min_edge_rep(tag, n_list)
        check(reps[0].value == edges, f"{tag} edges {edges} vs {reps[0].value}")
        _, delta = orbit.min_max_degree_member(o)
        dreps = counting.min_max_degree_rep(tag, n_list)
        check(dreps[0].value == delta, f"{tag} degree {delta} vs {dreps[0].value}")
        details.append(f"{tag}:{edges}e/{delta}d")
    return " ".join(details)


def _desk_checks(orbits):
    def bipartite_sizes():
        details = []
        for n, m in ((2, 2), (2, 3), (3, 3)):
            got = len(orbits(families.complete_bipartite_graph(n, m)))
            want = counting.bipartite_orbit_size(n, m)
            check(got == want, f"|O(K_{n},{m})| = {got}, formula {want}")
            details.append(f"K{n},{m}:{got}")
        return " ".join(details)

    def bipartite_min_edge():
        details = []
        for n, m in ((2, 2), (2, 3), (3, 3)):
            o = orbits(families.complete_bipartite_graph(n, m))
            best, edges = orbit.min_edge_member(o)
            want = counting.bipartite_min_edge_count(n, m)
            check(edges == want, f"min edges {edges}, formula {want}")
            # a binary star: two adjacent centers with n-1 and m-1 leaves
            star = graphs.SimpleGraph(
                n + m,
                [(1, 2)] + [(1, v) for v in range(3, n + 2)]
                + [(2, v) for v in range(n + 2, n + m + 1)],
            )
            check(graphs.is_isomorphic(best, star), "min-edge member is not a binary star")
            bd, delta = orbit.min_max_degree_member(o)
            wantd = counting.bipartite_min_max_degree(n, m)
            check(delta == wantd, f"min max-degree {delta}, formula {wantd}")
            details.append(f"K{n},{m}:{edges}e/{delta}d")
        return " ".join(details)

    def k3_orbits():
        ok, oc = _orbit_pair(orbits, (2, 2, 2))
        check(len(ok) == 40, f"|O(K222)| = {len(ok)}")
        check(len(oc) == 41, f"|O(CS222)| = {len(oc)}")
        phi = counting.kpartite_phi((2, 2, 2))
        check(len(ok) + len(oc) == phi == 81, f"sum {len(ok) + len(oc)}, phi {phi}")
        return "40 + 41 = 81, disjoint"

    def iso_classes():
        details = []
        targets = [
            (families.complete_bipartite_graph(2, 2), 4, "K2,2"),
            (families.complete_bipartite_graph(2, 3), 6, "K2,3"),
            (families.complete_multipartite_graph((2, 2, 2)), 5, "K2,2,2"),
            (families.clique_star_graph((2, 2, 2), 1), 5, "CS2,2,2"),
        ]
        for g, want, name in targets:
            got = len(orbit.orbit_iso_classes(orbits(g)))
            check(got == want, f"{name}: {got} classes, want {want}")
            details.append(f"{name}:{got}")
        fk = counting.iso_class_count(families.KPARTITE, 3)
        fc = counting.iso_class_count(families.CLIQUE_STAR, 3)
        check((fk, fc) == (5, 5), f"formulas {fk}/{fc}")
        return " ".join(details)

    def repeater_membership():
        o = orbits(families.clique_star_graph((2, 2, 2), 1))
        check(families.repeater_graph(3) in o, "R3 not in O(CS222)")
        check(families.mlr_orbit_home(3) == families.CLIQUE_STAR)
        return "R3 in O(CS1_2,2,2)"

    def closure_tables():
        checks = 0
        pair = _orbit_pair(orbits, (2, 2, 2))
        for tag, o in zip((families.KPARTITE, families.CLIQUE_STAR), pair):
            for g in o.sorted_members():
                case, roles = symmetry.analyze_star_member(g, (2, 2, 2))
                check(case.tag == tag, f"{tag} member classified as {case}")
                for v in range(1, g.n + 1):
                    pred = symmetry.closure_step(case, roles[v])
                    got = symmetry.classify_star_member(graphs.local_complement(g, v), (2, 2, 2))
                    check((got.tag, got.case_id, got.j) == (tag, *pred), f"{tag} {case} v={v}")
                    checks += 1
        return f"{checks} vertex steps verified"

    def round_trips():
        samples = [
            families.cycle_graph(5),
            families.complete_bipartite_graph(2, 3),
            families.repeater_graph(3),
            qasst_ops.random_dh(10, 7)[0],
        ]
        for g in samples:
            q = qasst.compute_qasst(g)
            check(qasst.reconstruct(q) == g, "reconstruct mismatch")
            q2 = qasst.from_json_dict(json.loads(json.dumps(qasst.to_json_dict(q))))
            check(qasst.reconstruct(q2) == g, "JSON round-trip mismatch")
        return f"{len(samples)} graphs"

    def bouchet():
        paths = [counting.bouchet_path_count(n) for n in (3, 4, 5)]
        cycles = [counting.bouchet_cycle_count(n) for n in (4, 5)]
        check(paths == [16, 44, 120], f"paths {paths}")
        check(cycles == [44, 132], f"cycles {cycles}")
        op3 = len(orbits(families.path_graph(3)))
        oc4 = len(orbits(families.cycle_graph(4)))
        return (
            f"paths {paths}, cycles {cycles}; labeled oracle P3={op3}, C4={oc4} "
            "(formula counts a different equivalence, mismatch expected)"
        )

    def symmetry_totals():
        checked = 0
        for tag in (families.KPARTITE, families.CLIQUE_STAR):
            for k in (3, 4, 5):
                for n_list in ((2,) * k, (3,) * k, (2, 3) + (2,) * (k - 2)):
                    total = sum(m for _, m in symmetry.enumerate_cases(tag, n_list))
                    want = counting.orbit_size(tag, n_list)
                    check(total == want, f"{tag} {n_list}: {total} vs {want}")
                    checked += 1
        return f"{checked} (tag, n_list) pairs"

    return [
        ("D01", "bipartite orbit sizes match nm+n+m+3", bipartite_sizes),
        ("D02", "bipartite minimal representatives (binary star)", bipartite_min_edge),
        ("D03", "k=3 orbit sizes, phi sum, disjointness", k3_orbits),
        ("D04", "isomorphism-class counts", iso_classes),
        ("D05", "repeater R3 orbit membership", repeater_membership),
        ("D06", "k=3 optimal representatives vs oracle",
         lambda: _reps_vs_oracle(orbits, (2, 2, 2))),
        ("D07", "closure tables over both k=3 orbits", closure_tables),
        ("D08", "decompose/reconstruct round-trips", round_trips),
        ("D09", "path/cycle count evaluations", bouchet),
        ("D10", "symmetry-class totals equal orbit sizes", symmetry_totals),
    ]


def _extended_checks(orbits, seed: int):
    def k4_orbits():
        ok, oc = _orbit_pair(orbits, (2, 2, 2, 2))
        check(len(ok) == 149, f"|O(K2222)| = {len(ok)}")
        check(len(oc) == 148, f"|O(CS2222)| = {len(oc)}")
        check(families.repeater_graph(4) in ok, "R4 not in O(K2222)")
        check(families.mlr_orbit_home(4) == families.KPARTITE)
        return "149 + 148, disjoint, R4 in the k-partite orbit"

    def k4_reps():
        details = _reps_vs_oracle(orbits, (2, 2, 2, 2))
        tie = counting.min_edge_rep(families.KPARTITE, (2, 2, 2, 2))
        check(len(tie) == 2 and {r.case.case_id for r in tie} == {1, 3}, "expected a case 1/3 tie")
        return details + "; k=4 edge-count tie confirmed"

    def k5_degree():
        o = orbits(families.complete_multipartite_graph((2,) * 5))
        _, delta = orbit.min_max_degree_member(o)
        dreps = counting.min_max_degree_rep(families.KPARTITE, (2,) * 5)
        check(delta == 4 and dreps[0].value == 4, f"k=5 degree {delta} vs {dreps[0].value}")
        return "min max-degree 4"

    def formula_vs_oracle_223():
        ok, oc = _orbit_pair(orbits, (2, 2, 3))
        fk = counting.kpartite_orbit_size((2, 2, 3))
        fc = counting.clique_star_orbit_size((2, 2, 3))
        check((len(ok), len(oc)) == (fk, fc), f"({len(ok)},{len(oc)}) vs ({fk},{fc})")
        check(fk + fc == counting.kpartite_phi((2, 2, 3)))
        return f"(2,2,3): {fk} + {fc}"

    def random_properties():
        rng = random.Random(seed)
        for trial in range(200):
            n = rng.randint(4, 10)
            g, _ = qasst_ops.random_dh(n, rng.random())
            v = rng.randint(1, n)
            check(graphs.local_complement(graphs.local_complement(g, v), v) == g)
            q = qasst.compute_qasst(g)
            got = qasst.reconstruct(qasst_ops.lc_propagate(q, v))
            check(got == graphs.local_complement(g, v), f"propagate trial {trial}")
            kind = rng.choice(qasst_ops.EXTENSION_KINDS)
            anchor = rng.randint(1, n)
            ext = qasst_ops.extend(q, qasst_ops.ExtensionKind(kind, anchor), n + 1)
            check(qasst.reconstruct(ext) == qasst_ops.extend_graph(g, kind, anchor))
        return "200 seeded trials"

    return [
        ("E01", "k=4 orbit sizes, disjointness, R4 membership", k4_orbits),
        ("E02", "k=4 optimal representatives and edge tie", k4_reps),
        ("E03", "k=5 minimal max degree", k5_degree),
        ("E04", "(2,2,3) formulas vs oracle", formula_vs_oracle_223),
        ("E05", "randomized propagation/extension soundness", random_properties),
    ]


def cmd_verify(args) -> int:
    # One enumeration per distinct graph per run, under the run's budget.
    orbits = functools.cache(lambda g: orbit.enumerate_orbit(g, args.limit))
    checks = _desk_checks(orbits)
    if args.suite == "extended":
        checks += _extended_checks(orbits, args.seed)
    rows = []
    failures = 0
    for item_id, description, fn in checks:
        try:
            detail = fn()
            status = "pass"
        except AssertionError as exc:
            detail = str(exc)
            status = "FAIL"
            failures += 1
        rows.append([item_id, status, description, detail])
    text = _table(rows, ["id", "status", "check", "detail"])
    summary = f"{len(checks) - failures}/{len(checks)} checks passed"
    _write_text(f"{text}\n{summary}", args.output)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


# -- argument parsing ---------------------------------------------------------


def _add_io(p, graph_input=True, formats=("json", "dot")):
    if graph_input:
        p.add_argument("--input", default="-", help="input path or - for stdin")
    p.add_argument("--output", default="-", help="output path or - for stdout")
    if formats:
        p.add_argument("--format", choices=formats, default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lcsplit",
        description="Local-complement equivalence analysis via split decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named family graph")
    p.add_argument("family", choices=families.FAMILY_TAGS)
    p.add_argument("--params", required=True, help="comma-separated sizes, e.g. 2,2,2")
    p.add_argument("--center", type=int, default=None, help="center block r (clique_star)")
    _add_io(p, graph_input=False)
    p.set_defaults(handler=cmd_gen)

    p = sub.add_parser("lc", help="apply a local complement or LC sequence")
    p.add_argument("--vertex", type=int, default=None)
    p.add_argument("--sequence", default=None, help="comma-separated vertices")
    _add_io(p)
    p.set_defaults(handler=cmd_lc)

    p = sub.add_parser("orbit", help="brute-force orbit queries")
    p.add_argument("action", choices=["size", "list", "min-edge", "min-degree", "transform"])
    p.add_argument("--to", default=None, help="target graph JSON (transform)")
    p.add_argument("--limit", type=int, default=None, help="orbit member budget, lowered so that the member "
                   f"store fits in {orbit.MAX_ORBIT_BYTES} bytes, charged at (n+1)*n/8 + 128 bytes per member "
                   "(exit 2 if none fits); the cap bounds that store, not the process")
    _add_io(p, formats=None)
    p.set_defaults(handler=cmd_orbit)

    p = sub.add_parser("decompose", help="compute the quotient tree of a graph")
    _add_io(p)
    p.set_defaults(handler=cmd_decompose)

    p = sub.add_parser("reconstruct", help="rebuild the graph from a quotient tree")
    _add_io(p)
    p.set_defaults(handler=cmd_reconstruct)

    p = sub.add_parser("qasst", help="transform a quotient tree in place")
    p.add_argument("action", choices=["lc", "induce", "extend"])
    p.add_argument("--vertex", type=int, default=None, help="leaf vertex (lc)")
    p.add_argument("--keep", default=None, help="comma-separated vertices (induce)")
    p.add_argument("--kind", choices=qasst_ops.EXTENSION_KINDS, default=None)
    p.add_argument("--anchor", type=int, default=None)
    _add_io(p)
    p.set_defaults(handler=cmd_qasst)

    p = sub.add_parser("count", help="closed-form counts")
    p.add_argument("what", choices=["orbit", "phi", "iso-classes", "path", "cycle"])
    p.add_argument("--family", choices=["bipartite", "kpartite", "clique_star"], default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--n", type=int, default=None, help="path/cycle length")
    _add_io(p, formats=None)
    p.set_defaults(handler=cmd_count)

    p = sub.add_parser("rep", help="optimal representative predictions")
    p.add_argument("what", choices=["min-edge", "min-degree"])
    p.add_argument("--family", required=True, choices=["kpartite", "clique_star"])
    p.add_argument("--params", required=True)
    _add_io(p, graph_input=False, formats=("json", "table"))
    p.set_defaults(handler=cmd_rep)

    p = sub.add_parser("sym", help="symmetry classes and transformations")
    p.add_argument("action", choices=["enumerate", "transform"])
    p.add_argument("--family", required=True, choices=["kpartite", "clique_star"])
    p.add_argument("--params", required=True)
    p.add_argument("--case", type=int, default=None, choices=[1, 2, 3])
    p.add_argument("--j", type=int, default=None)
    p.add_argument("--I", default=None, help="comma-separated star-spoke blocks")
    p.add_argument("--r", type=int, default=None, help="base center (clique_star)")
    _add_io(p, graph_input=False, formats=None)
    p.set_defaults(handler=cmd_sym)

    p = sub.add_parser("verify", help="cross-check formulas against the oracle")
    p.add_argument("--suite", choices=["desk", "extended"], default="desk")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=None, help="orbit member budget")
    _add_io(p, graph_input=False, formats=None)
    p.set_defaults(handler=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each parse returns a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "limit", 0) is None:
            args.limit = default_budget()
        if getattr(args, "limit", 1) is not None and getattr(args, "limit", 1) < 1:
            parser.error("--limit must be >= 1")
        return args.handler(args)
    except BudgetExceededError as exc:
        print(f"lcsplit: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except LcsplitError as exc:
        print(f"lcsplit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
