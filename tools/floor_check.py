"""Run the CLI under several interpreters and compare what each prints.

``tests/test_python_floor.py`` only parses the source in the grammar of
the oldest Python that ``pyproject.toml`` admits.  This runs it: under each
interpreter given, with ``PYTHONPATH`` set to the source, it runs
``lcsplit verify --suite desk``, seven pipelines and six single
commands, one process per stage:

- ``gen cycle --params 7 | decompose | qasst induce --keep 1,2,3,4,5 |
  reconstruct``;
- ``gen repeater --params 6 | decompose | qasst extend --kind false_twin
  --anchor 1 | reconstruct``, which takes pruning, the kernel split
  search, replay and the extension step;
- ``gen repeater --params 6 | decompose | qasst lc --vertex 2 |
  reconstruct``, which passes a local complement across the tree;
- ``gen cycle --params 6 | orbit list``, which writes each member by the
  direct graph writer;
- ``gen path --params 2000 | decompose | reconstruct``, which reads a
  graph off a deep tree by the accessibility fold;
- ``gen path --params 10 | decompose --format dot``, a chain of quotients
  whose split-nodes DOT names by location;
- ``gen complete --params 20 | decompose``, one quotient past the size up
  to which JSON is written from a template per shape;
- ``rep min-degree --family kpartite --params 2,3,2,4 --format table``,
  ``rep min-edge --family clique_star --params 2,3,2,4``, ``count orbit
  --family clique_star --params 2,3,2``, ``count iso-classes --family
  kpartite --params 3,3,3``, ``sym enumerate --family kpartite --params
  2,2,3`` and ``sym transform --family kpartite --params 2,2,2,2 --case 3
  --j 1 --I 2``, the star-shaped class model's degree profile (by the
  table writer), edge count (by the JSON writer), orbit size, class count,
  class listing and an LC sequence into a class.

It prints one line per interpreter and check, and exits 1 unless every
run exits 0 and every interpreter prints the same bytes for each check as
the first one.

Example, from the root of the repository (or with ``--src`` pointing at
another checkout's ``src``)::

    python3 tools/floor_check.py /usr/bin/python3.10 /usr/bin/python3.13

Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHECKS = {
    "verify --suite desk": [["verify", "--suite", "desk"]],
    "induce pipeline": [
        ["gen", "cycle", "--params", "7"],
        ["decompose"],
        ["qasst", "induce", "--keep", "1,2,3,4,5"],
        ["reconstruct"],
    ],
    "extend pipeline": [
        ["gen", "repeater", "--params", "6"],
        ["decompose"],
        ["qasst", "extend", "--kind", "false_twin", "--anchor", "1"],
        ["reconstruct"],
    ],
    "lc pipeline": [
        ["gen", "repeater", "--params", "6"],
        ["decompose"],
        ["qasst", "lc", "--vertex", "2"],
        ["reconstruct"],
    ],
    "orbit list pipeline": [
        ["gen", "cycle", "--params", "6"],
        ["orbit", "list"],
    ],
    "deep reconstruct pipeline": [
        ["gen", "path", "--params", "2000"],
        ["decompose"],
        ["reconstruct"],
    ],
    "dot pipeline": [
        ["gen", "path", "--params", "10"],
        ["decompose", "--format", "dot"],
    ],
    "untemplated quotient pipeline": [
        ["gen", "complete", "--params", "20"],
        ["decompose"],
    ],
    "rep min-degree": [["rep", "min-degree", "--family", "kpartite", "--params", "2,3,2,4", "--format", "table"]],
    "rep min-edge": [["rep", "min-edge", "--family", "clique_star", "--params", "2,3,2,4"]],
    "count orbit": [["count", "orbit", "--family", "clique_star", "--params", "2,3,2"]],
    "count iso-classes": [["count", "iso-classes", "--family", "kpartite", "--params", "3,3,3"]],
    "sym enumerate": [["sym", "enumerate", "--family", "kpartite", "--params", "2,2,3"]],
    "sym transform": [["sym", "transform", "--family", "kpartite", "--params", "2,2,2,2", "--case", "3", "--j", "1",
                       "--I", "2"]],
}


def run_check(python: str, src: str, stages: list[list[str]]) -> tuple[int, bytes]:
    """Run the stages as a pipeline; returns the first nonzero exit code (or 0) and the last stdout."""
    env = dict(os.environ, PYTHONPATH=src)
    out = b""
    for argv in stages:
        proc = subprocess.run([python, "-m", "lcsplit.cli", *argv], input=out, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)
        out = proc.stdout
        if proc.returncode:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            return proc.returncode, out
    return 0, out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pythons", nargs="+", help="interpreter paths, the first one the reference")
    ap.add_argument("--src", default=os.path.join(ROOT, "src"), help="the lcsplit source to run")
    args = ap.parse_args(argv)
    ok = True
    for name, stages in CHECKS.items():
        outputs = []
        for python in args.pythons:
            code, out = run_check(python, os.path.abspath(args.src), stages)
            same = not outputs or out == outputs[0]
            outputs.append(out)
            ok &= code == 0 and same
            print(f"{name} | {python}: exit {code}, {len(out)} bytes, sha256 "
                  f"{hashlib.sha256(out).hexdigest()[:16]}{'' if same else ', DIFFERS from the first'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
