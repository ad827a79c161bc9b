"""Run the CLI under several interpreters and compare what each prints.

``tests/test_python_floor.py`` only parses the source in the grammar of
the oldest Python that ``pyproject.toml`` admits.  This runs it: under each
interpreter given, with ``PYTHONPATH`` set to the source, it runs
``lcsplit verify --suite desk`` and two pipelines, one process per stage:
``gen cycle --params 7 | decompose | qasst induce --keep 1,2,3,4,5 |
reconstruct``, and ``gen repeater --params 6 | decompose | qasst extend
--kind false_twin --anchor 1 | reconstruct``, which takes pruning, the
kernel split search, replay and the extension step.  It prints one line
per interpreter and check, and exits 1 unless every run exits 0 and every
interpreter prints the same bytes for each check as the first one.

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
