"""Benchmark for the ``lcsplit`` package.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload orbit-oracle --seed 1 --seconds 12 --trace 0

``run.py`` prints every metric by name with its unit and ends with one JSON
line.  ``workloads.py`` defines the four workloads and why each exists,
``reference.py`` holds the independent oracles the outputs are checked
against, ``tracer.py`` the span recorder of the traced run, and
``design.json`` the layer-to-metric map, the measurement limits and the
baseline numbers.  The benchmark's own tests run with
``python3 -m pytest perfbench/tests -q``.
"""
