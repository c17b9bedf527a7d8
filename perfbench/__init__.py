"""Benchmark of the subgeneral package; run it with `python3 perfbench/run.py`."""
