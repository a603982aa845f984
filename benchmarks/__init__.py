"""The paper-artifact script (``bench_artifacts.py``), two gate scripts, and the
benchmark harness (``benchmarks/harness`` — the only program that reports a timing)."""
