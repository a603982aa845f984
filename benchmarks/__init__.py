"""Paper-artifact scripts (one per table/figure), two gate scripts, and the
benchmark harness (``benchmarks/harness`` — the only program that reports a timing)."""
