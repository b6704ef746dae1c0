"""Benchmark package: the corebench suite plus two pytest benches.

``benchmarks/corebench/`` is the end-to-end and per-layer benchmark
(``python3 benchmarks/corebench/run.py``); ``bench_micro.py`` and
``bench_parallel.py`` measure the simulator's components and the batch
executor.  None of them checks a paper claim: ``corelite report`` does.
"""
