"""Tests of the benchmark's own machinery (tracer, wrappers, entry point).

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import layers  # noqa: E402
from spans import Span, Tracer, descendants, self_times, union_length  # noqa: E402


def test_union_length_merges_overlaps_and_gaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert union_length([(1, 1), (3, 2)]) == 0.0


def test_self_time_with_overlapping_worker_children():
    # root 0-10 on the main thread; a main-thread child 1-3; two children
    # from worker threads that overlap each other, 4-8 and 5-9; one of
    # them has a grandchild 6-7
    spans = [
        Span(1, "root", None, 0.0, 10.0, thread=1),
        Span(2, "a", 1, 1.0, 3.0, thread=1),
        Span(3, "b", 1, 4.0, 8.0, thread=2),
        Span(4, "c", 1, 5.0, 9.0, thread=3),
        Span(5, "d", 3, 6.0, 7.0, thread=2),
    ]
    own = self_times(spans)
    assert own == {1: 3.0, 2: 2.0, 3: 3.0, 4: 4.0, 5: 1.0}
    # summed self time exceeds the root's wall time by exactly the overlap
    assert sum(own.values()) - spans[0].duration == pytest.approx(3.0)
    assert {s.id for s in descendants(spans, 1)} == {2, 3, 4, 5}


def test_worker_thread_spans_parent_to_submitting_span():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work(i):
        barrier.wait()  # both workers inside their spans at once
        return i

    mod = types.ModuleType("fake")
    mod.ThreadPoolExecutor = ThreadPoolExecutor
    mod.work = work

    def refine():
        with mod.ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(mod.work, [0, 1]))

    mod.refine = refine
    tracer.patch_executor(mod)
    tracer.wrap(mod, "work", "work")
    tracer.wrap(mod, "refine", "refine")
    try:
        assert mod.refine() == [0, 1]
    finally:
        tracer.restore()
    refine = next(s for s in tracer.spans if s.name == "refine")
    workers = [s for s in tracer.spans if s.name == "work"]
    assert len(workers) == 2
    assert all(s.parent == refine.id for s in workers)
    assert all(s.thread != refine.thread for s in workers)
    assert workers[0].end > workers[1].start and workers[1].end > workers[0].start
    own = self_times(tracer.spans)
    assert own[refine.id] <= refine.duration - max(s.duration for s in workers) + 1e-9


def _wrapped_attributes():
    from gibbsrb import config, domain, localrb, mcmc, smc
    from gibbsrb.forward import model
    owners = (config, domain.ParameterDomain, model.ForwardModel, localrb.Surrogate,
              localrb, smc, mcmc)
    return {(owner, name): value for owner in owners
            for name, value in list(vars(owner).items())}


def test_wrappers_restore_originals():
    before = _wrapped_attributes()
    tracer = Tracer()
    layers.install(tracer)
    during = _wrapped_attributes()
    changed = {k for k in before if during[k] is not before[k]}
    assert len(changed) == len(tracer._patches) > 20
    tracer.restore()
    after = _wrapped_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_self_times_account_for_wall():
    import numpy as np
    from gibbsrb import assemble, gen_data, smc
    tracer = Tracer()
    layers.install(tracer)
    try:
        model = assemble("adv1d", {"cells": 32})
        data = gen_data(model, truth=np.array([0.2, 0.7]), noise_pct=0.1, seed=0)
        cfg = smc.SmcConfig(particles=20, total_weight=16.7, e_thre_mode="fixed",
                            e_thre_value=1e-3, mutation_steps=2, seed=0)
        c0 = model.counters.snapshot()
        result = smc.run_smc(model, data, cfg)
    finally:
        tracer.restore()
    counts = model.counters.snapshot()
    rec = {"lu_factorizations": counts["stability"] - c0["stability"],
           "atoms": result.surrogate.n_atoms, "iterations": result.iterations}
    out = layers.metrics(tracer, [rec], {"import_s": 0.0})
    assert set(layers.METRICS) | {"trace.wall_s", "trace.self_coverage"} == set(out)
    # every instant of the call is some span's self time; worker threads
    # can only add overlap on top
    assert 1.0 - 1e-9 <= out["trace.self_coverage"] < 1.25
    assert out["model.solve_full.calls"] == counts["full"] - c0["full"]
    assert out["localrb.add_atom.calls"] == result.surrogate.n_atoms
    assert out["smc.iterations"] == result.iterations
    assert out["smc.mutate.proposals"] == 20 * 2 * result.iterations
    assert out["mcmc.run_rwmh.self_s"] == 0


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "smc-adv1d",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
