"""Per-layer spans for the traced run, installed from outside ``src/``.

Each layer is a module of the library.  Its public functions are wrapped
where callers look them up: methods on their class, module functions in
the namespace of the module that calls them (``smc`` binds ``ess`` and
``reweight`` by ``from ... import``, so those are patched in ``smc``).
Two private functions are wrapped because they have no public entry
point yet: ``Surrogate._build_cell`` and ``smc._resolve_e_thre``.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Tracer, descendants, self_times

# name -> unit; every traced run reports all of them, 0 where a layer
# does not run on the workload
METRICS = {
    "domain.log_pdf.calls": "count", "domain.log_pdf.s": "s",
    "domain.log_pdf.out_of_support": "count",
    "model.solve_full.calls": "count", "model.solve_full.s": "s",
    "model.solve_sensitivity.calls": "count", "model.solve_sensitivity.s": "s",
    "model.operator_at.calls": "count", "model.operator_at.s": "s",
    "model.lu_factorizations": "count",
    "localrb.reduced_solve.calls": "count", "localrb.reduced_solve.s": "s",
    "localrb.reduced_solve.failures": "count",
    "localrb.surrogate_loss.calls": "count", "localrb.surrogate_loss.s": "s",
    "localrb.refine_over_particles.calls": "count",
    "localrb.refine_over_particles.s": "s",
    "localrb.refine_over_particles.self_s": "s",
    "localrb.add_atom.calls": "count", "localrb.add_atom.s": "s",
    "localrb.add_atom.self_s": "s",
    "localrb.cell_builds": "count", "localrb.build_cell.s": "s",
    "localrb.atoms": "count", "localrb.cell_builds_per_atom": "ratio",
    "localrb.lu_miss_ratio": "ratio",
    "smc.iterations": "count", "smc.mutate.s": "s", "smc.mutate.self_s": "s",
    "smc.mutate.proposals": "count", "smc.mutate.accept_ratio": "ratio",
    "smc.adapt_step.s": "s", "smc.resample.s": "s",
    "smc.replay_consistency.s": "s", "smc.resolve_e_thre.s": "s",
    "smc.resolve_e_thre.surrogate_calls": "count",
    "mcmc.run_rwmh.self_s": "s", "mcmc.accept_ratio": "ratio",
    "mcmc.out_of_support": "count",
    "setup.import.s": "s", "setup.assemble.s": "s", "setup.gen_data.s": "s",
}


def _count_nonfinite(span, args, kwargs, result):
    # imported here so that numpy's import stays inside the timed set-up
    import numpy as np
    span.attrs["nonfinite"] = int(np.count_nonzero(~np.isfinite(result)))


def _mutate_proposals(span, args, kwargs, result):
    particles, config = args[0], args[5]
    proposals = particles.m * config.mutation_steps
    span.attrs["proposals"] = proposals
    span.attrs["accepted"] = result[1] * proposals


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; ``tracer.restore()`` undoes it."""
    from gibbsrb import config, domain, localrb, mcmc, smc
    from gibbsrb.forward import model

    tracer.wrap(config, "assemble", "setup.assemble")
    tracer.wrap(config, "gen_data", "setup.gen_data")
    tracer.wrap(domain.ParameterDomain, "log_pdf", "domain.log_pdf",
                observe=_count_nonfinite)
    for name in ("solve_full", "solve_sensitivity", "operator_at"):
        tracer.wrap(model.ForwardModel, name, f"model.{name}")
    for name in ("reduced_solve", "surrogate_loss", "refine_over_particles",
                 "add_atom"):
        tracer.wrap(localrb.Surrogate, name, f"localrb.{name}")
    tracer.wrap(localrb.Surrogate, "_build_cell", "localrb.build_cell")
    tracer.patch_executor(localrb)
    tracer.patch_executor(smc)
    tracer.wrap(smc, "run_smc", "smc.run_smc")
    tracer.wrap(smc, "mutate", "smc.mutate", observe=_mutate_proposals)
    for name in ("adapt_step", "resample", "replay_consistency", "init_particles",
                 "empirical_moments", "ess", "reweight"):
        tracer.wrap(smc, name, f"smc.{name}")
    tracer.wrap(smc, "_resolve_e_thre", "smc.resolve_e_thre")
    tracer.wrap(mcmc, "run_rwmh", "mcmc.run_rwmh")


def metrics(tracer: Tracer, runs: list, setup_timings: dict) -> dict:
    """Per-layer numbers of the traced calls, from their span trees and
    records: totals over the calls, ratios of the totals.  Also the calls'
    summed duration and the least share of a call's duration that its
    summed self times cover."""
    spans = tracer.spans
    roots = [s for s in spans if s.parent is None
             and s.name in ("smc.run_smc", "mcmc.run_rwmh")]
    if len(roots) != len(runs):
        raise RuntimeError(f"expected {len(runs)} root calls, found {len(roots)}")
    trees = [[root] + descendants(spans, root.id) for root in roots]
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in (s for tree in trees for s in tree):
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def busy(name):
        return sum(s.duration for s in by_name[name])

    def self_s(name):
        return sum(own[s.id] for s in by_name[name])

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    def ratio(num, den):
        return num / den if den else 0.0

    def total(key):
        return sum(r.get(key, 0) for r in runs)

    setup_spans = {s.name: s.duration for s in spans if s.name.startswith("setup.")}
    e_thre_calls = sum(1 for s in by_name["smc.resolve_e_thre"]
                       for d in descendants(spans, s.id)
                       if d.name == "localrb.surrogate_loss")
    out = {
        "domain.log_pdf.calls": calls("domain.log_pdf"),
        "domain.log_pdf.s": busy("domain.log_pdf"),
        "domain.log_pdf.out_of_support": attr("domain.log_pdf", "nonfinite"),
        "model.lu_factorizations": total("lu_factorizations"),
        "localrb.reduced_solve.failures": sum(
            1 for s in by_name["localrb.reduced_solve"]
            if s.error == "BasisDegeneracyError"),
        "localrb.cell_builds": calls("localrb.build_cell"),
        "localrb.build_cell.s": busy("localrb.build_cell"),
        "localrb.atoms": total("atoms"),
        "localrb.cell_builds_per_atom": ratio(calls("localrb.build_cell"), total("atoms")),
        "localrb.lu_miss_ratio": ratio(total("lu_factorizations"),
                                       calls("localrb.build_cell")),
        "smc.iterations": calls("smc.mutate"),  # one mutation sweep per iteration
        "smc.mutate.proposals": attr("smc.mutate", "proposals"),
        "smc.mutate.accept_ratio": ratio(attr("smc.mutate", "accepted"),
                                         attr("smc.mutate", "proposals")),
        "smc.resolve_e_thre.surrogate_calls": e_thre_calls,
        "mcmc.run_rwmh.self_s": self_s("mcmc.run_rwmh"),
        # every chain makes as many proposals
        "mcmc.accept_ratio": ratio(total("acceptance_rate"), len(runs)),
        "mcmc.out_of_support": total("out_of_support"),
        "setup.import.s": setup_timings["import_s"],
        "setup.assemble.s": setup_spans.get("setup.assemble", 0.0),
        "setup.gen_data.s": setup_spans.get("setup.gen_data", 0.0),
    }
    for name in ("model.solve_full", "model.solve_sensitivity", "model.operator_at",
                 "localrb.reduced_solve", "localrb.surrogate_loss",
                 "localrb.refine_over_particles", "localrb.add_atom"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = busy(name)
    for name in ("localrb.refine_over_particles", "localrb.add_atom", "smc.mutate"):
        out[f"{name}.self_s"] = self_s(name)
    for name in ("smc.mutate", "smc.adapt_step", "smc.resample",
                 "smc.replay_consistency", "smc.resolve_e_thre"):
        out[f"{name}.s"] = busy(name)
    missing = set(METRICS) - set(out)
    if missing:
        raise RuntimeError(f"layer metrics not computed: {sorted(missing)}")
    # every instant of a call is some span's self time, so the sum is at
    # least the call's duration; overlapping worker threads add to it
    coverage = min(sum(own[s.id] for s in tree) / tree[0].duration for tree in trees)
    return {**{k: out[k] for k in METRICS},
            "trace.wall_s": sum(root.duration for root in roots),
            "trace.self_coverage": coverage}
