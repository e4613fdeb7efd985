import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gibbsrb
from gibbsrb.cli import main
from gibbsrb.runio import read_csv
from gibbsrb.smc import HISTORY_COLUMNS, IterationRecord

from conftest import fresh_python

TINY_SMC = """
model: {preset: adv1d, mesh: {cells: 64}}
data: {truth: [0.2, 0.7], noise_pct: 0.10, n_obs: 1}
gibbs: {total_weight: 8.0}
smc:
  particles: 30
  e_thre_mode: fixed
  e_thre_value: 1.0e-3
  mutation_steps: 3
mcmc: {samples: 300, burn_in: 100, step_scale: 0.2}
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_SMC)
    return path


def read_csvs(out):
    """Every CSV in out as {name: (header, rows of floats)}; each data cell
    must parse with float() and all files must share one line terminator."""
    tables, terminators = {}, set()
    for path in sorted(out.glob("*.csv")):
        raw = path.read_bytes()
        crlf, lf = raw.count(b"\r\n"), raw.count(b"\n")
        terminators.add("\r\n" if crlf == lf else "\n" if crlf == 0 else "mixed")
        with path.open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert rows, path.name
        assert all(len(row) == len(header) for row in rows), path.name
        tables[path.name] = (header, [[float(v) for v in row] for row in rows])
    assert len(terminators) == 1, terminators
    return tables


def test_run_smc_artifacts(tiny_config, tmp_path):
    out = tmp_path / "run"
    rc = main(["run-smc", "--config", str(tiny_config), "--seed", "7",
               "--out", str(out)])
    assert rc == 0
    for name in ("particles.csv", "history.csv", "atoms.csv", "manifest.json",
                 "observations.csv", "marginal_cdfs.csv", "iteration_losses.csv",
                 "particles_iter_000.csv"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["status"] == "ok"
    assert manifest["final_weight"] == pytest.approx(8.0)
    assert manifest["solve_counts"]["full"] == manifest["atoms"]
    history_header, *history_rows = (out / "history.csv").read_text().splitlines()
    table = manifest["iteration_table"]
    assert len(table) == len(history_rows) > 0
    # the manifest's JSON sorts the keys
    assert all(sorted(row) == sorted(history_header.split(",")) for row in table)
    header = (out / "particles.csv").read_text().splitlines()[0]
    assert header == "xi_1,xi_2,weight,generation"


def test_history_schema_is_the_iteration_record(tiny_config, tmp_path):
    # history.csv's columns and the manifest's iteration_table keys are the
    # IterationRecord fields but the per-particle losses, in field order,
    # and both hold the same values
    fields = [f.name for f in dataclasses.fields(IterationRecord) if f.name != "losses"]
    assert list(HISTORY_COLUMNS) == fields
    out = tmp_path / "run"
    assert main(["run-smc", "--config", str(tiny_config), "--seed", "7",
                 "--out", str(out)]) == 0
    header, rows = read_csv(out / "history.csv")
    assert header == fields
    table = json.loads((out / "manifest.json").read_text())["iteration_table"]
    assert all(sorted(row) == sorted(fields) for row in table)  # the JSON sorts keys
    assert [[row[c] for c in fields] for row in table] == rows.tolist()


@pytest.mark.parametrize("limit,error,iterations", [
    ("atom_budget: 2", "AtomBudgetError", 0),
    ("max_iterations: 1", "SmcIterationError", 1),
])
def test_failed_run_smc_leaves_history_and_manifest(tmp_path, monkeypatch, limit, error,
                                                    iterations):
    # both limits are constants: the atom budget localrb.ATOM_BUDGET, the
    # iteration cap smc.MAX_ITERATIONS
    key, value = limit.split(": ")
    module, constant = {"atom_budget": ("localrb", "ATOM_BUDGET"),
                        "max_iterations": ("smc", "MAX_ITERATIONS")}[key]
    monkeypatch.setattr(f"gibbsrb.{module}.{constant}", int(value))
    config = tmp_path / "tiny.yaml"
    config.write_text(TINY_SMC)
    out = tmp_path / "run"
    rc = main(["run-smc", "--config", str(config), "--seed", "7", "--out", str(out)])
    assert rc != 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith(error + ": ")
    assert manifest["iterations"] == len(manifest["iteration_table"]) == iterations
    header, rows = read_csv(out / "history.csv")
    assert tuple(header) == HISTORY_COLUMNS and len(rows) == iterations
    assert [r["t"] for r in manifest["iteration_table"]] == list(range(1, iterations + 1))
    assert manifest["solve_counts"]["full"] >= 2
    assert not (out / "particles.csv").exists()


def test_run_smc_deterministic_across_threads(tiny_config, tmp_path):
    # the mutation chains run in lockstep on one thread; a rerun at the
    # same seed reproduces the particles byte for byte
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["run-smc", "--config", str(tiny_config), "--seed", "11",
          "--out", str(out1)])
    main(["run-smc", "--config", str(tiny_config), "--seed", "11",
          "--out", str(out2)])
    assert (out2 / "particles.csv").read_bytes() == (out1 / "particles.csv").read_bytes()


def test_run_smc_on_observations_from_csv(tiny_config, tmp_path):
    # data.csv, the path for measured data, reruns a run on the
    # observations.csv it wrote: the same data, posterior and history
    first, second = tmp_path / "generated", tmp_path / "loaded"
    assert main(["run-smc", "--config", str(tiny_config), "--seed", "7",
                 "--out", str(first)]) == 0
    generated = "data: {truth: [0.2, 0.7], noise_pct: 0.10, n_obs: 1}"
    assert generated in TINY_SMC
    config = tmp_path / "from_csv.yaml"
    config.write_text(TINY_SMC.replace(
        generated, f"data: {{csv: {json.dumps(str(first / 'observations.csv'))}}}"))
    assert main(["run-smc", "--config", str(config), "--seed", "7",
                 "--out", str(second)]) == 0
    for name in ("particles.csv", "history.csv", "atoms.csv", "observations.csv",
                 "observations.csv.meta.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def test_run_smc_verify_writes_bound_report(tiny_config, tmp_path):
    out = tmp_path / "run"
    rc = main(["run-smc", "--config", str(tiny_config), "--seed", "3",
               "--out", str(out), "--verify"])
    assert rc == 0
    report = json.loads((out / "bound_report.json").read_text())
    assert report["passed"] is True


def test_run_mcmc_artifacts(tiny_config, tmp_path):
    out = tmp_path / "chain"
    rc = main(["run-mcmc", "--config", str(tiny_config), "--seed", "5",
               "--out", str(out)])
    assert rc == 0
    assert (out / "chain.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "run-mcmc"
    assert manifest["full_solves"] > 0


def test_cli_pins_blas_threads(tiny_config, tmp_path):
    probe = fresh_python("-c", "import gibbsrb.runio as r; print(r.blas_threads())",
                         OPENBLAS_NUM_THREADS="2").strip()
    if probe == "None":
        pytest.skip("no OpenBLAS library found in the process")
    # the environment alone leaves OpenBLAS at 2 threads where 2 cores exist
    assert int(probe) == min(2, len(os.sched_getaffinity(0)))
    out = tmp_path / "chain"
    fresh_python("-m", "gibbsrb.cli", "run-mcmc", "--config", str(tiny_config), "--seed", "5",
                 "--out", str(out), OPENBLAS_NUM_THREADS="2")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["blas_threads"] == 1


RUN_MCMC_MODULES = """
import sys
from gibbsrb import cli
assert cli.main(["run-mcmc", "--config", sys.argv[1], "--seed", "5", "--out", sys.argv[2]]) == 0
print("loaded:", *sorted(name for name in sys.argv[3:] if name in sys.modules))
"""


def test_run_mcmc_leaves_the_surrogate_stack_unloaded(tiny_config, tmp_path):
    # run-mcmc runs no SMC, so the CLI must not import it for every command
    unused = ["gibbsrb.smc", "gibbsrb.localrb", "gibbsrb.weights", "concurrent.futures"]
    loaded = fresh_python("-c", RUN_MCMC_MODULES, str(tiny_config), str(tmp_path / "chain"),
                          *unused)
    assert (tmp_path / "chain" / "chain.csv").exists()
    assert loaded.splitlines()[-1] == "loaded:"


TINY_ELAST_MCMC = """
model: {preset: elast2d_layered, mesh: {nx: 5, obs_grid: 3}}
data: {noise_pct: 0.10, n_obs: 1}
gibbs: {total_weight: gaussian_reference}
mcmc: {samples: 20, burn_in: 5, step_scale: 0.05}
"""


def test_cli_pins_blas_threads_of_scipy_loaded_later(tmp_path):
    # elast's beta priors load scipy, and with it scipy's own OpenBLAS,
    # after main has pinned the threads of the one numpy loaded
    config, out = tmp_path / "elast.yaml", tmp_path / "chain"
    config.write_text(TINY_ELAST_MCMC)
    fresh_python("-m", "gibbsrb.cli", "run-mcmc", "--config", str(config), "--seed", "5",
                 "--out", str(out), OPENBLAS_NUM_THREADS="2")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["band_lu_routines"] == "dgb"  # elast's band is wider than 1
    if manifest["blas_threads"] is None:
        pytest.skip("no OpenBLAS library found in the process")
    assert manifest["blas_threads"] == 1


def test_manifest_records_versions_and_band_lu_binding(tiny_config, tmp_path):
    out = tmp_path / "chain"
    assert main(["run-mcmc", "--config", str(tiny_config), "--seed", "5",
                 "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    import scipy
    assert manifest["numpy_version"] == np.__version__
    assert manifest["scipy_version"] == scipy.__version__
    # one binding per process, whatever was imported first
    from gibbsrb.forward.bandlu import _ilp64_routines
    expected = "scipy.linalg.lapack" if _ilp64_routines() is None else "openblas-ilp64"
    assert manifest["band_lu"] == expected
    # the tiny adv1d config's operator is tridiagonal
    assert manifest["band_lu_routines"] == "dgt"


def test_oracle_and_compare(tiny_config, tmp_path):
    run_dir = tmp_path / "run"
    oracle_dir = tmp_path / "oracle"
    cmp_dir = tmp_path / "cmp"
    main(["run-smc", "--config", str(tiny_config), "--seed", "1",
          "--out", str(run_dir)])
    rc = main(["oracle", "--config", str(tiny_config), "--seed", "1",
               "--grid", "25x25", "--out", str(oracle_dir)])
    assert rc == 0
    tables = read_csvs(oracle_dir)
    assert set(tables) == {"marginal_cdfs.csv", "density.csv"}
    assert tables["density.csv"][0] == ["xi_1", "xi_2", "density"]
    assert len(tables["density.csv"][1]) == 25 * 25

    rc = main(["compare", "--run", str(run_dir), "--ref", str(oracle_dir),
               "--out", str(cmp_dir)])
    assert rc == 0
    report = json.loads((cmp_dir / "report.json").read_text())
    assert set(report["ks_median"]) == {"xi_1", "xi_2"}
    assert all(0.0 <= v <= 1.0 for v in report["ks_median"].values())


@pytest.mark.parametrize("grid,axis", [("1", "xi_1"), ("25x1", "xi_2")])
def test_oracle_grid_flag_of_one_node_rejected(tiny_config, tmp_path, grid, axis):
    with pytest.raises(ValueError, match=f"grid axis {axis} needs at least 2 nodes"):
        main(["oracle", "--config", str(tiny_config), "--grid", grid,
              "--out", str(tmp_path / "oracle")])
    assert not (tmp_path / "oracle" / "manifest.json").exists()


@pytest.mark.parametrize("grid", ["abc", "60x"])
def test_oracle_malformed_grid_flag_exits_at_parse(tiny_config, tmp_path, capsys, grid):
    # a grid that is not integers joined by x failed with int()'s ValueError
    # once the model was built and --out made
    with pytest.raises(SystemExit) as exit_info:
        main(["oracle", "--config", str(tiny_config), "--grid", grid,
              "--out", str(tmp_path / "oracle")])
    assert exit_info.value.code == 2
    assert "--grid: expected integers joined by x" in capsys.readouterr().err
    assert not (tmp_path / "oracle").exists()


def _tiny_runs(tiny_config, tmp_path, seeds=(1, 2)):
    """(run-smc directories, their particle sets) of the tiny config."""
    from gibbsrb.particles import ParticleSet

    run_dirs = [tmp_path / f"run{seed}" for seed in seeds]
    for seed, run_dir in zip(seeds, run_dirs):
        main(["run-smc", "--config", str(tiny_config), "--seed", str(seed),
              "--out", str(run_dir)])
    return run_dirs, [ParticleSet.from_csv(d / "particles.csv") for d in run_dirs]


def _compare(run_dirs, ref_dir, out):
    assert main(["compare", *[a for d in run_dirs for a in ("--run", str(d))],
                 "--ref", str(ref_dir), "--out", str(out)]) == 0
    return json.loads((out / "report.json").read_text())


def _tiny_model(tiny_config, seed):
    """(config, model, observations, total weight) as the CLI builds them."""
    from gibbsrb.config import RunConfig, build_model, build_observations, resolve_total_weight

    config = RunConfig.from_yaml(tiny_config)
    model = build_model(config)
    obs = build_observations(config, model, seed)
    return config, model, obs, resolve_total_weight(config, obs)


def test_compare_oracle_ks_matches_grid_posterior(tiny_config, tmp_path):
    # compare reads the oracle back as a GridPosterior; the KS it reports
    # must be the one ks_distance gives against the GridPosterior in memory
    from gibbsrb.diagnostics import ks_distance
    from gibbsrb.oracle import grid_posterior

    run_dirs, runs = _tiny_runs(tiny_config, tmp_path)
    main(["oracle", "--config", str(tiny_config), "--seed", "1", "--grid", "25x25",
          "--out", str(tmp_path / "oracle")])
    report = _compare(run_dirs, tmp_path / "oracle", tmp_path / "cmp")

    _, model, obs, weight = _tiny_model(tiny_config, 1)
    grid = grid_posterior(model, model.domain, weight, (25, 25), obs)
    for j in range(model.dim):
        assert report["ks_per_run"][f"xi_{j + 1}"] == [ks_distance(run, grid, j) for run in runs]
    assert report["h_proxy"] > 0.0


def test_compare_mcmc_ks_matches_equal_weight_chain(tiny_config, tmp_path):
    # a chain reference is its samples, each weighted 1/n
    from gibbsrb.diagnostics import ks_distance
    from gibbsrb.mcmc import run_rwmh
    from gibbsrb.particles import ParticleSet

    run_dirs, runs = _tiny_runs(tiny_config, tmp_path)
    main(["run-mcmc", "--config", str(tiny_config), "--seed", "5",
          "--out", str(tmp_path / "mcmc")])
    report = _compare(run_dirs, tmp_path / "mcmc", tmp_path / "cmp")

    config, model, obs, weight = _tiny_model(tiny_config, 5)
    chain = run_rwmh(model, obs, weight, n_samples=config.mcmc.samples,
                     burn_in=config.mcmc.burn_in, step_scale=config.mcmc.step_scale, seed=5)
    samples = ParticleSet.equal_weight(chain.samples)
    for j in range(model.dim):
        assert report["ks_per_run"][f"xi_{j + 1}"] == [ks_distance(run, samples, j)
                                                      for run in runs]
    assert report["h_proxy"] > 0.0


def test_compare_smc_reference_reports_h_proxy(tiny_config, tmp_path):
    run_dirs, _ = _tiny_runs(tiny_config, tmp_path, seeds=(1, 2, 3))
    report = _compare(run_dirs[:2], run_dirs[2], tmp_path / "cmp")
    assert report["h_proxy"] > 0.0


def _compare_exit_message(run_dir, ref_dir, out) -> str:
    """The one line compare exits with: a string code, which Python prints
    to stderr with exit status 1."""
    with pytest.raises(SystemExit) as exit_info:
        main(["compare", "--run", str(run_dir), "--ref", str(ref_dir), "--out", str(out)])
    message = exit_info.value.code
    assert isinstance(message, str) and "\n" not in message
    assert not out.exists()
    return message


@pytest.mark.parametrize("kind", ["select-weight", "failed-run-smc"])
def test_compare_ref_without_a_distribution_exits_with_one_line(tiny_config, tmp_path,
                                                                monkeypatch, kind):
    # such a directory used to end in a FileNotFoundError traceback on particles.csv
    run_dirs, _ = _tiny_runs(tiny_config, tmp_path, seeds=(1,))
    ref = tmp_path / kind
    if kind == "select-weight":
        monkeypatch.setattr("gibbsrb.weights.RANGE_FACTOR", 5.0)
        monkeypatch.setattr("gibbsrb.weights.GRID_SIZE", 4)
        assert main(["select-weight", "--config", str(tiny_config), "--out", str(ref)]) == 0
    else:
        monkeypatch.setattr("gibbsrb.localrb.ATOM_BUDGET", 2)
        assert main(["run-smc", "--config", str(tiny_config), "--out", str(ref)]) != 0
    message = _compare_exit_message(run_dirs[0], ref, tmp_path / "cmp")
    assert str(ref) in message and repr(kind.removeprefix("failed-")) in message


@pytest.mark.parametrize("flag", ["--run", "--ref"])
def test_compare_dir_without_a_manifest_exits_with_one_line(tiny_config, tmp_path, flag):
    # such a directory used to end in a FileNotFoundError traceback
    run_dirs, _ = _tiny_runs(tiny_config, tmp_path, seeds=(1,))
    empty = tmp_path / "empty"
    empty.mkdir()
    dirs = {"--run": run_dirs[0], "--ref": run_dirs[0], flag: empty}
    message = _compare_exit_message(dirs["--run"], dirs["--ref"], tmp_path / "cmp")
    assert message.startswith(f"compare: {flag} {empty} holds no ")
    assert message.endswith("no manifest.json")


def test_compare_run_without_a_particle_set_exits_with_one_line(tiny_config, tmp_path):
    # an oracle directory given to --run used to end in a FileNotFoundError
    # traceback on particles.csv
    run_dirs, _ = _tiny_runs(tiny_config, tmp_path, seeds=(1,))
    oracle = tmp_path / "oracle"
    assert main(["oracle", "--config", str(tiny_config), "--grid", "9x9",
                 "--out", str(oracle)]) == 0
    message = _compare_exit_message(oracle, run_dirs[0], tmp_path / "cmp")
    assert message == (f"compare: --run {oracle} holds no particle set; "
                       "its manifest records command 'oracle'")


def test_compare_two_runs(tiny_config, tmp_path):
    a, b, cmp_dir = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    main(["run-smc", "--config", str(tiny_config), "--seed", "21",
          "--out", str(a)])
    main(["run-smc", "--config", str(tiny_config), "--seed", "22",
          "--out", str(b)])
    rc = main(["compare", "--run", str(a), "--ref", str(b), "--out", str(cmp_dir)])
    assert rc == 0


def test_select_weight_cli(tiny_config, tmp_path, monkeypatch):
    # a short grid keeps the run small
    monkeypatch.setattr("gibbsrb.weights.RANGE_FACTOR", 5.0)
    monkeypatch.setattr("gibbsrb.weights.GRID_SIZE", 4)
    out = tmp_path / "wsel"
    rc = main(["select-weight", "--config", str(tiny_config), "--seed", "2",
               "--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["w_final"] > 0
    header, rows = read_csvs(out)["weight_table.csv"]
    assert header == ["weight", "objective"]
    assert len(rows) >= 4
    # ties go to the smaller weight, as in select_weight
    assert min(rows, key=lambda r: r[1])[0] == manifest["w_opt"]


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert gibbsrb.__version__ == pyproject["project"]["version"]


def test_shipped_configs_parse():
    from gibbsrb.config import RunConfig

    for name in ("adv1d", "adv2d", "elast2d_layered", "elast2d_inclusion"):
        cfg = RunConfig.from_yaml(Path(__file__).parent.parent / "configs" / f"{name}.yaml")
        assert cfg.smc.particles == 100
        assert cfg.digest()


def test_readme_config_table_matches_schema():
    # README's key table names every key of the schema and no other, and its
    # model.mesh row every mesh size of every preset
    from gibbsrb.config import _SECTIONS
    from gibbsrb.forward.presets import MESH_SIZES

    text = (Path(__file__).parents[1] / "README.md").read_text()
    table = text.split("| key | meaning |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines():
        names, meaning = line.strip("|").split("|", 1)
        for name in re.findall(r"`([a-z_]+\.[a-z_]+)`", names):
            rows[name] = meaning
    assert set(rows) == {f"{section}.{key}" for section, keys in _SECTIONS.items()
                         for key in keys}
    sizes = {key for preset in MESH_SIZES.values() for key in preset}
    assert sizes <= set(re.findall(r"`([a-z_]+)`", rows["model.mesh"]))


def test_stale_indicator_key_rejected():
    # smc.indicator, smc.resampling and smc.e_thre_floor are no longer
    # options, and smc.proposal_mixing, smc.atom_budget and the
    # weight_selection and oracle sections became module constants; a config
    # that still sets one must fail rather than silently run without it,
    # with the ValueError of any other unknown key, at the value it once took
    from gibbsrb.config import RunConfig

    for key, value in [("indicator", "sigma_min"), ("resampling", "systematic"),
                       ("e_thre_floor", 1e-6), ("proposal_mixing", 0.5),
                       ("atom_budget", 2000)]:
        with pytest.raises(ValueError, match=f"unknown config key smc.{key};"):
            RunConfig.from_dict({"smc": {key: value}})
    for section, keys in [("weight_selection", {"range_factor": 50.0}),
                          ("weight_selection", {"stabilizer": 10.0}),
                          ("weight_selection", {"grid_size": 20}),
                          ("oracle", {"grid": 60}), ("oracle", {})]:
        with pytest.raises(ValueError, match=f"unknown config key {section};"):
            RunConfig.from_dict({section: keys})


@pytest.mark.parametrize("raw,key", [
    ({"gibbs": {"total_weigth": 3.0}}, "gibbs.total_weigth"),
    ({"smcc": {"particles": 5}}, "smcc"),
    ({"oracle": {"grids": 2}}, "oracle"),
    ({"model": {"preset": "adv1d", "meshes": {"cells": 8}}}, "model.meshes"),
    ({"gibbs": {"total_weigth": 3.0}, "smcc": {"particles": 5},
      "oracle": {"grids": 2}}, "smcc"),
    ({"model": {"preset": "adv1d", "mesh": {"nu": 0.1}}}, "model.mesh.nu"),
    ({"model": {"preset": "adv2d", "mesh": {"nxx": 8}}}, "model.mesh.nxx"),
    ({"model": {"preset": "adv1d", "mesh": {"nx": 8}}}, "model.mesh.nx"),
    ({"smc": {"total_weight": 5.0}}, "smc.total_weight"),
    ({"data": {"noise": 0.1}}, "data.noise"),
    ({"smc": {"particle": 5}}, "smc.particle"),
    ({"mcmc": {"sample": 5}}, "mcmc.sample"),
    ({"weight_selection": {"grid": 5}}, "weight_selection")])
def test_unknown_config_key_rejected(raw, key):
    # before the check each of these parsed without a word to the default
    # it meant to change: gaussian_reference, 100 particles, grid 60; a
    # mesh key failed in assemble, and smc.total_weight was overridden by
    # every command; a dataclass section raised a TypeError
    from gibbsrb.config import RunConfig

    with pytest.raises(ValueError, match=f"unknown config key {key};"):
        RunConfig.from_dict(raw)


@pytest.mark.parametrize("raw", [{"data": None}, {"smc": None}, {"model": [1]}])
def test_config_section_must_be_a_mapping(raw):
    # an empty YAML section is null; it failed with an AttributeError or a
    # TypeError that named no section
    from gibbsrb.config import RunConfig

    with pytest.raises(ValueError, match=f"config section {next(iter(raw))} must be a mapping"):
        RunConfig.from_dict(raw)


def test_every_config_parses_and_round_trips():
    # the shipped configs, the test configs and each one's to_dict
    import yaml

    from gibbsrb.config import RunConfig

    texts = [path.read_text() for path in
             sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))]
    for text in texts + [TINY_SMC, TINY_ELAST_MCMC]:
        cfg = RunConfig.from_dict(yaml.safe_load(text))
        assert RunConfig.from_dict(cfg.to_dict()).digest() == cfg.digest()


@pytest.mark.parametrize("section,key,value", [
    ("mcmc", "samples", 0), ("mcmc", "samples", 1), ("mcmc", "burn_in", -1),
    ("mcmc", "step_scale", 0.0), ("mcmc", "step_scale", -1.0)])
def test_bad_mcmc_and_oracle_values_rejected_at_parse(section, key, value):
    # before the check, samples 0 ran the whole chain and then divided by
    # zero in marginal_cdf; one sample is no ParticleSet, which needs two;
    # the oracle's grid is a flag, checked in
    # test_oracle_grid_flag_of_one_node_rejected
    from gibbsrb.config import RunConfig

    with pytest.raises(ValueError, match=key):
        RunConfig.from_dict({section: {key: value}})
    RunConfig.from_dict({"mcmc": {"samples": 2, "burn_in": 0, "step_scale": 1e-3}})


def test_sweep_neighbors_script_table(capsys):
    import importlib.util

    root = Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location(
        "sweep_neighbors", root / "scripts" / "sweep_neighbors.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main(["--config", str(root / "configs" / "adv1d.yaml"), "--mesh", "cells=32",
                       "--neighbors", "2", "5", "--seeds", "0", "--particles", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "10 particles" in lines[0] and "oracle grid 60" in lines[0]
    header = [c.strip() for c in lines[1].strip("|").split("|")]
    assert header == ["N", "atoms", "full solves", "cell builds", "wall s (median)",
                      "xi_1 mean ± std", "xi_2 mean ± std", "KS xi_1", "KS xi_2"]
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in lines[3:]]
    assert [row[0] for row in rows] == ["2", "5"]
    for row in rows:
        assert len(row) == len(header)
        atoms, full = float(row[1].split()[0]), float(row[2].split()[0])
        assert atoms >= 1 and full == atoms  # one full solve per atom insertion
        assert all(0.0 <= float(ks) <= 1.0 for ks in row[-2:])


def _pair_calls_records():
    """(scripts/pair_calls.py as a module, one hand-made call record, pairs
    of records: equal but for time, then each with one key changed on the
    B side, then equal again)."""
    import importlib.util

    root = Path(__file__).parents[1]
    spec = importlib.util.spec_from_file_location("pair_calls", root / "scripts" / "pair_calls.py")
    pair_calls = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pair_calls)
    rec = {"wall_s": 1.0, "digest": "ab", "full_solves": 3, "iterations": 4,
           "reduced_solves": 50, "cell_builds": 20, "lu_factorizations": 2}
    pairs = [(rec, {**rec, "wall_s": 2.0})]  # time may differ, work may not
    pairs += [(rec, {**rec, key: value}) for key, value in [
        ("digest", "ac"), ("full_solves", 4), ("iterations", 5), ("reduced_solves", 49),
        ("cell_builds", 21), ("lu_factorizations", 3)]]
    pairs.append(({**rec, "wall_s": 0.5}, rec))
    return pair_calls, rec, pairs


def test_pair_calls_unequal_calls_rule():
    pair_calls, _, pairs = _pair_calls_records()
    assert pair_calls.unequal_calls(pairs) == [1, 2, 3, 4, 5, 6]
    assert pair_calls.unequal_calls(pairs[:1] + pairs[-1:]) == []


def test_pair_calls_exit_status_rule():
    # a work count that differs exits 1, with or without a digest that
    # does; digests alone exit 2, floats moved and work kept; equal calls,
    # however timed, exit 0
    pair_calls, rec, pairs = _pair_calls_records()
    assert pair_calls.exit_status(pairs) == 1
    for i in range(2, 7):
        assert pair_calls.exit_status(pairs[:1] + pairs[i:i + 1]) == 1
    assert pair_calls.exit_status([(rec, {**rec, "digest": "ac", "full_solves": 4})]) == 1
    assert pair_calls.exit_status(pairs[:2] + pairs[-1:]) == 2
    assert pair_calls.exit_status(pairs[:1] + pairs[-1:]) == 0


def test_pair_calls_script_same_checkout_twice():
    root = Path(__file__).parents[1]
    done = subprocess.run([sys.executable, str(root / "scripts" / "pair_calls.py"), str(root),
                           str(root), "--workload", "rwmh-adv1d", "--calls", "4"],
                          capture_output=True, text=True, check=True, timeout=300)
    lines = done.stdout.splitlines()
    assert lines[0] == "rwmh-adv1d: 4 calls per side, seeds 0-3"
    assert lines[3].startswith("B / A per call: median ")
    # one pair of workers serves the four calls; each reports its set-up time
    assert re.fullmatch(r"setup_s median over 1 worker starts per side: "
                        r"A \d+\.\d{4} s, B \d+\.\d{4} s", lines[6])
    # the same calls on both sides do the same work; a chain builds no cell
    assert re.match(r"mean per call, A / B: reduced solves 0\.00 / 0\.00, "
                    r"cell builds 0\.00 / 0\.00, ", lines[-4])
    assert re.fullmatch(r"mean per call, A / B: full solves (\d+\.\d\d) / \1, "
                        r"iterations 200\.00 / 200\.00", lines[-3])
    assert lines[-2:] == ["work counts equal: 4 of 4", "digests equal: 4 of 4"]
