"""Golden digests of fixed-seed runs.

Refactors of the evaluation path must leave every artifact byte-identical;
a deliberate change of the numbers updates these digests and says why in
CHANGES.md.
"""

import csv
import hashlib
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gibbsrb import assemble, gen_data
from gibbsrb.cli import main
from gibbsrb.config import RunConfig, build_observations, resolve_total_weight
from gibbsrb.localrb import Surrogate
from gibbsrb.mcmc import run_rwmh
from gibbsrb.smc import SmcConfig, run_smc
from gibbsrb.weights import gaussian_reference

from test_cli import TINY_SMC

CLI_DIGESTS = {
    "particles.csv":
        "e3b2add3262ce0a875a878f8223938ffd03d5dec9082e4372711f9681786a263",
    "history.csv":
        "a585e0109d787d0ab98397278fe7f3490add844cfedd44b48aea2ba395830179",
    "iteration_losses.csv":
        "058587a98a0a07aa0b0b530a13d91e7df7cd00310d19698b1f9b353cc3448a75",
    "atoms.csv":
        "941c1b16868bd9faf8bf0e951a2beb0787465d45248446cc43caa1b6839f171a",
}
LOSS_STD_FRACTION_DIGEST = "03374bde1bb6e19680cded2946b4bf8ffa987607bbaaa9dfcb787abb746ceba6"
ADV2D_DIGEST = "cb70cbd00a8adbd24edf59ab321be903500673f033fd023f5b2f1ba9097d6d36"

# The work each golden run does: per iteration the atoms added, the cumulative
# full solves and the cumulative reduced solves; then the iteration count and
# the run's solve counts.  A change of linear solver moves the last bits of
# the floats but must leave these unchanged.
CLI_WORK = ([16, 2, 0], [17, 19, 19], [425, 588, 708], 3,
            {"full": 19, "sensitivity": 38, "stability": 0})
LOSS_STD_FRACTION_WORK = ([3, 2, 0], [4, 6, 6], [158, 302, 397], 3,
                          {"full": 6, "sensitivity": 12, "stability": 0})
ADV2D_WORK = ([18, 15, 13, 5, 5], [19, 34, 47, 52, 57], [339, 503, 670, 799, 926], 5,
              {"full": 57, "sensitivity": 171, "stability": 0})
# the shipped elast2d_layered smc section at nx 8, data and sampler seed 0:
# five terms, beta priors and the l2 loss
ELAST_DIGEST = "5d11d4f688a45cca2c5f8b945191fd997ce1392ef64c0710be95f311ac710eb4"
ELAST_WORK = ([5, 5, 1, 5, 6, 8, 8, 7],
              [6, 11, 12, 17, 23, 31, 39, 46],
              [946, 1752, 2344, 3049, 3895, 4889, 5905, 6697], 8,
              {"full": 46, "sensitivity": 230, "stability": 0})
ELAST_CELL_BUILDS = 262
# cell basis builds of the adv2d golden run, as the bench counts them
ADV2D_CELL_BUILDS = 255
# the shipped elast2d_inclusion smc section at nx 8 with 40 particles, data
# and sampler seed 0: nine terms, a 145-atom cloud, more than the LU cache
# holds, and the cell builds
INCLUSION_DIGEST = "d7d35a65c1c5b7cb4082923121c521f192db1a9765c155612eb9d3e4912ddbf4"
INCLUSION_WORK = ([29, 12, 10, 12, 8, 8, 22, 15, 16, 12],
                  [30, 42, 52, 64, 72, 80, 102, 117, 133, 145],
                  [684, 895, 1123, 1442, 1666, 1998, 2730, 3092, 3446, 3743], 10,
                  {"full": 145, "sensitivity": 1305, "stability": 0})
INCLUSION_CELL_BUILDS = 786
# fixed-seed adv1d RWMH chain: sha256 of its samples, acceptance, full solves
RWMH_CHAIN = ("a6e4256c14d0461f9b8e4ebc61b394ef6662d59da08ee538fc18340244e373f7",
              0.085, 286)
# marginal_cdfs.csv of the tiny run-smc (seed 7), run-mcmc and oracle runs
CDF_DIGESTS = {
    "run-smc": "4c4a32f71637e111989f8bcba1b6708b852dac9b345c022b9cc8b0ffadb5ef12",
    "run-mcmc": "1d1ea1d79e49eb58fb116c3d96127702fec79b1f86752c46a7bdeae7057a6e56",
    "oracle": "20e47df9062dc112ed6eca065e8a98e82575785214eeedce7f758bc0d79e15c1",
}
# select-weight on the tiny config at seed 2, the default grid: sha256 of
# weight_table.csv, then the manifest's w_final and w_opt
SELECT_WEIGHT = ("88b76684d05d87730933d568ff0b350cc01b6607342a698525a00876b6e55235",
                 19.968752946460683, 11.662657850045811)
# report.json of compare, the seed-7 and seed-8 runs against each kind of reference
REPORT_DIGESTS = {
    "oracle": "3fae04835ad65643b66eb7e212a73f96086e13ff489daf37bbb7aebfdf7f4e8a",
    "run-mcmc": "b427a079b0dde1ad43eb0e8259950ae358ef52b4e628da8e6084f3e27aee6baa",
    "run-smc": "20651adec985abd75979570ea8c9ac6cc16de9a3016f08673802cc31980ff3eb",
}
# the exact (full-solve) loss path, per preset: sha256 of model.loss at 32
# prior draws (generator seed 11, data seed 3, two data rows), then of
# solve_full and of observe at the first draw
EXACT_LOSS_DIGESTS = {
    ("adv1d", ("cells", 128)): (
        "43db7917e32a4dc7ccaf74252682a90891104a817261bceb09637788872a6cf1",
        "9b3d79fd3b1079e1b44e8fd594be2076e5e285d13484dc7de36ebcf10d880729",
        "477f2e6d7f5b6b86b67fa27cc0aff3e57e1423a374bd09a98053c14e4eb6d3eb"),
    ("adv2d", ("nx", 12)): (
        "eb1d88d30fd625f31ec3bd1abff4702bdfb9a020c801d34edc1755f37fc65d77",
        "7ee605ccea6ddb8fc4435994da7af1df0f57ec8519754e2f7ca79080edab80b4",
        "15297f8a4f6aa6ea512d324753f6c59936dd8a1d5136f52a928a98b4a48b8368"),
    ("elast2d_layered", ("nx", 8)): (
        "084fe37e1ebeec86c52f2464ded07725536c860ef25ee848d096c73482750f7b",
        "8b74c38900811761caae081c3cf9bdde43daf7da003e376161793758821a5ce8",
        "fb0fe662d0a64baba14f4c16b8c94c5d39d84ae83cdaf914c58fe5c698b648f3"),
    ("elast2d_inclusion", ("nx", 8)): (
        "1fafd8bb70f00ea71a5fd2c7d8a122ef04b7d17e80b9e585a0dc442a451a8cf3",
        "b06c990352bab0a93ac70bbc6c0a558f8676d6b4d140245ce01d59d10decbae3",
        "86c4b2d996a440b48e950f0eff4d3f8c06b1e98cabcde153bf6974bd6fa16148"),
    # 3 unknowns: the shortest tridiagonal storage a preset builds, whose
    # off-diagonals have 2 entries each; last, so the cases above keep
    # their ids
    ("adv1d", ("cells", 4)): (
        "0ffdcdec9e5767b53f8cdb62a22c579297263b6248f88eb546742ed4285129b2",
        "101347159bff8d8ab08e2109349e25c03f4c460ec38b4aab442d0ea95d412286",
        "93fadfe6419c186d4b41babe01dd00601bcd55821112487fa04bd49a900fb1ab"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@contextmanager
def counting_cell_builds():
    """Yield a list of the cells built inside the block, one entry per
    Surrogate._build_cell call, counted by a bare wrapper as
    bench/worker.py's count_cell_builds does."""
    original = Surrogate.__dict__["_build_cell"]
    tally = []

    def counted(self, k):
        tally.append(k)
        return original(self, k)
    Surrogate._build_cell = counted
    try:
        yield tally
    finally:
        Surrogate._build_cell = original


def _shipped_run(name: str, nx: int, **smc):
    """(result, cell builds) of run_smc on configs/<name>.yaml at mesh nx,
    data and sampler seed 0, with the smc keys ``smc`` overridden."""
    config = RunConfig.from_yaml(Path(__file__).parents[1] / "configs" / f"{name}.yaml")
    model = assemble(config.preset, {**config.mesh, "nx": nx})
    obs = build_observations(config, model, seed=0)
    cfg = SmcConfig(**{**config.smc.__dict__, **smc, "seed": 0,
                       "total_weight": resolve_total_weight(config, obs)})
    with counting_cell_builds() as tally:
        return run_smc(model, obs, cfg), len(tally)


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    config = tmp / "tiny.yaml"
    config.write_text(TINY_SMC)
    out = tmp / "run"
    assert main(["run-smc", "--config", str(config), "--seed", "7", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def reference_runs(cli_run):
    """{command: output directory}: one tiny run of each kind beside cli_run."""
    config = cli_run.parent / "tiny.yaml"
    dirs = {"run-smc": cli_run}
    for command, seed, flags in [("run-mcmc", 5, []), ("oracle", 7, ["--grid", "25"])]:
        dirs[command] = cli_run.parent / command
        assert main([command, "--config", str(config), "--seed", str(seed),
                     "--out", str(dirs[command]), *flags]) == 0
    for seed in (8, 9):
        assert main(["run-smc", "--config", str(config), "--seed", str(seed),
                     "--out", str(cli_run.parent / f"run{seed}")]) == 0
    return dirs


@pytest.mark.parametrize("command", list(CDF_DIGESTS))
def test_marginal_cdfs_golden(reference_runs, command):
    assert _sha((reference_runs[command] / "marginal_cdfs.csv").read_bytes()) \
        == CDF_DIGESTS[command]


@pytest.mark.parametrize("ref", list(REPORT_DIGESTS))
def test_compare_report_golden(reference_runs, ref):
    # the seed-9 run is the particle reference; the two compared runs give h_proxy
    root = reference_runs["run-smc"].parent
    ref_dir = root / "run9" if ref == "run-smc" else reference_runs[ref]
    out = root / f"compare-{ref}"
    assert main(["compare", "--run", str(root / "run"), "--run", str(root / "run8"),
                 "--ref", str(ref_dir), "--out", str(out)]) == 0
    assert _sha((out / "report.json").read_bytes()) == REPORT_DIGESTS[ref]


def test_select_weight_golden(cli_run):
    out = cli_run.parent / "select-weight"
    assert main(["select-weight", "--config", str(cli_run.parent / "tiny.yaml"),
                 "--seed", "2", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    got = (_sha((out / "weight_table.csv").read_bytes()), manifest["w_final"],
           manifest["w_opt"])
    assert got == SELECT_WEIGHT


def test_run_smc_cli_artifacts_golden(cli_run):
    got = {name: _sha((cli_run / name).read_bytes()) for name in CLI_DIGESTS}
    assert got == CLI_DIGESTS


def test_run_smc_cli_work_golden(cli_run):
    with (cli_run / "history.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    manifest = json.loads((cli_run / "manifest.json").read_text())
    got = tuple([int(r[k]) for r in rows] for k in ("atoms_added", "full_solves",
                                                     "reduced_solves"))
    assert got + (len(rows), manifest["solve_counts"]) == CLI_WORK


def _result_digest(res) -> str:
    """sha256 of the run's floats: the final cloud, the per-iteration losses
    and thresholds and the atom locations.  The work counts are _work's."""
    h = hashlib.sha256()
    for arr in (res.particles.points, res.particles.weights,
                *(rec.losses for rec in res.history),
                np.array([rec.e_thre for rec in res.history]),
                np.array([a.location for a in res.surrogate.atoms])):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _work(res) -> tuple:
    return ([rec.atoms_added for rec in res.history], [rec.full_solves for rec in res.history],
            [rec.reduced_solves for rec in res.history], len(res.history), res.solve_counts)


@pytest.fixture(scope="module")
def loss_std_fraction_run(adv1d_model, adv1d_obs):
    # the default e_thre_mode, which adv2d and both elast configs use
    cfg = SmcConfig(particles=24, total_weight=6.0, seed=13, mutation_steps=3,
                    e_thre_mode="loss_std_fraction")
    return run_smc(adv1d_model, adv1d_obs, cfg)


@pytest.fixture(scope="module")
def adv2d_run():
    """(result, cell builds)."""
    # two operator and two rhs terms, 18-column residual factors
    model = assemble("adv2d", {"nx": 12})
    obs = gen_data(model, noise_pct=0.10, n=2, seed=3)
    cfg = SmcConfig(particles=24, total_weight=6.0, seed=17, mutation_steps=3,
                    e_thre_mode="fixed", e_thre_value=1e-3)
    with counting_cell_builds() as tally:
        return run_smc(model, obs, cfg), len(tally)


@pytest.fixture(scope="module")
def elast_run():
    """(result, cell builds)."""
    return _shipped_run("elast2d_layered", 8)


@pytest.fixture(scope="module")
def inclusion_run():
    return _shipped_run("elast2d_inclusion", 8, particles=40)


def test_run_smc_loss_std_fraction_golden(loss_std_fraction_run):
    assert _result_digest(loss_std_fraction_run) == LOSS_STD_FRACTION_DIGEST


def test_run_smc_loss_std_fraction_work_golden(loss_std_fraction_run):
    assert _work(loss_std_fraction_run) == LOSS_STD_FRACTION_WORK


def test_run_smc_adv2d_calibrated_fixed_golden(adv2d_run):
    assert _result_digest(adv2d_run[0]) == ADV2D_DIGEST


def test_run_smc_adv2d_work_golden(adv2d_run):
    assert _work(adv2d_run[0]) == ADV2D_WORK


def test_run_smc_adv2d_cell_builds_golden(adv2d_run):
    result, builds = adv2d_run
    assert (builds, result.surrogate.n_atoms) == (ADV2D_CELL_BUILDS, 57)


def test_run_smc_elast_golden(elast_run):
    assert _result_digest(elast_run[0]) == ELAST_DIGEST


def test_run_smc_elast_work_golden(elast_run):
    result, builds = elast_run
    assert _work(result) == ELAST_WORK
    assert (builds, result.surrogate.n_atoms) == (ELAST_CELL_BUILDS, 46)


def test_run_smc_inclusion_golden(inclusion_run):
    assert _result_digest(inclusion_run[0]) == INCLUSION_DIGEST


def test_run_smc_inclusion_work_golden(inclusion_run):
    result, builds = inclusion_run
    assert _work(result) == INCLUSION_WORK
    assert (builds, result.surrogate.n_atoms) == (INCLUSION_CELL_BUILDS, 145)


def test_run_rwmh_chain_golden(adv1d_obs):
    # the proposals do not depend on the solver; a solver change moves the
    # chain only if it flips an accept decision
    model = assemble("adv1d", {"cells": 128})
    chain = run_rwmh(model, adv1d_obs, gaussian_reference(adv1d_obs.eps_std),
                     n_samples=300, burn_in=100, step_scale=0.2, seed=5)
    got = (_sha(chain.samples.tobytes()), chain.acceptance_rate, chain.full_solves)
    assert got == RWMH_CHAIN


@pytest.mark.parametrize("preset,mesh", list(EXACT_LOSS_DIGESTS))
def test_exact_loss_golden(preset, mesh):
    model = assemble(preset, dict([mesh]))
    obs = gen_data(model, noise_pct=0.10, n=2, seed=3)
    points = model.domain.sample(32, np.random.default_rng(11))
    losses = np.array([model.loss(xi, obs) for xi in points])
    u = model.solve_full(points[0])
    got = (_sha(losses.tobytes()), _sha(u.tobytes()), _sha(model.observe(u).tobytes()))
    assert got == EXACT_LOSS_DIGESTS[preset, mesh]


# the bench's smc-adv1d call shape: the shipped adv1d config (N = 12, so
# every cell spans all snapshots once there are 13 atoms), 20 particles,
# data seed 0, sampler seeds 0-2; sha256 of the three clouds' points and
# weights, then per call (full solves, reduced solves, cell builds)
BENCH_SMC_ADV1D = ("db7d1ab27ab92734a96d46f437708714a0a8ac589d2aea6915d93a4648a9d296",
                   ((9, 497, 45), (12, 680, 62), (11, 668, 58)))


def test_bench_smc_adv1d_shape_golden():
    config = RunConfig.from_yaml(Path(__file__).parents[1] / "configs" / "adv1d.yaml")
    model = assemble(config.preset, config.mesh)
    obs = build_observations(config, model, seed=0)
    weight = resolve_total_weight(config, obs)
    h, work = hashlib.sha256(), []
    with counting_cell_builds() as tally:
        for seed in range(3):
            builds = len(tally)
            cfg = SmcConfig(**{**config.smc.__dict__, "particles": 20, "seed": seed,
                               "total_weight": weight})
            res = run_smc(model, obs, cfg)
            h.update(res.particles.points.tobytes())
            h.update(res.particles.weights.tobytes())
            work.append((res.solve_counts["full"], res.surrogate.reduced_solves,
                         len(tally) - builds))
    assert (h.hexdigest(), tuple(work)) == BENCH_SMC_ADV1D
