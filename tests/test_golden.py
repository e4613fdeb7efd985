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
        "f7c48eb102ff97745e0dc41d53d8709d21d244d23c73afd2ddc6d213bd2f52c2",
    "history.csv":
        "e6c1b82ba44578c511863029af56b4b240336a8f08154e062c39356bf48a2705",
    "iteration_losses.csv":
        "e3e9cece1020010b7e47446f7f9b24ebb9c83982b52e42a845e7dff3e05b426b",
    "atoms.csv":
        "4749844ea858f0cf4726c641453b611aa9339d79b22a27890a2a30156edc0ee6",
}
LOSS_STD_FRACTION_DIGEST = "1cab550363fbfb550c05abb5852315f2f81e40baf0205e6f3ea6d6fc9191911f"
ADV2D_DIGEST = "0b10f6daf8a53a24a706f7f802c4ede4039ff303f8e4aa6d754e3e2960a060d1"

# The work each golden run does: per iteration the atoms added, the cumulative
# full solves and the cumulative reduced solves; then the iteration count and
# the run's solve counts.  A change of linear solver moves the last bits of
# the floats but must leave these unchanged.
CLI_WORK = ([16, 4, 2], [17, 21, 23], [426, 626, 820], 3,
            {"full": 23, "sensitivity": 46, "stability": 0})
LOSS_STD_FRACTION_WORK = ([3, 0, 1, 1], [4, 4, 5, 6], [158, 278, 422, 564], 4,
                          {"full": 6, "sensitivity": 12, "stability": 0})
ADV2D_WORK = ([18, 17, 11, 9, 0], [19, 36, 47, 56, 56], [335, 556, 756, 933, 1053], 5,
              {"full": 56, "sensitivity": 168, "stability": 0})
# the shipped elast2d_layered smc section at nx 8, data and sampler seed 0:
# five terms, beta priors and the l2 loss
ELAST_DIGEST = "619633f7a6a41309c070d7726747d37469b60ef7a601bef0f989ec0500d51155"
ELAST_WORK = ([5, 7, 3, 13, 3, 9, 1, 13],
              [6, 13, 16, 29, 32, 41, 42, 55],
              [976, 2072, 2890, 4031, 4863, 5938, 6643, 7951], 8,
              {"full": 55, "sensitivity": 275, "stability": 0})
ELAST_CELL_BUILDS = 379
# cell basis builds of the adv2d golden run, as the bench counts them
ADV2D_CELL_BUILDS = 286
# the shipped elast2d_inclusion smc section at nx 8 with 40 particles, data
# and sampler seed 0: nine terms, a 94-atom cloud, more than the LU cache
# holds, and the cell builds
INCLUSION_DIGEST = "6261d0b7ff78d79da2546855688d5c24512cbf68b573cdf309bb3ce81fc7f699"
INCLUSION_WORK = ([29, 10, 7, 14, 11, 6, 6, 4, 6],
                  [30, 40, 47, 61, 72, 78, 84, 88, 94],
                  [693, 942, 1178, 1576, 1909, 2215, 2594, 3034, 3493], 9,
                  {"full": 94, "sensitivity": 846, "stability": 0})
INCLUSION_CELL_BUILDS = 580
# fixed-seed adv1d RWMH chain: sha256 of its samples, acceptance, full solves
RWMH_CHAIN = ("a6e4256c14d0461f9b8e4ebc61b394ef6662d59da08ee538fc18340244e373f7",
              0.085, 286)
# marginal_cdfs.csv of the tiny run-smc (seed 7), run-mcmc and oracle runs
CDF_DIGESTS = {
    "run-smc": "b5a5d472598797e947d9efb21f4b1f896c1a01309348ec86825ef8d34aae6817",
    "run-mcmc": "1d1ea1d79e49eb58fb116c3d96127702fec79b1f86752c46a7bdeae7057a6e56",
    "oracle": "20e47df9062dc112ed6eca065e8a98e82575785214eeedce7f758bc0d79e15c1",
}
# report.json of compare, the seed-7 and seed-8 runs against each kind of reference
REPORT_DIGESTS = {
    "oracle": "d7d18b4523517e25c40ea0a8b0049264100531a2ed92c5ecb7ce7b6f388fb152",
    "run-mcmc": "5aac7f776d1c6b99c9d691f07cf7dba0047649a849b22e6b1d230606854e7013",
    "run-smc": "22097262fa8be488a3efc05fa423178310d8537c47e2ccaddcbe808467af94b0",
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
    h = hashlib.sha256()
    for arr in (res.particles.points, res.particles.weights,
                *(rec.losses for rec in res.history),
                np.array([rec.reduced_solves for rec in res.history]),
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
    assert (builds, result.surrogate.n_atoms) == (ADV2D_CELL_BUILDS, 56)


def test_run_smc_elast_golden(elast_run):
    assert _result_digest(elast_run[0]) == ELAST_DIGEST


def test_run_smc_elast_work_golden(elast_run):
    result, builds = elast_run
    assert _work(result) == ELAST_WORK
    assert (builds, result.surrogate.n_atoms) == (ELAST_CELL_BUILDS, 55)


def test_run_smc_inclusion_golden(inclusion_run):
    assert _result_digest(inclusion_run[0]) == INCLUSION_DIGEST


def test_run_smc_inclusion_work_golden(inclusion_run):
    result, builds = inclusion_run
    assert _work(result) == INCLUSION_WORK
    assert (builds, result.surrogate.n_atoms) == (INCLUSION_CELL_BUILDS, 94)


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
BENCH_SMC_ADV1D = ("0b24438b2d29d9ba046b7a587b41c45744e1e13425ad73c8e9367aa08bfd6938",
                   ((9, 678, 45), (10, 697, 55), (10, 701, 55)))


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
