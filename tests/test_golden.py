"""Golden digests of fixed-seed runs.

Refactors of the evaluation path must leave every artifact byte-identical;
a deliberate change of the numbers updates these digests and says why in
CHANGES.md.
"""

import hashlib

import numpy as np

from gibbsrb.cli import main
from gibbsrb.smc import SmcConfig, run_smc

from test_cli import TINY_SMC

CLI_DIGESTS = {
    "particles.csv":
        "f876c124d4682c47a370d7da2189a4984deae499533c0239883df1bcc6181404",
    "history.csv":
        "973da7829cc3e1881b044646c9ab43175a765e1b56ec21c27822ecf618f09372",
    "iteration_losses.csv":
        "89f638f5ad29cc0558a5175dd32b804d3e06f8a79b2257f32386b115a648ee89",
    "atoms.csv":
        "bfae205f6e37e2d4d6b34f5365ab63281e3ab328e87d3f7903696cd756ab698b",
}
SIGMA_MIN_DIGEST = "b28d9b6f723fcb46ea7d14a9ae04bb4a5c28b364915161b0e227b295d2dab7ad"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_run_smc_cli_artifacts_golden(tmp_path):
    config = tmp_path / "tiny.yaml"
    config.write_text(TINY_SMC)
    out = tmp_path / "run"
    assert main(["run-smc", "--config", str(config), "--seed", "7", "--out", str(out)]) == 0
    got = {name: _sha((out / name).read_bytes()) for name in CLI_DIGESTS}
    assert got == CLI_DIGESTS


def test_run_smc_sigma_min_loss_std_fraction_golden(adv1d_model, adv1d_obs):
    cfg = SmcConfig(particles=24, total_weight=6.0, seed=13, mutation_steps=3,
                    indicator="sigma_min", e_thre_mode="loss_std_fraction")
    res = run_smc(adv1d_model, adv1d_obs, cfg)
    h = hashlib.sha256()
    for arr in (res.particles.points, res.particles.weights,
                *(rec.losses for rec in res.history),
                np.array([rec.reduced_solves for rec in res.history]),
                np.array([rec.e_thre for rec in res.history]),
                res.surrogate.locations):
        h.update(np.ascontiguousarray(arr).tobytes())
    assert h.hexdigest() == SIGMA_MIN_DIGEST
