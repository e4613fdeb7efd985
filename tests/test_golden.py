"""Golden digests of fixed-seed runs.

Refactors of the evaluation path must leave every artifact byte-identical;
a deliberate change of the numbers updates these digests and says why in
CHANGES.md.
"""

import hashlib

import numpy as np

from gibbsrb import assemble, gen_data
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
LOSS_STD_FRACTION_DIGEST = "40ea7bf0bb143f6917aa22bb7f63b4b64f42391622d74d12117f9bf3866d4356"
ADV2D_DIGEST = "4427d1422d73e599193ca12d5ee0f37ef2f0f2323f3f7b616c184fc441585999"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_run_smc_cli_artifacts_golden(tmp_path):
    config = tmp_path / "tiny.yaml"
    config.write_text(TINY_SMC)
    out = tmp_path / "run"
    assert main(["run-smc", "--config", str(config), "--seed", "7", "--out", str(out)]) == 0
    got = {name: _sha((out / name).read_bytes()) for name in CLI_DIGESTS}
    assert got == CLI_DIGESTS


def _result_digest(res) -> str:
    h = hashlib.sha256()
    for arr in (res.particles.points, res.particles.weights,
                *(rec.losses for rec in res.history),
                np.array([rec.reduced_solves for rec in res.history]),
                np.array([rec.e_thre for rec in res.history]),
                res.surrogate.locations):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def test_run_smc_loss_std_fraction_golden(adv1d_model, adv1d_obs):
    # the default e_thre_mode, which adv2d and both elast configs use
    cfg = SmcConfig(particles=24, total_weight=6.0, seed=13, mutation_steps=3,
                    e_thre_mode="loss_std_fraction")
    assert _result_digest(run_smc(adv1d_model, adv1d_obs, cfg)) == LOSS_STD_FRACTION_DIGEST


def test_run_smc_adv2d_calibrated_fixed_golden():
    # two operator and two rhs terms, 18-column residual factors
    model = assemble("adv2d", {"nx": 12})
    obs = gen_data(model, noise_pct=0.10, n=2, seed=3)
    cfg = SmcConfig(particles=24, total_weight=6.0, seed=17, mutation_steps=3,
                    e_thre_mode="fixed", e_thre_value=1e-3)
    assert _result_digest(run_smc(model, obs, cfg)) == ADV2D_DIGEST
