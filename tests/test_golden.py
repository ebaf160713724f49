"""Golden SHA-256 digests of simulate output and of the demos' stdout.

Each simulate digest is of the CSV `cli.emit_csv` writes for one run,
recorded before the estimator sweep moved from a per-node loop to arrays.
The small runs cover branches the benchmark workloads never reach; the
reference-grid digests (every default grid cell, seeds 0-4) are checked by
AC-09 in test_acceptance.py, which already holds those records. The demo
digests were recorded while each potential whitewasher still had a record
object and the wave kept ready and parked sets, before every agent fact
became an array indexed by node id; `estimator_ground_truth.py` reaches
the closed-world check at three configs, growth included. The game-report
digests, of the largest game `cli.MAX_GAME_KAPPA` admits (kappa 7,
rounds 7), were recorded while the enumeration still built every
assignment's digits from its index. A digest that moves means the outputs
changed: find out why. Never re-record one to make a test pass.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from p2psim import cli, engine
from p2psim.engine import SimConfig

SMALL_RUNS = {
    "grants-off": (
        dict(n=200, iterations=60, growth_percent_per_10=5.0, r_ini_max0=0.0, r_ini_min=0.0,
             seed=1),
        "c0a67f7cd8d4a18fcf44b135a20161e0409ce11e8414e0b8ee0c88a5d253dd64",
    ),
    "window-1": (
        dict(n=300, iterations=80, window_n_prime=1, seed=2),
        "f9a524705cc1edc8eb039a442ad8df33836d44019ab5b51e270978c7fc2502b6",
    ),
    "attach-1": (
        dict(n=300, iterations=80, attach_edges=1, growth_percent_per_10=5.0, seed=3),
        "2e7eadfb3e46bde7798c1b7c99086c9a8dbd4c945f6778d9c0604fffd706be12",
    ),
    "newcomer-window-25": (
        dict(n=300, iterations=80, newcomer_window=25, growth_percent_per_10=5.0, seed=4),
        "9f6b8bb2b4dc6dbc25b5511026a169ee9949674c08afb01a6789cd0ccd932882",
    ),
    "growth-departures-noise": (
        dict(n=300, iterations=80, growth_percent_per_10=5.0, legit_departure_prob=0.01,
             gossip_noise=0.05, seed=5),
        "729d788ffbce5ee14ef159a9eb8220ab8c2c78972d1b9859136a64f68d28736f",
    ),
}

ROOT = Path(__file__).resolve().parent.parent

# demos/<name>.py -> digest of its stdout.
DEMO_DIGESTS = {
    "adaptive_defense": "2e7803e468243352fe4cb943d54f396097ce2e094661c98e2c83f381269b62ec",
    "estimator_ground_truth": "380bb5fbb86b0aabd42462cd14888d202b829a64ec9f12cb85244fd47b9f58db",
    "payoff_economics": "cbfdfb5634904527281fa7318b792848e7a6c23261e63ae007c65e1a7f1588d8",
    "timing_game": "93442a55c092fa1f88b098368ce23d0f0abf470172b23724bee3bc69f3a44840",
}

# game-report output file -> digest, at kappa 7 and rounds 7.
GAME_REPORT_DIGESTS = {
    "game_report.csv": "45eae562047b9e8505b809f1a6fc84d8e2c38bad7b91dc8a9d8f84a1d03a5c6f",
    "game_report.txt": "742981abfce6562e04df6191cb83e5e62147c21e89c665962287febe08b8e453",
}

# (grid cell id, seed) -> digest of that run's records.
GRID_DIGESTS = {
    ("growth_percent_per_10=0-n=1000-topology=scale_free", 0): "91bd6ba55e6fd930d8234a798ad4555fdad5f76675538665b0e0569f38b53400",
    ("growth_percent_per_10=0-n=1000-topology=scale_free", 1): "99230fc75df7232698b00e7726b8ba38744dba0c2003305b10e17a0004062860",
    ("growth_percent_per_10=0-n=1000-topology=scale_free", 2): "c8a58896a92df36367d01c3ad598cf08c8f59bf03969c2b0d685616a6e66aa11",
    ("growth_percent_per_10=0-n=1000-topology=scale_free", 3): "e07c729d02570f9bb568ea7a69bb092c24ba93c2030f60d59a0cf5b1228ce017",
    ("growth_percent_per_10=0-n=1000-topology=scale_free", 4): "e6e83f5ac72ea54e3e461f18ddb1724bcd5389a59f650549f2cc813f9ae247d1",
    ("growth_percent_per_10=2-n=1000-topology=scale_free", 0): "0bd6691d9b452646b57700a3e4e0c31d6d6dc02ed4995616834bda5c2605f6e7",
    ("growth_percent_per_10=2-n=1000-topology=scale_free", 1): "2c12b70e80b8b4ad085495bd87273b167dfc658b59bc9d31e7395a954b1d1fdb",
    ("growth_percent_per_10=2-n=1000-topology=scale_free", 2): "89fe6177edd5012707cd9f5a785a26f80a8d7e426f9291697bde6595781d8464",
    ("growth_percent_per_10=2-n=1000-topology=scale_free", 3): "10b258aa170934b8e10448f7c80f2012aefe9b645dd193ad92d7a0e7016f5486",
    ("growth_percent_per_10=2-n=1000-topology=scale_free", 4): "58b211f27525bc606e56943b0fdce9cf38efa83dea7de033a6873c6aa03fd035",
    ("growth_percent_per_10=5-n=1000-topology=scale_free", 0): "fac688217ce675f9bef1b046dd5672571b688772f2d864f0f356274ec255b053",
    ("growth_percent_per_10=5-n=1000-topology=scale_free", 1): "7ffd0c25cc06b49542f2dd8b44560661a323a54f3a7d5ee20ed69acd273fcdaa",
    ("growth_percent_per_10=5-n=1000-topology=scale_free", 2): "64e2d650da3bad2bacb28b196c7a968916db1f523bc5f28d41d9dbc16bd28d34",
    ("growth_percent_per_10=5-n=1000-topology=scale_free", 3): "dae12ba786c5123b27f8a224a0dcd7ced801f3b626e54706d82b1dfff5e49ef3",
    ("growth_percent_per_10=5-n=1000-topology=scale_free", 4): "7c24379dd45e2ad504395f25a72a8691ff39ade54e8de9c611fd8335a30d8f9c",
    ("growth_percent_per_10=8-n=1000-topology=scale_free", 0): "4bb10596775ed71a975d8c5e90a93cddc10e8b69e4d646ceae766041fd4fe84f",
    ("growth_percent_per_10=8-n=1000-topology=scale_free", 1): "89788785af4afaa47c8ca915ccd945fd9475a561e3e8cef39fac862ee710e74f",
    ("growth_percent_per_10=8-n=1000-topology=scale_free", 2): "24f5bc35d13cc84a0bf71875d0300abe99d1ade3a653a839c4ff0d74d1a36c68",
    ("growth_percent_per_10=8-n=1000-topology=scale_free", 3): "5622d00209f7e499fc91bcfc6159d93463810dbea1fe6e423582c5f4252f95de",
    ("growth_percent_per_10=8-n=1000-topology=scale_free", 4): "cd0d441c8eecd8df5b35a86256f44bcf214b56c4735a4e4656e65658a41bf938",
    ("growth_percent_per_10=0-n=1000-topology=regular", 0): "dc9e86de290dd1195c80bae25b47262d377f1a7587be3ec63785831a5877a8cc",
    ("growth_percent_per_10=0-n=1000-topology=regular", 1): "d12ba02fa050972fcba5f5e9503e962ed52f6cf6ebbdd5b41b3e81d0f00e96bd",
    ("growth_percent_per_10=0-n=1000-topology=regular", 2): "5b29c0eba9beea3ab6b51450f2b0c733cc5ea31a53dead50af3e2ce34843cb80",
    ("growth_percent_per_10=0-n=1000-topology=regular", 3): "e2045ec9c241ddaf2f5dba3b290e3069402d854a263e479c75420afbb5b8ee74",
    ("growth_percent_per_10=0-n=1000-topology=regular", 4): "9221f3c178e5849a57dd07944d3ff322c2b764f96cc6600c60e1bc327d67767e",
    ("growth_percent_per_10=0-n=5000-topology=regular", 0): "c0e1ad2d10a6754aa664f35d9c05b617abcb9f478946143c3006e494ef9efe94",
    ("growth_percent_per_10=0-n=5000-topology=regular", 1): "a9719760a260047e72f4370f6ac1948b6f1ca1454e3dcac6a84fe33745999570",
    ("growth_percent_per_10=0-n=5000-topology=regular", 2): "02c14301c76701003a4b28fa847f176c5908d6b3f6ebcd93bb8d0e79d8e765b4",
    ("growth_percent_per_10=0-n=5000-topology=regular", 3): "2b8b33428c31a316c8c81c396ee91eb082f96c7dfce2514cd9136b7a033d15a7",
    ("growth_percent_per_10=0-n=5000-topology=regular", 4): "251264397c490b2311b6fb61fb6685fd3e2066e386c0e3fc76884ad65858ee72",
    ("growth_percent_per_10=0-n=10000-topology=regular", 0): "365e7c4cb23846d86eadce717c00256d875d3cfa60f6c9e7a46242ee78fdd6a1",
    ("growth_percent_per_10=0-n=10000-topology=regular", 1): "2bccbdf8b464c188234b45ae32b9ce15cff7eacbe2facec23403ca5b6d1fd303",
    ("growth_percent_per_10=0-n=10000-topology=regular", 2): "0ba75a17966aea7f93d2630b1976a3a734356729b1db5b3a2ee77c3e3a120a2c",
    ("growth_percent_per_10=0-n=10000-topology=regular", 3): "40cd10f15bf68a58e9d68c19353d44518d7e0626a5b175e70499308af6f9cea6",
    ("growth_percent_per_10=0-n=10000-topology=regular", 4): "b36dd9dae3c35af1e4ff206b217f8d467360d594121b39fabd394a53d2e0f936",
}


def csv_digest(records, tmp_path) -> str:
    path = tmp_path / "run.csv"
    cli.emit_csv(records, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_small_run_digest(name, tmp_path):
    config, digest = SMALL_RUNS[name]
    assert csv_digest(engine.run(SimConfig(**config)), tmp_path) == digest


@pytest.mark.parametrize("name", sorted(p.stem for p in (ROOT / "demos").glob("*.py")))
def test_demo_stdout_digest(name):
    # A child process under -W error, as a user runs a demo from the repo;
    # a demo added without a digest fails here.
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / f"{name}.py")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, timeout=60, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]


def test_largest_game_report_digest(tmp_path):
    # The first size whose enumeration fixes three players per block; the
    # report prints the residual's rounding noise, which moves when the
    # order of the sums does.
    config = tmp_path / "game.json"
    config.write_text('{"kappa": 7, "rounds": 7}')
    out = tmp_path / "out"
    assert cli.main(["game-report", "--config", str(config), "--out", str(out), "--quiet"]) == 0
    for name, digest in GAME_REPORT_DIGESTS.items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
