"""Golden digests of a fixed-seed train-then-sample run.

Any change to the output bits of training or sampling moves one of these
digests, so it has to be made on purpose and recorded, with its cause and
the new values, in CHANGES.md. Unlike the init digest in test_model, these
pass through BLAS products, whose summation order is the BLAS build's own:
the values were recorded with numpy 2.4 on OpenBLAS 0.3.31.
"""

import hashlib

import numpy as np

from foleyflow import container, metrics
from foleyflow.cli import main
from foleyflow.model import TwoTowerModel

GOLDEN = {
    "stage1.ckpt": "cff796d6c381d54a3b6a3c60f89a709b2077bcad3238249d0e486f32cab41571",
    "stage2.ckpt": "1036d9abab2e2e6e835bee8a7d7fcd6fbb41826a3f952be0a6ecd1c81433a19f",
    "stage3.ckpt": "d26dcc7a71fe898d3df8b37f95bd5bb29f8e696b6e84ae7c6bc25fbcc57285df",
    "events.log": "81bce18182e10f4160c67590e946d607b99ef731e967d645710086005947735d",
    "latent": "311240abf20a761dfed9fa28b700693974e6b421c48168ba9d2afa5f3d77b04e",
}


def _arrays_digest(arrays: dict) -> str:
    digest = hashlib.sha256()
    for name, arr in arrays.items():
        digest.update(name.encode("utf-8"))
        digest.update(repr(arr.shape).encode("utf-8"))
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_train_and_sample_outputs_pinned(tmp_path, capsys):
    run = tmp_path / "run"
    argv = ["train", "--stages", "1,2,3", "--steps", "2,2,2", "--batch-size", "4", "--seed", "11", "--out", str(run)]
    assert main(argv) == 0
    latent_path = tmp_path / "gen.ysnd"
    argv = ["sample", "--checkpoint", str(run / "stage3.ckpt"), "--out", str(latent_path), "--text", "glass shatters",
            "--video", "clip-7", "--nfe", "8", "--guidance", "2.0", "--seed", "3"]
    assert main(argv) == 0
    capsys.readouterr()

    got = {f"stage{i}.ckpt": _arrays_digest(TwoTowerModel.load(str(run / f"stage{i}.ckpt")).state_arrays())
           for i in (1, 2, 3)}
    got["events.log"] = hashlib.sha256((run / "events.log").read_bytes()).hexdigest()
    latent = container.read_latents(str(latent_path))[metrics.LATENT_RECORD]
    got["latent"] = _arrays_digest({metrics.LATENT_RECORD: latent})
    assert got == GOLDEN
