import os
import subprocess
import sys

import numpy as np
import pytest

import facemark
from facemark.backbone import backbone_rows
from facemark.decoder import TINY, DecoderState
from facemark.params import draw
from facemark.training import SyntheticFaceSpec, gen_synthetic

TINY_SPEC = SyntheticFaceSpec(num_landmarks=5, image_side=32, blob_sigma=0.05)
# ModelConfig overrides of each model flavor
FLAVORS = {"basic": {}, "parallel": {"parallel": True},
           "no_self_attention": {"self_attention": False},
           "embedded_query_init": {"learned_query_init": False}}


@pytest.fixture(scope="session")
def tiny_batch():
    return gen_synthetic(TINY_SPEC, 2, 7)


@pytest.fixture(scope="session")
def tiny_state():
    return DecoderState.init(TINY, seed=0)


def jitter_params(state, seed=99, scale=0.02):
    """Copy of the state with noise added, so zero-initialized paths carry
    real gradients during finite-difference runs."""
    rng = np.random.default_rng(seed)
    params = {k: v + rng.normal(0.0, scale, v.shape) for k, v in state.params.items()}
    return DecoderState(state.config, params)


def backbone_params(rng, cfg):
    """The backbone's parameters, drawn from `rng` row by row as the
    model's init draws them."""
    return {path: draw(rng, shape, init) for path, shape, init in backbone_rows(cfg)}


def digests_at_one_and_two_blas_threads(script):
    """What `script` prints, run in a fresh interpreter at 1 and at 2
    OpenBLAS threads."""
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.path.dirname(os.path.dirname(facemark.__file__))}
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.strip())
    return digests
