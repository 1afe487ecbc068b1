import os
import subprocess
import sys

import numpy as np
import pytest

import facemark
from facemark.backbone import backbone_rows
from facemark.decoder import TINY, DecoderState
from facemark.io import write_bbox
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


def overflow_checkpoint(path):
    """A TINY checkpoint of finite values whose first offset head overflows:
    its hidden units read about 1e300 and two of them map to x with weights
    +-1e300, so every landmark's x coordinate is inf - inf = NaN from stage 1
    on; stage 0, the initial estimate, is finite.  (A NaN in the payload
    itself is rejected on load.)"""
    state = DecoderState.init(TINY)
    state.params["layers.0.head.b2"][:] = 1e300
    state.params["layers.0.head.w3"][:2, 0] = 1e300, -1e300
    state.save(path)


def non_finite_checkpoint(path, name, value):
    """A TINY checkpoint whose parameter `name` holds `value`, an inf or a
    NaN, in its first entry."""
    state = DecoderState.init(TINY)
    state.params[name].flat[0] = value
    state.save(path)


def inverted_box(data):
    """Give sample 1 of dataset `data` the box gen-data once wrote with
    data.bbox_enlarge=-5: its right and bottom edges lie left of and above
    its left and top."""
    write_bbox(data / "face_00001.bbox", (34.409109, 38.836426, -0.404867, -4.54839))
