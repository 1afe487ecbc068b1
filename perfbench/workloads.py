"""The three benchmark workloads: how each sets up its inputs, what one
operation is, how its outputs are checked and how its model is evaluated.

Inputs come from the workload seed alone.  The seed picks one of
SEED_POOL input sets (data seed = seed % SEED_POOL); references for every
set were recorded with record_references.py, so each operation's output is
checked against a stored value rather than against the code under test.
The program only sees the generated inputs: faces are written as a dataset
directory and read back with facemark's own reader, and predict requests
read a checkpoint and pixmaps from disk.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io as _stdio
import os

import numpy as np

from facemark import cli, config, decoder, io, metrics, training

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED_POOL = 8

# Output-check tolerances.  Loss sequences and NME are compared relative to
# the reference: a reordered float64 summation moves them by ~1e-13 after a
# few Adam steps, a wrong gradient or kernel by far more than 1e-7.
# Landmark text is printed with six decimals, so a value that sits on a
# rounding edge may flip its last digit (1e-6 px).
LOSS_RTOL = 1e-7
NME_RTOL = 1e-7
LANDMARK_ATOL_PX = 1e-5

# Zero-initialized heads make every cascade stage repeat the initial
# estimate; a seeded perturbation lets the deformable path reach the output.
PERTURB_SEED = 0
PERTURB_STD = {"head.w3": 0.05, "deform.w_off": 0.02, "deform.w_wgt": 0.5}


def close(a, b, rtol):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))


class Workload:
    """What the workloads share: held-out evaluation of the model in
    ctx["trained"] with the run config's normalizer."""

    def evaluate(self, ctx, ref=None):
        return self.score(ctx)

    def score(self, ctx):
        rc = ctx["rc"]
        return metrics.evaluate(
            ctx["trained"], ctx["held_out"], normalizer=rc.eval_normalizer,
            eye_indices=rc.eye_indices,
        ).aggregate


@dataclasses.dataclass(frozen=True)
class TrainWorkload(Workload):
    """Repeated `training.train` calls from one initial state; each call is
    one operation and its loss sequence is checked.  The state a `steps`-step
    call trains is evaluated on held-out faces.  When window operations are
    shorter (`op_steps` < `steps`), evaluation first makes that full call,
    untimed, and checks its whole loss sequence."""

    name: str
    config_file: str
    overrides: tuple[str, ...]
    n_train: int
    n_eval: int
    steps: int  # optimizer steps of the checked and evaluated train call
    op_steps: int = 0  # optimizer steps per window operation; 0 means `steps`
    unit: str = "training sample"
    latency_unit: str = "optimizer step"

    @property
    def window_steps(self):
        return self.op_steps or self.steps

    def setup(self, work_dir, seed):
        rc = config.load_run_config(
            os.path.join(ROOT, "configs", self.config_file),
            list(self.overrides) + [
                f"data.count={self.n_train + self.n_eval}",
                f"data.seed={seed % SEED_POOL}",
                f"train.steps={self.steps}",
                f"train.lr_drop_step={self.steps}",
            ],
        )
        samples = training.gen_synthetic(rc.face_spec, rc.data_count, rc.data_seed)
        data_dir = os.path.join(work_dir, "data")
        io.write_dataset(data_dir, samples, rc.hash, rc.data_seed)
        dataset = io.load_dataset(data_dir)
        state = decoder.DecoderState.init(rc.model, rc.model_seed)
        return {"rc": rc, "train": dataset[:self.n_train],
                "held_out": dataset[self.n_train:], "state": state}

    def per_op(self, ctx):
        """(latency divisor, units) for one operation: a train call is timed
        per optimizer step and processes steps * batch samples."""
        return self.window_steps, self.window_steps * ctx["rc"].train.batch_size

    def warmup(self, ctx):
        cfg = dataclasses.replace(ctx["rc"].train, steps=1, lr_drop_step=1)
        training.train(ctx["state"], ctx["train"], cfg)

    def op(self, ctx, i, steps=None):
        steps = steps or self.window_steps
        cfg = ctx["rc"].train
        if steps != cfg.steps:
            cfg = dataclasses.replace(cfg, steps=steps, lr_drop_step=steps)
        trained, losses = training.train(ctx["state"], ctx["train"], cfg)
        ctx["trained"], ctx["losses"] = trained, [float(v) for v in losses]
        return ctx["losses"]

    def check(self, ctx, i, output, ref):
        want = ref["losses"][:len(output)]
        if not close(output, want, LOSS_RTOL):
            return f"loss sequence {output} != reference {want}"
        return None

    def evaluate(self, ctx, ref=None):
        if self.window_steps != self.steps:
            output = self.op(ctx, -1, self.steps)
            problem = ref is not None and self.check(ctx, -1, output, ref)
            if problem:
                raise ValueError(problem)
        return self.score(ctx)

    def reference(self, ctx, output, nme):
        return {"losses": ctx["losses"], "eval_nme": nme}


@dataclasses.dataclass(frozen=True)
class PredictWorkload(Workload):
    """In-process `facemark predict` requests against a full-scale
    checkpoint, cycling over the generated images.  Each request's landmark
    file is checked; eval_nme scores the checkpoint on the same images."""

    name: str
    config_file: str
    n_images: int
    unit: str = "predict request"
    latency_unit: str = "predict request"

    def setup(self, work_dir, seed):
        rc = config.load_run_config(
            os.path.join(ROOT, "configs", self.config_file),
            [f"data.count={self.n_images}", f"data.seed={seed % SEED_POOL}"],
        )
        samples = training.gen_synthetic(rc.face_spec, rc.data_count, rc.data_seed)
        data_dir = os.path.join(work_dir, "data")
        io.write_dataset(data_dir, samples, rc.hash, rc.data_seed)
        dataset = io.load_dataset(data_dir)
        state = decoder.DecoderState.init(rc.model, rc.model_seed)
        perturb(state)
        ckpt = os.path.join(work_dir, "model.ckpt")
        state.save(ckpt, extra_meta={"config_hash": rc.hash})
        return {"rc": rc, "data_dir": data_dir, "held_out": dataset,
                "trained": state, "ckpt": ckpt,
                "out": os.path.join(work_dir, "pred")}

    def per_op(self, ctx):
        return 1, 1

    def warmup(self, ctx):
        self.op(ctx, 0)

    def op(self, ctx, i):
        stem = os.path.join(ctx["data_dir"], f"face_{i % self.n_images:05d}")
        argv = ["predict", "--ckpt", ctx["ckpt"], "--image", stem + ".ppm",
                "--gt", stem + ".txt", "--out", ctx["out"]]
        with contextlib.redirect_stdout(_stdio.StringIO()):
            return cli.main(argv)

    def check(self, ctx, i, output, ref):
        if output != 0:
            return f"predict exited with code {output}"
        if not os.path.exists(ctx["out"] + ".ppm"):
            return "predict wrote no overlay"
        got = read_points(ctx["out"] + ".txt")
        want = np.asarray(ref["landmarks"][i % self.n_images])
        if got.shape != want.shape or np.max(np.abs(got - want)) > LANDMARK_ATOL_PX:
            return f"request {i}: landmarks differ from the reference"
        return None

    def reference(self, ctx, output, nme):
        landmarks = []
        for i in range(self.n_images):
            self.op(ctx, i)
            landmarks.append(read_points(ctx["out"] + ".txt").tolist())
        return {"landmarks": landmarks, "eval_nme": nme}


def read_points(path):
    """Pixel coordinates from a landmark file, parsed without facemark's own
    reader so that a fault in it cannot hide behind itself."""
    return np.loadtxt(path, skiprows=2, ndmin=2)


def perturb(state):
    """Seeded noise on the zero-initialized head weights, scaled by fan-in."""
    rng = np.random.default_rng(PERTURB_SEED)
    for key in sorted(state.params):
        for suffix, std in PERTURB_STD.items():
            if key.endswith(suffix):
                w = state.params[key]
                w += rng.normal(0.0, std / np.sqrt(w.shape[0]), w.shape)


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            name="train-tiny",
            config_file="tiny.cfg",
            overrides=(),
            n_train=64,
            n_eval=16,
            steps=8,
        ),
        PredictWorkload(
            name="predict-default",
            config_file="default.cfg",
            n_images=8,
        ),
        TrainWorkload(
            name="train-parallel-64",
            config_file="default.cfg",
            overrides=(
                "model.parallel=true", "model.image_side=64",
                "train.batch_size=4", "train.translate=true",
                "train.rotate=true", "train.occlude=true", "train.blur=true",
            ),
            n_train=16,
            n_eval=8,
            steps=2,
            op_steps=1,
        ),
    )
}
