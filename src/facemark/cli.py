"""Batch command-line surface.

Verbs: gen-data, train, eval, predict, gradcheck, params.  Every command is
deterministic given its config and seeds, and stamps the config hash into
the artifacts it writes.  Exit codes: 0 success, 1 validation error, 2
runtime or numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import io as fio
from .attention import worker
from .config import ENV_CONFIG, load_run_config, model_hash
from .decoder import DecoderState, param_shapes
from .errors import ConfigError, NumericError
from .metrics import evaluate, report_machine, report_text
from .params import count_parameters
from .training import gen_synthetic, grad_check, train


def _add_config_args(p):
    p.add_argument("--config", help=f"config file (default: ${ENV_CONFIG})")
    p.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="SECTION.KEY=VALUE", help="override a config value",
    )


@functools.cache
def build_parser():
    """The one parser of the process: parsing reads it and changes nothing
    in it (an `append` option copies its default list before adding)."""
    ap = argparse.ArgumentParser(
        prog="facemark",
        description="cascaded deformable-attention facial landmark detector",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render a synthetic face dataset")
    _add_config_args(p)
    p.add_argument("--out", required=True, help="output dataset directory")

    p = sub.add_parser("train", help="train a model on a dataset directory")
    _add_config_args(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--out", required=True, help="checkpoint path to write")

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    _add_config_args(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", help="report path prefix (default: alongside ckpt)")

    p = sub.add_parser("predict", help="predict landmarks for one image")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True, help="input pixmap")
    p.add_argument("--out", required=True, help="output path prefix")
    p.add_argument("--gt", help="optional ground-truth landmark file for the overlay")

    p = sub.add_parser("gradcheck", help="finite-difference gradient check")
    _add_config_args(p)
    p.add_argument("--out", help="report file (default: gradcheck.txt)")
    p.add_argument(
        "--inject-fault", action="store_true",
        help="corrupt one gradient path to exercise the failure branch",
    )

    p = sub.add_parser("params", help="parameter count breakdown")
    _add_config_args(p)
    p.add_argument(
        "--compare", action="store_true",
        help="also count the parallel-decoder variant and print the delta",
    )
    return ap


def cmd_gen_data(args):
    rc = load_run_config(args.config, args.overrides)
    samples = gen_synthetic(rc.face_spec, rc.data_count, rc.data_seed)
    fio.write_dataset(args.out, samples, rc.hash, rc.data_seed)
    print(f"wrote {len(samples)} samples to {args.out} (config {rc.hash})")
    return 0


def _check_dataset(path, dataset, cfg, owner):
    """Raise ConfigError naming the dataset directory and the first sample
    whose landmark count or image side differs from what `owner` expects."""
    side = cfg.image_side
    for i, sample in enumerate(dataset):
        n = sample.landmarks.shape[0]
        if n != cfg.num_landmarks:
            raise ConfigError(f"{path}: sample {i} has {n} landmarks but the {owner} "
                              f"expects {cfg.num_landmarks}")
        if sample.image.shape[1:] != (side, side):
            h, w = sample.image.shape[1:]
            raise ConfigError(f"{path}: image {i} is {h}x{w} but the {owner} expects "
                              f"{side}x{side} images")


def cmd_train(args):
    rc = load_run_config(args.config, args.overrides)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    if not (os.path.isdir(out_dir) and os.access(out_dir, os.W_OK)):
        raise ConfigError(f"--out {args.out}: {out_dir} is not a writable directory")
    dataset = fio.load_dataset(args.data)
    _check_dataset(args.data, dataset, rc.model, "model")
    state = DecoderState.init(rc.model, rc.model_seed)
    log_path = args.out + ".log"
    log_lines = [f"# config {rc.hash}"]
    state, losses = train(state, dataset, rc.train, log=lambda s: print(s))
    log_lines += [f"{i + 1}\t{v:.12g}" for i, v in enumerate(losses)]
    with open(log_path, "w") as f:
        f.write("\n".join(log_lines) + "\n")
    state.save(args.out, extra_meta={"config_hash": rc.hash})
    print(f"final loss {losses[-1]:.6f}; checkpoint {args.out}, log {log_path}")
    return 0


# each inference verb holds the worker for its request: the checkpoint read
# and the large forward products hand it half their work
@worker()
def cmd_eval(args):
    rc = load_run_config(args.config, args.overrides)
    state, _ = DecoderState.load(args.ckpt)
    dataset = fio.load_dataset(args.data)
    _check_dataset(args.data, dataset, state.config, "checkpoint")
    try:
        result = evaluate(
            state, dataset, normalizer=rc.eval_normalizer, eye_indices=rc.eye_indices
        )
    except ConfigError as e:  # the normalizer's checks of the samples and keys
        raise ConfigError(f"{args.data}: {e}") from None
    except NumericError as e:  # the checkpoint's predictions
        raise NumericError(f"{args.ckpt} on {args.data}: {e}") from None
    text = report_text(result)
    print(text, end="")
    # the model scored is the checkpoint's, whatever [model] says
    stamp = model_hash(rc, state.config)
    prefix = args.out or (args.ckpt + ".eval")
    with open(prefix + ".txt", "w") as f:
        f.write(f"config {stamp}\n" + text)
    with open(prefix + ".tsv", "w") as f:
        f.write(report_machine(result, stamp))
    print(f"reports: {prefix}.txt, {prefix}.tsv")
    return 0


@worker()
def cmd_predict(args):
    state, extra = DecoderState.load(args.ckpt)
    image = fio.read_ppm(args.image)
    side = state.config.image_side
    if image.shape[1] != side or image.shape[2] != side:
        raise ConfigError(f"{args.image}: image is {image.shape[1]}x{image.shape[2]} but "
                          f"the checkpoint expects {side}x{side} images")
    gt = None
    if args.gt:
        gt = fio.read_landmarks(args.gt)
        if len(gt) != state.config.num_landmarks:
            raise ConfigError(
                f"{args.gt} lists {len(gt)} points but the checkpoint predicts "
                f"{state.config.num_landmarks}"
            )
        gt = gt / side
    pred = state.predict(image[None])[-1][0]
    bad = ~np.isfinite(pred).all(axis=1)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise NumericError(f"{args.ckpt} on {args.image}: landmark {i} is predicted "
                           f"at {pred[i, 0]} {pred[i, 1]}, not a finite point")
    fio.write_landmarks(args.out + ".txt", pred * side)
    tag = extra.get("config_hash", "unhashed")
    fio.write_overlay(args.out + ".ppm", image, pred, gt, comment=f"config {tag}")
    print(f"wrote {args.out}.txt and {args.out}.ppm")
    return 0


def cmd_gradcheck(args):
    rc = load_run_config(args.config, args.overrides)
    state = DecoderState.init(rc.model, rc.model_seed)
    batch = gen_synthetic(rc.face_spec, min(2, rc.data_count), rc.data_seed)
    fault = sorted(state.params)[0] if args.inject_fault else None
    report = grad_check(state, batch, fault_path=fault)
    out = args.out or "gradcheck.txt"
    with open(out, "w") as f:
        f.write(f"config {rc.hash}\n" + report.to_text())
    worst = report.worst
    print(f"gradient check {'PASS' if report.ok else 'FAIL'}; "
          f"worst {worst.path} rel {worst.max_rel:.3e}; report {out}")
    if not report.ok:
        raise NumericError("gradient check failed; see report")
    return 0


def cmd_params(args):
    rc = load_run_config(args.config, args.overrides)
    counts, total = count_parameters(param_shapes(rc.model))
    width = max(len(p) for p in counts)
    for path, n in counts.items():
        print(f"{path:<{width}}  {n}")
    print(f"{'total':<{width}}  {total}")
    if args.compare:
        other = dataclasses.replace(rc.model, parallel=not rc.model.parallel)
        _, other_total = count_parameters(param_shapes(other))
        a, b = (total, other_total) if rc.model.parallel else (other_total, total)
        print(f"parallel total {a}; basic total {b}; delta {a - b}")
    return 0


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "gradcheck": cmd_gradcheck,
    "params": cmd_params,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except NumericError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
