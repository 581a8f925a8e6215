"""Command-line entry point.

Subcommands: phantom, train, eval, predict, xval, track, gradcheck. Every
run writes an effective-config JSON next to its outputs so any result can
be reproduced from that file alone. Exit codes: 0 success, 1 validation
error (bad flags, malformed inputs, failed tolerance), 2 unexpected
runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigInvalid, MissingFile, VesselSegError
from .model import ModelConfig, segment_volume, tiny_config
from .phantom import BoneDecoy, PhantomSpec, generate, save_spec
from .tracker import TrackerConfig, events_to_json, track_volume
from .training import TrainConfig, checkpoint_window, cross_validate, evaluate, grad_check, train
from .volume_io import (
    HuWindow,
    MaskVolume,
    Volume,
    check_output_dirs,
    load_mask,
    load_volume,
    make_output_dir,
    normalize_slice,
    save_mask,
    save_volume,
)


@dataclass
class CommandResult:
    exit_code: int


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on bad flags instead of argparse's 2
        raise _UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def write_overlay(hu_slice: np.ndarray, mask_slice: np.ndarray, path: str | Path, window: HuWindow) -> None:
    """Write an 8-bit binary PPM: windowed grayscale, mask tinted red.

    Mask pixels get red channel 255; green/blue keep the grayscale value.
    """
    gray = (normalize_slice(hu_slice, window) * 255.0).astype(np.uint8)
    h, w = gray.shape
    rgb = np.stack([gray, gray, gray], axis=-1)
    rgb[np.asarray(mask_slice).astype(bool), 0] = 255
    path = Path(path)
    make_output_dir(path.parent)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def _write_effective_config(path: Path, command: str, payload: dict) -> None:
    make_output_dir(path.parent)
    path.write_text(json.dumps({"command": command, **payload}, indent=2) + "\n", encoding="utf-8")


def _ints(sep: str, count: int | None, form: str):
    """A flag type: sep-separated integers, count of them if count is set.

    argparse reports its ArgumentTypeError as "argument --flag: <message>".
    """

    def parse(text: str) -> tuple[int, ...]:
        try:
            values = tuple(int(v) for v in text.split(sep))
        except ValueError:
            values = ()
        if not values or count not in (None, len(values)):
            raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}")
        return values

    return parse


_parse_range = _ints(":", 2, "Z0:Z1 (two integers)")
_parse_point = _ints(",", 2, "X,Y (two integers)")
_parse_folds = _ints(",", None, "comma-separated integer fold sizes")


def _parse_bone(text: str) -> BoneDecoy:
    try:
        x, y, r, zr = text.split(",")
        return BoneDecoy(center_xy=(float(x), float(y)), radius_px=float(r), contact_z_range=_parse_range(zr))
    except (ValueError, argparse.ArgumentTypeError):
        form = "X,Y,R,Z0:Z1 (three numbers, then two integers)"
        raise argparse.ArgumentTypeError(f"expected {form}, got {text!r}") from None


def _load_patient(directory: str | Path) -> tuple[Volume, MaskVolume]:
    return load_volume(directory), load_mask(directory)


# The config fields that train's flags set, by section; each flag's dest is its field.
_FLAG_FIELDS = {"model": ("input_hw", "bridge_layers"), "train": ("epochs", "batch_size", "learning_rate", "seed")}
# The top-level keys of a train or xval effective_config.json, which --config accepts.
_CONFIG_KEYS = ("command", "model", "train", "data", "val", "data_root", "folds")


def _configs(args) -> tuple[ModelConfig, TrainConfig]:
    """The defaults, overridden by the --config file's model and train
    sections, overridden by the flags that were set."""
    try:
        file_cfg = json.loads(Path(args.config).read_text(encoding="utf-8")) if args.config else {}
    except OSError as exc:
        raise MissingFile(f"cannot read config file {args.config}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"{args.config} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(file_cfg, dict) or not all(isinstance(file_cfg.get(k, {}), dict) for k in _FLAG_FIELDS):
        raise ConfigInvalid(f"{args.config} must hold a JSON object whose model/train sections are objects")
    unknown = sorted(set(file_cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigInvalid(f"{args.config}: unknown top-level keys {unknown}; allowed are {list(_CONFIG_KEYS)}")
    merged = {"model": ModelConfig().to_dict(), "train": TrainConfig().to_dict()}
    for section, names in _FLAG_FIELDS.items():
        merged[section].update(file_cfg.get(section, {}))
        merged[section].update({n: getattr(args, n) for n in names if getattr(args, n, None) is not None})
    return ModelConfig.from_dict(merged["model"]), TrainConfig.from_dict(merged["train"])


# -- subcommands -----------------------------------------------------------


def _cmd_phantom(args) -> CommandResult:
    out = Path(args.out)
    spec = PhantomSpec(
        dims=(args.slices, args.size, args.size),
        seed=args.seed,
        occlusion_z_range=args.occlusion,
        bone_decoys=args.bone,
        mask_extent=args.mask_extent,
        patient_id=out.name,
    )
    volume, mask = generate(spec)
    save_volume(volume, out)
    save_mask(mask, out)
    save_spec(spec, out)
    _write_effective_config(out / "effective_config.json", "phantom", {"spec": json.loads(spec.to_json())})
    return CommandResult(0)


def _cmd_train(args) -> CommandResult:
    model_cfg, train_cfg = _configs(args)

    train_patients = [_load_patient(d) for d in args.data]
    val_patients = [_load_patient(d) for d in args.val]
    out = make_output_dir(args.out)
    ckpt, log = train(model_cfg, train_cfg, train_patients, val_patients, checkpoint_dir=out)
    save_checkpoint(ckpt, out / "model.ckpt")
    (out / "train_log.jsonl").write_text(log.to_jsonl(), encoding="utf-8")
    _write_effective_config(
        out / "effective_config.json",
        "train",
        {
            "model": model_cfg.to_dict(),
            "train": train_cfg.to_dict(),
            "data": list(args.data),
            "val": list(args.val),
        },
    )
    return CommandResult(0)


def _cmd_eval(args) -> CommandResult:
    report_path = Path(args.report)
    check_output_dirs(report_path.parent)
    ckpt = load_checkpoint(args.ckpt)
    patients = [_load_patient(d) for d in args.data]
    report = evaluate(ckpt, patients)
    make_output_dir(report_path.parent)
    report_path.write_text(report.to_json() + "\n", encoding="utf-8")
    _write_effective_config(
        report_path.with_suffix(".config.json"),
        "eval",
        {"ckpt": args.ckpt, "data": list(args.data), "report": args.report},
    )
    return CommandResult(0)


def _cmd_predict(args) -> CommandResult:
    check_output_dirs(args.out, args.overlay_dir)
    ckpt = load_checkpoint(args.ckpt)
    volume = load_volume(args.volume)
    window = checkpoint_window(ckpt)
    mask = segment_volume(ckpt.params, volume, window, threshold=args.threshold)
    out = Path(args.out)
    save_mask(mask, out)
    if args.overlay_dir:
        for z in range(volume.meta.num_slices):
            write_overlay(
                volume.voxels[z],
                mask.voxels[z],
                Path(args.overlay_dir) / f"slice_{z:04d}.ppm",
                window,
            )
    _write_effective_config(
        out / "effective_config.json",
        "predict",
        {
            "ckpt": args.ckpt,
            "volume": args.volume,
            "threshold": args.threshold,
            "overlay_dir": args.overlay_dir,
        },
    )
    return CommandResult(0)


def _cmd_xval(args) -> CommandResult:
    model_cfg, train_cfg = _configs(args)
    root = Path(args.data_root)
    if not root.is_dir():
        raise MissingFile(f"--data-root {root} is not a directory")
    report_path = Path(args.report)
    check_output_dirs(report_path.parent)
    patient_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    patients = [_load_patient(d) for d in patient_dirs]
    result = cross_validate(model_cfg, train_cfg, patients, fold_sizes=args.folds)
    make_output_dir(report_path.parent)
    payload = {
        "folds": [json.loads(r.to_json()) for r in result.fold_reports],
        "mean_dice": result.mean_dice,
        "mean_iou": result.mean_iou,
        "plan": json.loads(result.plan.to_json()),
        "seed": train_cfg.seed,
        "config_sha256": model_cfg.digest(),
    }
    report_path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    (report_path.parent / "folds.json").write_text(result.plan.to_json() + "\n", encoding="utf-8")
    _write_effective_config(
        report_path.with_suffix(".config.json"),
        "xval",
        {
            "model": model_cfg.to_dict(),
            "train": train_cfg.to_dict(),
            "data_root": args.data_root,
            "folds": list(args.folds),
        },
    )
    return CommandResult(0)


def _cmd_track(args) -> CommandResult:
    events_path = Path(args.events)
    check_output_dirs(args.out, events_path.parent)
    volume = load_volume(args.volume)
    cfg = TrackerConfig(t_lo=args.t_lo, t_hi=args.t_hi, seed_point=args.seed_point)
    mask, events = track_volume(volume, cfg)
    out = Path(args.out)
    save_mask(mask, out)
    make_output_dir(events_path.parent)
    events_path.write_text(events_to_json(events) + "\n", encoding="utf-8")
    _write_effective_config(
        out / "effective_config.json",
        "track",
        {
            "volume": args.volume,
            "seed_point": list(args.seed_point),
            "t_lo": args.t_lo,
            "t_hi": args.t_hi,
            "events": args.events,
        },
    )
    return CommandResult(0)


def _cmd_gradcheck(args) -> CommandResult:
    report = grad_check(tiny_config(), seed=args.seed, n_samples=args.samples, tol=args.tol)
    printable = {k: v for k, v in report.items() if k != "samples"}
    print(json.dumps({"command": "gradcheck", "seed": args.seed, **printable}, indent=2))
    if not report["pass"]:
        print(
            f"vesselseg: gradient check failed: max relative error "
            f"{report['max_rel_err']:.3e} > {report['tol']:.0e} at {report['worst_param']}",
            file=sys.stderr,
        )
        return CommandResult(1)
    return CommandResult(0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vesselseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="generate a synthetic patient volume")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--slices", type=int, default=64)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--occlusion", type=_parse_range, default=None, metavar="Z0:Z1")
    p.add_argument("--bone", type=_parse_bone, action="append", default=[], metavar="X,Y,R,Z0:Z1")
    p.add_argument("--mask-extent", choices=["to_bifurcation", "to_end"], default="to_end")
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("train", help="train the segmentation network")
    p.add_argument("--data", action="append", required=True, metavar="DIR")
    p.add_argument("--val", action="append", default=[], metavar="DIR")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--lr", type=float, default=None, dest="learning_rate", metavar="LR")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--input-size", type=int, default=None, dest="input_hw", metavar="INPUT_SIZE")
    p.add_argument("--bridge-layers", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on labelled patients")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", action="append", required=True, metavar="DIR")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("predict", help="segment one volume")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--volume", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--overlay-dir", default=None)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("xval", help="patient-level cross-validation")
    p.add_argument("--data-root", required=True)
    p.add_argument("--folds", type=_parse_folds, default="3,3,3,2")
    p.add_argument("--config", default=None)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_xval)

    p = sub.add_parser("track", help="run the intensity-tracking baseline")
    p.add_argument("--volume", required=True)
    p.add_argument("--seed-point", type=_parse_point, required=True, metavar="X,Y")
    p.add_argument("--t-lo", type=float, required=True)
    p.add_argument("--t-hi", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--events", required=True)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


# Flags whose value is any float, -inf and -1e3 included.
_FLOAT_VALUED_FLAGS = ("--t-lo", "--t-hi")


def _attach_float_values(argv: list[str]) -> list[str]:
    """argv with "--t-lo -inf" written as "--t-lo=-inf": argparse reads a
    token that starts with "-" as a flag unless it looks like -5 or -5.5.
    A token that is no float then fails as the flag's value."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FLOAT_VALUED_FLAGS and token.startswith("-"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def dispatch(argv: list[str]) -> CommandResult:
    """Parse argv and run the chosen subcommand."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_float_values(argv))
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return CommandResult(1)
    except SystemExit as exc:  # argparse -h
        return CommandResult(int(exc.code or 0))
    except VesselSegError as exc:
        print(f"vesselseg: {exc}", file=sys.stderr)
        return CommandResult(1)
    except Exception:
        traceback.print_exc()
        return CommandResult(2)


def main(argv: list[str] | None = None) -> None:
    result = dispatch(sys.argv[1:] if argv is None else argv)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
