"""Command-line front end.

Subcommands: synth, encode, finetune, train-gallery, eval, plot.
Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numeric
failure.  Every value may come from a ``--config`` file of key=value
lines; explicit flags win over the file, and the BILIN_SEED environment
variable overrides the seed from either source.  Each output directory
receives a ``run_config.txt`` recording the exact resolved settings
that produced it.
"""

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import evaluate, protocol, svg
from .encoder import encode
from .errors import (
    ConfigError,
    DataError,
    DegenerateModelError,
    DivergenceError,
    FormatError,
    MetadataError,
    NumericError,
    ProtocolError,
    ShapeError,
)
from .extractor import ingest_patch, init_conv_params
from .finetune import TrainConfig, finetune_softmax, init_softmax_head
from .io import MANIFEST_FILE, StoreWriter, load_feature_map, load_gallery, load_store, save_gallery
from .svm import train_ovr_svm


def load_config_file(path):
    values = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


class Settings:
    """Flag > config file > default resolution, with provenance."""

    def __init__(self, args):
        self.args = args
        self.file_values = (
            load_config_file(args.config) if getattr(args, "config", None) else {}
        )
        self.resolved = {}

    def get(self, name, default, cast=str):
        flag = getattr(self.args, name.replace("-", "_"), None)
        if flag is not None:
            value = flag
        elif name in self.file_values:
            try:
                value = cast(self.file_values[name])
            except ValueError as exc:
                raise ConfigError(f"config key {name}: {exc}") from None
        else:
            value = default
        self.resolved[name] = value
        return value

    def seed(self, default=0):
        value = self.get("seed", default, int)
        env = os.environ.get("BILIN_SEED")
        if env is not None:
            try:
                value = int(env)
            except ValueError:
                raise ConfigError(f"BILIN_SEED must be an integer, got {env!r}")
            self.resolved["seed"] = value
        return value


def write_run_config(out_dir, command, resolved):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"command={command}"]
    lines += [f"{k}={resolved[k]}" for k in sorted(resolved)]
    (out_dir / "run_config.txt").write_text("\n".join(lines) + "\n",
                                            encoding="utf-8")


def _parse_map_dims(text):
    try:
        h, w, c = (int(p) for p in str(text).lower().split("x"))
        return (h, w, c)
    except ValueError:
        raise ConfigError(f"map-dims must look like 12x12x8, got {text!r}") from None


def _metadata_path(data_dir):
    path = Path(data_dir) / "metadata.csv"
    if not path.exists():
        raise ConfigError(f"no metadata.csv under {data_dir}")
    return path


def _read_dataset(args):
    return protocol.read_metadata(
        _metadata_path(args.data if hasattr(args, "data") else args.input),
        check_files=bool(getattr(args, "check_files", False)),
    )


def _split_indices(splits, requested):
    available = [s.split_index for s in splits]
    if requested is None:
        return available
    if requested not in available:
        raise ConfigError(
            f"split {requested} not in dataset (has {available})"
        )
    return [requested]


# ---------------------------------------------------------------- synth


def cmd_synth(args):
    settings = Settings(args)
    cfg = protocol.SynthConfig(
        num_identities=settings.get("identities", 8, int),
        templates_per_identity=settings.get("templates", 20, int),
        media_per_template=settings.get("media", 4, int),
        map_dims=_parse_map_dims(settings.get("map-dims", "12x12x8")),
        impostor_fraction=settings.get("impostor-fraction", 0.25, float),
        noise_sigma=settings.get("noise-sigma", 0.1, float),
        seed=settings.seed(),
        num_splits=settings.get("splits", 10, int),
    )
    cfg.validate()
    settings.resolved["out"] = args.out
    splits = protocol.synth_generate(cfg, args.out)
    write_run_config(args.out, "synth", settings.resolved)
    n_media = sum(len(list(s.all_media())) for s in splits)
    print(f"synth: wrote {len(splits)} split(s), {n_media} media under {args.out}")
    return 0


# --------------------------------------------------------------- encode


def _ordered_media(splits):
    media = []
    for split in splits:
        media.extend(split.all_media())
    return media


def cmd_encode(args):
    settings = Settings(args)
    settings.resolved.update(input=args.input, out=args.out,
                             force=bool(args.force))
    data_dir = Path(args.input)
    splits = _read_dataset(args)
    media = _ordered_media(splits)

    out_dir = Path(args.out)
    manifest_path = out_dir / MANIFEST_FILE
    if manifest_path.exists():
        if not args.force:
            print(f"encode: {manifest_path} exists, skipping (use --force to redo)")
            return 0
        # without it a failed or interrupted rerun cannot pass for a finished one
        manifest_path.unlink()

    failures, mixed_dims = [], None
    with StoreWriter(out_dir, [m.media_id for m in media]) as store:
        for item in media:
            try:
                descriptor = encode(load_feature_map(data_dir / item.path).values)
            except (FormatError, NumericError, OSError) as exc:
                failures.append(f"{item.media_id}: {exc}")
                continue
            if failures or mixed_dims:
                continue  # this run writes nothing; go on to list every failure
            try:
                store.write(descriptor)
            except ShapeError as exc:
                mixed_dims = exc
        if failures:
            print(f"encode: {len(failures)} of {len(media)} media failed, "
                  f"nothing written:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 3
        if mixed_dims:
            raise mixed_dims
        store.commit()
    write_run_config(out_dir, "encode", settings.resolved)
    print(f"encode: wrote {len(media)} descriptors under {out_dir}")
    return 0


def _load_descriptors_for(media, desc_dir, what):
    try:
        return load_store(desc_dir, [m.media_id for m in media])
    except ConfigError as exc:
        raise ConfigError(f"{what} descriptors: {exc}; run `bilin encode` first") from None


# ------------------------------------------------------------- finetune


def cmd_finetune(args):
    settings = Settings(args)
    split_index = settings.get("split", 1, int)
    cfg = TrainConfig(
        lr_lower=settings.get("lr-lower", 0.001, float),
        lr_last=settings.get("lr-last", 0.01, float),
        lr_decay_factor=settings.get("decay-factor", 10.0, float),
        epochs=settings.get("epochs", 20, int),
        dropout_rate=settings.get("dropout", 0.5, float),
        batch_size=settings.get("batch-size", 8, int),
        seed=settings.seed(),
        patience=settings.get("patience", 3, int),
    )
    kernel_size = settings.get("kernel-size", 3, int)
    out_channels = settings.get("out-channels", 4, int)
    settings.resolved.update(data=args.data, out=args.out)

    data_dir = Path(args.data)
    splits = _read_dataset(args)
    matches = [s for s in splits if s.split_index == split_index]
    if not matches:
        raise ConfigError(f"split {split_index} not in dataset")
    split = matches[0]
    if not split.train:
        raise DataError(f"split {split_index} has no train templates")

    # stored maps double as training patches after min-max ingestion
    settings.resolved["ingest"] = "min-max scale, nearest-neighbor resize"
    patches, subjects = [], []
    for template in sorted(split.train, key=lambda t: t.template_id):
        for item in template.media:
            fmap = load_feature_map(data_dir / item.path)
            patches.append(ingest_patch(fmap.values))
            subjects.append(template.subject_id)
    classes = sorted(set(subjects))
    if len(classes) < 2:
        raise DataError("fine-tuning needs at least 2 train identities")
    labels = [classes.index(s) for s in subjects]

    extractor = init_conv_params(
        kernel_size, patches[0].shape[2], out_channels, seed=cfg.seed
    )
    head = init_softmax_head(len(classes), out_channels**2, seed=cfg.seed)
    extractor, head, trace = finetune_softmax(
        extractor, head, patches, labels, cfg
    )

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    np.save(out_dir / "extractor_kernel.npy", extractor.kernel)
    np.save(out_dir / "extractor_bias.npy", extractor.bias)
    np.save(out_dir / "head_weights.npy", head.weights)
    np.save(out_dir / "head_bias.npy", head.bias)
    with open(out_dir / "classes.json", "w", encoding="utf-8") as f:
        json.dump(classes, f)
        f.write("\n")
    with open(out_dir / "loss_trace.json", "w", encoding="utf-8") as f:
        json.dump(trace, f)
        f.write("\n")
    write_run_config(out_dir, "finetune", settings.resolved)
    print(
        f"finetune: loss {trace[0]:.4f} -> {trace[-1]:.4f} "
        f"over {cfg.epochs} epochs ({len(patches)} samples, "
        f"{len(classes)} classes)"
    )
    return 0


# -------------------------------------------------------- train-gallery


def cmd_train_gallery(args):
    settings = Settings(args)
    reg_c = settings.get("reg-c", 1.0, float)
    epochs = settings.get("epochs", 100, int)
    settings.seed()  # recorded in run_config.txt; the solver is deterministic
    balanced = bool(args.balanced)
    settings.resolved.update(balanced=balanced, data=args.data,
                             descriptors=args.descriptors, out=args.out)

    splits = _read_dataset(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    for index in _split_indices(splits, args.split):
        split = next(s for s in splits if s.split_index == index)
        if not split.gallery:
            raise DataError(f"split {index} has no gallery templates")
        media, labels = [], []
        for template in sorted(split.gallery, key=lambda t: t.template_id):
            for item in template.media:
                media.append(item)
                labels.append(template.subject_id)
        X = _load_descriptors_for(media, args.descriptors, "gallery")
        gallery = train_ovr_svm(X, labels, reg_c=reg_c, epochs=epochs,
                                balanced=balanced)
        path = out_dir / f"gallery_s{index:02d}.bgm"
        save_gallery(path, gallery)
        print(f"train-gallery: split {index}: {len(gallery.identity_ids)} models -> {path}")
    write_run_config(out_dir, "train-gallery", settings.resolved)
    return 0


# ----------------------------------------------------------------- eval


def cmd_eval(args):
    settings = Settings(args)
    pooling = settings.get("pooling", "score")
    if pooling not in ("score", "feature"):
        raise ConfigError(f"pooling must be score or feature, got {pooling!r}")
    max_rank = settings.get("max-rank", 100, int)
    rank1_conditioned = bool(args.fnir_rank1)
    settings.resolved.update(
        {"fnir-rank1": rank1_conditioned, "data": args.data,
         "descriptors": args.descriptors, "models": args.models,
         "out": args.out})

    splits = _read_dataset(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    summaries = {}
    for index in _split_indices(splits, args.split):
        split = next(s for s in splits if s.split_index == index)
        model_path = Path(args.models) / f"gallery_s{index:02d}.bgm"
        if not model_path.exists():
            raise ConfigError(
                f"no gallery models for split {index} at {model_path}; "
                f"run `bilin train-gallery` first"
            )
        gallery = load_gallery(model_path)
        probe_media = [m for t in split.probe for m in t.media]
        probes = _load_descriptors_for(probe_media, args.descriptors, "probe")
        if probes.shape[1] != gallery.descriptor_dim:
            raise ConfigError(f"split {index}: probe descriptor dim {probes.shape[1]} "
                              f"!= gallery dim {gallery.descriptor_dim} of {model_path}")
        table = dict(zip((m.media_id for m in probe_media), probes))
        _, cmc, det, summary = evaluate.evaluate_split(
            split, gallery, table, strategy=pooling, max_rank=max_rank,
            rank1_conditioned=rank1_conditioned,
        )
        evaluate.write_cmc_csv(cmc, out_dir / f"cmc_s{index:02d}.csv")
        evaluate.write_det_csv(det, out_dir / f"det_s{index:02d}.csv")
        summaries[index] = summary

    aggregate = evaluate.aggregate_summaries(summaries)
    evaluate.write_summary_json(aggregate, out_dir / "summary.json")
    write_run_config(out_dir, "eval", settings.resolved)
    mean = aggregate["mean"]
    print(
        f"eval: {len(summaries)} split(s), mean rank1 {mean['rank1']:.3f}, "
        f"mean FNIR@FPIR=0.1 {mean['fnir_at_fpir_0.1']:.3f}"
    )
    return 0


# ----------------------------------------------------------------- plot


def _read_csv_columns(path, names):
    """The named columns of a CSV, each a list of finite floats."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    columns = []
    for name in names:
        if name not in rows[0]:
            raise ConfigError(f"{path}: no column {name!r}")
        try:
            values = [float(row[name]) for row in rows]
        except (TypeError, ValueError):  # a missing or non-numeric cell
            values = [math.nan]
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"{path}: column {name!r} holds a cell that is "
                              f"not a finite number")
        columns.append(values)
    return columns


def cmd_plot(args):
    settings = Settings(args)
    if not args.cmc and not args.det:
        raise ConfigError("nothing to plot: pass --cmc and/or --det")
    settings.resolved.update(cmc=args.cmc, det=args.det, out=args.out)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.cmc:
        ranks, recalls = _read_csv_columns(args.cmc, ["rank", "recall"])
        chart = svg.line_chart(
            [("recall", ranks, recalls)],
            title="Cumulative match characteristic",
            x_label="rank", y_label="retrieval rate",
        )
        (out_dir / "cmc.svg").write_text(chart, encoding="utf-8")
        written.append("cmc.svg")
    if args.det:
        fpir, fnir = _read_csv_columns(args.det, ["fpir", "fnir"])
        chart = svg.line_chart(
            [("", fpir, fnir)],
            title="Decision error trade-off",
            x_label="false positive identification rate",
            y_label="false negative identification rate",
            x_log=True,
        )
        (out_dir / "det.svg").write_text(chart, encoding="utf-8")
        written.append("det.svg")
    write_run_config(out_dir, "plot", settings.resolved)
    print(f"plot: wrote {', '.join(written)} under {out_dir}")
    return 0


# ----------------------------------------------------------------- main


def build_parser():
    parser = argparse.ArgumentParser(
        prog="bilin",
        description="Bilinear encoding and open-set identification pipelines.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--identities", type=int)
    p.add_argument("--templates", type=int)
    p.add_argument("--media", type=int)
    p.add_argument("--map-dims")
    p.add_argument("--impostor-fraction", type=float)
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--splits", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("encode", help="encode feature maps to descriptors")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--check-files", action="store_true")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("finetune", help="fine-tune the toy extractor + softmax head")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--check-files", action="store_true")
    p.add_argument("--split", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr-lower", type=float)
    p.add_argument("--lr-last", type=float)
    p.add_argument("--decay-factor", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--patience", type=int)
    p.add_argument("--kernel-size", type=int)
    p.add_argument("--out-channels", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("train-gallery", help="train one-vs-rest gallery SVMs")
    p.add_argument("--data", required=True)
    p.add_argument("--descriptors", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--check-files", action="store_true")
    p.add_argument("--split", type=int)
    p.add_argument("--reg-c", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_train_gallery)

    p = sub.add_parser("eval", help="open-set 1:N evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--descriptors", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--check-files", action="store_true")
    p.add_argument("--split", type=int)
    p.add_argument("--pooling", choices=["score", "feature"])
    p.add_argument("--fnir-rank1", action="store_true")
    p.add_argument("--max-rank", type=int)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render CMC/DET CSVs as SVG charts")
    p.add_argument("--cmc")
    p.add_argument("--det")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.func(args)
    except (ConfigError, DataError, ProtocolError, ShapeError) as exc:
        print(f"bilin: config error: {exc}", file=sys.stderr)
        return 2
    except (MetadataError, FormatError, OSError) as exc:
        print(f"bilin: i/o error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, DivergenceError, DegenerateModelError) as exc:
        print(f"bilin: numeric failure: {exc}", file=sys.stderr)
        return 4


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
