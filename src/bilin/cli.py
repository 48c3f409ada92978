"""Command-line front end.

Subcommands: synth, encode, finetune, train-gallery, eval, plot.
Exit codes: 0 success, 2 usage/config error, 3 I/O error, 4 numeric
failure.  Running out of memory is a config error (exit 2): the inputs
or options ask for more than the machine has.

Each option's type and default are declared once, in
:func:`build_parser`.  Every option but the required paths may also come
from a ``--config`` file of ``key=value`` lines, the key being the
option's name without its dashes: a switch takes ``true`` or ``false``,
a key the stage does not declare is ignored, and explicit flags win over
the file.  The BILIN_SEED environment variable overrides the seed from
either source.  A stage puts its outputs in place only when it succeeds
(see :class:`bilin.io.Outputs`; synth writes its dataset in place), the
last being ``run_config.txt``: the command and every option of the
stage that has a value, in the same ``key=value`` form.
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
from .cores import POOL_THREAD_MACS, Task, spare_core as _spare_core
from .encoder import normalize_rows, pool_rows
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
from .extractor import ingest_range, init_conv_params
from .finetune import MapPatches, TrainConfig, finetune_softmax, init_softmax_head
from .io import (MANIFEST_FILE, MAX_MAP_ELEMENTS, MapFile, MapReader, Outputs, StoreReader,
                 StoreWriter, load_gallery, save_gallery)
from .svm import fit_ovr_svm

# Encode's chunk budget: a chunk holds maps of one shape while the larger
# of their float64 maps or their pooled matrices, summed, stays within it;
# a map larger than the budget runs alone.  Encode holds one chunk of
# maps, in float32 as read and in float64, and at most two of pooled
# matrices (see cmd_encode), so a larger budget buys fewer stacked
# passes with a few times its size in peak memory.  Finetune's first
# pass over its train maps reads them in the same chunks.
ENCODE_CHUNK_BYTES = 1 << 18


def config_defaults(stage, path):
    """The ``key=value`` lines of a config file, each cast as ``stage``
    casts the flag of the same name.

    A key is an option's name without its dashes; keys the stage does not
    declare are ignored, and a switch takes true or false.
    """
    values, defaults = {}, {}
    # a byte that is not UTF-8 spoils only its own value
    with open(path, encoding="utf-8", errors="replace") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    for action in stage._actions:
        key = action.dest.replace("_", "-")
        if key not in values or key in ("help", "config"):
            continue
        text = values[key]
        try:
            if action.nargs == 0:  # a switch
                if text.lower() not in ("true", "false"):
                    raise ValueError(f"expected true or false, got {text!r}")
                value = text.lower() == "true"
            else:
                value = (action.type or str)(text)
        except ValueError as exc:
            raise ConfigError(f"config key {key}: {exc}") from None
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"config key {key}: {value!r} is not one of "
                              f"{', '.join(map(str, action.choices))}")
        defaults[action.dest] = value
    return defaults


def write_run_config(args, out):
    """Stage ``run_config.txt`` last and commit ``out``: the command, then
    every option of the stage that has a value, one ``key=value`` each."""
    options = {dest.replace("_", "-"): value for dest, value in vars(args).items()
               if dest not in ("command", "config", "func") and value is not None}
    lines = [f"command={args.command}"] + [f"{k}={options[k]}" for k in sorted(options)]
    out.path("run_config.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    out.commit()


def _parse_map_dims(text):
    try:
        h, w, c = (int(p) for p in str(text).lower().split("x"))
        return (h, w, c)
    except ValueError:
        raise ConfigError(f"map-dims must look like 12x12x8, got {text!r}") from None


def _read_dataset(data_dir, check_files):
    path = Path(data_dir) / "metadata.csv"
    if not path.exists():
        raise ConfigError(f"no metadata.csv under {data_dir}")
    return protocol.read_metadata(path, check_files=check_files)


def _select_splits(splits, requested):
    """Every split, or only the one with index ``requested``."""
    if requested is None:
        return splits
    chosen = [s for s in splits if s.split_index == requested]
    if not chosen:
        raise ConfigError(f"split {requested} not in dataset "
                          f"(has {[s.split_index for s in splits]})")
    return chosen


# ---------------------------------------------------------------- synth


def cmd_synth(args):
    cfg = protocol.SynthConfig(
        num_identities=args.identities,
        templates_per_identity=args.templates,
        media_per_template=args.media,
        map_dims=_parse_map_dims(args.map_dims),
        impostor_fraction=args.impostor_fraction,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
        num_splits=args.splits,
    )
    splits = protocol.synth_generate(cfg, args.out)
    with Outputs(args.out) as out:
        write_run_config(args, out)
    n_media = sum(len(list(s.all_media())) for s in splits)
    print(f"synth: wrote {len(splits)} split(s), {n_media} media under {args.out}")
    return 0


# --------------------------------------------------------------- encode


def _chunk_room(shape):
    """Maps of ``shape`` (H, W, C) in one chunk of ENCODE_CHUNK_BYTES."""
    h, w, c = shape
    return max(1, ENCODE_CHUNK_BYTES // (8 * max(h * w * c, c * c)))


def _report_failures(stage, failures, media, what="media"):
    """List each (position in ``media``, message) of ``failures`` on stderr,
    in metadata order, and return exit code 3."""
    print(f"{stage}: {len(failures)} of {len(media)} {what} failed, nothing written:",
          file=sys.stderr)
    for position, message in sorted(failures):
        print(f"  {media[position].media_id}: {message}", file=sys.stderr)
    return 3


class _Product(Task):
    """:func:`pool_rows` of one float64 stack, on a thread of its own."""

    def __init__(self, maps):
        super().__init__("bilin-encode-pool", pool_rows, maps)


def _write_rows(store, pooled):
    """Write the descriptors of a chunk's pooled rows (None for no chunk)
    to ``store``, finished in place: the ShapeError of a descriptor dim
    other than the store's, or None."""
    if pooled is not None:
        try:
            store.write(normalize_rows(pooled))
        except ShapeError as exc:
            return exc
    return None


def cmd_encode(args):
    data_dir = str(Path(args.input))
    splits = _read_dataset(args.input, args.check_files)
    media = [m for split in splits for m in split.all_media()]

    out_dir = Path(args.out)
    manifest_path = out_dir / MANIFEST_FILE
    if manifest_path.exists():
        if not args.force:
            print(f"encode: {manifest_path} exists, skipping (use --force to redo)")
            return 0
        # without it a failed or interrupted rerun cannot pass for a finished one
        manifest_path.unlink()

    failures, mixed_dims, product, overlap = [], None, None, _spare_core()
    paths = (os.path.join(data_dir, m.path) for m in media)
    with Outputs(out_dir) as out, StoreWriter(out, [m.media_id for m in media]) as store:
        # with a core to spare, a chunk of POOL_THREAD_MACS or more is
        # pooled on a thread of its own while this thread finishes the
        # chunk before and writes its rows, then reads and checks the
        # next; any other chunk is pooled and written in turn.  After a
        # failure this run pools and writes nothing more; it goes on to
        # list every failure
        try:
            for _, maps, _ in MapReader().chunks(paths, _chunk_room, failures):
                if failures or mixed_dims:
                    continue
                pooled = product.result() if product else None
                product, maps = None, maps.astype(np.float64)
                if overlap and maps.size * maps.shape[-1] >= POOL_THREAD_MACS:
                    product = _Product(maps)
                    product.start()
                    mixed_dims = _write_rows(store, pooled)
                else:
                    mixed_dims = _write_rows(store, pooled) or _write_rows(store, pool_rows(maps))
            if product and not (failures or mixed_dims):
                mixed_dims = _write_rows(store, product.result())
        finally:
            if product:  # a chunk started is pooled, whatever the exit
                product.join()
        if failures:
            return _report_failures("encode", failures, media)
        if mixed_dims:
            raise mixed_dims
        store.finish()
        write_run_config(args, out)
    print(f"encode: wrote {len(media)} descriptors under {out_dir}")
    return 0


def _open_descriptors(media, desc_dir, what):
    """The :class:`StoreReader` of ``media``'s rows in the store at ``desc_dir``."""
    try:
        return StoreReader(desc_dir, [m.media_id for m in media])
    except ConfigError as exc:
        raise ConfigError(f"{what} descriptors: {exc}; run `bilin encode` first") from None


# ------------------------------------------------------------- finetune


def cmd_finetune(args):
    cfg = TrainConfig(
        lr_lower=args.lr_lower,
        lr_last=args.lr_last,
        lr_decay_factor=args.decay_factor,
        epochs=args.epochs,
        dropout_rate=args.dropout,
        batch_size=args.batch_size,
        seed=args.seed,
        patience=args.patience,
    )
    cfg.validate()  # before its seed seeds the extractor and the head

    data_dir = str(Path(args.data))
    (split,) = _select_splits(_read_dataset(args.data, args.check_files), args.split)
    if not split.train:
        raise DataError(f"split {args.split} has no train templates")

    templates = sorted(split.train, key=lambda t: t.template_id)
    media = [m for t in templates for m in t.media]
    paths = [os.path.join(data_dir, m.path) for m in media]
    # stored maps double as training patches after min-max ingestion.  One
    # pass checks every map and keeps its header and range, not its values;
    # each chunk that runs reads its maps again, and forms its float64
    # patches from them only while it runs
    reader, failures, files, ranges = MapReader(), [], [], []
    for positions, maps, rectified in reader.chunks(paths, _chunk_room, failures):
        files += [MapFile(paths[p], maps.shape[1:], r) for p, r in zip(positions, rectified)]
        ranges += map(ingest_range, maps)
    if failures:
        return _report_failures("finetune", failures, media, "train media")
    subjects = [t.subject_id for t in templates for _ in t.media]
    classes = sorted(set(subjects))
    if len(classes) < 2:
        raise DataError("fine-tuning needs at least 2 train identities")
    labels = [classes.index(s) for s in subjects]
    patches = MapPatches(files, *np.array(ranges, dtype=np.float64).T, reader)

    k, c_in, c_out = args.kernel_size, files[0].shape[2], args.out_channels
    # checked before the kernel and the head, of c_out**2 weights a class, are made
    if max(c_out * c_out, k * k * c_in * c_out) > MAX_MAP_ELEMENTS:
        raise ConfigError(f"--kernel-size {k} and --out-channels {c_out}: the head's "
                          f"{c_out}x{c_out} width or the {k}x{k}x{c_in}x{c_out} kernel "
                          f"exceeds the .bfm limit of {MAX_MAP_ELEMENTS} values")
    extractor = init_conv_params(k, c_in, c_out, seed=cfg.seed)
    head = init_softmax_head(len(classes), c_out * c_out, seed=cfg.seed)
    extractor, head, trace = finetune_softmax(
        extractor, head, patches, labels, cfg
    )

    arrays = {"extractor_kernel.npy": extractor.kernel, "extractor_bias.npy": extractor.bias,
              "head_weights.npy": head.weights, "head_bias.npy": head.bias}
    with Outputs(args.out) as out:
        for name, array in arrays.items():
            with open(out.path(name), "wb") as f:  # a path would gain a second .npy
                np.save(f, array)
        for name, value in (("classes.json", classes), ("loss_trace.json", trace)):
            out.path(name).write_text(json.dumps(value) + "\n", encoding="utf-8")
        write_run_config(args, out)
    print(
        f"finetune: loss {trace[0]:.4f} -> {trace[-1]:.4f} "
        f"over {cfg.epochs} epochs ({len(patches)} samples, "
        f"{len(classes)} classes)"
    )
    return 0


# -------------------------------------------------------- train-gallery


def cmd_train_gallery(args):
    # --seed is only recorded in run_config.txt: the solver is deterministic
    splits = _read_dataset(args.data, args.check_files)
    with Outputs(args.out) as out:
        for split in _select_splits(splits, args.split):
            index = split.split_index
            if not split.gallery:
                raise DataError(f"split {index} has no gallery templates")
            templates = sorted(split.gallery, key=lambda t: t.template_id)
            media = [m for t in templates for m in t.media]
            labels = [t.subject_id for t in templates for _ in t.media]
            name = f"gallery_s{index:02d}.bgm"
            # the Gram form reads the store a column block at a time, twice:
            # to fit, then to form each block of the weights as it is saved
            with _open_descriptors(media, args.descriptors, "gallery") as store:
                gallery = fit_ovr_svm(store, labels, reg_c=args.reg_c,
                                      epochs=args.epochs, balanced=args.balanced)
                save_gallery(out.path(name), gallery)
            print(f"train-gallery: split {index}: {len(gallery.identity_ids)} models "
                  f"-> {out.out_dir / name}")
        write_run_config(args, out)
    return 0


# ----------------------------------------------------------------- eval


def cmd_eval(args):
    evaluate.check_max_rank(args.max_rank)  # before anything is read or scored
    splits = _read_dataset(args.data, args.check_files)
    summaries = {}
    # the curves beside summary.json are those of its splits, and only those
    with Outputs(args.out, owns=r"(cmc|det)_s\d{2,}\.csv") as out:
        for split in _select_splits(splits, args.split):
            index = split.split_index
            model_path = Path(args.models) / f"gallery_s{index:02d}.bgm"
            if not model_path.exists():
                raise ConfigError(f"no gallery models for split {index} at {model_path}; "
                                  f"run `bilin train-gallery` first")
            gallery = load_gallery(model_path)
            templates = evaluate.probe_templates(split)
            probe_media = [m for t in templates for m in t.media]
            # the probe rows stream from the store a block of templates at a time
            with _open_descriptors(probe_media, args.descriptors, "probe") as probes:
                if probes.dim != gallery.descriptor_dim:
                    raise ConfigError(f"split {index}: probe descriptor dim {probes.dim} != "
                                      f"gallery dim {gallery.descriptor_dim} of {model_path}")
                scores = evaluate.score_templates(templates, gallery, probes.read,
                                                  args.pooling)
            cmc, det, summary = evaluate.split_curves(
                scores, templates, gallery, args.max_rank, args.fnir_rank1)
            evaluate.write_cmc_csv(cmc, out.path(f"cmc_s{index:02d}.csv"))
            evaluate.write_det_csv(det, out.path(f"det_s{index:02d}.csv"))
            summaries[index] = summary
        aggregate = evaluate.aggregate_summaries(summaries)
        evaluate.write_summary_json(aggregate, out.path("summary.json"))
        write_run_config(args, out)
    mean = aggregate["mean"]
    print(f"eval: {len(summaries)} split(s), mean rank1 {mean['rank1']:.3f}, "
          f"mean FNIR@FPIR=0.1 {mean['fnir_at_fpir_0.1']:.3f}")
    return 0


# ----------------------------------------------------------------- plot


def _read_csv_columns(path, names):
    """The named columns of a CSV, each a list of finite floats."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # such as a cell over the csv module's field size limit
        raise ConfigError(f"{path}: {exc}") from None
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
    if not args.cmc and not args.det:
        raise ConfigError("nothing to plot: pass --cmc and/or --det")
    written = []
    with Outputs(args.out) as out:
        if args.cmc:
            ranks, recalls = _read_csv_columns(args.cmc, ["rank", "recall"])
            chart = svg.line_chart(
                [("recall", ranks, recalls)],
                title="Cumulative match characteristic",
                x_label="rank", y_label="retrieval rate",
            )
            out.path("cmc.svg").write_text(chart, encoding="utf-8")
            written.append("cmc.svg")
        if args.det:
            fpir, fnir = _read_csv_columns(args.det, ["fpir", "fnir"])
            if not any(x > 0 for x in fpir):  # the log axis has no place for x <= 0
                raise ConfigError(f"{args.det}: column 'fpir' holds no value above 0 to plot")
            chart = svg.line_chart(
                [("", fpir, fnir)],
                title="Decision error trade-off",
                x_label="false positive identification rate",
                y_label="false negative identification rate",
                x_log=True,
            )
            out.path("det.svg").write_text(chart, encoding="utf-8")
            written.append("det.svg")
        write_run_config(args, out)
    print(f"plot: wrote {', '.join(written)} under {out.out_dir}")
    return 0


# ----------------------------------------------------------------- main


def build_parser():
    """The ``bilin`` parser, and its stage parsers by name.  Each option's
    type and default are declared here and nowhere else."""
    parser = argparse.ArgumentParser(
        prog="bilin",
        description="Bilinear encoding and open-set identification pipelines.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--identities", type=int, default=8)
    p.add_argument("--templates", type=int, default=20)
    p.add_argument("--media", type=int, default=4)
    p.add_argument("--map-dims", default="12x12x8")
    p.add_argument("--impostor-fraction", type=float, default=0.25)
    p.add_argument("--noise-sigma", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--splits", type=int, default=10)
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
    p.add_argument("--split", type=int, default=1)
    p.add_argument("--epochs", type=int, default=20)
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--lr-lower", type=float, default=0.001)
    p.add_argument("--lr-last", type=float, default=0.01)
    p.add_argument("--decay-factor", type=float, default=10.0)
    p.add_argument("--dropout", type=float, default=0.5)
    p.add_argument("--patience", type=int, default=3)
    p.add_argument("--kernel-size", type=int, default=3)
    p.add_argument("--out-channels", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("train-gallery", help="train one-vs-rest gallery SVMs")
    p.add_argument("--data", required=True)
    p.add_argument("--descriptors", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--check-files", action="store_true")
    p.add_argument("--split", type=int)
    p.add_argument("--reg-c", type=float, default=1.0)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--balanced", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train_gallery)

    p = sub.add_parser("eval", help="open-set 1:N evaluation")
    p.add_argument("--data", required=True)
    p.add_argument("--descriptors", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--check-files", action="store_true")
    p.add_argument("--split", type=int)
    p.add_argument("--pooling", choices=["score", "feature"], default="score")
    p.add_argument("--fnir-rank1", action="store_true")
    p.add_argument("--max-rank", type=int, default=100)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="render CMC/DET CSVs as SVG charts")
    p.add_argument("--cmc")
    p.add_argument("--det")
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=cmd_plot)

    return parser, sub.choices


def main(argv=None):
    parser, stages = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            parser.print_help()
            return 2
        if args.config:
            stage = stages[args.command]
            stage.set_defaults(**config_defaults(stage, args.config))
            args = parser.parse_args(argv)  # flags still win over the file
        seed = os.environ.get("BILIN_SEED")
        if seed is not None and hasattr(args, "seed"):
            try:
                args.seed = int(seed)
            except ValueError:
                raise ConfigError(f"BILIN_SEED must be an integer, got {seed!r}") from None
        return args.func(args)
    except SystemExit as exc:  # argparse: --help, or a usage error
        return int(exc.code or 0)
    except (ConfigError, DataError, ProtocolError, ShapeError) as exc:
        print(f"bilin: config error: {exc}", file=sys.stderr)
        return 2
    except (MetadataError, FormatError, OSError) as exc:
        print(f"bilin: i/o error: {exc}", file=sys.stderr)
        return 3
    except (NumericError, DivergenceError, DegenerateModelError) as exc:
        print(f"bilin: numeric failure: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        print("bilin: config error: out of memory; use smaller inputs or options",
              file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
