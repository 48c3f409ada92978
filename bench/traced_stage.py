"""Run one `bilin` CLI stage with the public functions of its modules timed.

Usage: python3 bench/traced_stage.py TRACE_JSON BILIN_ARG...

The wrappers are installed from here, around the calls into each
module, so the program itself is unchanged.  Every wrapped call adds
to its function's call count, busy time and self time (busy time minus
the time of wrapped calls made inside it).  Functions marked as spans
also keep one (name, start, end, parent span) record per call; the hot
ones, called up to millions of times in a stage, are only added up, so
that the trace does not swamp the stage it measures.  A target that no
longer exists is listed as absent instead of failing the stage.
"""

import functools
import json
import os
import sys
import time

_t0 = time.perf_counter()
import bilin.cli  # noqa: E402  (timed: the import every stage pays)

IMPORT_S = time.perf_counter() - _t0

# (metric prefix, module, attribute, keep one span per call)
TARGETS = [
    ("protocol.synth_generate", "bilin.protocol", "synth_generate", True),
    ("protocol.read_metadata", "bilin.protocol", "read_metadata", True),
    ("io.load_feature_map", "bilin.io", "load_feature_map", True),
    ("io.save_descriptor", "bilin.io", "save_descriptor", True),
    ("io.load_descriptor", "bilin.io", "load_descriptor", True),
    ("io.save_gallery", "bilin.io", "save_gallery", True),
    ("io.load_gallery", "bilin.io", "load_gallery", True),
    ("encoder.encode", "bilin.encoder", "encode", True),
    ("encoder.bilinear_pool", "bilin.encoder", "bilinear_pool", False),
    ("encoder.signed_sqrt", "bilin.encoder", "signed_sqrt", False),
    ("encoder.l2_normalize", "bilin.encoder", "l2_normalize", False),
    ("encoder.encode_backward", "bilin.encoder", "encode_backward", False),
    ("extractor.conv_forward", "bilin.extractor", "conv_forward", False),
    ("extractor.conv_backward", "bilin.extractor", "conv_backward", False),
    ("svm.train_ovr_svm", "bilin.svm", "train_ovr_svm", True),
    ("svm.train_binary_svm", "bilin.svm", "train_binary_svm", True),
    ("svm.hinge_objective", "bilin.svm", "hinge_objective", False),
    ("svm.rescale_model", "bilin.svm", "rescale_model", True),
    ("svm.score", "bilin.svm", "score", False),
    ("evaluate.evaluate_split", "bilin.evaluate", "evaluate_split", True),
    ("evaluate.identify", "bilin.evaluate", "identify", True),
    ("evaluate.score_vector", "bilin.svm", "GalleryModelSet.score_vector", True),
    ("evaluate.pool_scores", "bilin.evaluate", "pool_scores", False),
    ("evaluate.pool_features", "bilin.evaluate", "pool_features", False),
    ("evaluate.compute_cmc", "bilin.evaluate", "compute_cmc", True),
    ("evaluate.compute_det", "bilin.evaluate", "compute_det", True),
    ("finetune.finetune_softmax", "bilin.finetune", "finetune_softmax", True),
    ("finetune.mean_loss_and_error", "bilin.finetune", "mean_loss_and_error", True),
    ("svg.line_chart", "bilin.svg", "line_chart", True),
    ("cli.synth", "bilin.cli", "cmd_synth", True),
    ("cli.encode", "bilin.cli", "cmd_encode", True),
    ("cli.train_gallery", "bilin.cli", "cmd_train_gallery", True),
    ("cli.eval", "bilin.cli", "cmd_eval", True),
    ("cli.plot", "bilin.cli", "cmd_plot", True),
    ("cli.finetune", "bilin.cli", "cmd_finetune", True),
]


def _map_bytes(args, kwargs, result):
    return result.values.nbytes + 20  # 20-byte .bfm header


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _pool_flop(args, kwargs, result):
    a = args[0]
    b = args[1] if len(args) > 1 and args[1] is not None else a
    h, w, ca = a.shape
    return 2 * h * w * ca * b.shape[2]


def _grid_points(args, kwargs, result):
    return len(result.thresholds)


# Quantities added up from a call's arguments or result:
# extra name -> (target, function of (args, kwargs, result)).
EXTRAS = {
    "io.feature_map_bytes": ("io.load_feature_map", _map_bytes),
    "io.gallery_bytes_saved": ("io.save_gallery", _file_bytes),
    "encoder.pool_flop": ("encoder.bilinear_pool", _pool_flop),
    "evaluate.det_grid_points": ("evaluate.compute_det", _grid_points),
}


class Tracer:
    def __init__(self):
        self.stats = {}    # name -> [calls, busy_s, self_s]
        self.extras = {}   # extra name -> summed value
        self.spans = []    # [name, start, end, parent span index or -1]
        self.absent = []   # targets or extras that could not be measured
        self._stack = []   # open calls: [start, child time, nearest span index]

    def wrap(self, name, fn, keep_spans, extras):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][2] if stack else -1
            if keep_spans:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            else:
                index = parent
            frame = [clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                took = end - frame[0]
                stats[0] += 1
                stats[1] += took
                stats[2] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if keep_spans:
                    spans[index][1:3] = frame[0], end
            for extra, measure in extras:
                self._add_extra(extra, measure, args, kwargs, result)
            return result

        return traced

    def _add_extra(self, extra, measure, args, kwargs, result):
        try:
            value = measure(args, kwargs, result)
        except (AttributeError, IndexError, TypeError, ValueError, OSError):
            # the call's signature or result changed: measure nothing
            if extra not in self.absent:
                self.absent.append(extra)
            return
        self.extras[extra] = self.extras.get(extra, 0) + value

    def install(self):
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "bilin" or n.startswith("bilin."))]
        for name, module_name, attribute, keep_spans in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, leaf, None)
            if not callable(fn):
                self.absent.append(name)
                continue
            extras = [(e, m) for e, (target, m) in EXTRAS.items() if target == name]
            traced = self.wrap(name, fn, keep_spans, extras)
            if path:
                setattr(owner, leaf, traced)
                continue
            # rebind every name that refers to the function, including
            # `from .x import f` copies in other modules
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, traced)
        self.absent.extend(e for e, (target, _) in EXTRAS.items()
                           if target in self.absent)

    def dump(self, path, returncode):
        record = {
            "returncode": returncode,
            "import_s": IMPORT_S,
            "stats": {n: {"calls": c, "busy_s": b, "self_s": s}
                      for n, (c, b, s) in self.stats.items()},
            "extras": self.extras,
            "absent": self.absent,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(record, f)


def main(argv):
    trace_path, bilin_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    returncode = bilin.cli.main(bilin_args)
    tracer.dump(trace_path, returncode)
    return returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
