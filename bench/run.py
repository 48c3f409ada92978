"""Benchmark of the `bilin` CLI pipeline, run from the root of a checkout.

    python3 bench/run.py --workload many_ids --seed 1 --seconds 45 --trace 0

Rounds of encode, train-gallery, eval, plot and finetune run, each
stage as its own process, until the next round would end after
``--seconds`` of round time.  `bilin synth` runs before each of the
first SETUP_REPEATS rounds; setup_s is the median of these.  Every round redoes the same work over the same output
files.  Stage figures are medians over rounds.  After the last round
the outputs are checked against an independent computation (checks.py),
and the last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs
untraced and traced rounds in turn (traced_stage.py wraps the public
functions of each module) and reports the per-layer metrics of the
traced rounds, plus the tracing overhead of each stage: the median
traced wall time minus the median untraced one.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
RSS_STAGES = ("encode", "train_gallery", "eval", "finetune")
STAGES = ("encode", "train_gallery", "eval", "plot", "finetune")

END_TO_END = {
    "setup_s": "s", "encode_s": "s", "train_gallery_s": "s", "eval_s": "s",
    "finetune_s": "s", "pipeline_s": "s",
    **{f"{stage}_rss_mb": "MB" for stage in RSS_STAGES},
    "rank1": "fraction",
}

# Per-layer metrics, summed over the stage processes of one traced round.
# Busy time (`_s`) and call count (`_calls`) of a traced function:
BUSY = [
    "protocol.read_metadata", "io.load_feature_map", "io.save_descriptor",
    "io.load_descriptor", "io.save_gallery", "io.load_gallery",
    "encoder.encode", "encoder.bilinear_pool", "encoder.signed_sqrt",
    "encoder.l2_normalize", "encoder.encode_backward",
    "extractor.conv_forward", "extractor.conv_backward",
    "svm.train_ovr_svm", "svm.train_binary_svm", "svm.hinge_objective",
    "svm.rescale_model", "svm.score",
    "evaluate.evaluate_split", "evaluate.identify", "evaluate.score_vector",
    "evaluate.compute_cmc", "evaluate.compute_det",
    "finetune.finetune_softmax", "finetune.mean_loss_and_error",
    "svg.line_chart",
]
CALLS = [
    "protocol.read_metadata", "io.load_feature_map", "io.save_descriptor",
    "io.load_descriptor", "encoder.encode", "extractor.conv_forward",
    "extractor.conv_backward", "svm.train_binary_svm", "svm.hinge_objective",
    "svm.score", "evaluate.identify", "evaluate.score_vector",
    "evaluate.pool_scores", "evaluate.pool_features",
    "finetune.mean_loss_and_error",
]
PER_LAYER = {
    "protocol.synth_generate_s": "s",
    **{f"{n}_s": "s" for n in BUSY},
    **{f"{n}_calls": "count" for n in CALLS},
    "io.feature_map_mb_read": "MB",
    "io.gallery_mb": "MB",
    "encoder.pool_gflop": "GFLOP",
    "encoder.pool_gflop_per_s": "GFLOP/s",
    "svm.objective_evals_per_epoch": "ratio",
    "evaluate.scores_per_template": "ratio",
    "evaluate.pool_s": "s",
    "evaluate.det_grid_points": "count",
    "finetune.loss_passes_per_epoch": "ratio",
    "cli.import_s": "s",
    "cli.encode_self_s": "s",
    "cli.train_gallery_self_s": "s",
    "cli.eval_self_s": "s",
    **{f"trace.{stage}_overhead_s": "s" for stage in ("synth", *STAGES)},
}


def stage_env():
    """The fixed environment of every stage process."""
    env = {k: v for k, v in os.environ.items()
           if k != "BILIN_SEED" and not k.startswith("PYTHON")}
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


class StageFailed(Exception):
    pass


class Runner:
    """Runs `bilin` stages as child processes and counts them.

    Synth always writes ``work/data`` and every round ``work/out``, so
    after the first run in a checkout each stage overwrites files that
    exist and creates none.  On an ext4 virtual disk the cost of creating
    a file moved between 0.02 and 0.3 ms from one minute to the next,
    which made encode's kernel time swing between 0.2 and 2.9 s;
    overwriting cost 0.3 to 0.5 s and moved less.
    """

    def __init__(self, work):
        self.work = work
        self.data = work / "data"
        self.out = work / "out"
        self.env = stage_env()
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def run(self, args, trace_file=None):
        """(wall seconds, peak RSS in MB) of one stage process."""
        if trace_file is None:
            argv = [sys.executable, "-m", "bilin.cli", *args]
        else:
            argv = [sys.executable, str(BENCH / "traced_stage.py"), str(trace_file), *args]
        self.attempted += 1
        log = self.work / "stage.log"
        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT, stdout=out,
                                    stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            sys.stderr.write(log.read_text(errors="replace"))
            raise StageFailed(f"`bilin {args[0]}` exited with {proc.returncode}")
        return wall, usage.ru_maxrss / 1024.0

    def synth(self, workload, seed, traced=False):
        """Wall time and (traced) trace file of one synth."""
        trace = self.work / "synth_trace.json" if traced else None
        return self.run(workload.synth_args(self.data, seed), trace)[0], trace

    def round(self, workload, seed, traced=False):
        """Wall, RSS and (traced) trace file of each stage of one round."""
        (self.out / "traces").mkdir(parents=True, exist_ok=True)
        stages = {}
        start = time.perf_counter()
        for stage, args in workload.stage_args(self.data, self.out, seed):
            trace = self.out / "traces" / f"{stage}.json" if traced else None
            wall, rss = self.run(args, trace)
            stages[stage] = {"wall": wall, "rss": rss, "trace": trace}
        pipeline = time.perf_counter() - start
        digest = output_digest(self.out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise checks.CheckError("a round's outputs differ from the first round's")
        return {"stages": stages, "pipeline": pipeline}


def rounds_for(seconds, run_round, before=()):
    """Run whole rounds until the next would likely end after ``seconds``
    of round time.  ``before[i]`` runs ahead of round i, untimed."""
    results, spent = [], 0.0
    while True:
        if len(results) < len(before):
            before[len(results)]()
        start = time.perf_counter()
        results.append(run_round())
        spent += time.perf_counter() - start
        if len(results) >= len(before) and spent + spent / len(results) > seconds:
            return results


def output_digest(out):
    """Hash of the deterministic outputs of a round."""
    digest = hashlib.sha256()
    for pattern in ("models/*.bgm", "res/*.csv", "res/summary.json", "ft/*.npy",
                    "ft/loss_trace.json"):
        for path in sorted(out.glob(pattern)):
            digest.update(path.read_bytes())
    return digest.hexdigest()


def end_to_end(setup_walls, rounds, out):
    median = statistics.median
    metrics = {"setup_s": median(setup_walls),
               "pipeline_s": median(r["pipeline"] for r in rounds)}
    for stage in ("encode", "train_gallery", "eval", "finetune"):
        metrics[f"{stage}_s"] = median(r["stages"][stage]["wall"] for r in rounds)
    for stage in RSS_STAGES:
        metrics[f"{stage}_rss_mb"] = median(r["stages"][stage]["rss"] for r in rounds)
    summary = json.loads((out / "res" / "summary.json").read_text())
    metrics["rank1"] = summary["mean"]["rank1"]
    return metrics


def load_traces(stage_round):
    return {stage: json.loads(s["trace"].read_text())
            for stage, s in stage_round["stages"].items()}


def layer_metrics(traces, synth_trace, workload):
    """Per-layer metrics of one traced round, and the names measured as absent."""
    stats, extras, absent = {}, {}, set(synth_trace["absent"])
    for trace in traces.values():
        absent.update(trace["absent"])
        for name, s in trace["stats"].items():
            total = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in total:
                total[key] += s[key]
        for name, value in trace["extras"].items():
            extras[name] = extras.get(name, 0) + value
    used = []

    def get(name, key="busy_s", source=stats):
        used.append(name)
        return source.get(name, {}).get(key, 0)

    def extra(name):
        used.append(name)
        return extras.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    formulas = {
        "protocol.synth_generate_s": lambda: get(
            "protocol.synth_generate", source=synth_trace["stats"]),
        **{f"{n}_s": (lambda n=n: get(n)) for n in BUSY},
        **{f"{n}_calls": (lambda n=n: get(n, "calls")) for n in CALLS},
        "io.feature_map_mb_read": lambda: extra("io.feature_map_bytes") / 2**20,
        "io.gallery_mb": lambda: extra("io.gallery_bytes_saved") / 2**20,
        "encoder.pool_gflop": lambda: extra("encoder.pool_flop") / 1e9,
        "encoder.pool_gflop_per_s": lambda: ratio(
            extra("encoder.pool_flop") / 1e9, get("encoder.bilinear_pool")),
        "svm.objective_evals_per_epoch": lambda: ratio(
            get("svm.hinge_objective", "calls"),
            get("svm.train_binary_svm", "calls") * workload.svm_epochs),
        "evaluate.scores_per_template": lambda: ratio(
            get("svm.score", "calls"), get("evaluate.identify", "calls")),
        "evaluate.pool_s": lambda: get("evaluate.pool_scores") + get("evaluate.pool_features"),
        "evaluate.det_grid_points": lambda: extra("evaluate.det_grid_points"),
        "finetune.loss_passes_per_epoch": lambda: ratio(
            get("finetune.mean_loss_and_error", "calls") - 1, workload.finetune_epochs),
        "cli.import_s": lambda: statistics.median(t["import_s"] for t in traces.values()),
        "cli.encode_self_s": lambda: get("cli.encode", "self_s"),
        "cli.train_gallery_self_s": lambda: get("cli.train_gallery", "self_s"),
        "cli.eval_self_s": lambda: get("cli.eval", "self_s"),
    }
    values, absent_metrics = {}, set()
    for metric, formula in formulas.items():
        used.clear()
        values[metric] = float(formula())
        if absent.intersection(used):
            absent_metrics.add(metric)
    return values, absent_metrics


def measure(workload, seed, seconds, trace, work):
    """Run one benchmark measurement in ``work``; returns the result object."""
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work)
    correct = True
    metrics = {}
    try:
        # compile bytecode and load shared libraries before timing
        subprocess.run([sys.executable, "-c", "import bilin.cli"], env=runner.env,
                       cwd=ROOT, check=True)
        primed = work / "primed"
        if not primed.exists():
            # first run in this checkout: create every file once, untimed
            runner.synth(workload, seed)
            runner.round(workload, seed)
            primed.touch()
            runner.digest = None
        if trace:
            values, absent = run_traced(runner, workload, seed, seconds)
            metrics = {n: {"value": values[n], "unit": u} for n, u in PER_LAYER.items()}
            if absent:
                print("absent (reported as 0): " + ", ".join(sorted(absent)),
                      file=sys.stderr)
        else:
            # spread over the run, so that each synth finds the previous
            # one's writeback done and the median spans several phases
            setup = []
            synth = lambda: setup.append(runner.synth(workload, seed)[0])  # noqa: E731
            rounds = rounds_for(seconds, lambda: runner.round(workload, seed),
                                before=[synth] * SETUP_REPEATS)
            values = end_to_end(setup, rounds, runner.out)
            metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END.items()}
        checks.check_outputs(runner.data, runner.out, workload)
    except (StageFailed, checks.CheckError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        correct = False
    return {"correct": correct, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def run_traced(runner, workload, seed, seconds):
    synth = {False: [], True: []}
    for traced in (False, True, False, True):
        synth[traced].append(runner.synth(workload, seed, traced))
    synth_trace = json.loads(synth[True][-1][1].read_text())

    def pair():
        plain = runner.round(workload, seed)
        traced = runner.round(workload, seed, traced=True)
        return plain, traced, layer_metrics(load_traces(traced), synth_trace, workload)

    pairs = rounds_for(seconds, pair)
    values = {name: statistics.median(p[2][0][name] for p in pairs)
              for name in pairs[0][2][0]}
    absent = set().union(*(p[2][1] for p in pairs))
    values["trace.synth_overhead_s"] = (statistics.median(w for w, _ in synth[True])
                                        - statistics.median(w for w, _ in synth[False]))
    for stage in STAGES:
        values[f"trace.{stage}_overhead_s"] = (
            statistics.median(p[1]["stages"][stage]["wall"] for p in pairs)
            - statistics.median(p[0]["stages"][stage]["wall"] for p in pairs))
    return values, absent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "bilin" / "cli.py").is_file():
        print(f"bench: no bilin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), ROOT / ".bench_work" / args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
