"""The benchmark's workloads: the flags each `bilin` stage is run with.

Every workload runs the same stages as separate processes: synth once
per set-up, then rounds of encode, train-gallery, eval, plot and
finetune.  Flags not listed here keep the CLI defaults.  The workload
seed is not part of a workload; ``run.py`` passes it to every stage that
takes ``--seed``.  README.md says why each workload was chosen.
"""

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    identities: int
    templates: int
    media: int
    map_dims: str
    splits: int
    pooling: str
    svm_epochs: int
    finetune_epochs: int
    noise_sigma: float = 0.1
    impostor_fraction: float = 0.25

    def synth_args(self, out, seed):
        return [
            "synth", "--out", str(out),
            "--identities", str(self.identities),
            "--templates", str(self.templates),
            "--media", str(self.media),
            "--map-dims", self.map_dims,
            "--impostor-fraction", repr(self.impostor_fraction),
            "--noise-sigma", repr(self.noise_sigma),
            "--splits", str(self.splits),
            "--seed", str(seed),
        ]

    def stage_args(self, data, out, seed):
        """(stage name, argv) of one round reading ``data`` and writing
        under ``out``, in the order the stages run."""
        desc, models, res = (out / n for n in ("desc", "models", "res"))
        return [
            ("encode", ["encode", "--input", str(data), "--out", str(desc), "--force"]),
            ("train_gallery", [
                "train-gallery", "--data", str(data), "--descriptors", str(desc),
                "--out", str(models), "--epochs", str(self.svm_epochs),
                "--seed", str(seed)]),
            ("eval", [
                "eval", "--data", str(data), "--descriptors", str(desc),
                "--models", str(models), "--out", str(res),
                "--pooling", self.pooling]),
            ("plot", [
                "plot", "--cmc", str(res / "cmc_s01.csv"),
                "--det", str(res / "det_s01.csv"), "--out", str(out / "charts")]),
            ("finetune", [
                "finetune", "--data", str(data), "--out", str(out / "ft"),
                "--epochs", str(self.finetune_epochs), "--seed", str(seed)]),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        # 9600 small maps, 150 gallery models, 1.17 M per-model scores in
        # eval: Python loops and per-file I/O dominate, BLAS does little.
        Workload("many_ids", identities=200, templates=12, media=4,
                 map_dims="6x6x16", splits=1, pooling="score",
                 svm_epochs=100, finetune_epochs=1),
        # The paper's descriptor size (262144-d): GEMM in the encoder and
        # memory traffic in the SVM; per-identity and per-file counts small.
        Workload("paper_dim", identities=10, templates=6, media=2,
                 map_dims="27x27x512", splits=1, pooling="score",
                 svm_epochs=25, finetune_epochs=2),
        # The README desk configuration over 10 splits: the only workload
        # with per-split loops and feature pooling; a small gallery.
        Workload("desk_10split", identities=8, templates=20, media=4,
                 map_dims="12x12x8", splits=10, pooling="feature",
                 svm_epochs=100, finetune_epochs=20),
    )
}


def tiny(workload):
    """A seconds-long variant that keeps the workload's code paths."""
    h, w, c = (int(p) for p in workload.map_dims.split("x"))
    return replace(
        workload, identities=min(workload.identities, 6), templates=6,
        media=min(workload.media, 2), map_dims=f"{min(h, 6)}x{min(w, 6)}x{min(c, 8)}",
        splits=min(workload.splits, 2), svm_epochs=10, finetune_epochs=2,
        impostor_fraction=0.34,
    )
