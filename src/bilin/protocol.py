"""Open-set identification protocol data: media, templates, splits.

Metadata lives in a UTF-8 CSV with header
``split_index,role,template_id,subject_id,media_id,kind,path`` and one
row per medium; ``role`` is train/gallery/probe and ``kind`` is
still/frame.  Paths are stored relative to the CSV's directory.  A
template groups the media of one observation of one subject and is the
unit of evaluation; probe subjects missing from the gallery are the
impostors that make the protocol open-set.

The synthetic generator plants a hidden channel-correlation pattern per
identity, so classes are separable by second-order statistics while
location-averaged first-order features carry almost no identity signal.
"""

import csv
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, MetadataError
from .io import save_feature_map

ROLES = ("train", "gallery", "probe")
KINDS = ("still", "frame")
CSV_COLUMNS = ("split_index", "role", "template_id", "subject_id",
               "media_id", "kind", "path")

# media ids become output filenames, so keep them to a safe charset
MEDIA_ID_PATTERN = re.compile(r"[A-Za-z0-9._-]+")


@dataclass
class MediaItem:
    media_id: str
    kind: str
    path: str
    template_id: str


@dataclass
class Template:
    template_id: str
    subject_id: str
    media: list = field(default_factory=list)


@dataclass
class Split:
    split_index: int
    train: list = field(default_factory=list)
    gallery: list = field(default_factory=list)
    probe: list = field(default_factory=list)

    def templates(self, role):
        return getattr(self, role)

    def gallery_subjects(self):
        return {t.subject_id for t in self.gallery}

    def impostor_probes(self):
        enrolled = self.gallery_subjects()
        return [t for t in self.probe if t.subject_id not in enrolled]

    def all_media(self):
        for role in ROLES:
            for template in self.templates(role):
                yield from template.media


def write_metadata(splits, path):
    """Write splits to CSV in deterministic order (split, role, row)."""
    path = Path(path)
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_COLUMNS)
        for split in sorted(splits, key=lambda s: s.split_index):
            for role in ROLES:
                for template in split.templates(role):
                    for m in template.media:
                        writer.writerow([
                            split.split_index, role, template.template_id,
                            template.subject_id, m.media_id, m.kind, m.path,
                        ])


def read_metadata(path, check_files=False):
    """Load every split from a metadata CSV, sorted by split index.

    Raises MetadataError on schema violations: bad header, unknown role
    or kind, duplicate media ids, a template spanning two subjects or
    two roles, an empty file, or one that is not UTF-8.  With
    ``check_files`` every referenced feature file must exist.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.DictReader(f)
            if reader.fieldnames is None or set(reader.fieldnames) != set(CSV_COLUMNS):
                raise MetadataError(
                    f"{path}: header must be exactly {','.join(CSV_COLUMNS)}"
                )
            rows = list(reader)
    except UnicodeDecodeError:
        raise MetadataError(f"{path}: not UTF-8 text") from None
    if not rows:
        raise MetadataError(f"{path}: no media rows")

    splits = {}
    seen_media = set()
    template_role = {}
    templates = {}
    for lineno, row in enumerate(rows, start=2):
        try:
            split_index = int(row["split_index"])
        except (TypeError, ValueError):
            raise MetadataError(
                f"{path}:{lineno}: bad split_index {row['split_index']!r}"
            ) from None
        role = row["role"]
        if role not in ROLES:
            raise MetadataError(f"{path}:{lineno}: unknown role {role!r}")
        kind = row["kind"]
        if kind not in KINDS:
            raise MetadataError(f"{path}:{lineno}: unknown kind {kind!r}")
        media_id = row["media_id"]
        if not media_id or media_id in seen_media:
            raise MetadataError(f"{path}:{lineno}: duplicate media_id {media_id!r}")
        if not MEDIA_ID_PATTERN.fullmatch(media_id) or set(media_id) == {"."}:
            raise MetadataError(
                f"{path}:{lineno}: media_id {media_id!r} is not filename-safe"
            )
        seen_media.add(media_id)

        split = splits.setdefault(split_index, Split(split_index=split_index))
        key = (split_index, row["template_id"])
        template = templates.get(key)
        if template is None:
            template = Template(row["template_id"], row["subject_id"])
            templates[key] = template
            template_role[key] = role
            split.templates(role).append(template)
        else:
            if template.subject_id != row["subject_id"]:
                raise MetadataError(
                    f"{path}:{lineno}: template {row['template_id']!r} spans "
                    f"subjects {template.subject_id!r} and {row['subject_id']!r}"
                )
            if template_role[key] != role:
                raise MetadataError(
                    f"{path}:{lineno}: template {row['template_id']!r} spans "
                    f"roles {template_role[key]!r} and {role!r}"
                )
        template.media.append(
            MediaItem(media_id, kind, row["path"], row["template_id"])
        )

    if check_files:
        missing = [
            m.path
            for split in splits.values()
            for m in split.all_media()
            if not (path.parent / m.path).exists()
        ]
        if missing:
            raise MetadataError(
                f"{path}: {len(missing)} referenced files missing, "
                f"first: {missing[0]}"
            )
    return [splits[i] for i in sorted(splits)]


def load_split(path, split_index, check_files=False):
    for split in read_metadata(path, check_files=check_files):
        if split.split_index == split_index:
            return split
    raise MetadataError(f"{path}: no split with index {split_index}")


@dataclass
class SplitReport:
    """Counts and invariant violations for one split; pure inspection."""

    split_index: int
    identity_counts: dict
    template_counts: dict
    media_counts: dict
    impostor_count: int
    train_gallery_overlap: int
    violations: list

    @property
    def ok(self):
        return not self.violations


def validate_split(split):
    identity_counts = {}
    template_counts = {}
    media_counts = {}
    violations = []
    for role in ROLES:
        templates = split.templates(role)
        identity_counts[role] = len({t.subject_id for t in templates})
        template_counts[role] = len(templates)
        media_counts[role] = sum(len(t.media) for t in templates)
        for t in templates:
            if not t.media:
                violations.append(f"{role} template {t.template_id!r} has no media")

    if not split.gallery:
        violations.append("gallery is empty")
    if not split.probe:
        violations.append("probe set is empty")

    enrolled = [t.subject_id for t in split.gallery]
    for subject in sorted(set(enrolled)):
        n = enrolled.count(subject)
        if n > 1:
            violations.append(
                f"subject {subject!r} enrolled in {n} gallery templates"
            )

    impostors = {t.subject_id for t in split.impostor_probes()}
    if split.probe and not impostors:
        violations.append("no impostor probes (open-set violation)")

    overlap = {t.subject_id for t in split.train} & split.gallery_subjects()
    return SplitReport(
        split_index=split.split_index,
        identity_counts=identity_counts,
        template_counts=template_counts,
        media_counts=media_counts,
        impostor_count=len(impostors),
        train_gallery_overlap=len(overlap),
        violations=violations,
    )


@dataclass
class SynthConfig:
    """Controls the synthetic channel-correlation dataset generator."""

    num_identities: int = 8
    templates_per_identity: int = 20
    media_per_template: int = 4
    map_dims: tuple = (12, 12, 8)
    impostor_fraction: float = 0.25
    noise_sigma: float = 0.1
    seed: int = 0
    num_splits: int = 1

    def validate(self):
        if self.num_identities < 3:
            raise ConfigError("need at least 3 identities (2 enrolled + 1 impostor)")
        if self.templates_per_identity < 2:
            raise ConfigError("enrolled identities need gallery and probe templates")
        if self.media_per_template < 1:
            raise ConfigError("media_per_template must be positive")
        if len(self.map_dims) != 3 or min(self.map_dims) < 1:
            raise ConfigError(f"bad map_dims {self.map_dims!r}")
        if not 0.0 < self.impostor_fraction < 1.0:
            raise ConfigError("impostor_fraction must lie strictly in (0, 1)")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.num_splits < 1:
            raise ConfigError("num_splits must be positive")
        n_imp = self.impostor_count()
        if n_imp < 1:
            raise ConfigError("impostor_fraction yields no impostor identities")
        if self.num_identities - n_imp < 2:
            raise ConfigError("too few enrolled identities after impostor cut")

    def impostor_count(self):
        return int(round(self.num_identities * self.impostor_fraction))


def _identity_pattern(rng, channels):
    # Random mixing matrix with unit-norm rows: every channel keeps unit
    # marginal variance, so identities differ only in cross-channel
    # correlation (a second-order property).
    m = rng.standard_normal((channels, channels))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _render_map(rng, pattern, dims, noise_sigma):
    h, w, c = dims
    latent = rng.standard_normal((h * w, c)) @ pattern.T
    if noise_sigma > 0:
        latent = latent + noise_sigma * rng.standard_normal((h * w, c))
    return np.maximum(latent, 0.0).reshape(h, w, c)


def synth_generate(cfg, out_dir):
    """Write a synthetic dataset (maps/*.bfm + metadata.csv) to out_dir.

    Per enrolled identity and split: one gallery template, roughly a
    fifth of the rest as train templates, the remainder probe.
    Impostor identities contribute probe templates only.  Deterministic
    for a fixed config: identical configs produce identical bytes.

    Returns the list of generated Split objects.
    """
    cfg.validate()
    out_dir = Path(out_dir)
    maps_dir = out_dir / "maps"
    maps_dir.mkdir(parents=True, exist_ok=True)

    n_imp = cfg.impostor_count()
    n_enrolled = cfg.num_identities - n_imp
    t_total = cfg.templates_per_identity
    t_train = (t_total - 1) // 5

    splits = []
    for split_index in range(1, cfg.num_splits + 1):
        split = Split(split_index=split_index)
        for k in range(cfg.num_identities):
            subject = f"s{split_index:02d}_id{k:03d}"
            pattern = _identity_pattern(
                np.random.default_rng([cfg.seed, split_index, k]),
                cfg.map_dims[2],
            )
            if k < n_enrolled:
                roles = (["gallery"] + ["train"] * t_train
                         + ["probe"] * (t_total - 1 - t_train))
            else:
                roles = ["probe"] * t_total
            for t_idx, role in enumerate(roles):
                template = Template(f"{subject}_t{t_idx:02d}", subject)
                for m_idx in range(cfg.media_per_template):
                    media_id = f"{template.template_id}_m{m_idx:02d}"
                    rel_path = f"maps/{media_id}.bfm"
                    rng = np.random.default_rng(
                        [cfg.seed, split_index, k, t_idx, m_idx]
                    )
                    values = _render_map(rng, pattern, cfg.map_dims,
                                         cfg.noise_sigma)
                    save_feature_map(out_dir / rel_path, values, rectified=True)
                    template.media.append(
                        MediaItem(media_id, "still" if m_idx == 0 else "frame",
                                  rel_path, template.template_id)
                    )
                split.templates(role).append(template)
        splits.append(split)

    write_metadata(splits, out_dir / "metadata.csv")
    return splits
