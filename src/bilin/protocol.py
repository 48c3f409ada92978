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
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, MetadataError
from .io import MAX_MAP_ELEMENTS, save_feature_map

ROLES = ("train", "gallery", "probe")
KINDS = ("still", "frame")
CSV_COLUMNS = ("split_index", "role", "template_id", "subject_id",
               "media_id", "kind", "path")

# media ids become output filenames, so keep them to a safe charset
MEDIA_ID_PATTERN = re.compile(r"[A-Za-z0-9._-]+")


@dataclass(slots=True)
class MediaItem:
    media_id: str
    kind: str
    path: str
    template_id: str


@dataclass(slots=True)
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

    def impostor_probes(self):
        enrolled = {t.subject_id for t in self.gallery}
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


def _read_rows(path, reader, header):
    """The splits of the rows ``reader`` yields after ``header``, by split
    index; see :func:`read_metadata`."""
    column = {name: i for i, name in enumerate(header)}  # the last of a repeated name
    cells = operator.itemgetter(*(column[name] for name in CSV_COLUMNS))
    width = len(header)
    kinds = dict(zip(KINDS, KINDS))  # so each record holds the one canonical string

    splits = {}
    seen_media = set()
    template_role = {}
    templates = {}
    try:
        for row in reader:
            if not row:
                continue
            lineno = reader.line_num
            if len(row) < width:
                raise MetadataError(f"{path}:{lineno}: row has fewer cells than the header")
            split_cell, role, template_id, subject_id, media_id, kind, rel_path = cells(row)
            try:
                split_index = int(split_cell)
            except ValueError:
                raise MetadataError(f"{path}:{lineno}: bad split_index {split_cell!r}") from None
            if role not in ROLES:
                raise MetadataError(f"{path}:{lineno}: unknown role {role!r}")
            if kind not in KINDS:
                raise MetadataError(f"{path}:{lineno}: unknown kind {kind!r}")
            if not media_id or media_id in seen_media:
                raise MetadataError(f"{path}:{lineno}: duplicate media_id {media_id!r}")
            if not MEDIA_ID_PATTERN.fullmatch(media_id) or not media_id.strip("."):
                raise MetadataError(
                    f"{path}:{lineno}: media_id {media_id!r} is not filename-safe"
                )
            if "\x00" in rel_path:
                raise MetadataError(f"{path}:{lineno}: path {rel_path!r} holds a NUL byte")
            seen_media.add(media_id)

            key = (split_index, template_id)
            template = templates.get(key)
            if template is None:
                split = splits.get(split_index)
                if split is None:
                    split = splits[split_index] = Split(split_index=split_index)
                template = templates[key] = Template(template_id, subject_id)
                template_role[key] = role
                split.templates(role).append(template)
            else:
                if template.subject_id != subject_id:
                    raise MetadataError(
                        f"{path}:{lineno}: template {template_id!r} spans "
                        f"subjects {template.subject_id!r} and {subject_id!r}"
                    )
                if template_role[key] != role:
                    raise MetadataError(
                        f"{path}:{lineno}: template {template_id!r} spans "
                        f"roles {template_role[key]!r} and {role!r}"
                    )
            template.media.append(
                MediaItem(media_id, kinds[kind], rel_path, template.template_id))
    except csv.Error as exc:
        raise MetadataError(f"{path}:{reader.line_num}: {exc}") from None
    if not splits:
        raise MetadataError(f"{path}: no media rows")
    return splits


def read_metadata(path, check_files=False):
    """Load every split from a metadata CSV, sorted by split index.

    Raises MetadataError on schema violations: bad header, a row with
    fewer cells than the header, unknown role or kind, duplicate media
    ids, a path holding a NUL byte, a template spanning two subjects or
    two roles, a cell the csv module cannot parse (one over its field
    size limit), an empty file, or one that is not UTF-8.  With
    ``check_files`` every referenced feature file must exist.

    Rows are read as ``csv.DictReader`` would read them: columns in any
    order, blank lines skipped and extra cells ignored.  An error names
    the file line its row ends on.

    The file is read in one streaming pass: each row is checked and
    becomes a record as it is read, and no row is kept.  The errors come
    in the order of a reader that decodes the whole file first: a bad
    header, then a byte that is not UTF-8 anywhere in the file, then the
    first bad row.  So the header is checked before the body is decoded,
    and a bad row is raised only once the rest of the file has decoded.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as f:
            reader = csv.reader(f)
            try:
                header = next(reader, None)
            except csv.Error as exc:
                raise MetadataError(f"{path}:{reader.line_num}: {exc}") from None
            if header is None or set(header) != set(CSV_COLUMNS):
                raise MetadataError(
                    f"{path}: header must be exactly {','.join(CSV_COLUMNS)}"
                )
            try:
                splits = _read_rows(path, reader, header)
            except MetadataError:
                # a byte that is not UTF-8 past the bad row is reported first
                while f.read(1 << 16):
                    pass
                raise
    except UnicodeDecodeError:
        raise MetadataError(f"{path}: not UTF-8 text") from None

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
        h, w, c = self.map_dims
        # checked before anything is drawn: a map, and the c x c mixing matrix
        if max(h * w * c, c * c) > MAX_MAP_ELEMENTS:
            raise ConfigError(f"map_dims {h}x{w}x{c}: a map or the {c}x{c} mixing matrix "
                              f"exceeds the .bfm limit of {MAX_MAP_ELEMENTS} values")
        if not 0.0 < self.impostor_fraction < 1.0:
            raise ConfigError("impostor_fraction must lie strictly in (0, 1)")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ConfigError("noise_sigma must be finite and non-negative")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
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
