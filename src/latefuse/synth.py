"""Synthetic multi-modal cohort generator with planted, per-modality signal.

Informative features are class-conditional: each gets a fixed-magnitude
effect (sign chosen at random) for the classes its modality discriminates,
and zero effect elsewhere. Restricting a modality's informative classes to a
subset plants complementary signal across modalities. Generation is a pure
function of the spec (identical output for an identical seed).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .data import ModalityTable, MultiModalDataset


class SynthError(Exception):
    pass


@dataclass(frozen=True)
class ModalitySpec:
    name: str
    n_features: int = 50
    n_informative: int = 5
    separation: float = 1.0  # effect magnitude in noise-sd units
    missing_fraction: float = 0.0
    zero_fraction: float = 0.0
    count_valued: bool = False  # Poisson counts (exercises cpm_log)
    informative_classes: Optional[tuple[int, ...]] = None  # None = every class

    def __post_init__(self) -> None:
        if self.n_informative > self.n_features:
            raise SynthError(f"{self.name}: informative > total features")
        for attr in ("missing_fraction", "zero_fraction"):
            v = getattr(self, attr)
            if not 0.0 <= v <= 1.0:
                raise SynthError(f"{self.name}: {attr} must be in [0,1]")


@dataclass(frozen=True)
class SynthSpec:
    modalities: tuple[ModalitySpec, ...]
    n_samples: int = 100
    n_classes: int = 4
    class_weights: Optional[tuple[float, ...]] = None
    class_names: Optional[tuple[str, ...]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise SynthError("seed: must be >= 0")
        if self.n_classes < 2:
            raise SynthError("need at least 2 classes")
        if not self.modalities:
            raise SynthError("need at least 1 modality")
        if self.class_weights is not None and len(self.class_weights) != self.n_classes:
            raise SynthError("class_weights length mismatch")
        if self.class_names is not None and len(self.class_names) != self.n_classes:
            raise SynthError("class_names length mismatch")
        names = [m.name for m in self.modalities]
        if len(set(names)) != len(names):
            raise SynthError("duplicate modality name")
        for m in self.modalities:
            if m.informative_classes is not None:
                bad = [c for c in m.informative_classes if not 0 <= c < self.n_classes]
                if bad:
                    raise SynthError(f"{m.name}: informative class out of range {bad}")


def _class_counts(spec: SynthSpec) -> np.ndarray:
    weights = spec.class_weights or tuple(1.0 for _ in range(spec.n_classes))
    w = np.asarray(weights, dtype=np.float64)
    w = w / w.sum()
    counts = np.floor(w * spec.n_samples).astype(int)
    # distribute the remainder by largest fractional part, ties to lower class
    remainder = spec.n_samples - counts.sum()
    frac = w * spec.n_samples - counts
    for k in np.argsort(-frac, kind="stable")[:remainder]:
        counts[k] += 1
    if (counts < 1).any():
        raise SynthError("a class received zero samples; adjust weights or n_samples")
    return counts


def _effect_signs(
    rng: np.random.Generator, n_informative: int, classes: Sequence[int], n_classes: int
) -> np.ndarray:
    """Per-(feature, class) effect signs; zero outside the informative classes.

    Every informative feature must actually carry signal: when a modality
    discriminates all classes, a feature's signs may not be constant across
    them (a constant shift separates nothing). Class columns are guaranteed
    pairwise distinct so the discriminated classes stay separable.
    """
    signs = np.zeros((n_informative, n_classes), dtype=np.float64)
    if n_informative == 0:
        return signs
    covers_all = len(classes) == n_classes and n_classes >= 2
    for _ in range(100):
        for c in classes:
            signs[:, c] = rng.choice([-1.0, 1.0], size=n_informative)
        if covers_all:
            for f in range(n_informative):
                while len(set(signs[f, list(classes)])) == 1:
                    signs[f, list(classes)] = rng.choice([-1.0, 1.0], size=len(classes))
        cols = [tuple(signs[:, c]) for c in classes]
        if len(set(cols)) == len(cols):
            return signs
    raise SynthError("could not draw distinct class effect patterns")


def generate(spec: SynthSpec) -> tuple[MultiModalDataset, dict]:
    """Build the dataset plus a ground-truth manifest.

    The manifest lists the informative (modality, feature) pairs and a
    separability score per modality (effect mass per discriminated class),
    which ranks modalities by their planted signal strength.
    """
    counts = _class_counts(spec)
    label_rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed, spawn_key=(0,)))
    labels = np.repeat(np.arange(spec.n_classes), counts)
    labels = labels[label_rng.permutation(len(labels))]
    sample_ids = [f"S{i:04d}" for i in range(spec.n_samples)]
    class_names = list(spec.class_names) if spec.class_names else [
        f"C{k}" for k in range(spec.n_classes)
    ]

    tables = []
    manifest_modalities = []
    for mi, mspec in enumerate(spec.modalities):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=spec.seed, spawn_key=(1, mi))
        )
        classes = (
            tuple(range(spec.n_classes))
            if mspec.informative_classes is None
            else tuple(mspec.informative_classes)
        )
        signs = _effect_signs(rng, mspec.n_informative, classes, spec.n_classes)
        positions = rng.permutation(mspec.n_features)[: mspec.n_informative]
        positions = np.sort(positions)

        if mspec.count_valued:
            base_rate = 20.0
            rates = np.full((spec.n_samples, mspec.n_features), base_rate)
            for fi, pos in enumerate(positions):
                rates[:, pos] = base_rate * np.exp(0.4 * mspec.separation * signs[fi, labels])
            values = rng.poisson(rates).astype(np.float64)
        else:
            values = rng.normal(size=(spec.n_samples, mspec.n_features))
            for fi, pos in enumerate(positions):
                values[:, pos] += mspec.separation * signs[fi, labels]

        if mspec.zero_fraction > 0:
            values[rng.uniform(size=values.shape) < mspec.zero_fraction] = 0.0
        if mspec.missing_fraction > 0:
            values[rng.uniform(size=values.shape) < mspec.missing_fraction] = np.nan

        feature_names = [f"{mspec.name}_f{i:04d}" for i in range(mspec.n_features)]
        tables.append(ModalityTable(mspec.name, list(sample_ids), feature_names, values))
        manifest_modalities.append(
            {
                "name": mspec.name,
                "n_features": mspec.n_features,
                "count_valued": mspec.count_valued,
                "informative_features": [feature_names[p] for p in positions],
                "informative_classes": list(classes),
                "separability": mspec.separation
                * np.sqrt(mspec.n_informative)
                * len(classes)
                / spec.n_classes,
            }
        )

    dataset = MultiModalDataset(
        modalities=tables,
        labels=labels,
        class_names=class_names,
        sample_ids=sample_ids,
    )
    manifest = {
        "seed": spec.seed,
        "n_samples": spec.n_samples,
        "class_names": class_names,
        "class_counts": {class_names[k]: int(counts[k]) for k in range(spec.n_classes)},
        "modalities": manifest_modalities,
    }
    return dataset, manifest


def _format_cell(v: float) -> str:
    if np.isnan(v):
        return "NA"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def save_dataset(dataset: MultiModalDataset, manifest: dict, out_dir: str | Path) -> list[Path]:
    """Write per-modality CSVs, labels.csv and manifest.json; returns paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for table in dataset.modalities:
        path = out / f"{table.modality_name}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id"] + table.feature_names)
            for i, sid in enumerate(table.sample_ids):
                writer.writerow([sid] + [_format_cell(v) for v in table.values[i]])
        written.append(path)
    labels_path = out / "labels.csv"
    with open(labels_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "class"])
        for sid, k in zip(dataset.sample_ids, dataset.labels):
            writer.writerow([sid, dataset.class_names[k]])
    written.append(labels_path)
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True), encoding="utf-8")
    written.append(manifest_path)
    return written
