"""Core data representation: per-modality tables, sample alignment, fold planning.

A dataset is a list of modality tables sharing one ordered sample list and one
class label per sample. All downstream components treat these objects as
immutable; a fold plan is fully reproducible from the seed it is made with.
"""

from __future__ import annotations

import csv
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_MISSING_TOKENS = ("", "NA", "NaN", "null")


class DataError(Exception):
    """Malformed or inconsistent input data."""


@dataclass
class ModalityTable:
    """One feature table: rows are samples, columns are features, NaN = missing."""

    modality_name: str
    sample_ids: list[str]
    feature_names: list[str]
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DataError(f"modality {self.modality_name!r}: values must be 2-D")
        n, f = self.values.shape
        if n != len(self.sample_ids):
            raise DataError(
                f"modality {self.modality_name!r}: {n} rows != {len(self.sample_ids)} sample ids"
            )
        if f != len(self.feature_names):
            raise DataError(
                f"modality {self.modality_name!r}: {f} columns != {len(self.feature_names)} feature names"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise DataError(f"modality {self.modality_name!r}: duplicate feature name")
        if np.isinf(self.values).any():
            raise DataError(f"modality {self.modality_name!r}: infinite cell value")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def take_rows(self, indices: np.ndarray) -> "ModalityTable":
        """New table restricted to the given sample rows (order preserved)."""
        indices = np.asarray(indices, dtype=np.intp)
        return ModalityTable(
            modality_name=self.modality_name,
            sample_ids=[self.sample_ids[i] for i in indices],
            feature_names=list(self.feature_names),
            values=self.values[indices],
        )

    def take_columns(self, indices: Sequence[int]) -> "ModalityTable":
        """New table restricted to the given feature columns (order preserved)."""
        idx = list(indices)
        return ModalityTable(
            modality_name=self.modality_name,
            sample_ids=list(self.sample_ids),
            feature_names=[self.feature_names[i] for i in idx],
            values=self.values[:, idx],
        )


@dataclass
class MultiModalDataset:
    """Aligned modality tables plus one class label index per sample.

    Modality order is fixed at load time; it defines tie-breaking order for
    hard votes downstream. Class order is first-appearance order in the labels
    file, for the same reason.
    """

    modalities: list[ModalityTable]
    labels: np.ndarray
    class_names: list[str]
    sample_ids: list[str]

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if len(self.labels) != len(self.sample_ids):
            raise DataError("labels length != sample count")
        if len(self.class_names) < 2:
            raise DataError("fewer than 2 classes")
        present = set(self.labels.tolist())
        if present != set(range(len(self.class_names))):
            raise DataError("every class must be present at least once, indices dense")
        for table in self.modalities:
            if table.sample_ids != self.sample_ids:
                raise DataError(
                    f"modality {table.modality_name!r} is not aligned to the common sample list"
                )
        names = [t.modality_name for t in self.modalities]
        if len(set(names)) != len(names):
            raise DataError("duplicate modality name")

    @property
    def n_samples(self) -> int:
        return len(self.sample_ids)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def modality_names(self) -> list[str]:
        return [t.modality_name for t in self.modalities]

    def subset_modalities(self, names: Sequence[str]) -> "MultiModalDataset":
        """Dataset restricted to the named modalities, keeping original order."""
        wanted = set(names)
        unknown = wanted - set(self.modality_names)
        if unknown:
            raise DataError(f"unknown modalities: {sorted(unknown)}")
        kept = [t for t in self.modalities if t.modality_name in wanted]
        return MultiModalDataset(
            modalities=kept,
            labels=self.labels.copy(),
            class_names=list(self.class_names),
            sample_ids=list(self.sample_ids),
        )

    def take_rows(self, indices: np.ndarray) -> tuple[list[ModalityTable], np.ndarray]:
        """Row-subset every modality plus labels; used for CV splits."""
        indices = np.asarray(indices, dtype=np.intp)
        return [t.take_rows(indices) for t in self.modalities], self.labels[indices]


@dataclass(frozen=True)
class FoldPlan:
    """Test-set index assignments for repeated stratified cross-validation."""

    repeats: int
    folds_per_repeat: int
    assignments: tuple  # assignments[repeat][fold] -> np.ndarray of test indices

    def test_indices(self, repeat: int, fold: int) -> np.ndarray:
        return self.assignments[repeat][fold]

    def train_indices(self, repeat: int, fold: int, n_samples: int) -> np.ndarray:
        mask = np.ones(n_samples, dtype=bool)
        mask[self.assignments[repeat][fold]] = False
        return np.flatnonzero(mask)

    def cells(self) -> Iterable[tuple[int, int]]:
        for r in range(self.repeats):
            for f in range(self.folds_per_repeat):
                yield r, f


@contextmanager
def _csv_rows(path: str | Path) -> Iterator[tuple[list[str], Iterator[list[str]]]]:
    """The header and an iterator over the non-empty rows of a CSV file,
    read one row at a time while the file is open."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            yield header, (row for row in reader if row)
    except UnicodeDecodeError:  # from the header, or thrown in at the yield by a row
        raise DataError(f"{path}: not UTF-8 text") from None


def load_labels(labels_file: str | Path) -> tuple[list[str], list[str]]:
    """Read a labels CSV (columns sample_id,class) preserving file order."""
    sample_ids: list[str] = []
    classes: list[str] = []
    seen: set[str] = set()
    with _csv_rows(labels_file) as (header, rows):
        if len(header) < 2:
            raise DataError(f"{labels_file}: labels file needs columns sample_id,class")
        for row in rows:
            if len(row) < 2:
                raise DataError(f"{labels_file}: short row {row!r}")
            sid, cls = row[0].strip(), row[1].strip()
            if sid in seen:
                raise DataError(f"{labels_file}: duplicate sample id {sid!r}")
            seen.add(sid)
            sample_ids.append(sid)
            classes.append(cls)
    return sample_ids, classes


def load_modality_table(
    name: str,
    path: str | Path,
    missing_tokens: Iterable[str] = DEFAULT_MISSING_TOKENS,
) -> ModalityTable:
    """Read one modality CSV: first column sample_id, remaining columns numeric.

    Each row is parsed as the reader yields it and appended to one growing
    float64 buffer, so the file's strings are never held at once."""
    tokens = frozenset(missing_tokens)
    sample_ids: list[str] = []
    seen: set[str] = set()
    flat = array("d")  # the values, row after row
    with _csv_rows(path) as (header, rows):
        feature_names = [h.strip() for h in header[1:]]
        if len(set(feature_names)) != len(feature_names):
            raise DataError(f"{path}: duplicate feature name within modality {name!r}")
        for row in rows:
            sid = row[0].strip()
            if sid in seen:
                raise DataError(f"{path}: duplicate sample id {sid!r}")
            seen.add(sid)
            sample_ids.append(sid)
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {sid!r} has {len(row)} cells, expected {len(header)}"
                )
            cells = [token.strip() for token in row[1:]]
            try:
                flat.fromlist([np.nan if token in tokens else float(token) for token in cells])
            except ValueError:
                j, token = next((j, t) for j, t in enumerate(cells) if not _parses(t, tokens))
                where = f"{path}:{sid}:{feature_names[j]}"
                raise DataError(f"{where}: unparseable cell {token!r}") from None
    values = np.frombuffer(flat, dtype=np.float64).reshape(len(sample_ids), len(feature_names))
    return ModalityTable(name, sample_ids, feature_names, values)


def _parses(token: str, tokens: frozenset) -> bool:
    """Whether a stripped cell is a number or a missing token."""
    try:
        float(token)
    except ValueError:
        return token in tokens
    return True


def load_dataset(
    modality_files: Sequence[tuple[str, str | Path]],
    labels_file: str | Path,
    missing_tokens: Iterable[str] = DEFAULT_MISSING_TOKENS,
) -> MultiModalDataset:
    """Load modality CSVs plus a labels CSV and align them.

    The returned dataset is restricted to the intersection of sample ids
    present in every modality and the labels file, ordered as in the labels
    file. Cells matching a missing token become NaN.
    """
    if not modality_files:
        raise DataError("no modality files given")
    label_ids, label_classes = load_labels(labels_file)
    tables = [load_modality_table(name, path, missing_tokens) for name, path in modality_files]

    common = set(label_ids)
    for table in tables:
        common &= set(table.sample_ids)
    if not common:
        raise DataError("empty sample-id intersection across modalities and labels")

    ordered_ids = [sid for sid in label_ids if sid in common]
    by_id = {sid: cls for sid, cls in zip(label_ids, label_classes)}

    class_names: list[str] = []
    for sid in ordered_ids:
        cls = by_id[sid]
        if cls not in class_names:
            class_names.append(cls)
    if len(class_names) < 2:
        raise DataError("fewer than 2 classes after intersection")
    class_index = {c: i for i, c in enumerate(class_names)}
    labels = np.array([class_index[by_id[sid]] for sid in ordered_ids], dtype=np.intp)

    aligned = []
    for table in tables:
        pos = {sid: i for i, sid in enumerate(table.sample_ids)}
        rows = np.array([pos[sid] for sid in ordered_ids], dtype=np.intp)
        aligned.append(table.take_rows(rows))

    return MultiModalDataset(
        modalities=aligned,
        labels=labels,
        class_names=class_names,
        sample_ids=ordered_ids,
    )


def make_fold_plan(labels: np.ndarray, repeats: int, folds: int, seed: int) -> FoldPlan:
    """Plan stratified repeated k-fold test assignments.

    Every class must have at least `folds` samples. Within a repeat the test
    folds partition the sample set; per-fold class counts deviate from the
    even split by at most one sample per class.
    """
    labels = np.asarray(labels, dtype=np.intp)
    if repeats < 1 or folds < 2:
        raise DataError("repeats must be >= 1 and folds >= 2")
    n = len(labels)
    classes, counts = np.unique(labels, return_counts=True)
    for cls, count in zip(classes, counts):
        if count < folds:
            raise DataError(f"class {int(cls)} has {int(count)} samples < {folds} folds")

    all_repeats = []
    for r in range(repeats):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        buckets: list[list[int]] = [[] for _ in range(folds)]
        for cls in classes:
            members = np.flatnonzero(labels == cls)
            members = members[rng.permutation(len(members))]
            # rotate which folds receive the remainder so extras spread out
            start = int(rng.integers(folds))
            for k, idx in enumerate(members):
                buckets[(start + k) % folds].append(int(idx))
        fold_arrays = tuple(np.array(sorted(b), dtype=np.intp) for b in buckets)
        all_repeats.append(fold_arrays)
    return FoldPlan(repeats=repeats, folds_per_repeat=folds, assignments=tuple(all_repeats))
