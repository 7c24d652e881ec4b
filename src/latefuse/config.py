"""Experiment configuration: one strict JSON schema, read off the dataclasses.

Each section of the JSON config is a frozen dataclass, and its fields are the
schema: the field names are the accepted keys, the annotations their types and
the field defaults their defaults. `_build` parses a section against them and
`_echo` is its inverse. Unknown keys anywhere are an error, `null` is valid
only for optional keys, booleans are not numbers, and an integer is accepted
where a float is expected. The fully resolved config is echoed into the run
report, and parsing that echo gives back the same config, so a run is
reproducible from its report alone."""

from __future__ import annotations

import functools
import json
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Optional

from .integrators import IntegrationError, IntegratorSpec
from .learners import GbmParams, LearnerError
from .preprocess import PreprocessConfig, PreprocessError
from .synth import SynthError, SynthSpec


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class FoldsConfig:
    repeats: int = 5
    folds: int = 5

    def __post_init__(self) -> None:
        if self.repeats < 1:
            raise ConfigError("repeats: must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds: must be >= 2")


@dataclass(frozen=True)
class IncrementalConfig:
    margin: float = 0.01
    inner_folds: int = 3
    base: GbmParams = GbmParams()

    def __post_init__(self) -> None:
        if self.inner_folds < 2:
            raise ConfigError("inner_folds: must be >= 2")


@dataclass(frozen=True)
class DatasetModality:
    name: str
    path: str


@dataclass(frozen=True)
class DatasetFiles:
    modalities: tuple[DatasetModality, ...]
    labels: str
    missing_tokens: Optional[tuple[str, ...]] = None  # None = data.DEFAULT_MISSING_TOKENS

    def __post_init__(self) -> None:
        if not self.modalities:
            raise ConfigError("modalities must be a non-empty list")
        if not self.labels:
            raise ConfigError("labels must name the labels file")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    output_dir: str = "out"
    parallelism: int = 1
    folds: FoldsConfig = FoldsConfig()
    methods: tuple[IntegratorSpec, ...] = (IntegratorSpec(kind="ENS-S"),)
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    incremental: IncrementalConfig = IncrementalConfig()
    dataset: Optional[DatasetFiles] = None
    synth: Optional[SynthSpec] = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ConfigError("seed: must be >= 0")
        if self.parallelism < 1:
            raise ConfigError("parallelism: must be >= 1")
        if not self.methods:
            raise ConfigError("methods: must be a non-empty list")
        # The report label is the method's name from here on, so the echo
        # names every method and re-parses to an equal config.
        object.__setattr__(
            self, "methods", tuple(replace(m, name=m.label) for m in self.methods)
        )
        labels = [m.name for m in self.methods]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"methods: duplicate method labels {labels}; set distinct names")
        if (self.dataset is None) == (self.synth is None):
            raise ConfigError("config must set exactly one of dataset or synth")

    def resolved_dict(self) -> dict:
        """The exact configuration the run uses, defaults filled."""
        return _echo(self)


_JSON_NAMES = {
    type(None): "null", bool: "boolean", int: "integer", float: "number",
    str: "string", list: "list", tuple: "list", dict: "object",
}


# Evaluating the string annotations would otherwise dominate a parse.
_type_hints = functools.cache(typing.get_type_hints)


def _json_name(tp: Any) -> str:
    tp = typing.get_origin(tp) or tp
    return "object" if is_dataclass(tp) else _JSON_NAMES.get(tp, str(tp))


def _value(tp: Any, value: Any, where: str) -> Any:
    """Check one JSON value against a field annotation and convert it."""
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # Optional[X]
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return _value(tp, value, where)
    if is_dataclass(tp):
        return _build(tp, value, where)
    if origin is tuple:
        if isinstance(value, list):
            return tuple(_value(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    elif origin is dict:
        if isinstance(value, dict):
            return {k: _value(args[1], v, f"{where}[{k!r}]") for k, v in value.items()}
    elif tp is float and type(value) is int:
        return float(value)
    elif isinstance(value, tp) and (tp is bool or not isinstance(value, bool)):
        return value
    raise ConfigError(f"{where}: expected {_json_name(tp)}, got {_json_name(type(value))}")


def _build(cls: type, section: Any, where: str) -> Any:
    """Parse one JSON object into the dataclass `cls`: its fields are the
    accepted keys, and a key left out takes the field's default."""
    if not isinstance(section, dict):
        got = _json_name(type(section))
        raise ConfigError(f"{where or 'config'}: expected an object, got {got}")
    unknown = sorted(set(section) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"{where or 'config'}: unknown key(s) {unknown}")
    hints = _type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        path = f"{where}.{f.name}" if where else f.name
        if f.name in section:
            kwargs[f.name] = _value(hints[f.name], section[f.name], path)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{path}: required")
    try:
        return cls(**kwargs)
    except (ConfigError, IntegrationError, LearnerError, PreprocessError, SynthError) as e:
        # "<field>: <cause>" from a section's own checks extends the key path
        names = {f.name for f in fields(cls)}
        sep = "." if str(e).split(":", 1)[0] in names else ": "
        raise ConfigError(f"{where}{sep}{e}" if where else str(e)) from None


def _echo(value: Any) -> Any:
    """The JSON form of a parsed config section: the inverse of `_build`."""
    if is_dataclass(value):
        return {f.name: _echo(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_echo(v) for v in value]
    if isinstance(value, dict):
        return {k: _echo(v) for k, v in value.items()}
    return value


def parse_config(data: dict, config_dir: Optional[Path] = None) -> ExperimentConfig:
    """Validate a config dict and fill defaults. Relative dataset paths are
    resolved against the config file's directory when given."""
    synth = data.get("synth") if isinstance(data, dict) else None
    if isinstance(synth, dict):
        # The two defaults that depend on context: synth.seed is the file's
        # seed, and an unnamed synthetic modality is named after its position.
        synth = {"seed": data.get("seed", ExperimentConfig.seed), **synth}
        if isinstance(synth.get("modalities"), list):
            synth["modalities"] = [
                {"name": f"M{i}", **m} if isinstance(m, dict) else m
                for i, m in enumerate(synth["modalities"])
            ]
        data = {**data, "synth": synth}
    cfg = _build(ExperimentConfig, data, "")
    if cfg.dataset is None:
        return cfg

    def resolve(path: str) -> str:
        return str(Path(config_dir or ".") / path)

    ds = cfg.dataset
    mods = tuple(replace(m, path=resolve(m.path)) for m in ds.modalities)
    return replace(cfg, dataset=replace(ds, modalities=mods, labels=resolve(ds.labels)))


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"{path}: not UTF-8 text") from None
    except ValueError as e:  # a JSONDecodeError, or NaN / Infinity / -Infinity
        raise ConfigError(f"config file is not valid JSON: {e}") from None
    return parse_config(data, config_dir=path.parent)
