"""Flat key=value pipeline configuration.

Lines are ``key = value``; blank lines and lines starting with ``#`` are
ignored. Command-line flags override file values; the file path defaults to
the ``SKILLGRAPH_CONFIG`` environment variable when set.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError, read_text

ENV_CONFIG = "SKILLGRAPH_CONFIG"

_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


@dataclass
class PipelineConfig:
    courses: str = ""
    jobs: str = ""
    skills: str = ""
    enrollments: str = ""
    course_skills: str = ""
    out_dir: str = "out"
    teleport: float = 0.15
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    link_top_k: int = 10
    seed: int = 0
    aggregate_jobs_by_title: bool = False
    prereq_depth: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.teleport < 1.0:
            raise ConfigError(f"teleport {self.teleport!r} outside (0, 1)")
        if not 0.0 <= self.bm25_k1 < math.inf:
            raise ConfigError(f"bm25_k1 {self.bm25_k1!r} must be finite and >= 0")
        if not 0.0 <= self.bm25_b <= 1.0:
            raise ConfigError(f"bm25_b {self.bm25_b!r} outside [0, 1]")
        if self.link_top_k < 1:
            raise ConfigError(f"link_top_k {self.link_top_k!r} must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed {self.seed!r} must be >= 0")
        if self.prereq_depth < 0:
            raise ConfigError(f"prereq_depth {self.prereq_depth!r} must be >= 0")

    def require_paths(self, *names: str) -> None:
        for name in names:
            if not getattr(self, name):
                raise ConfigError(f"config key {name!r} is required for this stage")


def _coerce(name: str, kind: type, raw: str):
    if kind is bool:
        low = raw.strip().lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"config key {name!r}: {raw!r} is not a boolean")
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {name!r}: {raw!r} is not a {kind.__name__}") from None


def parse_config_text(text: str) -> dict[str, object]:
    types = {f.name: f.type for f in fields(PipelineConfig)}
    resolved = {"str": str, "float": float, "int": int, "bool": bool}
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        kind = resolved[types[key]] if isinstance(types[key], str) else types[key]
        values[key] = _coerce(key, kind, raw.strip())
    return values


def load_config(path: str | Path | None = None,
                overrides: dict[str, object] | None = None) -> PipelineConfig:
    """Defaults, then file (explicit or $SKILLGRAPH_CONFIG), then overrides."""
    values: dict[str, object] = {}
    chosen = path or os.environ.get(ENV_CONFIG)
    if chosen:
        p = Path(chosen)
        if not p.exists():
            raise ConfigError(f"config file {p} does not exist")
        text = read_text(p, ConfigError)
        try:
            values.update(parse_config_text(text))
        except ConfigError as exc:
            raise ConfigError(f"{p}: {exc}") from None
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val
    try:
        return PipelineConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
