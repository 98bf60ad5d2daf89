"""Flat key=value pipeline configuration.

Lines are ``key = value``, each key at most once; blank lines and lines
starting with ``#`` are ignored. Command-line flags override file values; the
file path defaults to the ``SKILLGRAPH_CONFIG`` environment variable when set.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

from .community import DEFAULT_TELEPORT
from .errors import KIND_WORDS, ConfigError, parse_number, read_text
from .linker import DEFAULT_TOP_K, Bm25Params
from .ranker import DEFAULT_PREREQ_DEPTH

ENV_CONFIG = "SKILLGRAPH_CONFIG"

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


@dataclass
class PipelineConfig:
    courses: str = ""
    jobs: str = ""
    skills: str = ""
    enrollments: str = ""
    course_skills: str = ""
    out_dir: str = "out"
    teleport: float = DEFAULT_TELEPORT
    bm25_k1: float = Bm25Params.k1
    bm25_b: float = Bm25Params.b
    link_top_k: int = DEFAULT_TOP_K
    seed: int = 0
    aggregate_jobs_by_title: bool = False
    prereq_depth: int = DEFAULT_PREREQ_DEPTH

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
    if kind is str:
        return raw
    value = _BOOLEANS.get(raw.lower()) if kind is bool else parse_number(raw, kind)
    if value is None:
        raise ConfigError(f"config key {name!r}: {raw!r} is not {KIND_WORDS[kind]}")
    return value


def parse_config_text(text: str) -> dict[str, object]:
    types = get_type_hints(PipelineConfig)
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
        if key in values:
            raise ConfigError(f"line {lineno}: config key {key!r} is given twice")
        values[key] = _coerce(key, types[key], raw.strip())
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
