"""Flat key = value configuration files for the verification suites.

Lines are ``key = value`` with ``#`` comments; values stay strings until
``cli.run_suite`` coerces every key of the merged config through the key table
``cli.KEY_KINDS`` with the coercers below, before the suite is built; no suite
coerces its own values. Every suite declares its allowed keys and anything else
is rejected, so typos fail loudly instead of silently running defaults.
"""

from __future__ import annotations

import math
import re

from .errors import ConfigError

_KEY_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def parse_config_text(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def merge_with_defaults(cfg: dict, defaults: dict, suite: str) -> dict:
    unknown = sorted(set(cfg) - set(defaults))
    if unknown:
        raise ConfigError(
            f"suite {suite!r} does not accept key(s): {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(defaults))}")
    merged = dict(defaults)
    merged.update(cfg)
    return merged


def as_float(cfg: dict, key: str) -> float:
    try:
        value = float(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {cfg[key]!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: expected a finite number, got {cfg[key]!r}")
    return value


def as_int(cfg: dict, key: str) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {cfg[key]!r}") from None


def as_float_list(cfg: dict, key: str) -> list:
    try:
        values = [float(tok) for tok in cfg[key].split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"key {key!r}: expected comma-separated numbers, got {cfg[key]!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"key {key!r}: expected finite numbers, got {cfg[key]!r}")
    return values
