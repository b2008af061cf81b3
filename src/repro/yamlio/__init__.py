"""A from-scratch YAML engine covering the subset used by Ansible content.

Public API:

* :func:`loads` / :func:`parse_all` — parse one document / a stream.
* :func:`dumps` — serialize with Ansible-style formatting; ``dumps(loads(text))``
  canonicalizes a document's formatting (the paper's "standardized the
  formatting" step).
* :func:`is_valid` — predicate used by the dataset pipeline's validity filter.

The engine intentionally rejects anchors, aliases, tags and merge keys;
files using them are filtered out of the corpus exactly like files PyYAML
cannot load were filtered out in the paper's pipeline.
"""

from __future__ import annotations

from repro.errors import YamlEmitError, YamlError, YamlParseError, YamlScanError
from repro.yamlio.emitter import DEFAULT_STYLE, EmitStyle, emit
from repro.yamlio.parser import parse, parse_all


def loads(text: str) -> object:
    """Parse a single-document YAML string into Python values."""
    return parse(text)


def dumps(value: object, style: EmitStyle | None = None) -> str:
    """Serialize a value to Ansible-style YAML (with ``---`` marker by default)."""
    return emit(value, style)


def is_valid(text: str) -> bool:
    """True when ``text`` parses under the engine's YAML subset."""
    try:
        parse_all(text)
    except YamlError:
        return False
    return True


__all__ = [
    "loads",
    "dumps",
    "is_valid",
    "EmitStyle",
    "DEFAULT_STYLE",
    "emit",
    "parse",
    "parse_all",
    "YamlError",
    "YamlScanError",
    "YamlParseError",
    "YamlEmitError",
]
