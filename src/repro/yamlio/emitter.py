"""Emitter: serialize Python values to Ansible-style YAML text.

The output style follows the conventions the paper's fine-tuning pipeline
standardizes on ("we ... standardized the formatting to match the style
recommended by the Ansible team"):

* two-space indentation;
* block style for non-empty mappings and sequences, flow style (``[]`` /
  ``{}``) only for empty collections;
* sequence items indented two spaces beyond their parent key;
* multi-line strings emitted as literal (``|`` / ``|-``) blocks;
* optional ``---`` document start marker.

Round-trip property: ``parse(emit(value)) == value`` for every value graph
built from ``dict`` / ``list`` / ``str`` / ``int`` / ``float`` / ``bool`` /
``None`` (NaN excepted, as NaN never compares equal).
"""

from __future__ import annotations

from repro.errors import YamlEmitError
from repro.yamlio.scalars import needs_quoting, quote_double, quote_single, represent_scalar

_SCALAR_TYPES = (str, int, float, bool, type(None))


class EmitStyle:
    """Formatting knobs for :func:`emit`.

    Attributes:
        indent: spaces per nesting level.
        sequence_indent: extra spaces before a ``-`` item under a key.
        start_marker: prefix the document with ``---``.
    """

    def __init__(self, indent: int = 2, sequence_indent: int = 2, start_marker: bool = True):
        if indent < 1:
            raise ValueError("indent must be >= 1")
        if sequence_indent < 0:
            raise ValueError("sequence_indent must be >= 0")
        self.indent = indent
        self.sequence_indent = sequence_indent
        self.start_marker = start_marker


DEFAULT_STYLE = EmitStyle()


def emit(value: object, style: EmitStyle | None = None) -> str:
    """Serialize ``value`` to a YAML document string (trailing newline included)."""
    style = style or DEFAULT_STYLE
    body_lines = _emit_node(value, 0, style)
    lines = ["---"] if style.start_marker else []
    lines.extend(body_lines)
    return "\n".join(lines) + "\n"


def _emit_node(value: object, indent: int, style: EmitStyle) -> list[str]:
    if isinstance(value, dict):
        return _emit_mapping(value, indent, style)
    if isinstance(value, (list, tuple)):
        return _emit_sequence(list(value), indent, style)
    if isinstance(value, _SCALAR_TYPES):
        return _emit_scalar_lines(value, indent)
    raise YamlEmitError(f"cannot emit value of type {type(value).__name__}")


def _emit_scalar_lines(value: object, indent: int) -> list[str]:
    pad = " " * indent
    if isinstance(value, str) and "\n" in value:
        return [pad + piece for piece in _literal_block(value, "")]
    return [pad + represent_scalar(value)]


# Characters that would confuse the key/value split when embedded in a
# plain key (flow indicators, comment marker, colon).
_KEY_UNSAFE_CHARS = frozenset("[]{},:#'\"")


def _emit_key(key: object) -> str:
    if isinstance(key, str):
        unsafe = any(ch in _KEY_UNSAFE_CHARS for ch in key)
        if key == "" or needs_quoting(key) or unsafe or key.startswith("- "):
            if "\n" in key or "'" in key:
                return quote_double(key)
            if unsafe:
                return quote_single(key)
            return represent_scalar(key)
        return key
    if isinstance(key, bool):
        return "true" if key else "false"
    if isinstance(key, int):
        return str(key)
    if key is None:
        return "null"
    raise YamlEmitError(f"cannot emit mapping key of type {type(key).__name__}")


def _emit_mapping(mapping: dict, indent: int, style: EmitStyle) -> list[str]:
    pad = " " * indent
    if not mapping:
        return [pad + "{}"]
    lines: list[str] = []
    for key, value in mapping.items():
        rendered_key = _emit_key(key)
        if isinstance(value, dict):
            if value:
                lines.append(f"{pad}{rendered_key}:")
                lines.extend(_emit_mapping(value, indent + style.indent, style))
            else:
                lines.append(f"{pad}{rendered_key}: {{}}")
        elif isinstance(value, (list, tuple)):
            if value:
                lines.append(f"{pad}{rendered_key}:")
                lines.extend(_emit_sequence(list(value), indent + style.sequence_indent, style))
            else:
                lines.append(f"{pad}{rendered_key}: []")
        elif isinstance(value, str) and "\n" in value:
            block = _literal_block(value, " " * (indent + style.indent))
            lines.append(f"{pad}{rendered_key}: {block[0]}")
            lines.extend(block[1:])
        elif isinstance(value, _SCALAR_TYPES):
            lines.append(f"{pad}{rendered_key}: {represent_scalar(value)}")
        else:
            raise YamlEmitError(
                f"cannot emit value of type {type(value).__name__} under key {key!r}"
            )
    return lines


def _emit_sequence(items: list, indent: int, style: EmitStyle) -> list[str]:
    pad = " " * indent
    if not items:
        return [pad + "[]"]
    lines: list[str] = []
    item_indent = indent + 2  # width of the "- " marker
    for item in items:
        if isinstance(item, dict) and item:
            inner = _emit_mapping(item, item_indent, style)
            lines.append(pad + "- " + inner[0][item_indent:])
            lines.extend(inner[1:])
        elif isinstance(item, (list, tuple)) and item:
            inner = _emit_sequence(list(item), item_indent, style)
            lines.append(pad + "- " + inner[0][item_indent:])
            lines.extend(inner[1:])
        elif isinstance(item, dict):
            lines.append(pad + "- {}")
        elif isinstance(item, (list, tuple)):
            lines.append(pad + "- []")
        elif isinstance(item, str) and "\n" in item:
            block = _literal_block(item, " " * item_indent)
            lines.append(pad + "- " + block[0])
            lines.extend(block[1:])
        elif isinstance(item, _SCALAR_TYPES):
            lines.append(pad + "- " + represent_scalar(item))
        else:
            raise YamlEmitError(f"cannot emit sequence item of type {type(item).__name__}")
    return lines


def _literal_block(text: str, pad: str) -> list[str]:
    """Render a multi-line string as a literal block scalar.

    Returns the header (``|`` / ``|-`` / ``|+``) as the first element and the
    indented content lines after it.  The caller attaches the header after a
    key or dash.
    """
    stripped = text.rstrip("\n")
    trailing_newlines = len(text) - len(stripped)
    if trailing_newlines == 0:
        header = "|-"
    elif trailing_newlines == 1:
        header = "|"
    else:
        header = "|+"
    content_lines = stripped.split("\n") if stripped else []
    if any(line.strip() == "" and line != "" for line in content_lines):
        # Whitespace-only lines would not round-trip through indentation.
        raise YamlEmitError("literal block contains whitespace-only lines")
    if content_lines and (content_lines[0].startswith(" ") or content_lines[0] == ""):
        raise YamlEmitError("literal block starting with blank/indented line is not supported")
    if header == "|+" and not stripped:
        raise YamlEmitError("cannot emit string consisting only of newlines")
    return [header] + [pad + line if line else "" for line in content_lines]
