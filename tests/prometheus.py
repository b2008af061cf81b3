"""A reader for the Prometheus text exposition, the oracle the exposition
tests check ``repro.obs.export.prometheus_exposition`` against: gauges,
counters and histogram series with escaped label values; any line that is
neither a comment nor a valid sample raises."""

from __future__ import annotations

import math
import re

from repro.errors import ObservabilityError

_SAMPLE_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>.*)\})?'
    r'\s+(?P<value>\S+)$'
)
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def unescape_label_value(value: str) -> str:
    result: list[str] = []
    index = 0
    while index < len(value):
        char = value[index]
        if char == "\\" and index + 1 < len(value):
            follower = value[index + 1]
            if follower == "n":
                result.append("\n")
            elif follower in ('"', "\\"):
                result.append(follower)
            else:
                result.append(char + follower)
            index += 2
        else:
            result.append(char)
            index += 1
    return "".join(result)



def parse_prometheus(text: str) -> dict:
    """Parse an exposition back into ``{name: {"type":..., "samples": [...]}}``.

    Each sample is ``(labels_dict, value)``.  Lines that are neither
    comments nor valid samples raise, so a round-trip test validates the
    exposition line-by-line.
    """
    metrics: dict[str, dict] = {}
    types: dict[str, str] = {}
    # Split on "\n" exactly: the exposition format only escapes backslash,
    # double-quote and newline, so label values may legally contain \r,
    # \x0b, U+2028 and other characters str.splitlines() would wrongly
    # treat as line boundaries.
    for line_number, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ObservabilityError(f"unparseable exposition line {line_number}: {raw!r}")
        name = match.group("name")
        labels: dict[str, str] = {}
        label_text = match.group("labels")
        if label_text:
            for key, value in _LABEL_PAIR.findall(label_text):
                labels[key] = unescape_label_value(value)
        raw_value = match.group("value")
        if raw_value == "+Inf":
            value = math.inf
        elif raw_value == "-Inf":
            value = -math.inf
        else:
            value = float(raw_value)
        # Histogram series (_bucket/_sum/_count) group under the family
        # name their # TYPE header declared.
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
                break
        entry = metrics.setdefault(
            family, {"type": types.get(family, "untyped"), "samples": []}
        )
        entry["samples"].append((name, labels, value))
    return metrics
