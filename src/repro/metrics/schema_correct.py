"""The Schema Correct metric (novel metric #2 of the paper).

"This metric is designed to measure the correctness of the result, i.e.
whether or not it satisfies the Ansible schema.  It does not reflect the
accuracy of the model, as it applies just to the predictions."

A prediction is schema-correct when it parses as YAML *and* passes the
strict linter-style schema of :mod:`repro.ansible.schema` with zero
violations.  Because the fine-tuning data was not filtered with this schema,
a prediction with a perfect Exact Match can legitimately score 0 here —
exactly the caveat the paper calls out.
"""

from __future__ import annotations

from repro import yamlio
from repro.ansible import schema
from repro.errors import YamlError


def schema_violations(prediction: str, level: str = schema.STRICT) -> list[schema.Violation] | None:
    """Violations for one prediction; None when the text is not valid YAML."""
    try:
        data = yamlio.loads(prediction)
    except YamlError:
        return None
    if isinstance(data, dict):
        # A bare task mapping (no leading dash) — validate as a single task.
        return schema.validate_task(data, level)
    return schema.validate(data, level)


def is_schema_correct(prediction: str, level: str = schema.STRICT) -> bool:
    """True when the prediction parses and has zero schema violations."""
    violations = schema_violations(prediction, level)
    return violations is not None and not violations
