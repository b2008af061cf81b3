"""Property-based round-trip tests for the YAML engine.

The central invariant: for every value graph built from supported types,
``loads(dumps(v)) == v``, and PyYAML (the oracle the paper's pipeline used)
agrees with our parser on our emitter's output.
"""

from __future__ import annotations

import pytest
import yaml as pyyaml
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import yamlio

# Scalars whose YAML round trip is exact (floats excluded: repr formatting
# differences would need approx comparisons; they're covered separately).
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-10**12, max_value=10**12),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FF, exclude_characters="\x7f\x85\xa0"),
        max_size=24,
    ),
)

keys = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="'\"\\"),
    min_size=1,
    max_size=12,
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(values)
def test_loads_dumps_roundtrip(value):
    assert yamlio.loads(yamlio.dumps(value)) == value


@settings(max_examples=120, suppress_health_check=[HealthCheck.too_slow], deadline=None)
@given(values)
def test_pyyaml_agrees_on_emitted_output(value):
    text = yamlio.dumps(value)
    assert pyyaml.safe_load(text) == value


@settings(max_examples=60, deadline=None)
@given(st.lists(values, min_size=1, max_size=3))
def test_multidocument_roundtrip(documents):
    text = "".join(yamlio.dumps(document) for document in documents)
    assert yamlio.parse_all(text) == documents


@settings(max_examples=60, deadline=None)
@given(values)
def test_normalize_idempotent(value):
    once = yamlio.dumps(yamlio.loads(yamlio.dumps(value)))
    assert yamlio.dumps(yamlio.loads(once)) == once


@settings(max_examples=80, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
def test_float_roundtrip_approximate(value):
    loaded = yamlio.loads(yamlio.dumps({"x": float(value)}))
    assert loaded["x"] == pytest.approx(value, rel=1e-6, abs=1e-12)


def test_synthetic_corpus_roundtrips(galaxy_corpus):
    """Every synthesized Galaxy file parses and re-emits identically."""
    for document in galaxy_corpus.documents[:50]:
        value = yamlio.loads(document.content)
        assert yamlio.loads(yamlio.dumps(value)) == value
        assert pyyaml.safe_load(document.content) == value


@pytest.mark.parametrize(
    "value",
    ["=", "0x_", "0o_", "0b_", "._", "1_", "0644x"],
    ids=repr,
)
def test_resolver_edge_scalars_quote_and_agree(value):
    """Strings a YAML 1.1 resolver matches but cannot construct must be
    quoted on emit: bare ``=`` resolves to the value-key tag and the
    underscore-only numeric bodies crash strict int/float constructors."""
    text = yamlio.dumps({"k": value})
    assert yamlio.loads(text) == {"k": value}
    assert pyyaml.safe_load(text) == {"k": value}


@pytest.mark.parametrize("raw", ["0x_", "._", "0o_"])
def test_parse_degenerate_numeric_stays_string(raw):
    assert yamlio.loads(f"k: {raw}") == {"k": raw}
