"""Fuzz tests for the two file-format boundaries.

Any input to Profile.from_bytes either parses or raises ProfileFormatError,
and any JSON value put in any field of a valid scenario file either loads or
raises ConfigError: no other exception may escape either boundary. Generated
link counts stay small, so no example allocates a large array.
"""

from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qosalloc.controller import ConfigError
from qosalloc.harness import ScenarioConfig, dump_scenario, load_scenario
from qosalloc.profile import Profile, ProfileFormatError
from test_harness import small_scenario

# -- Profile.from_bytes ------------------------------------------------------------

_NUMBERS = st.one_of(
    st.integers(-3, 40).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", "unbounded", "nan", "-0.0", "1e999", "0x10", " 7", "1_000"]),
)


@st.composite
def profile_texts(draw):
    """Profile-shaped text: a header of small or odd values, then record lines."""
    links = draw(st.integers(0, 4))
    header = [
        f"n={draw(st.one_of(st.just(str(links)), _NUMBERS))}",
        f"L={draw(st.one_of(st.integers(1, 12).map(str), _NUMBERS))}",
        f"S={draw(st.one_of(st.integers(1, 6).map(str), st.just('unbounded'), _NUMBERS))}",
    ]
    drop = draw(st.sampled_from([None, 0, 1, 2]))
    if drop is not None:
        header.pop(drop)
    fields = st.one_of(st.floats(0, 100).map(repr), st.integers(1, 12).map(str), _NUMBERS)
    lines = draw(st.lists(st.lists(fields, max_size=links + 2).map(",".join), max_size=8))
    return "\n".join([",".join(header), *lines]) + draw(st.sampled_from(["", "\n", "\r\n"]))


def profile_bytes():
    return st.one_of(
        st.binary(max_size=200),
        st.text(max_size=80).map(lambda t: t.encode("utf-8")),
        profile_texts().map(lambda t: t.encode("utf-8")),
        profile_texts().map(lambda t: t.encode("utf-8") + b"\xff"),
    )


@settings(max_examples=400, deadline=None)
@given(profile_bytes())
def test_from_bytes_raises_only_profile_format_error(data):
    try:
        profile = Profile.from_bytes(data)
    except ProfileFormatError:
        return
    # what parses round-trips
    assert Profile.from_bytes(profile.to_bytes()) == profile


# -- load_scenario -----------------------------------------------------------------

# No "/" in generated strings: a string can name a trace file, and no example
# may reach outside its own directory by an absolute path. The file names
# are a directory, a NUL byte, a valid trace, an undecodable file and JSON.
_FILE_NAMES = st.sampled_from(
    ["", "..", "a\x00b", "rates.csv", "undecodable.csv", "inline.json"])
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.integers(-3, 20), st.floats(-5.0, 100.0),
    st.text(max_size=8).filter(lambda s: "/" not in s), _FILE_NAMES,
)
JSON_VALUES = st.one_of(
    st.recursive(
        _JSON_LEAVES,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=6), children, max_size=4),
        ),
        max_leaves=12,
    ),
    _JSON_LEAVES,
    _FILE_NAMES,
)


def draw_field(data, doc):
    """A field of doc as (container, key): a top-level key, or deeper by coin flips.

    At the top level the optional background_trace may be drawn while absent.
    """
    node = doc
    keys = sorted({*doc, "background_trace"})
    while True:
        key = data.draw(st.sampled_from(keys))
        child = node.get(key) if isinstance(node, dict) else node[key]
        if not isinstance(child, (dict, list)) or not child or data.draw(st.booleans()):
            return node, key
        node = child
        keys = list(node) if isinstance(node, dict) else range(len(node))


def _valid_docs(tmp_dir):
    """A valid scenario with inline traces, and one with a rate trace file."""
    (tmp_dir / "undecodable.csv").write_bytes(b"\xff\xfe,1\n")
    docs = []
    for name, trace in (("inline.json", None), ("file.json", "rates.csv")):
        path = tmp_dir / name
        dump_scenario(small_scenario(), path, rate_trace_name=trace)
        docs.append(json.loads(path.read_text(encoding="utf-8")))
    return docs


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_load_scenario_raises_only_config_error(tmp_path, data):
    docs = _valid_docs(tmp_path)
    doc = copy.deepcopy(data.draw(st.sampled_from(docs)))
    for _ in range(data.draw(st.integers(1, 2))):
        node, key = draw_field(data, doc)
        node[key] = data.draw(JSON_VALUES)
    target = tmp_path / "fuzzed.json"
    target.write_text(json.dumps(doc), encoding="utf-8")
    try:
        config = load_scenario(target)
    except ConfigError:
        return
    assert isinstance(config, ScenarioConfig)
    assert config.run_length >= 1 and math.isfinite(config.sigma2)
    assert all(math.isfinite(r) and r >= 0.0 for trace in config.rates for r in trace)
    assert all(math.isfinite(t) for t in config.thresholds) and config.rng_seed >= 0
    if config.seed.file is None:
        assert config.seed.records >= 1
        assert math.isfinite(config.seed.nominal_rate) and config.seed.nominal_rate >= 0.0


@pytest.mark.parametrize("field", ["rate_trace", "background_trace"])
@pytest.mark.parametrize("name", ["", "..", "a\x00b", "missing.csv", "undecodable.csv"])
def test_unreadable_trace_file_is_a_config_error(tmp_path, field, name):
    doc = _valid_docs(tmp_path)[1]
    doc[field] = name
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ConfigError, match=field):
        load_scenario(path)


def test_load_scenario_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_bytes(b"\xff\xfe{}")
    with pytest.raises(ConfigError, match="scenario.json"):
        load_scenario(path)
