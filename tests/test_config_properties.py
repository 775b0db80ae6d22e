"""Property tests: whatever bytes a config file holds, resolution ends in
a resolved run or a SchemaError (exit 2), never in another exception."""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from trafficast.cli import SchemaError, _load_config_doc, resolve_config

_DOC = {
    "out_dir": "runs/x",
    "data": {"synth": {"nodes": 4, "days": 16, "l_d": 12,
                       "shift_max": 1, "noise": 0.3, "seed": 0}},
    "dataset": {"P": 3, "Q": 2, "S": 1},
    "model": {"d_h": 6, "d_e": 2, "n_head": 2, "K": 1},
    "train": {"max_epochs": 2, "seeds": [1], "batch_size": 8},
}
_CONFIG_BYTES = json.dumps(_DOC).encode()


def _manifest_bytes(config):
    """A run manifest as `train` writes it: the resolved config under "config"."""
    return json.dumps({
        "format_version": 1, "command": "train", "status": "complete",
        "config": config, "seeds": [1],
    }, indent=2, sort_keys=True).encode()


_MANIFEST_BYTES = _manifest_bytes(resolve_config(_DOC).config_doc())
# an older manifest, carrying every key that sets nothing at its one value
_OLD_CONFIG = resolve_config(_DOC).config_doc()
_OLD_CONFIG["model"].update(P=3, Q=2, S=1, d_count=1, w_count=1, l_d=12, l_w=84)
_OLD_CONFIG["train"].update(teacher_forcing=False, mape_floor=0.001)
_OLD_MANIFEST_BYTES = _manifest_bytes(_OLD_CONFIG)
_SEEDS = [_CONFIG_BYTES, _MANIFEST_BYTES, _OLD_MANIFEST_BYTES]
# any byte, or one that keeps a number or the JSON syntax plausible
_BYTE = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789"),
                  st.sampled_from(b'-.eE"{}[],:ntf '))


@st.composite
def _mutated_config_bytes(draw):
    out = bytearray(draw(st.sampled_from(_SEEDS)))
    for _ in range(draw(st.integers(1, 2))):
        op = draw(st.sampled_from(["replace", "replace", "replace", "insert", "delete",
                                   "truncate"]))
        pos = draw(st.integers(0, len(out) - 1)) if out else 0
        if op == "replace" and out:
            out[pos] = draw(_BYTE)
        elif op == "insert":
            out.insert(pos, draw(_BYTE))
        elif op == "delete":
            del out[pos:pos + 1]
        elif op == "truncate":
            del out[pos:]
    return bytes(out)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=_mutated_config_bytes())
def test_mutated_config_bytes_resolve_or_raise_schema_error(tmp_path, raw):
    path = tmp_path / "c.json"
    path.write_bytes(raw)
    try:
        doc, _ = _load_config_doc(str(path))
        resolve_config(doc)
    except SchemaError:
        pass


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=4)


@st.composite
def _mutated_config_docs(draw):
    doc = json.loads(draw(st.sampled_from(_SEEDS)))
    for _ in range(draw(st.integers(1, 2))):
        node = doc
        while draw(st.booleans()):
            sections = sorted(k for k, v in node.items() if isinstance(v, dict))
            if not sections:
                break
            node = node[draw(st.sampled_from(sections))]
        key = draw(st.sampled_from(sorted(node) + ["extra"]))
        node[key] = draw(_JSON_VALUE)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=_mutated_config_docs())
def test_mutated_config_values_resolve_or_raise_schema_error(tmp_path, doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    try:
        resolve_config(_load_config_doc(str(path))[0])
    except SchemaError:
        pass
