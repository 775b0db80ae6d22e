"""Property tests: whatever bytes a series, edge or checkpoint file holds,
`train` and `eval` end with exit 0, 2 or 3, never in a traceback."""

import contextlib
import io
import itertools
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficast.cli import main
from trafficast.data import read_tensor_file, write_tensor_file
from trafficast.model import ModelConfig, init_model, load_checkpoint, save_checkpoint

_CONFIG = {
    "data": {"series": "series.stgt", "edges": "edges.csv", "l_d": 6,
             "kappa": 1.0, "sigma": 1.0},
    "dataset": {"P": 2, "Q": 2, "S": 1},
    "model": {"d_h": 3, "d_e": 2, "n_head": 1, "K": 1},
    "train": {"max_epochs": 1, "seeds": [1], "batch_size": 32},
}
# any byte, or one that keeps an edge-list number or line plausible
_BYTE = st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789-.,e\n"))
_runs = itertools.count()


def _run(*argv):
    """main(argv) with its output captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A three-node `gen-data` series, its edges and a one-epoch checkpoint."""
    root = tmp_path_factory.mktemp("hostile")
    assert _run("gen-data", "--nodes", 3, "--days", 15, "--ld", 6, "--out", root)[0] == 0
    config = json.loads(json.dumps(_CONFIG))
    for role in ("series", "edges"):
        config["data"][role] = str(root / config["data"][role])
    (root / "c.json").write_text(json.dumps(config))
    assert _run("train", "--config", root / "c.json", "--out-dir", root / "run")[0] == 0
    return root, config, root / "run" / "seed1" / "checkpoint.ckpt"


@st.composite
def _mutations(draw):
    """1-3 byte edits, each at the front of the file (headers) or anywhere."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["replace", "replace", "insert", "delete", "truncate"]))
        near_front = draw(st.booleans())
        edits.append((op, near_front, draw(st.integers(0, 10 ** 6)), draw(_BYTE)))
    return edits


def _mutate(raw: bytes, edits) -> bytes:
    out = bytearray(raw)
    for op, near_front, where, byte in edits:
        span = min(len(out), 64) if near_front else len(out)
        pos = where % span if span else 0
        if op == "replace" and out:
            out[pos] = byte
        elif op == "insert":
            out.insert(pos, byte)
        elif op == "delete":
            del out[pos:pos + 1]
        elif op == "truncate":
            del out[pos:]
    return bytes(out)


def _assert_clean(code, out, err):
    assert code in (0, 2, 3), err
    assert "Traceback" not in err
    # a run that succeeds reports finite metrics
    scores = [line for line in out.splitlines() if line.startswith(("test ", "step "))]
    assert code != 0 or (scores and "nan" not in " ".join(scores)), out


_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@pytest.mark.parametrize("role", ["series", "edges"])
@_SETTINGS
@given(edits=_mutations())
def test_mutated_input_file_trains_or_exits_cleanly(files, role, edits):
    root, config, _ = files
    source = root / ("series.stgt" if role == "series" else "edges.csv")
    run = root / f"mutated{next(_runs)}"
    run.mkdir()
    target = run / source.name
    target.write_bytes(_mutate(source.read_bytes(), edits))
    doc = json.loads(json.dumps(config))
    doc["data"][role] = str(target)
    (run / "c.json").write_text(json.dumps(doc))
    _assert_clean(*_run("train", "--config", run / "c.json", "--out-dir", run / "out"))


@_SETTINGS
@given(edits=_mutations())
def test_mutated_checkpoint_evaluates_or_exits_cleanly(files, edits):
    root, _, checkpoint = files
    target = root / f"mutated{next(_runs)}.ckpt"
    target.write_bytes(_mutate(checkpoint.read_bytes(), edits))
    _assert_clean(*_run("eval", "--config", root / "c.json", "--checkpoint", target))


def test_series_too_large_to_normalize_names_the_file(files, tmp_path):
    # finite values whose squares overflow made the z-score std inf, and
    # training went on to report NaN metrics with exit 0
    root, config, _ = files
    series = read_tensor_file(root / "series.stgt")
    series[5, 1, 0] = 1e200
    write_tensor_file(tmp_path / "big.stgt", series)
    doc = json.loads(json.dumps(config))
    doc["data"]["series"] = str(tmp_path / "big.stgt")
    (tmp_path / "c.json").write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = _run("train", "--config", tmp_path / "c.json",
                            "--out-dir", tmp_path / "run")
    assert code == 3
    assert f"{tmp_path / 'big.stgt'}: channel(s) [0]: values too large to normalize" in err
    assert [w.message for w in caught] == []


@pytest.mark.parametrize("command", [["train"], ["experiment", "order"]])
def test_failed_load_leaves_no_run_directory(files, tmp_path, command):
    root, config, _ = files
    series = read_tensor_file(root / "series.stgt")
    series[5, 1, 0] = 1e160
    write_tensor_file(tmp_path / "big.stgt", series)
    doc = json.loads(json.dumps(config))
    doc["data"]["series"] = str(tmp_path / "big.stgt")
    (tmp_path / "c.json").write_text(json.dumps(doc))
    code, _, err = _run(*command, "--config", tmp_path / "c.json",
                        "--out-dir", tmp_path / "runx")
    assert code == 3, err
    assert not (tmp_path / "runx").exists()


def test_eval_with_huge_weights_prints_no_overflow_warning(files, tmp_path):
    # gate pre-activations far below -709 overflow exp inside the sigmoid;
    # the saturated gate, 0, is the right answer and needs no warning
    root, _, checkpoint = files
    state = init_model(ModelConfig(**_CONFIG["model"], **_CONFIG["dataset"]), 3, 1, seed=0)
    load_checkpoint(checkpoint, state)
    for p in state.params.values():
        p.data *= 1e3
    save_checkpoint(state, tmp_path / "huge.ckpt")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run("eval", "--config", root / "c.json",
                              "--checkpoint", tmp_path / "huge.ckpt")
    _assert_clean(code, out, err)
    assert code == 0
    assert "RuntimeWarning" not in err
    assert [w.message for w in caught] == []
