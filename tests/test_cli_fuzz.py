"""Outside inputs under fuzzing through ``cli.main``: damaged checkpoints
through ``eval`` and ``score``, and arbitrary JSON lines as ``score``
requests. Every run ends in a contract exit code (0, 2, 3 or 4) with no
traceback, and a run that succeeds writes only strict JSON.

Derandomized with a bounded example count, so the suite stays deterministic
and gains seconds.
"""

import contextlib
import io
import json
import struct
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from longrec.cli import main
from test_cli import GEN_CFG, MODEL_CFG, strict_json
from test_config import JSON_VALUES

FUZZ = settings(max_examples=60, deadline=None, derandomize=True)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A dataset, a checkpoint trained on it for one epoch, and its bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "gen.json").write_text(json.dumps(GEN_CFG))
    (root / "model.json").write_text(json.dumps(MODEL_CFG))
    assert main(["gen", "--config", str(root / "gen.json"), "--out", str(root / "g")]) == 0
    data = str(root / "g" / "dataset.jsonl")
    assert main(["train", "--config", str(root / "model.json"), "--data", data,
                 "--out", str(root / "t"), "--epochs", "1"]) == 0
    first = json.loads(Path(data).read_text().splitlines()[0])
    return {"data": data, "checkpoint": (root / "t" / "checkpoint.bin").read_bytes(),
            "uid": first["user_features"]["uid"],
            "time": first["candidate"]["timestamp"]}


def run(argv, work: Path) -> int:
    """``main(argv + --out)`` in ``work``: its exit code, after checking the
    contract's exit codes, that stderr holds no traceback and that every
    JSON file of a successful run parses strictly."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv + ["--out", str(work / "out")])
    assert code in (0, 2, 3, 4), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        out = work / "out"
        texts = [(out / "manifest.json").read_text()]
        if (out / "responses.jsonl").exists():
            texts += (out / "responses.jsonl").read_text().splitlines()
        for text in texts:
            strict_json(text)
    return code


@FUZZ
@given(data=st.data())
def test_damaged_checkpoint_exits_by_contract(trained, data):
    """Truncations and byte flips anywhere in a checkpoint: the magic, the
    header length, the JSON header or the float payload."""
    blob = bytearray(trained["checkpoint"])
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    if data.draw(st.booleans(), label="truncate"):
        blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")]
    else:
        regions = {"magic": (0, 8), "length": (8, 16), "header": (16, 16 + hlen),
                   "payload": (16 + hlen, len(blob))}
        for _ in range(data.draw(st.integers(1, 4), label="flips")):
            lo, hi = regions[data.draw(st.sampled_from(sorted(regions)))]
            blob[data.draw(st.integers(lo, hi - 1))] ^= data.draw(st.integers(1, 255))
    command = data.draw(st.sampled_from(["eval", "score"]), label="command")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "model.bin").write_bytes(bytes(blob))
        (work / "requests.jsonl").write_text(json.dumps(
            {"user_id": trained["uid"],
             "candidates": [{"item_id": 1, "timestamp": trained["time"]}]}) + "\n")
        argv = [command, "--checkpoint", str(work / "model.bin"),
                "--data", trained["data"]]
        if command == "score":
            argv += ["--requests", str(work / "requests.jsonl")]
        run(argv, work)


INTS = st.integers(min_value=-2 ** 64, max_value=2 ** 64) | st.integers(-3, 30)


@st.composite
def request_lines(draw, uid, time):
    """One JSON line: a request whose fields are near-valid or arbitrary, or
    any JSON value."""
    if draw(st.booleans()):
        return json.dumps(draw(JSON_VALUES))
    candidate = st.fixed_dictionaries({
        "item_id": INTS | JSON_VALUES,
        "timestamp": st.sampled_from([time, time - 10 ** 9, time + 1]) | INTS})
    request = {"user_id": draw(st.sampled_from([uid, uid + 1000]) | INTS | JSON_VALUES),
               "candidates": draw(st.lists(candidate, max_size=3) | JSON_VALUES)}
    return json.dumps(request)


@FUZZ
@given(data=st.data())
def test_fuzzed_score_requests_exit_by_contract(trained, data):
    lines = data.draw(st.lists(request_lines(trained["uid"], trained["time"]),
                               min_size=1, max_size=3), label="lines")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "model.bin").write_bytes(trained["checkpoint"])
        (work / "requests.jsonl").write_text("\n".join(lines) + "\n")
        run(["score", "--checkpoint", str(work / "model.bin"), "--data",
             trained["data"], "--requests", str(work / "requests.jsonl")], work)
