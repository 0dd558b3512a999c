"""Outside inputs under fuzzing through ``cli.main``: damaged checkpoints
through ``eval`` and ``score``, arbitrary JSON lines as ``score``
requests, and damaged or generated dataset lines through ``train``,
``eval`` and ``score``. Every run ends in a contract exit code (0, 2, 3 or 4) with no
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


HUGE = "an integer literal past int()'s 4,300-digit limit"
FIELDS = {"events": ("item_id", "action_type", "timestamp"),
          "user_features": ("uid", "profile_bucket"),
          "candidate": ("item_id", "timestamp"), "label": ()}


def base_lines(path) -> list:
    """Four lines of the generated dataset, both labels among them, so that
    ``train``, ``eval`` and ``score`` all succeed on them undamaged."""
    lines = Path(path).read_text().splitlines()
    label = [json.loads(line)["label"] for line in lines]
    return ([x for x, y in zip(lines, label) if y == 0][:1]
            + [x for x, y in zip(lines, label) if y == 1][:3])


@st.composite
def dataset_bytes(draw, lines):
    """A damaged copy of the valid JSONL ``lines``: truncated, with bytes
    flipped, or with one line that is any JSON value or whose record has a
    field (a top-level one, or one of an event or a nested object) deleted
    or replaced by generated JSON or an over-long integer literal."""
    raw = ("\n".join(lines) + "\n").encode()
    kind = draw(st.sampled_from(["truncate", "flip", "field", "value"]), label="kind")
    if kind == "truncate":
        return raw[:draw(st.integers(0, len(raw) - 1), label="cut")]
    if kind == "flip":
        blob = bytearray(raw)
        for _ in range(draw(st.integers(1, 4), label="flips")):
            blob[draw(st.integers(0, len(blob) - 1))] ^= draw(st.integers(1, 255))
        return bytes(blob)
    at = draw(st.integers(0, len(lines) - 1), label="line")
    new = draw(JSON_VALUES) if kind == "value" else json.loads(lines[at])
    if kind == "field":
        owner = new
        key = draw(st.sampled_from(sorted(FIELDS)), label="field")
        inner = FIELDS[key]
        if key == "events" and new["events"] and draw(st.booleans(), label="in event"):
            owner = draw(st.sampled_from(new["events"]), label="event")
        elif key != "events" and inner:
            owner = new[key]
        if owner is not new:
            key = draw(st.sampled_from(inner), label="inner field")
        change = draw(st.sampled_from(["delete", "json", "huge"]), label="change")
        if change == "delete":
            del owner[key]
        else:
            owner[key] = HUGE if change == "huge" else draw(INTS | JSON_VALUES)
    text = json.dumps(new)
    if json.dumps(HUGE) in text:
        text = text.replace(json.dumps(HUGE), "9" * draw(st.integers(4_301, 4_400)))
    return ("\n".join(lines[:at] + [text] + lines[at + 1:]) + "\n").encode()


def run_on_dataset(command: str, blob: bytes, trained, request: dict) -> int:
    """``command`` with ``--data`` holding ``blob``: ``train`` from a config,
    ``eval`` and ``score`` from the trained checkpoint, ``score`` with the
    one ``request``."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "dataset.jsonl").write_bytes(blob)
        (work / "model.json").write_text(json.dumps(MODEL_CFG))
        (work / "model.bin").write_bytes(trained["checkpoint"])
        (work / "requests.jsonl").write_text(json.dumps(request) + "\n")
        argv = [command, "--data", str(work / "dataset.jsonl")]
        if command == "train":
            argv += ["--config", str(work / "model.json"), "--epochs", "1"]
        else:
            argv += ["--checkpoint", str(work / "model.bin")]
        if command == "score":
            argv += ["--requests", str(work / "requests.jsonl")]
        return run(argv, work)


def request_for(line: str) -> dict:
    """A one-candidate request for the user of dataset ``line``."""
    rec = json.loads(line)
    return {"user_id": rec["user_features"]["uid"],
            "candidates": [{"item_id": 1, "timestamp": rec["candidate"]["timestamp"]}]}


@pytest.mark.parametrize("command", ["train", "eval", "score"])
def test_undamaged_fuzz_dataset_succeeds(trained, command):
    """The dataset the fuzzing below damages runs clean through each command,
    so a damaged copy fails for its damage, not for its base."""
    lines = base_lines(trained["data"])
    blob = ("\n".join(lines) + "\n").encode()
    assert run_on_dataset(command, blob, trained, request_for(lines[0])) == 0


@FUZZ
@given(data=st.data())
def test_fuzzed_dataset_bytes_exit_by_contract(trained, data):
    """Every command that reads ``--data`` (``inputs.load_dataset``) ends by
    contract on a damaged dataset."""
    lines = base_lines(trained["data"])
    blob = data.draw(dataset_bytes(lines), label="dataset")
    command = data.draw(st.sampled_from(["train", "eval", "score"]), label="command")
    run_on_dataset(command, blob, trained, request_for(lines[0]))
