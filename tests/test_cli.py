"""End-to-end CLI runs: exit codes, manifests, byte-level reproducibility."""

import argparse
import gzip
import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from longrec import analysis, cli
from longrec.cli import main
from longrec.config import ModelConfig
from longrec.model import CHECKPOINT_MAGIC, LongRecModel

GEN_CFG = {"n_users": 20, "vocab": 24, "L_max": 12, "L_min": 6,
           "n_interests": 4, "interests_per_user": 2, "n_actions": 3,
           "n_profiles": 4}

MODEL_CFG = {"L": 12, "d": 3, "K": 2, "k": 4, "N": 1, "d_item": 3, "d_act": 2,
             "d_time": 3, "n_time_buckets": 8, "vocab": 24, "n_actions": 3,
             "n_users": 20, "n_profiles": 4, "head_hidden": 5,
             "batch_size": 8, "lr": 0.01}


@pytest.fixture
def gen_cfg_path(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(GEN_CFG))
    return str(path)


@pytest.fixture
def model_cfg_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(MODEL_CFG))
    return str(path)


@pytest.fixture
def dataset_path(tmp_path, gen_cfg_path):
    out = tmp_path / "gen_out"
    assert main(["gen", "--config", gen_cfg_path, "--seed", "3",
                 "--out", str(out)]) == 0
    return str(out / "dataset.jsonl")


def test_gen_is_byte_identical(tmp_path, gen_cfg_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["gen", "--config", gen_cfg_path, "--seed", "5",
                     "--out", str(out)]) == 0
        outs.append((out / "dataset.jsonl").read_bytes())
    assert outs[0] == outs[1]


def test_gen_missing_field_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"n_users": 5, "vocab": 24}))   # no L_max
    assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "L_max" in capsys.readouterr().err


def test_gen_unknown_field_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**GEN_CFG, "vocabulary": 10}))
    assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert "vocabulary" in capsys.readouterr().err


def test_gen_mistyped_field_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**GEN_CFG, "n_users": "3"}))
    assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "n_users" in err and "Traceback" not in err


@pytest.mark.parametrize("field,value", [("L", "x"), ("heads", 0), ("lr", "a"),
                                         ("head_hidden", -1), ("batch_size", 0)])
def test_train_bad_config_value_exit_2(tmp_path, capsys, dataset_path, field, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**MODEL_CFG, field: value}))
    assert main(["train", "--config", str(bad), "--data", dataset_path,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_train_unallocatable_config_exit_2(tmp_path, capsys, dataset_path):
    """A config whose parameters cannot be allocated exits 2 naming their
    count, not with a MemoryError traceback."""
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"vocab": 10 ** 12, "L": 16, "k": 4}))
    assert main(["train", "--config", str(big), "--data", dataset_path,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    n = analysis.count_params(ModelConfig(vocab=10 ** 12, L=16, k=4))["total"]
    assert f"{n:,} parameters" in err and "Traceback" not in err


@pytest.mark.parametrize("field,value", [("p_hit", 7.0), ("p_miss", -0.5)])
def test_gen_probability_out_of_range_exit_2(tmp_path, capsys, field, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**GEN_CFG, field: value}))
    assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("section,field,value", [
    ("events", "item_id", "x"), ("events", "item_id", 1.7),
    ("events", "action_type", True), ("candidate", "timestamp", 2 ** 70)])
def test_train_malformed_dataset_field_exit_2(tmp_path, capsys, model_cfg_path,
                                              dataset_path, section, field, value):
    lines = Path(dataset_path).read_text().splitlines()
    rec = json.loads(lines[0])
    target = rec["events"][0] if section == "events" else rec[section]
    target[field] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(rec)] + lines[1:]) + "\n")
    assert main(["train", "--config", model_cfg_path, "--data", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize("case", [
    "truncated-gz-data", "non-utf8-data", "non-utf8-config", "missing-data",
    "missing-checkpoint", "missing-requests", "missing-fit-csv", "zero-epochs",
    "fit-out-is-file", "fit-out-under-file", "cost-out-is-file",
    "cost-out-under-file", "train-out-is-file", "train-out-under-file"])
def test_unreadable_input_exit_2(tmp_path, capsys, model_cfg_path, dataset_path,
                                 case):
    missing = str(tmp_path / "missing")
    out = str(tmp_path / "o")
    truncated = tmp_path / "data.jsonl.gz"
    truncated.write_bytes(gzip.compress(Path(dataset_path).read_bytes())[:-20])
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"note": "caf\u00e9"}\n'.encode("latin-1"))
    checkpoint = tmp_path / "model.bin"
    LongRecModel(ModelConfig.from_dict(MODEL_CFG)).save(str(checkpoint))
    train = ["train", "--config", model_cfg_path, "--out", out]
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    points = tmp_path / "points.csv"
    points.write_text("1,1\n2,3\n4,4\n8,7\n")
    fit = ["fit", "--csv", str(points), "--out"]
    cost = ["cost", "--seq-len", "64", "--width", "4", "--out"]
    train_to = ["train", "--config", model_cfg_path, "--data", dataset_path, "--out"]
    argv = {
        "truncated-gz-data": train + ["--data", str(truncated)],
        "non-utf8-data": train + ["--data", str(latin1)],
        "non-utf8-config": ["train", "--config", str(latin1), "--data",
                            dataset_path, "--out", out],
        "missing-data": train + ["--data", missing],
        "missing-checkpoint": ["eval", "--checkpoint", missing, "--data",
                               dataset_path, "--out", out],
        "missing-requests": ["score", "--checkpoint", str(checkpoint), "--data",
                             dataset_path, "--requests", missing, "--out", out],
        "missing-fit-csv": ["fit", "--csv", missing],
        "zero-epochs": train + ["--data", dataset_path, "--epochs", "0"],
        "fit-out-is-file": fit + [str(afile)],
        "fit-out-under-file": fit + [str(afile / "x")],
        "cost-out-is-file": cost + [str(afile)],
        "cost-out-under-file": cost + [str(afile / "x")],
        "train-out-is-file": train_to + [str(afile)],
        "train-out-under-file": train_to + [str(afile / "x")],
    }[case]
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("fraction", ["-1", "-0.5", "nan", "inf"])
def test_eval_fraction_out_of_range_exit_2(tmp_path, capsys, model_cfg_path,
                                           dataset_path, command, fraction):
    out = str(tmp_path / "o")
    if command == "train":
        argv = ["train", "--config", model_cfg_path, "--data", dataset_path]
    else:
        checkpoint = tmp_path / "model.bin"
        LongRecModel(ModelConfig.from_dict(MODEL_CFG)).save(str(checkpoint))
        argv = ["eval", "--checkpoint", str(checkpoint), "--data", dataset_path]
    assert main(argv + ["--out", out, "--eval-fraction", fraction]) == 2
    err = capsys.readouterr().err
    assert "eval_fraction" in err and "Traceback" not in err


def test_train_manifest_records_runtime(tmp_path, monkeypatch, model_cfg_path,
                                       dataset_path):
    """A run's manifest names NumPy's version, its BLAS, the BLAS thread
    settings of the run, unset ones as null, and the CPU features NumPy's
    SIMD dispatch found."""
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "t"
    assert main(["train", "--config", model_cfg_path, "--data", dataset_path,
                 "--out", str(out), "--epochs", "1"]) == 0
    runtime = json.loads((out / "manifest.json").read_text())["runtime"]
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config.get("SIMD Extensions", {})
    assert runtime["numpy"] == np.__version__
    assert runtime["simd"] == {"baseline": simd.get("baseline"),
                               "found": simd.get("found")}
    assert runtime["blas"]["name"] == blas["name"]
    assert runtime["blas"]["version"] == blas["version"]
    assert runtime["blas"]["configuration"] in blas.values()
    assert runtime["threads"] == {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": None}


def test_gen_zero_users(tmp_path):
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({**GEN_CFG, "n_users": 0}))
    out = tmp_path / "zero_out"
    assert main(["gen", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "dataset.jsonl").read_text() == ""
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]["samples"] == 0


def test_train_then_eval_reproduces_metrics(tmp_path, model_cfg_path, dataset_path):
    train_out = tmp_path / "train_out"
    assert main(["train", "--config", model_cfg_path, "--data", dataset_path,
                 "--out", str(train_out), "--epochs", "1", "--seed", "1"]) == 0
    report = (train_out / "train_report.csv").read_text().strip().splitlines()
    final = report[-1].split(",")
    eval_out = tmp_path / "eval_out"
    assert main(["eval", "--checkpoint", str(train_out / "checkpoint.bin"),
                 "--data", dataset_path, "--out", str(eval_out),
                 "--seed", "1"]) == 0
    rows = (eval_out / "eval.csv").read_text().strip().splitlines()
    _, auc_s, ll_s = rows[1].split(",")
    assert auc_s == final[2] and ll_s == final[3]


def test_eval_with_baseline(tmp_path, model_cfg_path, dataset_path):
    train_out = tmp_path / "t"
    main(["train", "--config", model_cfg_path, "--data", dataset_path,
          "--out", str(train_out), "--epochs", "1"])
    eval_out = tmp_path / "e"
    assert main(["eval", "--checkpoint", str(train_out / "checkpoint.bin"),
                 "--data", dataset_path, "--out", str(eval_out),
                 "--baseline", "sumpooling", "--epochs", "1"]) == 0
    rows = (eval_out / "eval.csv").read_text().strip().splitlines()
    assert rows[1].startswith("model,") and rows[2].startswith("sumpooling,")


def test_eval_baseline_out_of_range_item_exit_2(tmp_path, model_cfg_path,
                                                dataset_path, capsys):
    """An item id outside the vocabulary in the baseline's training split is
    an embedding-lookup error, exit 2, with no traceback."""
    train_out = tmp_path / "t"
    main(["train", "--config", model_cfg_path, "--data", dataset_path,
          "--out", str(train_out), "--epochs", "1"])
    rows = [json.loads(line) for line in Path(dataset_path).read_text().splitlines()]
    first = min(rows, key=lambda r: r["candidate"]["timestamp"])   # trained on
    first["events"][0]["item_id"] = GEN_CFG["vocab"] + 6
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in rows))
    assert main(["eval", "--checkpoint", str(train_out / "checkpoint.bin"),
                 "--data", str(bad), "--out", str(tmp_path / "e"),
                 "--baseline", "sumpooling", "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert "item id out of range" in err and "Traceback" not in err


def test_eval_config_mismatch_exit_4(tmp_path, model_cfg_path, dataset_path):
    train_out = tmp_path / "t"
    main(["train", "--config", model_cfg_path, "--data", dataset_path,
          "--out", str(train_out), "--epochs", "1"])
    other = tmp_path / "other.json"
    other.write_text(json.dumps({**MODEL_CFG, "N": 2}))
    assert main(["eval", "--checkpoint", str(train_out / "checkpoint.bin"),
                 "--data", dataset_path, "--out", str(tmp_path / "e"),
                 "--config", str(other)]) == 4


def test_eval_poisoned_checkpoint_exit_3(tmp_path, model_cfg_path, dataset_path):
    train_out = tmp_path / "t"
    main(["train", "--config", model_cfg_path, "--data", dataset_path,
          "--out", str(train_out), "--epochs", "1"])
    ckpt = train_out / "checkpoint.bin"
    blob = bytearray(ckpt.read_bytes())
    # last array in the layout is the scalar head bias: always on the path
    blob[-8:] = struct.pack("<d", float("nan"))
    poisoned = tmp_path / "poisoned.bin"
    poisoned.write_bytes(bytes(blob))
    assert main(["eval", "--checkpoint", str(poisoned), "--data", dataset_path,
                 "--out", str(tmp_path / "e")]) == 3


def test_score_non_finite_probability_exit_3(tmp_path, capsys, model_cfg_path,
                                             dataset_path):
    """A checkpoint that scores NaN is a numerical abort for ``score`` as for
    ``eval``, not a response line holding NaN."""
    main(["train", "--config", model_cfg_path, "--data", dataset_path,
          "--out", str(tmp_path / "t"), "--epochs", "1"])
    blob = bytearray((tmp_path / "t" / "checkpoint.bin").read_bytes())
    blob[-8:] = struct.pack("<d", float("nan"))       # the head's output bias
    poisoned = tmp_path / "poisoned.bin"
    poisoned.write_bytes(bytes(blob))
    rec = json.loads(Path(dataset_path).read_text().splitlines()[0])
    requests = tmp_path / "requests.jsonl"
    requests.write_text(json.dumps(
        {"user_id": rec["user_features"]["uid"],
         "candidates": [{"item_id": 1, "timestamp": rec["candidate"]["timestamp"]}]})
        + "\n")
    out = tmp_path / "s"
    assert main(["score", "--checkpoint", str(poisoned), "--data", dataset_path,
                 "--requests", str(requests), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "non-finite probability" in err and "Traceback" not in err
    assert "NaN" not in (out / "responses.jsonl").read_text()


def strict_json(text: str):
    """``json.loads`` that refuses NaN and infinities, as RFC 8259 and strict
    parsers such as jq do."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("case", ["train-undefined-auc", "sweep-failed-point"])
def test_manifest_is_strict_json(tmp_path, gen_cfg_path, model_cfg_path, case):
    """An undefined evaluation AUC (one held-out sample of six) and a failed
    sweep point are written as null, so the manifest parses strictly."""
    out = tmp_path / "out"
    if case == "train-undefined-auc":
        gen = tmp_path / "gen6.json"
        gen.write_text(json.dumps({**GEN_CFG, "n_users": 6}))
        assert main(["gen", "--config", str(gen), "--out", str(tmp_path / "g")]) == 0
        assert main(["train", "--config", model_cfg_path, "--epochs", "1",
                     "--data", str(tmp_path / "g" / "dataset.jsonl"),
                     "--eval-fraction", "0.2", "--out", str(out)]) == 0
        manifest = strict_json((out / "manifest.json").read_text())
        assert manifest["outputs"]["final_auc"] is None
    else:
        sweep = {"axis": "depth", "grid": [0, 1], "epochs": 1, "generator": GEN_CFG,
                 "model": {**MODEL_CFG, "k": 2}}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        failed = strict_json((out / "manifest.json").read_text())["outputs"]["rows"][0]
        assert failed["auc"] is None and failed["x"] is None


def test_eval_truncated_checkpoint_exit_2(tmp_path, model_cfg_path, dataset_path,
                                          capsys):
    train_out = tmp_path / "t"
    main(["train", "--config", model_cfg_path, "--data", dataset_path,
          "--out", str(train_out), "--epochs", "1"])
    truncated = tmp_path / "truncated.bin"
    truncated.write_bytes((train_out / "checkpoint.bin").read_bytes()[:-3])
    assert main(["eval", "--checkpoint", str(truncated), "--data", dataset_path,
                 "--out", str(tmp_path / "e")]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_eval_oversized_checkpoint_config_exit_2(tmp_path, dataset_path, capsys):
    """A header whose config would need petabytes is refused before any
    allocation."""
    path = tmp_path / "model.bin"
    LongRecModel(ModelConfig.from_dict(MODEL_CFG)).save(str(path))
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16:16 + hlen])
    header["config"]["vocab"] = 10 ** 15
    text = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen:])
    assert main(["eval", "--checkpoint", str(path), "--data", dataset_path,
                 "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert "payload" in err and "Traceback" not in err


DEEP_JSON = "[" * 100_000 + "]" * 100_000       # past the parser's recursion limit
HUGE_INT_JSON = "[" + "9" * 5_000 + "]"           # past int()'s 4,300-digit limit


def parse_site_exit(tmp_path, capsys, model_cfg_path, dataset_path, site, text):
    """``main``'s exit code and stderr with ``text`` as the JSON read at one
    parse site: the config, a dataset line, a checkpoint header or a score
    request."""
    doc, out = tmp_path / "doc", str(tmp_path / "out")
    if site == "checkpoint":
        header = text.encode()
        doc.write_bytes(CHECKPOINT_MAGIC + struct.pack("<Q", len(header)) + header)
    else:
        doc.write_text(text + "\n")
    if site == "requests":
        main(["train", "--config", model_cfg_path, "--data", dataset_path,
              "--out", str(tmp_path / "t"), "--epochs", "1"])
    argv = {
        "config": ["train", "--config", str(doc), "--data", dataset_path],
        "data": ["train", "--config", model_cfg_path, "--data", str(doc)],
        "checkpoint": ["eval", "--checkpoint", str(doc), "--data", dataset_path],
        "requests": ["score", "--checkpoint", str(tmp_path / "t" / "checkpoint.bin"),
                     "--data", dataset_path, "--requests", str(doc)],
    }[site]
    capsys.readouterr()
    code = main(argv + ["--out", out])
    return code, capsys.readouterr().err


@pytest.mark.parametrize("site", ["config", "data", "checkpoint", "requests"])
def test_deeply_nested_json_exit_2(tmp_path, capsys, model_cfg_path, dataset_path,
                                   site):
    """A JSON document nested deeper than the parser can recurse is a config
    error at every parse site."""
    code, err = parse_site_exit(tmp_path, capsys, model_cfg_path, dataset_path, site,
                                DEEP_JSON)
    assert code == 2
    assert "recursion" in err and "Traceback" not in err


@pytest.mark.parametrize("site", ["config", "data", "checkpoint", "requests"])
def test_json_integer_past_the_digit_limit_exit_2(tmp_path, capsys, model_cfg_path,
                                                   dataset_path, site):
    """An integer literal longer than Python converts (a ValueError that is
    no JSONDecodeError) is a config error at every parse site; the config and
    dataset sites used to exit 1 with a traceback."""
    code, err = parse_site_exit(tmp_path, capsys, model_cfg_path, dataset_path, site,
                                HUGE_INT_JSON)
    assert code == 2
    assert "digits" in err and "Traceback" not in err


def rewrite_header(path, **fields):
    """Rewrite checkpoint ``path`` with ``fields`` replaced in its header."""
    blob = path.read_bytes()
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = {**json.loads(blob[16:16 + hlen]), **fields}
    text = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + blob[16 + hlen:])


@pytest.mark.parametrize("case,message", [
    ("no-header-length", "no header length"),
    ("format-version", "unsupported checkpoint format version"),
    ("arrays", "checkpoint arrays differ")])
def test_bad_checkpoint_exit_2(tmp_path, capsys, dataset_path, case, message):
    """A checkpoint cut inside its header length, one of another format
    version and one whose header arrays differ from the config's parameters
    (same payload size) are each refused."""
    path = tmp_path / "model.bin"
    model = LongRecModel(ModelConfig.from_dict(MODEL_CFG))
    model.save(str(path))
    if case == "no-header-length":
        path.write_bytes(CHECKPOINT_MAGIC + b"\x01\x02")
    elif case == "format-version":
        rewrite_header(path, format_version=2)
    else:
        arrays = [{"name": n, "shape": list(t.shape)} for n, t in model.params()]
        arrays[0], arrays[1] = arrays[1], arrays[0]
        rewrite_header(path, arrays=arrays)
    assert main(["eval", "--checkpoint", str(path), "--data", dataset_path,
                 "--out", str(tmp_path / "e")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("case,message", [
    ("score-before-history", "scoring time precedes the last user event"),
    ("train-empty", "cannot train on an empty dataset"),
    ("train-split-empty", "temporal split left no training samples")])
def test_serving_and_training_refusals_exit_2(tmp_path, capsys, model_cfg_path,
                                              dataset_path, case, message):
    """A request scored before its user's last event, training on an empty
    dataset and a split that holds out every sample are each refused."""
    out = str(tmp_path / "o")
    first = Path(dataset_path).read_text().splitlines()[0]
    data = tmp_path / "data.jsonl"
    data.write_text("" if case == "train-empty" else first + "\n")
    if case == "score-before-history":
        checkpoint = tmp_path / "model.bin"
        LongRecModel(ModelConfig.from_dict(MODEL_CFG)).save(str(checkpoint))
        rec = json.loads(first)
        early = rec["events"][-1]["timestamp"] - 1
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps(
            {"user_id": rec["user_features"]["uid"],
             "candidates": [{"item_id": 1, "timestamp": early}]}) + "\n")
        argv = ["score", "--checkpoint", str(checkpoint), "--data", str(data),
                "--requests", str(requests)]
    else:
        argv = ["train", "--config", model_cfg_path, "--data", str(data),
                "--eval-fraction", "0.6"]
    assert main(argv + ["--out", out]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("field,value,message", [
    ("m", 2, "m must be >= 3"), ("merge_mode", "sum", "unknown merge_mode"),
    ("heads", 4, "not divisible by heads"),
    ("inner_layers", 0, "inner_layers must be >= 1")])
def test_model_config_refusals_exit_2(tmp_path, capsys, dataset_path, field,
                                      value, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**MODEL_CFG, field: value}))      # D = 6
    assert main(["train", "--config", str(bad), "--data", dataset_path,
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("fields,message", [
    ({"n_users": -1}, "n_users must be >= 0"),
    ({"L_max": 0}, "L_max must be >= 1"),
    ({"L_min": 13}, "L_min exceeds L_max"),
    ({"plant_gap": 12}, "plant_gap leaves no deep region"),
    ({"plant_gap": 2, "plant_min": 5, "plant_max": 4}, "plant_min <= plant_max"),
    ({"plant_gap": 2, "plant_side": "middle"}, "plant_side must be"),
    ({"plant_gap": 0, "plant_side": "recent"}, "recent plant side needs plant_gap"),
    ({"plant_gap": 2, "candidates_per_history": 0}, "candidates_per_history"),
    ({"plant_gap": 2, "interests_per_user": 3}, "two interests outside"),
    ({"interests_per_user": 4}, "interests_per_user must be in [1, n_interests)"),
    ({"noise_rate": 1.5}, "rates must lie in [0, 1]"),
    ({"drift_rate": -0.1}, "rates must lie in [0, 1]"),
    ({"gap_min": 0}, "need 1 <= gap_min <= gap_max"),
    ({"gap_min": 50, "gap_max": 40}, "need 1 <= gap_min <= gap_max")],
    ids=["n_users", "L_max", "L_min", "plant_gap", "plant_min", "plant_side",
         "recent_gap", "candidates", "interests", "interests_all", "noise_rate",
         "drift_rate", "gap_min", "gap_max"])
def test_generator_config_refusals_exit_2(tmp_path, capsys, fields, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**GEN_CFG, **fields}))    # L_max 12, 4 interests
    assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_query_strategy_override_recorded(tmp_path, model_cfg_path, dataset_path):
    out = tmp_path / "t"
    assert main(["train", "--config", model_cfg_path, "--data", dataset_path,
                 "--out", str(out), "--epochs", "1",
                 "--query-strategy", "uniform", "--k", "3"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["query_strategy"] == "uniform"
    assert manifest["resolved_config"]["k"] == 3


def test_query_strategy_with_a_count_exits_2(tmp_path, capsys, model_cfg_path,
                                             dataset_path):
    """``--query-strategy`` takes a bare name; k is set by ``--k`` alone, so a
    count suffix is an unknown strategy, never a second way to set k."""
    out = tmp_path / "t"
    assert main(["train", "--config", model_cfg_path, "--data", dataset_path,
                 "--out", str(out), "--epochs", "1", "--k", "8",
                 "--query-strategy", "recent16"]) == 2
    err = capsys.readouterr().err
    assert "query_strategy" in err and "recent16" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("override,field", [("--k=0", "k"), ("--seq-len=0", "L"),
                                            ("--lr=-0.5", "lr"), ("--lr=nan", "lr"),
                                            ("--lr=inf", "lr")])
def test_train_bad_override_exit_2(tmp_path, capsys, model_cfg_path, dataset_path,
                                   override, field):
    assert main(["train", "--config", model_cfg_path, "--data", dataset_path,
                 "--out", str(tmp_path / "o"), "--epochs", "1", override]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


def test_zero_lr_override_recorded(tmp_path, model_cfg_path, dataset_path):
    out = tmp_path / "t"
    assert main(["train", "--config", model_cfg_path, "--data", dataset_path,
                 "--out", str(out), "--epochs", "1", "--lr", "0"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["lr"] == 0.0


def test_cost_json(tmp_path, capsys):
    assert main(["cost", "--seq-len", "2048", "--width", "32", "--merge", "4",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["flops_vanilla"] == 587202560
    assert payload["flops_merged"] == 335544320


def test_cost_out_matches_json(tmp_path, capsys):
    argv = ["cost", "--seq-len", "2048", "--width", "32", "--merge", "4"]
    assert main(argv + ["--json", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "cost.json").read_text()) == \
        json.loads(capsys.readouterr().out)


def test_cost_nonpositive_inner_layers_exit_2(capsys):
    for layers in ("0", "-2"):
        assert main(["cost", "--seq-len", "2048", "--width", "32", "--merge", "4",
                     "--inner-layers", layers, "--json"]) == 2
    assert capsys.readouterr().out == ""


def test_fit_roundtrip(tmp_path, capsys):
    csv_path = tmp_path / "points.csv"
    xs = [1, 2, 4, 8, 16]
    lines = ["x,y"] + [f"{x},{2.0 * x ** 0.5 + 1.0}" for x in xs]
    csv_path.write_text("\n".join(lines))
    assert main(["fit", "--csv", str(csv_path), "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["alpha"] - 2.0) <= 1e-6
    assert abs(payload["beta"] - 0.5) <= 1e-6
    saved = json.loads((tmp_path / "fit.json").read_text())
    assert saved["gamma"] == payload["gamma"]


def test_fit_too_few_points_exit_2(tmp_path):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("1,2\n2,3\n3,4\n")
    assert main(["fit", "--csv", str(csv_path)]) == 2


def test_fit_oversized_field_exit_2(tmp_path, capsys):
    """A field over the csv module's size limit is a config error naming the
    file."""
    csv_path = tmp_path / "points.csv"
    csv_path.write_text("2,3\n3,4\n4,5\n" + "9" * 200_000 + ",7\n")
    assert main(["fit", "--csv", str(csv_path)]) == 2
    captured = capsys.readouterr()
    assert str(csv_path) in captured.err and captured.out == ""


@pytest.mark.parametrize("row", ["1,nan", "1,inf", "inf,1"])
def test_fit_non_finite_point_exit_2(tmp_path, capsys, row):
    csv_path = tmp_path / "points.csv"
    csv_path.write_text(f"2,3\n3,4\n4,5\n5,7\n{row}\n")
    assert main(["fit", "--csv", str(csv_path)]) == 2
    assert capsys.readouterr().out == ""


def test_sweep_three_points_refuses_fit(tmp_path):
    sweep = {"axis": "seq_len", "grid": [4, 8, 12], "epochs": 1,
             "generator": GEN_CFG,
             "model": {**MODEL_CFG, "k": 2}}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "sweep.csv").exists()
    assert not (out / "fit.json").exists()


def test_sweep_four_points_fits(tmp_path):
    sweep = {"axis": "seq_len", "grid": [4, 6, 8, 12], "epochs": 1,
             "generator": {**GEN_CFG, "n_users": 80},
             "model": {**MODEL_CFG, "k": 2, "n_users": 80}}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--seed", "4",
                 "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 5
    fit = json.loads((out / "fit.json").read_text())
    assert "r_squared" in fit and "beta" in fit
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"]["fit"]["alpha"] == fit["alpha"]


@pytest.mark.parametrize("axis,grid", [("width", [2, 3]), ("flops", [1, 2])])
def test_sweep_width_and_flops_axes(tmp_path, axis, grid):
    """Each point's x is D on the width axis and (N+1) * flops_merged over
    the merged rows' G*K tokens on the flops axis (L=11 rounds up to 12)."""
    base = {**MODEL_CFG, "L": 11, "k": 2}
    sweep = {"axis": axis, "grid": grid, "epochs": 1, "generator": GEN_CFG,
             "model": base}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    if axis == "width":
        want = [float(base["K"] * d) for d in grid]
    else:
        want = [float((N + 1) * analysis.flops_merged(12, base["d"], base["K"]))
                for N in grid]
    lines = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    assert [int(r[0]) for r in rows] == grid and all("ok" in r[4] for r in rows)
    assert [float(r[1]) for r in rows] == want


@pytest.mark.parametrize("field,value", [
    ("epochs", "x"), ("epochs", 0), ("epochs", 1.7), ("epochs", True),
    ("grid", ["x"]), ("grid", [4, 8.5]), ("grid", [True, 8])])
def test_sweep_bad_epochs_or_grid_exit_2(tmp_path, capsys, field, value):
    sweep = {"axis": "seq_len", "grid": [4, 8], "epochs": 1,
             "generator": GEN_CFG, "model": {**MODEL_CFG, "k": 2}, field: value}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("axis,model", [
    ("seq_len", {"K": "x"}), ("seq_len", {"k": "x"}), ("seq_len", [1, 2]),
    ("seq_len", {"K": 0}), ("depth", {"N": 1, "d": "x"})],
    ids=["K-str", "k-str", "list", "K-0", "depth-d-str"])
def test_sweep_bad_model_exit_2(tmp_path, capsys, axis, model):
    """A base model field of the wrong type fails the whole sweep, whether or
    not the sweep axis reads it, before the dataset is generated."""
    base = {**MODEL_CFG, "k": 2}
    sweep = {"axis": axis, "grid": [4, 8], "epochs": 1, "generator": GEN_CFG,
             "model": {**base, **model} if isinstance(model, dict) else model}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "model" in err and "Traceback" not in err
    assert not (out / "sweep.csv").exists()


def test_sweep_bad_grid_value_fails_only_its_point(tmp_path):
    sweep = {"axis": "depth", "grid": [0, 1], "epochs": 1, "generator": GEN_CFG,
             "model": {**MODEL_CFG, "k": 2}}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(sweep))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    status = [r["status"] for r in
              json.loads((out / "manifest.json").read_text())["outputs"]["rows"]]
    assert status == ["failed: N must be >= 1", "ok"]


@pytest.mark.parametrize("override", [["--seq-len", "8", "--k", "5"], ["--k", "7"]])
def test_train_k_beyond_merged_length_exit_2(tmp_path, capsys, model_cfg_path,
                                             dataset_path, override):
    """k above the G = ceil(L / K) merged rows (K = 2) is refused."""
    assert main(["train", "--config", model_cfg_path, "--data", dataset_path,
                 "--out", str(tmp_path / "o")] + override) == 2
    err = capsys.readouterr().err
    assert "exceeds merged length" in err and "Traceback" not in err


@pytest.mark.parametrize("fields,message", [
    ({"axis": "time"}, "sweep axis must be one of"),
    ({"grid": []}, "needs a non-empty 'grid' list"),
    ({"generator": None}, "needs a 'generator' object")],
    ids=["axis", "grid", "generator"])
def test_sweep_config_refusals_exit_2(tmp_path, capsys, fields, message):
    sweep = {"axis": "seq_len", "grid": [4, 8], "epochs": 1, "generator": GEN_CFG,
             "model": {**MODEL_CFG, "k": 2}, **fields}
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({f: v for f, v in sweep.items() if v is not None}))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (out / "sweep.csv").exists()


@pytest.mark.parametrize("sizes,message", [
    (("0", "32", "4"), "L and d must be >= 1"),
    (("2048", "0", "4"), "L and d must be >= 1"),
    (("2048", "32", "0"), "K must be >= 1")], ids=["seq_len", "width", "merge"])
def test_cost_nonpositive_size_exit_2(capsys, sizes, message):
    L, d, K = sizes
    assert main(["cost", "--seq-len", L, "--width", d, "--merge", K, "--json"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_sweep_seq_len_without_k_sets_k_per_point(tmp_path):
    """On the seq_len axis a base model with no ``k`` gets k = max(1, L // K)
    at each point (K = 2), so every point trains."""
    base = {f: v for f, v in MODEL_CFG.items() if f != "k"}
    grid = [1, 4, 6]
    assert [cli._axis_update("seq_len", L, base) for L in grid] == \
        [{"L": 1, "k": 1}, {"L": 4, "k": 2}, {"L": 6, "k": 3}]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"axis": "seq_len", "grid": grid, "epochs": 1,
                               "generator": GEN_CFG, "model": base}))
    out = tmp_path / "sweep_out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    rows = json.loads((out / "manifest.json").read_text())["outputs"]["rows"]
    assert [(r["point"], r["status"]) for r in rows] == [(L, "ok") for L in grid]


def with_blank_lines(text):
    """``text`` with an empty and a whitespace-only line before each line."""
    return "".join("\n \t\n" + line for line in text.splitlines(keepends=True))


def test_blank_input_lines_are_skipped(tmp_path, capsys, model_cfg_path, dataset_path):
    """Blank lines in ``--data``, ``--requests`` and ``fit --csv`` are
    skipped: each command gives the results it gives for the file without
    them (the responses' timings aside)."""
    train_out = tmp_path / "t"
    assert main(["train", "--config", model_cfg_path, "--data", dataset_path,
                 "--out", str(train_out), "--epochs", "1"]) == 0
    first = json.loads(Path(dataset_path).read_text().splitlines()[0])
    uid, ts = first["user_features"]["uid"], first["candidate"]["timestamp"]
    requests = "".join(
        json.dumps({"user_id": uid,
                    "candidates": [{"item_id": i, "timestamp": ts} for i in items]}) + "\n"
        for items in ([1, 2], [5]))
    points = "x,y\n" + "".join(f"{x},{2.0 * x ** 0.5 + 1.0}\n" for x in (1, 2, 4, 8, 16))
    blanks = tmp_path / "blanks"
    blanks.mkdir()
    (blanks / "data.jsonl").write_text(with_blank_lines(Path(dataset_path).read_text()))
    (blanks / "requests.jsonl").write_text(with_blank_lines(requests))
    (blanks / "points.csv").write_text(with_blank_lines(points))
    (tmp_path / "requests.jsonl").write_text(requests)
    (tmp_path / "points.csv").write_text(points)
    outputs = []
    for data, where in ((dataset_path, tmp_path), (str(blanks / "data.jsonl"), blanks)):
        assert main(["score", "--checkpoint", str(train_out / "checkpoint.bin"),
                     "--data", data, "--requests", str(where / "requests.jsonl"),
                     "--out", str(where / "score")]) == 0
        capsys.readouterr()
        assert main(["fit", "--csv", str(where / "points.csv")]) == 0
        responses = [json.loads(line) for line in
                     (where / "score" / "responses.jsonl").read_text().splitlines()]
        outputs.append(([(r["user_id"], r["probabilities"]) for r in responses],
                        capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert [len(p) for _, p in outputs[0][0]] == [2, 1]


def test_score_command(tmp_path, model_cfg_path, dataset_path):
    train_out = tmp_path / "t"
    main(["train", "--config", model_cfg_path, "--data", dataset_path,
          "--out", str(train_out), "--epochs", "1"])
    data = [json.loads(line) for line in
            open(dataset_path, encoding="utf-8")]
    uid = data[0]["user_features"]["uid"]
    ts = data[0]["candidate"]["timestamp"]
    req_path = tmp_path / "requests.jsonl"
    req_path.write_text(json.dumps(
        {"user_id": uid,
         "candidates": [{"item_id": 1, "timestamp": ts},
                        {"item_id": 2, "timestamp": ts}]}) + "\n")
    out = tmp_path / "score_out"
    assert main(["score", "--checkpoint", str(train_out / "checkpoint.bin"),
                 "--data", dataset_path, "--requests", str(req_path),
                 "--out", str(out)]) == 0
    resp = json.loads((out / "responses.jsonl").read_text())
    assert resp["user_id"] == uid
    assert len(resp["probabilities"]) == 2
    for bad in ({"user_id": uid + 0.5, "candidates": []},
                {"user_id": uid, "candidates": [{"item_id": 1, "timestamp": 2 ** 70}]}):
        req_path.write_text(json.dumps(bad) + "\n")
        assert main(["score", "--checkpoint", str(train_out / "checkpoint.bin"),
                     "--data", dataset_path, "--requests", str(req_path),
                     "--out", str(out)]) == 2


def test_checkpoint_magic_constant():
    assert CHECKPOINT_MAGIC == b"LRCKPT01"


def test_subcommand_lists_match_parser():
    """README's command lines and the module docstring's list name exactly
    the parser's subcommands."""
    action = next(a for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    commands = set(action.choices)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert set(re.findall(r"^longrec (\w+)", readme, re.M)) == commands
    listed = re.search(r"Subcommands: ([\w, ]+)\.", cli.__doc__).group(1)
    assert set(listed.split(", ")) == commands
