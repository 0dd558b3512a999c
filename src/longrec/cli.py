"""Command-line entry point wiring all modules together.

Subcommands: gen, train, eval, cost, fit, sweep, score. Every run except
cost and fit writes a ``manifest.json`` into its output directory, and
``main`` alone writes it: every parsed argument (``args``, seeds and
defaults included), the sha256 of each input file (``inputs_sha256``, over
``--config``, ``--data``, ``--checkpoint`` and ``--requests``), the resolved
configuration, the outputs (``gen``'s include ``dataset_sha256``), timings,
and under ``runtime`` the NumPy version, BLAS build and BLAS thread settings
— enough to reproduce the run bit-identically at that BLAS build and thread
count (trained bits can differ between thread counts): rerunning the
command with each ``args`` value as its ``--flag`` gives the same files.
All JSON it writes is strict: a non-finite float is null.

Exit codes are a stable contract for CI: 0 success, 2 config/schema error
or an unwritable output path, 3 numerical abort (non-finite values), 4
cache/checkpoint fingerprint mismatch.

Randomness discipline: each run takes one ``--seed``; module-level streams
are derived as sha256(seed, stream-name), so adding a consumer never shifts
the draws of another.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, analysis
from .config import GeneratorConfig, ModelConfig, check_fields
from .errors import (ConfigError, EmbeddingLookupError, NumericalError,
                     StaleCacheError, UndefinedMetricError)
from .inputs import (Candidate, checked_int64s, generate_dataset, load_dataset,
                     read_jsonl, read_lines, save_dataset)
from .model import (LongRecModel, OptConfig, SumPoolingModel, eval_metrics,
                    temporal_split, train)
from .serving import ScoreRequest, score_request

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_FINGERPRINT = 4


def seed_for(seed: int, stream: str) -> int:
    """Named substream of the run seed (documented splitting scheme)."""
    digest = hashlib.sha256(f"{seed}/{stream}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _runtime() -> dict:
    """NumPy's version, its BLAS, the BLAS thread settings and the CPU
    features NumPy chose its SIMD kernels by at import (``baseline`` and
    ``found``, null where NumPy does not say): a rerun is bit-identical only
    with all of them the same, since a product's bits can depend on the BLAS
    build and its thread count, and whether two CPUs' ``exp`` and ``tanh``
    kernels agree in the last bit is not verified."""
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"].get("blas", {})
    simd = config.get("SIMD Extensions") or {}
    return {"numpy": np.__version__,
            "simd": {key: simd.get(key) for key in ("baseline", "found")},
            "blas": {"name": blas.get("name"), "version": blas.get("version"),
                     "configuration": next((v for key, v in blas.items()
                                            if key.endswith("configuration")), None)},
            "threads": {var: os.environ.get(var) for var in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def _json_text(payload) -> str:
    """``payload`` as JSON with indent 2 and sorted keys. RFC 8259 has no NaN
    or infinity, so a non-finite float (an undefined AUC, a failed sweep
    point) is written as null, at any depth, and strict parsers read it."""
    finite = json.loads(json.dumps(payload), parse_constant=lambda name: None)
    return json.dumps(finite, indent=2, sort_keys=True)


def _write_json(path: str, payload) -> None:
    """Write ``_json_text(payload)`` and a trailing newline to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload) + "\n")


def _write_csv(path: str, header, rows) -> str:
    """Write ``header`` and ``rows`` to ``path`` as CSV (``csv.writer``: a
    float as its repr, a field holding a comma, quote or line break quoted)
    and return the text."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    return buf.getvalue()


def _write_manifest(args, resolved: dict, outputs: dict, started: float) -> None:
    """Write the run record the module docstring describes to ``args.out``."""
    wall_seconds = time.time() - started
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "fn")}
    _write_json(os.path.join(args.out, "manifest.json"), {
        "command": args.command,
        "args": flags,
        "inputs_sha256": {key: _sha256_file(flags[key]) for key in
                          ("config", "data", "checkpoint", "requests")
                          if flags.get(key) is not None},
        "resolved_config": resolved,
        "outputs": outputs,
        "artifact_version": __version__,
        "runtime": _runtime(),
        "started_unix": started,
        "wall_seconds": wall_seconds,
    })


def _load_json(path: str) -> dict:
    """The JSON object in file ``path``; ConfigError for an unreadable file,
    malformed JSON or any other top-level value."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, too deep, a huge int
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return payload


def _model_config(args) -> ModelConfig:
    """``train``'s config: the ``--config`` file (defaults without one), then
    the fields its override flags set; each stage is validated."""
    cfg = ModelConfig.from_dict(_load_json(args.config) if args.config else {})
    updates = {field: value for field, value in
               (("L", args.seq_len), ("k", args.k),
                ("query_strategy", args.query_strategy), ("lr", args.lr))
               if value is not None}
    return ModelConfig.from_dict({**cfg.to_dict(), **updates})


# ----------------------------- subcommands -----------------------------


def cmd_gen(args) -> tuple:
    gen_cfg = GeneratorConfig.from_dict(_load_json(args.config))
    os.makedirs(args.out, exist_ok=True)
    dataset = generate_dataset(gen_cfg, seed_for(args.seed, "gen"))
    data_path = os.path.join(args.out, "dataset.jsonl" + (".gz" if args.gzip else ""))
    save_dataset(dataset, data_path)
    print(f"wrote {len(dataset)} samples to {data_path}")
    return gen_cfg.to_dict(), {"dataset": data_path, "samples": len(dataset),
                               "dataset_sha256": _sha256_file(data_path)}


def cmd_train(args) -> tuple:
    cfg = _model_config(args)
    dataset = load_dataset(args.data)
    os.makedirs(args.out, exist_ok=True)
    model = LongRecModel(cfg, seed=seed_for(args.seed, "model-init"))
    opt = OptConfig(seed=seed_for(args.seed, "shuffle"),
                    eval_fraction=args.eval_fraction)
    report = train(model, dataset, args.epochs, opt)
    report_path = os.path.join(args.out, "train_report.csv")
    print(_write_csv(report_path, ("epoch", "loss", "auc", "logloss"),
                     [(e.epoch, e.loss, e.auc, e.logloss) for e in report.epochs]),
          end="")
    ckpt_path = os.path.join(args.out, "checkpoint.bin")
    model.save(ckpt_path)
    return cfg.to_dict(), {"report": report_path, "checkpoint": ckpt_path,
                           "final_auc": report.final.auc,
                           "final_logloss": report.final.logloss}


def cmd_eval(args) -> tuple:
    model = LongRecModel.load(args.checkpoint)
    if args.config:
        want = ModelConfig.from_dict(_load_json(args.config))
        if want.to_dict() != model.cfg.to_dict():
            raise StaleCacheError("checkpoint config does not match --config")
    dataset = load_dataset(args.data)
    os.makedirs(args.out, exist_ok=True)
    _, eval_idx = temporal_split(dataset.samples, args.eval_fraction)
    eval_samples = [dataset.samples[int(i)] for i in eval_idx] or dataset.samples
    rows = [("model",) + _finite_metrics(model, eval_samples)]
    if args.baseline == "sumpooling":
        base = SumPoolingModel(model.cfg, seed=seed_for(args.seed, "baseline-init"))
        opt = OptConfig(seed=seed_for(args.seed, "baseline-shuffle"),
                        eval_fraction=args.eval_fraction)
        train(base, dataset, args.epochs, opt)
        rows.append(("sumpooling",) + _finite_metrics(base, eval_samples))
    out_path = os.path.join(args.out, "eval.csv")
    _write_csv(out_path, ("model", "auc", "logloss"), rows)
    for name, a, ll in rows:
        print(f"{name}: auc={a:.5f} logloss={ll:.5f}")
    return model.cfg.to_dict(), {"eval": out_path, "rows": [list(r) for r in rows]}


def _finite_metrics(model, samples):
    a, ll = eval_metrics(model, samples)
    if not (math.isfinite(ll) and (math.isfinite(a) or math.isnan(a))):
        raise NumericalError("non-finite evaluation metrics")
    if not math.isfinite(a):
        raise NumericalError("AUC could not be computed on the evaluation split")
    return a, ll


def cmd_cost(args) -> None:
    payload = analysis.cost_report(args.seq_len, args.width, args.merge,
                                   args.inner_layers)
    if args.json:
        print(_json_text(payload))
    else:
        print(f"{'quantity':<24}{'value':>20}")
        print("-" * 44)
        for key in ("flops_vanilla", "flops_merged", "flops_inner_trans",
                    "params_per_block", "params_merged_block"):
            print(f"{key:<24}{payload[key]:>20,}")
        pct = 100.0 * payload["reduction_ratio"]
        print(f"{'reduction':<24}{pct:>19.3f}%")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "cost.json"), payload)


def cmd_fit(args) -> None:
    xs, ys = [], []
    try:
        rows = list(csv.reader(read_lines(args.csv)))
    except csv.Error as exc:        # e.g. a field over the module's size limit
        raise ConfigError(f"cannot parse {args.csv}: {exc}") from exc
    for row in rows:
        if not row:
            continue
        try:
            x, y = float(row[0]), float(row[1])
        except (ValueError, IndexError):
            continue  # header or junk line
        xs.append(x)
        ys.append(y)
    result = analysis.fit_power_law(xs, ys)
    payload = result.to_dict()
    print(_json_text(payload))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "fit.json"), payload)


_SWEEP_AXES = ("seq_len", "depth", "width", "flops")


def cmd_sweep(args) -> tuple:
    """Train one model per grid point, record metrics, fit the scaling curve."""
    sweep = _load_json(args.config)
    axis = sweep.get("axis")
    if axis not in _SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {_SWEEP_AXES}, got {axis!r}")
    grid = sweep.get("grid")
    if not isinstance(grid, list) or not grid:
        raise ConfigError("sweep config needs a non-empty 'grid' list")
    checked_int64s(grid, "sweep 'grid' values")
    epochs = checked_int64s([sweep.get("epochs", 2)], "sweep 'epochs'")[0]
    if epochs < 1:
        raise ConfigError(f"sweep 'epochs' must be >= 1, got {epochs}")
    base_model = sweep.get("model", {})
    try:
        check_fields(ModelConfig, base_model)
    except ConfigError as exc:
        raise ConfigError(f"sweep 'model': {exc}") from None
    payloads = [{**base_model, **_axis_update(axis, value, base_model)}
                for value in grid]
    gen_payload = sweep.get("generator")
    if gen_payload is None:
        raise ConfigError("sweep config needs a 'generator' object")
    gen_cfg = GeneratorConfig.from_dict(gen_payload)
    os.makedirs(args.out, exist_ok=True)
    dataset = generate_dataset(gen_cfg, seed_for(args.seed, "gen"))

    rows = []
    for value, payload in zip(grid, payloads):
        try:
            cfg = ModelConfig.from_dict(payload)
            model = LongRecModel(cfg, seed=seed_for(args.seed, "model-init"))
            opt = OptConfig(seed=seed_for(args.seed, "shuffle"))
            report = train(model, dataset, epochs, opt)
            x = _axis_x(axis, cfg)
            rows.append({"point": value, "x": x, "auc": report.final.auc,
                         "logloss": report.final.logloss, "status": "ok"})
        except (ConfigError, NumericalError, UndefinedMetricError) as exc:
            rows.append({"point": value, "x": float("nan"),
                         "auc": float("nan"), "logloss": float("nan"),
                         "status": f"failed: {exc}"})
        print(f"sweep point {value}: {rows[-1]['status']} "
              f"auc={rows[-1]['auc']}")

    points_path = os.path.join(args.out, "sweep.csv")
    header = ("point", "x", "auc", "logloss", "status")
    _write_csv(points_path, header, [[r[key] for key in header] for r in rows])

    ok = [r for r in rows if r["status"] == "ok" and math.isfinite(r["auc"])]
    fit_payload = None
    if len(ok) >= 4:
        fit = analysis.fit_power_law([r["x"] for r in ok], [r["auc"] for r in ok])
        fit_payload = fit.to_dict()
        _write_json(os.path.join(args.out, "fit.json"), fit_payload)
        print(f"fit: alpha={fit.alpha:.6g} beta={fit.beta:.6g} "
              f"gamma={fit.gamma:.6g} r2={fit.r_squared:.6f}")
    else:
        print(f"only {len(ok)} usable grid points; need 4 to fit, emitting points only")

    return ({"sweep": sweep, "generator": gen_cfg.to_dict()},
            {"points": points_path, "rows": rows, "fit": fit_payload})


def _axis_update(axis: str, value: int, base: dict) -> dict:
    """The model fields a grid point sets; the base ``K`` and ``k`` it reads
    must be integers, and ``K`` at least 1 (ConfigError otherwise)."""
    if axis == "seq_len":
        K, k = base.get("K", ModelConfig().K), base.get("k")
        checked_int64s([K] + ([] if k is None else [k]), "sweep model 'K' and 'k'")
        if K < 1:
            raise ConfigError(f"sweep model 'K' must be >= 1, got {K}")
        out = {"L": value}
        if k is None or k > value // K:
            out["k"] = max(1, value // K)
        return out
    if axis in ("depth", "flops"):
        return {"N": value}
    if axis == "width":
        return {"d": value, "d_item": value}
    raise ConfigError(f"unhandled axis {axis}")


def _axis_x(axis: str, cfg: ModelConfig) -> float:
    if axis == "seq_len":
        return float(cfg.L)
    if axis == "depth":
        return float(cfg.N)
    if axis == "width":
        return float(cfg.D)
    # flops axis: analytic per-pass cost of the attention stack
    per_layer = analysis.flops_merged(cfg.merged_len * cfg.K, cfg.d, cfg.K)
    return float((cfg.N + 1) * per_layer)


def _score_request(rec) -> ScoreRequest:
    return ScoreRequest(
        user_id=checked_int64s([rec["user_id"]], "user_id")[0],
        candidates=[Candidate(*checked_int64s([c["item_id"], c["timestamp"]],
                                              "candidate item_id/timestamp"))
                    for c in rec["candidates"]])


def cmd_score(args) -> tuple:
    model = LongRecModel.load(args.checkpoint)
    dataset = load_dataset(args.data)
    store = {s.user_features.uid: s for s in dataset.samples}
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "responses.jsonl")
    n = 0
    with open(out_path, "w", encoding="utf-8") as fout:
        for request in read_jsonl(args.requests, _score_request, "score request"):
            response = score_request(model, store, request)
            if not all(map(math.isfinite, response.probabilities)):
                raise NumericalError(
                    f"non-finite probability for user {request.user_id}")
            fout.write(json.dumps(response.to_json_dict(), separators=(",", ":")) + "\n")
            n += 1
    print(f"scored {n} requests -> {out_path}")
    return model.cfg.to_dict(), {"responses": out_path, "count": n}


# ----------------------------- parser / dispatch -----------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="longrec",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic dataset")
    g.add_argument("--config", required=True, help="GeneratorConfig JSON path")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--gzip", action="store_true")
    g.set_defaults(fn=cmd_gen)

    t = sub.add_parser("train", help="train a model on a JSONL dataset")
    t.add_argument("--config", help="ModelConfig JSON path (defaults apply)")
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=int, default=2)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--eval-fraction", type=float, default=0.1)
    t.add_argument("--seq-len", type=int, help="override config L")
    t.add_argument("--k", type=int, help="override config k")
    t.add_argument("--lr", type=float, help="override config lr")
    t.add_argument("--query-strategy", help="override config query_strategy "
                   "(recent, uniform, recent_uniform or learnable)")
    t.set_defaults(fn=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--data", required=True)
    e.add_argument("--out", required=True)
    e.add_argument("--config", help="assert the checkpoint matches this config")
    e.add_argument("--baseline", choices=["sumpooling"],
                   help="also train and report the pooling baseline")
    e.add_argument("--epochs", type=int, default=2,
                   help="baseline training epochs")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--eval-fraction", type=float, default=0.1)
    e.set_defaults(fn=cmd_eval)

    c = sub.add_parser("cost", help="analytic FLOPs / parameter report")
    c.add_argument("--seq-len", type=int, required=True)
    c.add_argument("--width", type=int, required=True)
    c.add_argument("--merge", type=int, default=4, help="merge group size K")
    c.add_argument("--inner-layers", type=int, default=1)
    c.add_argument("--json", action="store_true")
    c.add_argument("--out")
    c.set_defaults(fn=cmd_cost)

    f = sub.add_parser("fit", help="fit y = alpha*x^beta + gamma to CSV points")
    f.add_argument("--csv", required=True, help="two-column x,y file")
    f.add_argument("--out")
    f.set_defaults(fn=cmd_fit)

    s = sub.add_parser("sweep", help="scaling sweep: train per grid point and fit")
    s.add_argument("--config", required=True, help="sweep JSON")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(fn=cmd_sweep)

    sc = sub.add_parser("score", help="batch-score JSONL requests with a cache")
    sc.add_argument("--checkpoint", required=True)
    sc.add_argument("--data", required=True, help="user store (dataset JSONL)")
    sc.add_argument("--requests", required=True)
    sc.add_argument("--out", required=True)
    sc.set_defaults(fn=cmd_score)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.time()
        record = args.fn(args)                  # (resolved config, outputs)
        if record is not None:
            _write_manifest(args, *record, started)
        return EXIT_OK
    except (ConfigError, EmbeddingLookupError, UndefinedMetricError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except StaleCacheError as exc:
        print(f"fingerprint mismatch: {exc}", file=sys.stderr)
        return EXIT_FINGERPRINT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
