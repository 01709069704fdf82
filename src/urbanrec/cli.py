"""Command-line entry point: gen | train | eval | ablate | gradcheck.

Every option can come from three places with the precedence flags > config
file > built-in defaults.  Config files are flat ``key=value`` lines (``#``
comments allowed) using the same names as the long flags.  Each command
writes a ``<name>.config`` echo of its fully resolved options next to its
artifacts, so any result can be traced to the exact run that produced it;
filesystem paths stay out of the echo, which keeps re-runs of one config
byte-identical wherever they land.  Failures print a single
``error <Type>: <message>`` line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from .counterfactual import SCORERS
from .evaluation import evaluate, rank_candidates
from .interactions import (InteractionSet, parse_checkins, serialize_checkins,
                           split_dataset)
from .model import DimsMismatch, load_checkpoint, save_checkpoint
from .propagation import build_graphs, dims_for, forward
from .synthgen import (CityConfig, functional_ndcg, generate_city,
                       parse_ground_truth, serialize_ground_truth)
from .training import HyperParams, fit, run_gradcheck
from .ukg import parse_triplets, serialize_triplets, split_subgraphs


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default error handler prints multi-line usage; we need a
    # single machine-parseable line instead
    def error(self, message):
        raise UsageError(message)


def _parse_value(typ: str, raw: str):
    if typ == "int":
        return int(raw)
    if typ == "float":
        return float(raw)
    if typ == "bool":
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise UsageError(f"expected true/false, got {raw!r}")
    return raw


def _format_value(typ: str, value) -> str:
    if typ == "bool":
        return "true" if value else "false"
    if typ == "float":
        return repr(float(value))
    return str(value)


GEN_KEYS = [
    ("n_users", "int", 500), ("n_pois", "int", 2000),
    ("n_regions", "int", 25), ("n_business_areas", "int", 50),
    ("n_brands", "int", 200), ("n_cate1", "int", 8),
    ("n_cate2", "int", 20), ("n_cate3", "int", 40),
    ("latent_dim", "int", 8), ("geo_strength", "float", 1.0),
    ("interactions_per_user", "int", 20), ("seed", "int", 0),
]

TRAIN_KEYS = [
    ("d", "int", 32), ("n_intents", "int", 4), ("n_layers", "int", 3),
    ("lr", "float", 1e-3), ("lam_ind", "float", 0.1),
    ("lam_reg", "float", 1e-3), ("cf_weight", "float", 1.0),
    ("batch_size", "int", 1024), ("beta1", "float", 0.9),
    ("beta2", "float", 0.999), ("eps", "float", 1e-8),
    ("patience", "int", 10), ("max_epochs", "int", 30),
    ("train_ratio", "float", 0.8), ("val_ratio", "float", 0.1),
    ("test_ratio", "float", 0.1), ("seed", "int", 0),
    ("blended", "bool", False),
]

EVAL_KEYS = [
    ("scorer", "str", "tie"), ("target", "str", "test"),
    ("seed", "int", 0), ("split_seed", "int", 0),
    ("train_ratio", "float", 0.8), ("val_ratio", "float", 0.1),
    ("test_ratio", "float", 0.1),
]

ABLATE_KEYS = TRAIN_KEYS + [("eval_seed", "int", 0),
                            ("functional_fraction", "float", 0.05)]

GRADCHECK_KEYS = [
    ("seed", "int", 7), ("step", "float", 1e-4),
    ("threshold", "float", 1e-4), ("corrupt", "str", ""),
]


def _read_config_file(path: str, keys) -> dict:
    by_name = {name: typ for name, typ, _ in keys}
    out = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        if key not in by_name:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _parse_value(by_name[key], raw)
    return out


def _resolve(args, keys) -> dict:
    values = {name: default for name, _, default in keys}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config, keys))
    for name, typ, _ in keys:
        raw = getattr(args, name, None)
        if raw is not None:
            values[name] = _parse_value(typ, raw)
    return values


def _config_echo(keys, values) -> str:
    lines = [f"{name}={_format_value(typ, values[name])}"
             for name, typ, _ in sorted(keys)]
    return "\n".join(lines) + "\n"


def _config_hash(echo: str) -> str:
    return hashlib.sha256(echo.encode()).hexdigest()


def _add_keys(parser, keys):
    parser.add_argument("--config", help="flat key=value config file")
    for name, _, default in keys:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, metavar="V", dest=name,
                            help=f"default {default}")


def _load_data(data_dir: str):
    data = Path(data_dir)
    kg_path, ck_path = data / "kg.tsv", data / "checkins.tsv"
    for p in (kg_path, ck_path):
        if not p.exists():
            raise FileNotFoundError(f"missing data file: {p}")
    kg = parse_triplets(kg_path.read_text())
    iset = parse_checkins(ck_path.read_text())
    # parse_checkins infers n_pois from the largest id seen, which falls short
    # of the graph when its last POIs drew no check-in
    return kg, InteractionSet(iset.n_users, kg.n_pois, iset.pairs)


def _load_ground_truth(data_dir: str):
    path = Path(data_dir) / "ground_truth.txt"
    if not path.exists():
        raise FileNotFoundError(f"missing data file: {path}")
    return parse_ground_truth(path.read_text())


# -- commands -------------------------------------------------------------------


def cmd_gen(args) -> int:
    values = _resolve(args, GEN_KEYS)
    cfg = CityConfig(**values)
    kg, iset, gt = generate_city(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "kg.tsv").write_text(serialize_triplets(kg))
    (out / "checkins.tsv").write_text(serialize_checkins(iset))
    (out / "ground_truth.txt").write_text(serialize_ground_truth(gt))
    (out / "gen.config").write_text(_config_echo(GEN_KEYS, values))
    print(f"gen out={args.out} triplets={len(kg.triplets)} "
          f"pairs={len(iset.pairs)}")
    return 0


def _train_setup(data_dir: str, values: dict):
    kg, iset = _load_data(data_dir)
    ratios = (values["train_ratio"], values["val_ratio"], values["test_ratio"])
    split = split_dataset(iset, ratios, values["seed"])
    bundle = build_graphs(kg, split, blended=values["blended"])
    dims = dims_for(kg, split, d=values["d"], n_intents=values["n_intents"],
                    n_layers=values["n_layers"], blended=values["blended"])
    hp = HyperParams(
        lam_ind=values["lam_ind"], lam_reg=values["lam_reg"],
        cf_weight=values["cf_weight"], lr=values["lr"],
        batch_size=values["batch_size"], beta1=values["beta1"],
        beta2=values["beta2"], eps=values["eps"],
        patience=values["patience"], max_epochs=values["max_epochs"])
    return kg, split, bundle, dims, hp


def _graph_record(kg, blended: bool) -> dict:
    if blended:
        geo_count = func_count = len(kg.triplets)
    else:
        geo, func = split_subgraphs(kg)
        geo_count, func_count = len(geo.triplets), len(func.triplets)
    return {"event": "graph", "blended": blended,
            "geo_side_triplets": geo_count, "func_side_triplets": func_count,
            "total_triplets": len(kg.triplets)}


def _run_training(kg, split, bundle, dims, hp, seed, log_path, ckpt_path):
    params, log = fit(split, bundle, dims, hp, seed)
    records = [_graph_record(kg, bundle.blended)] + log
    lines = [json.dumps(r, sort_keys=True) for r in records]
    Path(log_path).write_text("\n".join(lines) + "\n")
    save_checkpoint(params, str(ckpt_path))
    return params, log


def cmd_train(args) -> int:
    values = _resolve(args, TRAIN_KEYS)
    kg, split, bundle, dims, hp = _train_setup(args.data, values)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _, log = _run_training(kg, split, bundle, dims, hp, values["seed"],
                           out / "train_log.jsonl", out / "checkpoint.bin")
    (out / "train.config").write_text(_config_echo(TRAIN_KEYS, values))
    best = max((r["val_recall20"] for r in log), default=float("nan"))
    print(f"train out={args.out} epochs={len(log)} best_val_recall20={best!r}")
    return 0


def _checked_forward(kg, split, params, dims):
    want = dims_for(kg, split, d=dims.d, n_intents=dims.n_intents_geo,
                    n_layers=dims.n_layers, blended=params.blended)
    if want != dims:
        raise DimsMismatch(f"checkpoint dims {dims} do not match data dims {want}")
    bundle = build_graphs(kg, split, blended=params.blended)
    return forward(params, bundle)


def cmd_eval(args) -> int:
    values = _resolve(args, EVAL_KEYS)
    if values["scorer"] not in SCORERS:
        raise UsageError(f"scorer must be one of {SCORERS}, got "
                         f"{values['scorer']!r}")
    if values["target"] not in ("test", "val"):
        raise UsageError(f"target must be test or val, got {values['target']!r}")
    kg, iset = _load_data(args.data)
    ratios = (values["train_ratio"], values["val_ratio"], values["test_ratio"])
    split = split_dataset(iset, ratios, values["split_seed"])
    params = load_checkpoint(args.checkpoint)
    finals = _checked_forward(kg, split, params, params.dims)
    report = evaluate(finals, split, scorer=values["scorer"],
                      target=values["target"], ks=(20, 40, 60),
                      seed=values["seed"])
    echo = _config_echo(EVAL_KEYS, values)
    report.config_hash = _config_hash(echo)
    out = Path(args.out) if args.out else (
        Path(args.checkpoint).parent
        / f"metrics_{values['scorer']}_{values['target']}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(report.to_json() + "\n")
    Path(str(out) + ".config").write_text(echo)
    print(report.to_json())
    return 0


def _ablation_row(name, scorer, finals, split, gt, eval_seed, fraction) -> dict:
    report = evaluate(finals, split, scorer=scorer, target="test",
                      ks=(20, 40, 60), seed=eval_seed)
    # functional ndcg ranks the full catalog: ground-truth relevance is
    # independent of the observed check-ins, so nothing is excluded
    empty = np.array([], dtype=np.int64)
    ranked = {u: rank_candidates(u, finals, scorer, empty)
              for u in range(split.n_users)}
    fndcg = functional_ndcg(ranked, gt, k=20, fraction=fraction)
    row = {"variant": name, "scorer": scorer,
           "functional_ndcg@20": fndcg, "auc": report.auc}
    for k in (20, 40, 60):
        row[f"recall@{k}"] = report.recall[k]
        row[f"ndcg@{k}"] = report.ndcg[k]
    return row


def _format_row(row: dict) -> str:
    parts = [f"variant={row['variant']}", f"scorer={row['scorer']}"]
    for k in (20, 40, 60):
        parts.append(f"recall@{k}={row[f'recall@{k}']!r}")
    for k in (20, 40, 60):
        parts.append(f"ndcg@{k}={row[f'ndcg@{k}']!r}")
    parts.append(f"auc={row['auc']!r}")
    parts.append(f"functional_ndcg@20={row['functional_ndcg@20']!r}")
    return " ".join(parts)


def cmd_ablate(args) -> int:
    values = _resolve(args, ABLATE_KEYS)
    if values["blended"]:
        raise UsageError("ablate controls the blended flag itself")
    gt = _load_ground_truth(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fraction = values["functional_fraction"]
    eval_seed = values["eval_seed"]

    kg, split, bundle, dims, hp = _train_setup(args.data, values)
    params, _ = _run_training(kg, split, bundle, dims, hp, values["seed"],
                              out / "train_log_full.jsonl",
                              out / "full_checkpoint.bin")
    finals = forward(params, bundle)
    rows = [
        _ablation_row("full", "tie", finals, split, gt, eval_seed, fraction),
        # counterfactual inference removed at ranking time: the same trained
        # model ranks by plain total effect instead of the debiased score
        _ablation_row("no_counterfactual", "te", finals, split, gt,
                      eval_seed, fraction),
    ]

    blended_values = dict(values, blended=True)
    kg, split, bundle, dims, hp = _train_setup(args.data, blended_values)
    params, _ = _run_training(kg, split, bundle, dims, hp, values["seed"],
                              out / "train_log_no_disentangle.jsonl",
                              out / "no_disentangle_checkpoint.bin")
    finals = forward(params, bundle)
    rows.append(_ablation_row("no_disentangle", "tie", finals, split, gt,
                              eval_seed, fraction))

    lines = [_format_row(r) for r in rows]
    (out / "ablation.txt").write_text("\n".join(lines) + "\n")
    (out / "ablate.config").write_text(_config_echo(ABLATE_KEYS, values))
    for line in lines:
        print(line)
    return 0


def cmd_gradcheck(args) -> int:
    values = _resolve(args, GRADCHECK_KEYS)
    report = run_gradcheck(step=values["step"], threshold=values["threshold"],
                           corrupt=values["corrupt"] or None,
                           seed=values["seed"])
    print("\n".join(report.lines()))
    return 0  # a FAIL verdict is a report outcome, not a command failure


def build_parser() -> _Parser:
    parser = _Parser(prog="urbanrec", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic city")
    p.add_argument("--out", required=True, help="output directory")
    _add_keys(p, GEN_KEYS)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train on generated data")
    p.add_argument("--data", required=True, help="directory from gen")
    p.add_argument("--out", required=True, help="output directory")
    _add_keys(p, TRAIN_KEYS)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--data", required=True, help="directory from gen")
    p.add_argument("--checkpoint", required=True, help="checkpoint file")
    p.add_argument("--out", help="metrics file (default beside checkpoint)")
    _add_keys(p, EVAL_KEYS)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and compare model variants")
    p.add_argument("--data", required=True, help="directory from gen")
    p.add_argument("--out", required=True, help="output directory")
    _add_keys(p, ABLATE_KEYS)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck",
                       help="finite-difference gradient verification")
    _add_keys(p, GRADCHECK_KEYS)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except Exception as exc:  # single-line machine-parseable failure
        message = " ".join(str(exc).split())
        print(f"error {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
