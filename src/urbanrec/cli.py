"""Command-line entry point: gen | train | eval | ablate | gradcheck.

Every option can come from three places with the precedence flags > config
file > built-in defaults.  Config files are flat ``key=value`` lines (``#``
comments allowed) using the same names as the long flags.  Each command
writes a ``<name>.config`` echo of its fully resolved options next to its
artifacts, so any result can be traced to the exact run that produced it;
filesystem paths stay out of the echo, which keeps re-runs of one config
byte-identical wherever they land.  ``eval`` takes its split seed and ratios
from the ``train.config`` (or ``ablate.config``) echo beside the checkpoint,
so it scores the pairs that training held out.  ``train`` and ``ablate``
report one progress line per epoch on stderr.  Failures print a single
``error <Type>: <message>`` line to stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import sys
import typing
from pathlib import Path

from .ablation import ABLATE_VARIANTS, format_row, run_ablation
from .counterfactual import SCORERS
from .evaluation import evaluate
from .interactions import (InteractionSet, parse_checkins, serialize_checkins,
                           split_dataset)
from .model import DimsMismatch, load_checkpoint, save_checkpoint
from .propagation import build_graphs, dims_for, forward
from .synthgen import (CityConfig, generate_city, parse_ground_truth,
                       serialize_ground_truth)
from .training import HyperParams, fit, run_gradcheck
from .ukg import parse_triplets, serialize_triplets


class UsageError(ValueError):
    pass


class SplitMismatch(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default error handler prints multi-line usage; we need a
    # single machine-parseable line instead
    def error(self, message):
        raise UsageError(message)


def _parse_value(typ: type, raw: str):
    if typ is bool:
        low = raw.strip().lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise UsageError(f"expected true/false, got {raw!r}")
    return typ(raw)


def _format_value(typ: type, value) -> str:
    if typ is bool:
        return "true" if value else "false"
    if typ is float:
        return repr(float(value))
    return str(value)


# The option type each parameter annotation reads as; an optional string is
# a string option that stays None when unset.
_OPTION_TYPES = {int: int, float: float, bool: bool, str: str, str | None: str}


def _options_of(consumer) -> list:
    """(name, type, default) of every defaulted parameter of a function or
    dataclass, read from its signature so that the consumer alone states
    them."""
    hints = typing.get_type_hints(consumer)
    keys = []
    for param in inspect.signature(consumer).parameters.values():
        if param.default is param.empty:
            continue
        hint = hints.get(param.name)
        if hint not in _OPTION_TYPES:
            raise TypeError(f"{consumer.__qualname__}.{param.name}: no option "
                            f"type for annotation {hint!r}")
        keys.append((param.name, _OPTION_TYPES[hint], param.default))
    return keys


SPLIT_KEYS = [("train_ratio", float, 0.8), ("val_ratio", float, 0.1),
              ("test_ratio", float, 0.1)]
SPLIT_RATIOS = tuple(name for name, _, _ in SPLIT_KEYS)

GEN_KEYS = _options_of(CityConfig)
DIMS_KEYS = _options_of(dims_for)
HP_KEYS = _options_of(HyperParams)
TRAIN_KEYS = DIMS_KEYS + HP_KEYS + SPLIT_KEYS + [("seed", int, 0)]
EVAL_KEYS = [("scorer", str, "tie"), ("target", str, "test"),
             ("seed", int, 0), ("split_seed", int, 0)] + SPLIT_KEYS
ABLATE_KEYS = TRAIN_KEYS + [("eval_seed", int, 0),
                            ("functional_fraction", float, 0.05)]
GRADCHECK_KEYS = _options_of(run_gradcheck)


def _pick(values: dict, keys) -> dict:
    return {name: values[name] for name, _, _ in keys}


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
        if key in out:
            raise UsageError(f"{path}:{lineno}: repeated config key {key!r}")
        out[key] = _parse_value(by_name[key], raw)
    return out


def _explicit(args, keys) -> dict:
    """Options set by the config file or by flags, flags winning."""
    values = _read_config_file(args.config, keys) \
        if getattr(args, "config", None) else {}
    for name, typ, _ in keys:
        raw = getattr(args, name, None)
        if raw is not None:
            values[name] = _parse_value(typ, raw)
    return values


def _resolve(args, keys) -> dict:
    values = {**{name: default for name, _, default in keys},
              **_explicit(args, keys)}
    for name, value in values.items():
        if name.endswith("seed") and value < 0:
            raise UsageError(f"{name} must be >= 0, got {value}")
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
    return kg, InteractionSet(iset.n_users, kg.n_pois, iset.ids)


def _load_ground_truth(data_dir: str):
    path = Path(data_dir) / "ground_truth.txt"
    if not path.exists():
        raise FileNotFoundError(f"missing data file: {path}")
    return parse_ground_truth(path.read_text())


def _check_gen_config(data_dir: str, truth: CityConfig) -> None:
    """A gen.config beside the data must echo, key for key, the city that
    the ground truth's header names."""
    path = Path(data_dir) / "gen.config"
    if not path.exists():
        return
    echo = _read_config_file(str(path), GEN_KEYS)
    for name, typ, default in GEN_KEYS:
        want, have = getattr(truth, name), echo.get(name, default)
        if want != have:
            raise ValueError(
                f"{name}={_format_value(typ, want)} in ground_truth.txt but "
                f"gen.config has {name}={_format_value(typ, have)}")


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
          f"pairs={len(iset)}")
    return 0


def _load_split(data_dir: str, values: dict, seed: int):
    kg, iset = _load_data(data_dir)
    ratios = tuple(values[key] for key in SPLIT_RATIOS)
    return kg, split_dataset(iset, ratios, seed)


def _progress_line(label: str):
    def show(record: dict) -> None:
        print(f"{label} epoch={record['epoch']} total={record['total']:.4f} "
              f"val_recall20={record['val_recall20']:.4f}", file=sys.stderr)
    return show


def _start_run(out: Path, echo_name: str, echo: str, outputs) -> None:
    """Write the echo before the first fit, after removing what an earlier
    run left under this run's output names: a run failing part way leaves
    no checkpoint beside an echo of another run, or with none."""
    out.mkdir(parents=True, exist_ok=True)
    for name in outputs:
        (out / name).unlink(missing_ok=True)
    (out / echo_name).write_text(echo)


def _save_run(kg, bundle, params, log, log_path, ckpt_path) -> None:
    # every triplet enters its side's graph as two directed edges
    graph = {"event": "graph", "blended": bundle.blended,
             "geo_side_triplets": len(bundle.geo.src) // 2,
             "func_side_triplets": len(bundle.func.src) // 2,
             "total_triplets": len(kg.triplets)}
    lines = [json.dumps(r, sort_keys=True) for r in [graph] + log]
    Path(log_path).write_text("\n".join(lines) + "\n")
    save_checkpoint(params, str(ckpt_path))


def cmd_train(args) -> int:
    values = _resolve(args, TRAIN_KEYS)
    kg, split = _load_split(args.data, values, values["seed"])
    bundle = build_graphs(kg, split, blended=values["blended"])
    dims = dims_for(kg, split, **_pick(values, DIMS_KEYS))
    hp = HyperParams(**_pick(values, HP_KEYS))
    out = Path(args.out)
    _start_run(out, "train.config", _config_echo(TRAIN_KEYS, values),
               ("train_log.jsonl", "checkpoint.bin"))
    params, log = fit(split, bundle, dims, hp, values["seed"],
                      progress_fn=_progress_line("train"))
    _save_run(kg, bundle, params, log, out / "train_log.jsonl",
              out / "checkpoint.bin")
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


def _bind_split(values: dict, explicit: dict, checkpoint: str) -> None:
    """Evaluate on the split that the train or ablate config echo beside the
    checkpoint records; an explicitly given split that disagrees fails."""
    for name, keys in (("train.config", TRAIN_KEYS),
                       ("ablate.config", ABLATE_KEYS)):
        path = Path(checkpoint).parent / name
        if path.exists():
            break
    else:
        return
    trained = {key: default for key, _, default in keys}
    trained.update(_read_config_file(str(path), keys))
    trained["split_seed"] = trained["seed"]
    for key in ("split_seed",) + SPLIT_RATIOS:
        if key in explicit and explicit[key] != trained[key]:
            raise SplitMismatch(
                f"{key}={explicit[key]!r} but the checkpoint was trained on "
                f"{key}={trained[key]!r} ({name} beside it)")
        values[key] = trained[key]


def cmd_eval(args) -> int:
    values = _resolve(args, EVAL_KEYS)
    _bind_split(values, _explicit(args, EVAL_KEYS), args.checkpoint)
    if values["scorer"] not in SCORERS:
        raise UsageError(f"scorer must be one of {SCORERS}, got "
                         f"{values['scorer']!r}")
    if values["target"] not in ("test", "val"):
        raise UsageError(f"target must be test or val, got {values['target']!r}")
    kg, split = _load_split(args.data, values, values["split_seed"])
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


def cmd_ablate(args) -> int:
    values = _resolve(args, ABLATE_KEYS)
    if values["blended"]:
        raise UsageError("ablate controls the blended flag itself")
    truth = _load_ground_truth(args.data)
    functional = truth.functional_split(values["functional_fraction"])
    kg, split = _load_split(args.data, values, values["seed"])
    # checks the sizes and dims now; each fit runs when the loop below asks
    variants = run_ablation(kg, split, functional,
                            HyperParams(**_pick(values, HP_KEYS)),
                            values["seed"], values["eval_seed"], values["d"],
                            values["n_intents"], values["n_layers"],
                            progress=_progress_line)
    _check_gen_config(args.data, truth.config)
    out = Path(args.out)
    files = [(f"train_log_{label}.jsonl", f"{label}_checkpoint.bin")
             for _, label, _ in ABLATE_VARIANTS]
    _start_run(out, "ablate.config", _config_echo(ABLATE_KEYS, values),
               ["ablation.txt", *(name for pair in files for name in pair)])
    rows = []
    for v, (log_name, ckpt_name) in zip(variants, files):
        _save_run(kg, v.bundle, v.params, v.log, out / log_name, out / ckpt_name)
        rows += v.rows

    lines = [format_row(r) for r in rows]
    (out / "ablation.txt").write_text("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


def cmd_gradcheck(args) -> int:
    values = _resolve(args, GRADCHECK_KEYS)
    values["corrupt"] = values["corrupt"] or None  # an empty name is unset
    report = run_gradcheck(**values)
    print("\n".join(report.lines()))
    print(f"gradcheck runtime={report.runtime_s:.2f}s", file=sys.stderr)
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
