"""End-to-end command-line tests: gen -> train -> eval round trips,
determinism, config precedence, and error reporting."""

import hashlib
import json
import re
import subprocess
import sys

import pytest

from urbanrec import cli
from urbanrec import ukg
from urbanrec.interactions import parse_checkins

CITY_FLAGS = ["--n-users", "24", "--n-pois", "60", "--n-regions", "4",
              "--n-business-areas", "8", "--n-brands", "12", "--n-cate1", "2",
              "--n-cate2", "4", "--n-cate3", "8",
              "--interactions-per-user", "6", "--seed", "2"]
TRAIN_FLAGS = ["--d", "6", "--n-layers", "2", "--max-epochs", "2",
               "--batch-size", "64", "--seed", "0"]


def run(*argv):
    return cli.main(list(argv))


def gen_city(path, *extra):
    assert run("gen", "--out", str(path), *CITY_FLAGS, *extra) == 0


def train(data, out, *extra):
    assert run("train", "--data", str(data), "--out", str(out),
               *TRAIN_FLAGS, *extra) == 0


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_gen_writes_valid_files(tmp_path, capsys):
    gen_city(tmp_path / "city")
    out = capsys.readouterr().out
    assert "triplets=" in out and "pairs=" in out
    kg = ukg.parse_triplets((tmp_path / "city" / "kg.tsv").read_text())
    iset = parse_checkins((tmp_path / "city" / "checkins.tsv").read_text())
    assert kg.populations["POI"] == 60
    assert iset.n_users == 24
    assert (tmp_path / "city" / "ground_truth.txt").exists()
    echo = (tmp_path / "city" / "gen.config").read_text()
    assert "n_pois=60" in echo and "seed=2" in echo


def test_gen_deterministic_hashes(tmp_path):
    gen_city(tmp_path / "a")
    gen_city(tmp_path / "b")
    for name in ("kg.tsv", "checkins.tsv", "ground_truth.txt", "gen.config"):
        assert file_hash(tmp_path / "a" / name) == file_hash(tmp_path / "b" / name)


def test_gen_rejects_bad_config(tmp_path, capsys):
    assert run("gen", "--out", str(tmp_path / "x"), "--n-pois", "0") == 1
    err = capsys.readouterr().err
    assert err.startswith("error InfeasibleConfig:")
    assert "\n" not in err.strip()


def test_train_eval_round_trip(tmp_path, capsys):
    gen_city(tmp_path / "city")
    train(tmp_path / "city", tmp_path / "run")
    out = capsys.readouterr().out
    assert "epochs=2" in out
    log_lines = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
    graph = json.loads(log_lines[0])
    assert graph["event"] == "graph"
    assert graph["geo_side_triplets"] + graph["func_side_triplets"] \
        == graph["total_triplets"]
    epochs = [json.loads(ln) for ln in log_lines[1:]]
    assert len(epochs) == 2
    for rec in epochs:
        for key in ("epoch", "l_f", "l_c", "l_ind_g", "l_ind_f", "total",
                    "val_recall20", "wall_time_s"):
            assert key in rec

    assert run("eval", "--data", str(tmp_path / "city"), "--checkpoint",
               str(tmp_path / "run" / "checkpoint.bin")) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["recall"]) == {"20", "40", "60"}
    assert set(report["ndcg"]) == {"20", "40", "60"}
    assert report["scorer"] == "tie"
    assert report["config_hash"]
    written = json.loads((tmp_path / "run" / "metrics_tie_test.json").read_text())
    assert written == report


def test_eval_reproduces_logged_val_recall(tmp_path, capsys):
    gen_city(tmp_path / "city")
    train(tmp_path / "city", tmp_path / "run")
    capsys.readouterr()
    log_lines = (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()
    best = max(json.loads(ln)["val_recall20"] for ln in log_lines[1:])
    assert run("eval", "--data", str(tmp_path / "city"), "--checkpoint",
               str(tmp_path / "run" / "checkpoint.bin"),
               "--target", "val") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["recall"]["20"] == best


def test_eval_scorer_variants_share_everything_but_scores(tmp_path, capsys):
    gen_city(tmp_path / "city")
    train(tmp_path / "city", tmp_path / "run")
    reports = {}
    for scorer in ("tie", "te"):
        capsys.readouterr()
        assert run("eval", "--data", str(tmp_path / "city"), "--checkpoint",
                   str(tmp_path / "run" / "checkpoint.bin"),
                   "--scorer", scorer) == 0
        reports[scorer] = json.loads(capsys.readouterr().out)
    a, b = reports["tie"], reports["te"]
    assert a["scorer"] == "tie" and b["scorer"] == "te"
    for key in ("target", "seed", "n_users_evaluated", "defined"):
        assert a[key] == b[key]


def test_eval_byte_identical_reruns(tmp_path):
    gen_city(tmp_path / "city")
    train(tmp_path / "city", tmp_path / "run")
    paths = []
    for name in ("m1.json", "m2.json"):
        out = tmp_path / name
        assert run("eval", "--data", str(tmp_path / "city"), "--checkpoint",
                   str(tmp_path / "run" / "checkpoint.bin"),
                   "--out", str(out)) == 0
        paths.append(out)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_train_deterministic_checkpoint(tmp_path):
    gen_city(tmp_path / "city")
    train(tmp_path / "city", tmp_path / "r1")
    train(tmp_path / "city", tmp_path / "r2")
    assert file_hash(tmp_path / "r1" / "checkpoint.bin") \
        == file_hash(tmp_path / "r2" / "checkpoint.bin")


def test_train_missing_data_file(tmp_path, capsys):
    assert run("train", "--data", str(tmp_path / "nope"),
               "--out", str(tmp_path / "run")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error FileNotFoundError:")
    assert "kg.tsv" in err


def test_train_and_eval_when_last_poi_has_no_checkin(tmp_path, capsys):
    city = tmp_path / "city"
    assert run("gen", "--out", str(city), "--n-users", "20", "--n-pois", "200",
               "--interactions-per-user", "5", "--seed", "0") == 0
    # no check-in lands on POI 199, so the ids alone imply 199 POIs
    assert parse_checkins((city / "checkins.tsv").read_text()).n_pois == 199
    train(city, tmp_path / "run")
    assert run("eval", "--data", str(city), "--checkpoint",
               str(tmp_path / "run" / "checkpoint.bin")) == 0
    # a check-in at a POI the graph lacks still fails loudly
    with open(city / "checkins.tsv", "a") as f:
        f.write("0\t200\n")
    capsys.readouterr()
    assert run("train", "--data", str(city), "--out", str(tmp_path / "bad"),
               *TRAIN_FLAGS) == 1
    err = capsys.readouterr().err
    assert err.startswith("error ValueError:") and "poi id 200" in err


def test_eval_dims_mismatch_names_both(tmp_path, capsys):
    gen_city(tmp_path / "city")
    train(tmp_path / "city", tmp_path / "run")
    gen_city(tmp_path / "city2", "--n-users", "12")
    capsys.readouterr()
    assert run("eval", "--data", str(tmp_path / "city2"), "--checkpoint",
               str(tmp_path / "run" / "checkpoint.bin")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error DimsMismatch:")
    assert "n_users=24" in err and "n_users=12" in err


def test_eval_rejects_unknown_scorer(tmp_path, capsys):
    gen_city(tmp_path / "city")
    train(tmp_path / "city", tmp_path / "run")
    capsys.readouterr()  # train's progress lines
    assert run("eval", "--data", str(tmp_path / "city"), "--checkpoint",
               str(tmp_path / "run" / "checkpoint.bin"),
               "--scorer", "magic") == 1
    assert capsys.readouterr().err.startswith("error UsageError:")


def test_eval_rejects_garbage_checkpoint(tmp_path, capsys):
    gen_city(tmp_path / "city")
    bogus = tmp_path / "junk.bin"
    bogus.write_bytes(b"not a checkpoint at all")
    assert run("eval", "--data", str(tmp_path / "city"),
               "--checkpoint", str(bogus)) == 1
    assert capsys.readouterr().err.startswith("error ValueError:")


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("n_users=30\nn_pois=60\nn_regions=4\nn_business_areas=8\n"
                   "n_brands=12\nn_cate1=2\nn_cate2=4\nn_cate3=8\n"
                   "interactions_per_user=6\nseed=2\n")
    assert run("gen", "--out", str(tmp_path / "a"), "--config", str(cfg)) == 0
    echo = (tmp_path / "a" / "gen.config").read_text()
    assert "n_users=30" in echo       # file beats default (500)
    assert run("gen", "--out", str(tmp_path / "b"), "--config", str(cfg),
               "--n-users", "20") == 0
    echo = (tmp_path / "b" / "gen.config").read_text()
    assert "n_users=20" in echo       # flag beats file


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_userz=30\n")
    assert run("gen", "--out", str(tmp_path / "x"), "--config", str(cfg)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error UsageError:")
    assert "n_userz" in err


def test_gradcheck_passes(capsys):
    assert run("gradcheck") == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[-1].startswith("PASS")
    tensors = {ln.split()[0] for ln in lines[:-1]}
    assert tensors == {"E_g", "E_f", "R_g", "R_f", "S_g", "S_f"}
    assert all("at (" in ln for ln in lines[:-1])  # worst coordinate reported


def test_gradcheck_stdout_repeats_exactly_and_runtime_goes_to_stderr(capsys):
    outs = []
    for _ in range(2):
        assert run("gradcheck") == 0
        captured = capsys.readouterr()
        outs.append(captured.out)
        assert re.fullmatch(r"gradcheck runtime=\d+\.\d\ds\n", captured.err)
    assert outs[0] == outs[1]
    assert "runtime" not in outs[0]


def test_gradcheck_unknown_tensor_is_a_usage_failure(capsys):
    assert run("gradcheck", "--corrupt", "bogus") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error ValueError: cannot corrupt 'bogus': the "
                            "tensors are E_g, E_f, R_g, R_f, S_g, S_f\n")


def test_gradcheck_corruption_fails_with_tensor_named(capsys):
    # a FAIL verdict is a report outcome, not a command error
    assert run("gradcheck", "--corrupt", "R_f") == 0
    out = capsys.readouterr().out
    last = out.strip().splitlines()[-1]
    assert last.startswith("FAIL")
    assert "worst_tensor=R_f" in last


def test_ablate_writes_three_rows(tmp_path, capsys):
    gen_city(tmp_path / "city")
    assert run("ablate", "--data", str(tmp_path / "city"),
               "--out", str(tmp_path / "abl"), *TRAIN_FLAGS) == 0
    capsys.readouterr()
    rows = (tmp_path / "abl" / "ablation.txt").read_text().splitlines()
    assert len(rows) == 3
    variants = [r.split()[0] for r in rows]
    assert variants == ["variant=full", "variant=no_counterfactual",
                        "variant=no_disentangle"]
    for row in rows:
        for col in ("recall@20=", "recall@40=", "recall@60=", "ndcg@20=",
                    "ndcg@40=", "ndcg@60=", "auc=", "functional_ndcg@20="):
            assert col in row
        # every metric is written as a plain float, not a numpy repr
        for field in row.split()[2:]:
            float(field.split("=", 1)[1])
    # the no-counterfactual variant reranks the same trained model by plain
    # total effect, so it shares the full variant's checkpoint
    assert "scorer=te" in rows[1]
    # the blended variant propagates the whole KG on both chunks
    log = (tmp_path / "abl" / "train_log_no_disentangle.jsonl").read_text()
    graph = json.loads(log.splitlines()[0])
    assert graph["blended"] is True
    assert graph["geo_side_triplets"] == graph["total_triplets"]
    assert graph["func_side_triplets"] == graph["total_triplets"]
    assert (tmp_path / "abl" / "full_checkpoint.bin").exists()
    assert (tmp_path / "abl" / "no_disentangle_checkpoint.bin").exists()


@pytest.mark.parametrize("fraction", ["1.5", "0", "-1"])
def test_ablate_rejects_a_bad_functional_fraction_before_training(
        tmp_path, capsys, fraction):
    gen_city(tmp_path / "city")
    capsys.readouterr()
    assert run("ablate", "--data", str(tmp_path / "city"),
               "--out", str(tmp_path / "abl"), *TRAIN_FLAGS,
               "--functional-fraction", fraction) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error ValueError: functional fraction must be in "
                          f"(0, 1], got {float(fraction)!r}")
    assert not (tmp_path / "abl" / "full_checkpoint.bin").exists()


def test_ablate_rejects_a_ground_truth_of_another_size(tmp_path, capsys):
    gen_city(tmp_path / "city")
    gen_city(tmp_path / "big", "--n-users", "30", "--n-pois", "80")
    (tmp_path / "city" / "ground_truth.txt").write_text(
        (tmp_path / "big" / "ground_truth.txt").read_text())
    capsys.readouterr()
    assert run("ablate", "--data", str(tmp_path / "city"),
               "--out", str(tmp_path / "abl"), *TRAIN_FLAGS) == 1
    err = capsys.readouterr().err
    assert err == ("error ValueError: ground_truth.txt is for 30 users x 80 "
                   "POIs but the data has 24 users x 60 POIs\n")
    assert not (tmp_path / "abl" / "full_checkpoint.bin").exists()


def test_module_invocation_subprocess():
    proc = subprocess.run([sys.executable, "-m", "urbanrec.cli", "gradcheck"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_usage_error_is_single_line(capsys):
    assert run("bogus") == 1
    err = capsys.readouterr().err
    assert err.startswith("error UsageError:")
    assert "\n" not in err.strip()


def test_eval_binds_to_trained_split(tmp_path, capsys):
    # a checkpoint trained on the seed-1 split and scored on the default
    # seed-0 split would count training pairs as test pairs
    gen_city(tmp_path / "city")
    train(tmp_path / "city", tmp_path / "run", "--seed", "1")
    ckpt = str(tmp_path / "run" / "checkpoint.bin")
    capsys.readouterr()
    assert run("eval", "--data", str(tmp_path / "city"),
               "--checkpoint", ckpt) == 0
    capsys.readouterr()
    echo = (tmp_path / "run" / "metrics_tie_test.json.config").read_text()
    assert "split_seed=1\n" in echo
    for flag, value in (("--split-seed", "0"), ("--test-ratio", "0.2")):
        assert run("eval", "--data", str(tmp_path / "city"), "--checkpoint",
                   ckpt, flag, value, "--out", str(tmp_path / "m.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error SplitMismatch:")
        assert "\n" not in err.strip()
    assert not (tmp_path / "m.json").exists()
    cfg = tmp_path / "eval.cfg"
    cfg.write_text("split_seed=0\n")
    assert run("eval", "--data", str(tmp_path / "city"), "--checkpoint",
               ckpt, "--config", str(cfg)) == 1
    assert capsys.readouterr().err.startswith("error SplitMismatch:")
    # the trained split given explicitly is accepted
    assert run("eval", "--data", str(tmp_path / "city"), "--checkpoint",
               ckpt, "--split-seed", "1", "--train-ratio", "0.8") == 0


def test_eval_binds_to_ablate_split(tmp_path, capsys):
    gen_city(tmp_path / "city")
    assert run("ablate", "--data", str(tmp_path / "city"),
               "--out", str(tmp_path / "abl"), *TRAIN_FLAGS, "--seed", "2") == 0
    capsys.readouterr()
    assert run("eval", "--data", str(tmp_path / "city"), "--checkpoint",
               str(tmp_path / "abl" / "full_checkpoint.bin"),
               "--split-seed", "0") == 1
    assert capsys.readouterr().err.startswith("error SplitMismatch:")


def test_train_and_ablate_report_progress_on_stderr(tmp_path, capsys):
    gen_city(tmp_path / "city")
    capsys.readouterr()
    train(tmp_path / "city", tmp_path / "run")
    captured = capsys.readouterr()
    assert captured.out.startswith("train out=")
    assert len(captured.out.splitlines()) == 1
    lines = captured.err.splitlines()
    assert [ln.split()[:2] for ln in lines] == [["train", "epoch=1"],
                                                ["train", "epoch=2"]]
    log = [json.loads(ln) for ln in
           (tmp_path / "run" / "train_log.jsonl").read_text().splitlines()[1:]]
    for line, rec in zip(lines, log):
        assert f"total={rec['total']:.4f}" in line
        assert f"val_recall20={rec['val_recall20']:.4f}" in line
    assert run("ablate", "--data", str(tmp_path / "city"),
               "--out", str(tmp_path / "abl"), *TRAIN_FLAGS) == 0
    captured = capsys.readouterr()
    assert [ln.split()[0] for ln in captured.err.splitlines()] \
        == ["full", "full", "no_disentangle", "no_disentangle"]
    assert len(captured.out.splitlines()) == 3


TRAIN_ECHO = ("batch_size=64\nbeta1=0.9\nbeta2=0.999\nblended=false\n"
              "cf_weight=1.0\nd=6\neps=1e-08\n{extra}lam_ind=0.1\n"
              "lam_reg=0.001\nlr=0.001\nmax_epochs=2\nn_intents=4\nn_layers=2\n"
              "patience=10\nseed=0\ntest_ratio=0.1\ntrain_ratio=0.8\n"
              "val_ratio=0.1\n")
HELP_DEFAULTS = {
    "gen": {"n-users": "500", "n-pois": "2000", "n-regions": "25",
            "n-business-areas": "50", "n-brands": "200", "n-cate1": "8",
            "n-cate2": "20", "n-cate3": "40", "latent-dim": "8",
            "geo-strength": "1.0", "interactions-per-user": "20", "seed": "0"},
    "train": {"d": "32", "n-intents": "4", "n-layers": "3", "lr": "0.001",
              "lam-ind": "0.1", "lam-reg": "0.001", "cf-weight": "1.0",
              "batch-size": "1024", "beta1": "0.9", "beta2": "0.999",
              "eps": "1e-08", "patience": "10", "max-epochs": "30",
              "train-ratio": "0.8", "val-ratio": "0.1", "test-ratio": "0.1",
              "seed": "0", "blended": "False"},
    "eval": {"scorer": "tie", "target": "test", "seed": "0", "split-seed": "0",
             "train-ratio": "0.8", "val-ratio": "0.1", "test-ratio": "0.1"},
    # --corrupt is unset by default (test_gradcheck_passes runs it unset)
    "gradcheck": {"seed": "7", "step": "0.0001", "threshold": "0.0001"},
}
HELP_DEFAULTS["ablate"] = {**HELP_DEFAULTS["train"], "eval-seed": "0",
                           "functional-fraction": "0.05"}
HELP_OTHER_FLAGS = {"gen": {"out"}, "train": {"data", "out"},
                    "eval": {"data", "checkpoint", "out"},
                    "ablate": {"data", "out"}, "gradcheck": {"corrupt"}}


def test_cli_surface_is_pinned(tmp_path, capsys, monkeypatch):
    # every option's name, type and default, as the echo files and --help
    # show them: moving where a default is stated must change none of them
    gen_city(tmp_path / "city")
    assert (tmp_path / "city" / "gen.config").read_text() == (
        "geo_strength=1.0\ninteractions_per_user=6\nlatent_dim=8\n"
        "n_brands=12\nn_business_areas=8\nn_cate1=2\nn_cate2=4\nn_cate3=8\n"
        "n_pois=60\nn_regions=4\nn_users=24\nseed=2\n")
    train(tmp_path / "city", tmp_path / "run")
    assert (tmp_path / "run" / "train.config").read_text() \
        == TRAIN_ECHO.format(extra="")
    assert run("eval", "--data", str(tmp_path / "city"), "--checkpoint",
               str(tmp_path / "run" / "checkpoint.bin")) == 0
    assert (tmp_path / "run" / "metrics_tie_test.json.config").read_text() == (
        "scorer=tie\nseed=0\nsplit_seed=0\ntarget=test\ntest_ratio=0.1\n"
        "train_ratio=0.8\nval_ratio=0.1\n")
    assert run("ablate", "--data", str(tmp_path / "city"),
               "--out", str(tmp_path / "abl"), *TRAIN_FLAGS) == 0
    assert (tmp_path / "abl" / "ablate.config").read_text() == TRAIN_ECHO.format(
        extra="eval_seed=0\nfunctional_fraction=0.05\n")

    monkeypatch.setenv("COLUMNS", "200")
    for command, defaults in HELP_DEFAULTS.items():
        capsys.readouterr()
        with pytest.raises(SystemExit):
            run(command, "--help")
        text = capsys.readouterr().out
        shown = dict(re.findall(r"--([a-z0-9-]+) V\s+default (\S+)", text))
        shown.pop("corrupt", None)
        assert shown == defaults
        assert set(re.findall(r"--([a-z0-9-]+)", text)) \
            == set(defaults) | HELP_OTHER_FLAGS[command] | {"help", "config"}


def test_options_come_from_consumer_signatures():
    def consumer(data, scale: float = 0.5, name: str | None = None,
                 flag: bool = True):
        pass

    assert cli._options_of(consumer) == [
        ("scale", float, 0.5), ("name", str, None), ("flag", bool, True)]

    def untyped(data, ids: list | None = None):
        pass

    # a parameter with no command-line reading fails when the table is built
    with pytest.raises(TypeError, match="untyped.ids"):
        cli._options_of(untyped)
