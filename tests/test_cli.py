"""Command-line interface: subcommands, config merging, exit codes,
process-level reproducibility."""

import hashlib
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mmadapt.adapter import VariantState, load_adapter, save_adapter
from mmadapt.cli import _REQUIRED, _SCHEMAS, main
from mmadapt.corpus import load_dataset
from mmadapt.errors import FrozenViolation, InputError, NumericError
from mmadapt.parallel import usable_cpus
from mmadapt.trainer import build_pretrain_corpus


def run_cli(*args, env=None, cwd=None, preexec_fn=None):
    return subprocess.run([sys.executable, "-m", "mmadapt", *args],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          preexec_fn=preexec_fn, timeout=600)


def digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


SYNTH_FLAGS = ("--train", "24", "--valid", "9", "--test", "12", "--seed", "97")
BACKBONE_FLAGS = ("--steps", "120", "--embed-width", "32", "--layers", "1",
                  "--heads", "2", "--ffn-mult", "2", "--max-seq", "96",
                  "--token-count", "2", "--seed", "7")
TRAIN_FLAGS = ("--epochs", "1", "--batch-size", "8", "--seed", "5",
               "--mix-width", "32", "--audio-hidden", "8", "--vision-hidden",
               "8", "--token-count", "2", "--learning-rate", "0.005")


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """One synth dataset + pretrained backbone + training run, via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    r = run_cli("synth", "--out", str(data), *SYNTH_FLAGS)
    assert r.returncode == 0, r.stderr
    bb = root / "bb"
    r = run_cli("pretrain-backbone", "--dataset", str(data), "--out", str(bb),
                *BACKBONE_FLAGS)
    assert r.returncode == 0, r.stderr
    train = root / "train"
    r = run_cli("train", "--dataset", str(data), "--backbone",
                str(bb / "backbone.mseb"), "--out", str(train), *TRAIN_FLAGS)
    assert r.returncode == 0, r.stderr
    return {"root": root, "data": data, "backbone": bb / "backbone.mseb",
            "train": train}


# ---------------------------------------------------------------------------
# synth


def test_synth_outputs(cli_workspace):
    data = cli_workspace["data"]
    assert (data / "manifest.jsonl").exists()
    assert (data / "meta.json").exists()
    assert (data / "synth-config.json").exists()
    cfg = json.loads((data / "synth-config.json").read_text())
    assert cfg["command"] == "synth"
    assert cfg["train"] == 24
    assert cfg["noise"] == 0.1  # documented default survived the merge


def test_synth_reproducible_across_processes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli("synth", "--out", str(a), *SYNTH_FLAGS).returncode == 0
    assert run_cli("synth", "--out", str(b), *SYNTH_FLAGS).returncode == 0
    assert (a / "manifest.jsonl").read_bytes() == (b / "manifest.jsonl").read_bytes()
    assert (a / "meta.json").read_bytes() == (b / "meta.json").read_bytes()


def test_synth_env_output_root(tmp_path):
    import os
    env = dict(os.environ)
    env["MMADAPT_OUTPUT_ROOT"] = str(tmp_path / "rooted")
    r = run_cli("synth", *SYNTH_FLAGS, env=env)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "rooted" / "synth" / "manifest.jsonl").exists()


# ---------------------------------------------------------------------------
# config file merging


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"noise": 0.5, "train": 24, "valid": 9,
                                    "test": 12, "seed": 97}))
    out = tmp_path / "ds"
    r = run_cli("synth", "--config", str(cfg_path), "--out", str(out),
                "--noise", "0.0")
    assert r.returncode == 0, r.stderr
    meta = json.loads((out / "meta.json").read_text())
    assert meta["noise"] == 0.0  # flag beats file
    snapshot = json.loads((out / "synth-config.json").read_text())
    assert snapshot["noise"] == 0.0
    assert snapshot["train"] == 24  # file beats default


def test_config_file_unknown_key_rejected(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"bogus_knob": 1}))
    r = run_cli("synth", "--config", str(cfg_path), "--out", str(tmp_path / "x"))
    assert r.returncode == 1
    assert "bogus_knob" in r.stderr


def test_config_file_missing(tmp_path):
    r = run_cli("synth", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "x"))
    assert r.returncode == 1


def test_unknown_flag_is_validation_error():
    r = run_cli("synth", "--not-a-flag", "1")
    assert r.returncode == 1


REQUIRED_KNOBS = {command: [key for key, (_, default, _) in schema.items() if default is _REQUIRED]
                  for command, schema in _SCHEMAS.items()}


@pytest.mark.parametrize("command, knob", [
    (command, knob) for command, knobs in REQUIRED_KNOBS.items() for knob in knobs or [None]],
    ids=str)
def test_required_knobs(tmp_path, capsys, command, knob):
    """`--help` marks exactly the knob table's required knobs "(required)",
    and a run without one of them exits 1 with a one-line `needs --knob`
    message before it creates its output directory."""
    assert main([command, "--help"]) == 0
    options = re.split(r"\n  (?=--)", capsys.readouterr().out)[1:]
    marked = [o.split()[0][2:].replace("-", "_") for o in options if "(required)" in o]
    assert marked == REQUIRED_KNOBS[command]
    if knob is None:
        return
    flags = [a for other in REQUIRED_KNOBS[command] if other != knob
             for a in ("--" + other.replace("_", "-"), str(tmp_path / other))]
    assert main([command, *flags, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"invalid input: ConfigError: {command} needs "
                                       f"--{knob.replace('_', '-')} "
                                       f"(or {knob!r} in the config file)\n")
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# pretrain-backbone


def test_pretrain_outputs(cli_workspace):
    bb = cli_workspace["backbone"]
    assert bb.exists()
    log = bb.parent / "pretrain-log.jsonl"
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 120
    assert records[0]["loss"] > records[-1]["loss"]
    assert (bb.parent / "pretrain-backbone-config.json").exists()


def test_pretrain_reproducible_across_processes(tmp_path, cli_workspace):
    data = cli_workspace["data"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        r = run_cli("pretrain-backbone", "--dataset", str(data), "--out",
                    str(out), *BACKBONE_FLAGS)
        assert r.returncode == 0, r.stderr
    assert (a / "backbone.mseb").read_bytes() == (b / "backbone.mseb").read_bytes()


def test_pretrain_zero_token_count_builds_no_prefix(tmp_path, capsys,
                                                     cli_workspace):
    dataset = load_dataset(cli_workspace["data"])
    lines = build_pretrain_corpus(dataset, dataset.preset, 0)
    assert len(lines) < len(build_pretrain_corpus(
        dataset, dataset.preset, dataset.preset.adapter_defaults.token_count))
    code = main(["pretrain-backbone", "--dataset", str(cli_workspace["data"]),
                 "--out", str(tmp_path), "--steps", "0", "--token-count", "0"])
    assert code == 0
    assert f"corpus lines {len(lines)}," in capsys.readouterr().out


# ---------------------------------------------------------------------------
# train and eval


def test_train_outputs(cli_workspace):
    train = cli_workspace["train"]
    assert (train / "adapter-full-seed5.msea").exists()
    assert (train / "train-full-seed5.jsonl").exists()
    report = json.loads((train / "report-full.json").read_text())
    assert report["variant"] == "full"
    assert len(report["per_seed"]) == 1
    assert report["per_seed"][0]["seed"] == 5
    assert report["mean"]["acc"] == report["per_seed"][0]["metrics"]["acc"]


def test_train_reproducible_across_processes(tmp_path, cli_workspace):
    data, bb = cli_workspace["data"], cli_workspace["backbone"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        r = run_cli("train", "--dataset", str(data), "--backbone", str(bb),
                    "--out", str(out), *TRAIN_FLAGS)
        assert r.returncode == 0, r.stderr
    assert ((a / "adapter-full-seed5.msea").read_bytes()
            == (b / "adapter-full-seed5.msea").read_bytes())
    assert ((a / "report-full.json").read_bytes()
            == (b / "report-full.json").read_bytes())


def test_eval_reproduces_logged_best_validation_metric(tmp_path, cli_workspace):
    """The logged best-validation number must be exactly recomputable."""
    train = cli_workspace["train"]
    report = json.loads((train / "report-full.json").read_text())
    logged = report["per_seed"][0]["best_valid"]
    out = tmp_path / "eval"
    r = run_cli("eval", "--checkpoint", str(train / "adapter-full-seed5.msea"),
                "--backbone", str(cli_workspace["backbone"]),
                "--dataset", str(cli_workspace["data"]),
                "--split", "valid", "--out", str(out))
    assert r.returncode == 0, r.stderr
    evaluated = json.loads((out / "eval-report.json").read_text())
    assert evaluated["values"]["acc"] == logged
    assert evaluated["split"] == "valid"


def test_eval_prints_report(cli_workspace):
    train = cli_workspace["train"]
    r = run_cli("eval", "--checkpoint", str(train / "adapter-full-seed5.msea"),
                "--backbone", str(cli_workspace["backbone"]),
                "--dataset", str(cli_workspace["data"]), "--split", "test")
    assert r.returncode == 0, r.stderr
    assert "Acc" in r.stdout
    assert "samples 12" in r.stdout


def test_eval_rejects_mismatched_backbone(tmp_path, cli_workspace):
    other = tmp_path / "other"
    r = run_cli("pretrain-backbone", "--dataset", str(cli_workspace["data"]),
                "--out", str(other), "--steps", "0", "--embed-width", "32",
                "--layers", "1", "--heads", "2", "--ffn-mult", "2",
                "--max-seq", "96", "--token-count", "2", "--seed", "99")
    assert r.returncode == 0, r.stderr
    train = cli_workspace["train"]
    r = run_cli("eval", "--checkpoint", str(train / "adapter-full-seed5.msea"),
                "--backbone", str(other / "backbone.mseb"),
                "--dataset", str(cli_workspace["data"]))
    assert r.returncode == 1
    assert "different backbone" in r.stderr


def test_eval_missing_checkpoint(cli_workspace):
    r = run_cli("eval", "--checkpoint", "/nonexistent.msea",
                "--backbone", str(cli_workspace["backbone"]),
                "--dataset", str(cli_workspace["data"]))
    assert r.returncode == 1, r.stderr
    assert "/nonexistent.msea" in r.stderr and "Traceback" not in r.stderr


def missing_feature_file(tmp_path, ws):
    """A copy of the dataset whose first record's audio file is deleted."""
    data = tmp_path / "data"
    shutil.copytree(ws["data"], data)
    first = json.loads((data / "manifest.jsonl").read_text(encoding="utf-8").splitlines()[0])
    (data / first["audio"]).unlink()
    return ["pretrain-backbone", "--dataset", str(data), "--out", str(tmp_path / "bb")]


def first_record(command, **changes):
    """`command` (train or eval) on a copy of the dataset whose first
    manifest record has the fields in `changes`."""
    def args(tmp_path, ws):
        data = tmp_path / "data"
        shutil.copytree(ws["data"], data)
        lines = (data / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), **changes})
        (data / "manifest.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        if command == "eval":
            return ["eval", "--dataset", str(data), "--backbone", str(ws["backbone"]),
                    "--checkpoint", str(ws["train"] / "adapter-full-seed5.msea")]
        return ["train", "--dataset", str(data), "--backbone", str(ws["backbone"]),
                "--out", str(tmp_path / "out")]
    return args


def config_file(command, values, *paths):
    """Arguments that run `command` with `values` in a config file and the
    workspace's dataset and backbone for the flags named in `paths`."""
    def args(tmp_path, ws):
        (tmp_path / "cfg.json").write_text(json.dumps(values))
        flags = [a for flag in paths
                 for a in (f"--{flag}", str(ws["data" if flag == "dataset" else flag]))]
        return [command, "--config", str(tmp_path / "cfg.json"),
                "--out", str(tmp_path / "out"), *flags]
    return args


def train_config(values):
    return config_file("train", values, "dataset", "backbone")


def pretrain_flags(*flags):
    return lambda tmp_path, ws: ["pretrain-backbone", "--dataset", str(ws["data"]),
                                 "--out", str(tmp_path / "out"), *flags]


def train_flags(command, *flags):
    """`command` (train or ablate) on the workspace's dataset and backbone."""
    return lambda tmp_path, ws: [command, "--dataset", str(ws["data"]), "--backbone",
                                 str(ws["backbone"]), "--out", str(tmp_path / "out"), *flags]


def out_flags(command, *flags):
    return lambda tmp_path, ws: [command, "--out", str(tmp_path / "out"), *flags]


BAD_INPUTS = {
    "missing-backbone": lambda tmp_path, ws: [
        "train", "--dataset", str(ws["data"]), "--backbone", str(tmp_path / "nope.mseb"),
        "--out", str(tmp_path / "out")],
    "missing-checkpoint": lambda tmp_path, ws: [
        "eval", "--checkpoint", str(tmp_path / "nope.msea"), "--backbone",
        str(ws["backbone"]), "--dataset", str(ws["data"])],
    "missing-feature-file": missing_feature_file,
    "class-label-nan": first_record("train", label=float("nan")),
    "class-label-infinity": first_record("eval", label=float("inf")),
    "class-label-minus-infinity": first_record("train", label=float("-inf")),
    "label-a-numeric-string": first_record("eval", label="1"),
    "id-a-list": first_record("train", id=["a"]),
    "id-an-object": first_record("eval", id={"a": 1}),
    "id-a-number": first_record("train", id=7),
    "seeds-not-integers": train_config({"seeds": ["a"]}),
    "seeds-not-a-list": train_config({"seeds": 5}),
    "int-as-string": config_file("synth", {"classes": "3"}),
    "int-as-real": config_file("pretrain-backbone", {"steps": 1.5}, "dataset"),
    "int-as-boolean": train_config({"epochs": True}),
    "float-as-string": train_config({"clip_norm": "1.0"}),
    "null-with-a-default": train_config({"variant": None}),
    "pretrain-negative-steps": pretrain_flags("--steps", "-5"),
    "pretrain-zero-lr": pretrain_flags("--lr", "0"),
    "pretrain-negative-lr": pretrain_flags("--lr", "-1"),
    "pretrain-negative-weight-decay": pretrain_flags("--weight-decay", "-0.1"),
    "train-negative-weight-decay": train_config({"weight_decay": -0.1}),
    "train-nan-clip-norm": train_flags("train", "--clip-norm", "nan"),
    "train-nan-learning-rate": train_flags("train", "--learning-rate", "nan"),
    "train-infinite-learning-rate-in-config": train_config({"learning_rate": float("inf")}),
    "pretrain-infinite-lr": pretrain_flags("--lr", "inf"),
    "synth-nan-noise": out_flags("synth", "--noise", "nan"),
    "synth-negative-seed": out_flags("synth", "--seed", "-1"),
    "synth-zero-min-len": out_flags("synth", "--min-len", "0"),
    "synth-one-class": out_flags("synth", "--classes", "1"),
    "pretrain-negative-seed": pretrain_flags("--seed", "-1"),
    "train-negative-seed": train_flags("train", "--seed", "-1"),
    "train-negative-seed-in-list": train_flags("train", "--seeds=-1,2"),
    "ablate-negative-seed": train_flags("ablate", "--seed", "-1"),
    "gradcheck-negative-seed": out_flags("gradcheck", "--seed", "-1"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_one_without_traceback(tmp_path, cli_workspace, case):
    """A missing artifact file, a config-file value whose JSON type does not
    fit its knob, or a synth, pretraining or training knob out of range (a
    negative seed included), exits 1 with a one-line message and writes no
    output directory."""
    r = run_cli(*BAD_INPUTS[case](tmp_path, cli_workspace))
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    assert len(r.stderr.strip().splitlines()) == 1, r.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("meta", ["{not json", '{"task": "emotion"}',
                                  '{"name": "nonesuch"}'])
def test_eval_malformed_meta_exits_one_without_traceback(tmp_path, meta):
    (tmp_path / "meta.json").write_text(meta)
    r = run_cli("eval", "--dataset", str(tmp_path), "--checkpoint",
                str(tmp_path / "a.msea"), "--backbone", str(tmp_path / "b.mseb"))
    assert r.returncode == 1, r.stderr
    assert "meta.json" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("where", ["dotdot", "absolute"])
def test_eval_rejects_feature_path_outside_dataset(tmp_path, cli_workspace, where):
    """A manifest feature path that is absolute or climbs out with '..' exits
    1 with a message, even when the file it names is a valid feature file."""
    data = tmp_path / "data"
    shutil.copytree(cli_workspace["data"], data)
    outside = tmp_path / "outside.a.msef"
    lines = (data / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[0])
    shutil.copy(data / rec["audio"], outside)
    rec["audio"] = "../outside.a.msef" if where == "dotdot" else str(outside)
    lines[0] = json.dumps(rec)
    (data / "manifest.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    r = run_cli("eval", "--dataset", str(data), "--backbone",
                str(cli_workspace["backbone"]), "--checkpoint",
                str(cli_workspace["train"] / "adapter-full-seed5.msea"))
    assert r.returncode == 1, r.stderr
    assert "feature path" in r.stderr and "outside.a.msef" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("text", ["", 5])
def test_eval_rejects_a_record_without_text(tmp_path, cli_workspace, text):
    """A manifest text that is empty or not a string exits 1 with the line."""
    data = tmp_path / "data"
    shutil.copytree(cli_workspace["data"], data)
    lines = (data / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    rec = json.loads(lines[2])
    rec["text"] = text
    lines[2] = json.dumps(rec)
    (data / "manifest.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    r = run_cli("eval", "--dataset", str(data), "--backbone",
                str(cli_workspace["backbone"]), "--checkpoint",
                str(cli_workspace["train"] / "adapter-full-seed5.msea"))
    assert r.returncode == 1, r.stderr
    assert "manifest.jsonl:3" in r.stderr and "non-empty string" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("subst_vision", [None, "wrong"])
def test_eval_rejects_substitutes_that_do_not_fit(tmp_path, cli_workspace, subst_vision):
    """A no_audio_vision checkpoint without its substitute states, or with
    one of the wrong shape, ends in exit 1 with a message."""
    params, _, checksum = load_adapter(cli_workspace["train"] / "adapter-full-seed5.msea")
    hidden = params.config.vision_hidden
    state = VariantState("no_audio_vision",
                         None if subst_vision is None else np.zeros((hidden + 1, 1)),
                         np.zeros((params.config.audio_hidden, 1)))
    ckpt = tmp_path / "bad.msea"
    save_adapter(ckpt, params, state, backbone_checksum=checksum)
    r = run_cli("eval", "--checkpoint", str(ckpt),
                "--backbone", str(cli_workspace["backbone"]),
                "--dataset", str(cli_workspace["data"]))
    assert r.returncode == 1, r.stderr
    assert "Traceback" not in r.stderr
    assert "subst.vision" in r.stderr


@pytest.mark.parametrize("flag", ["--token-count", "--audio-hidden",
                                  "--vision-hidden", "--learning-rate"])
def test_train_zero_knob_is_not_replaced_by_preset(tmp_path, capsys,
                                                   cli_workspace, flag):
    flags = list(TRAIN_FLAGS)
    flags[flags.index(flag) + 1] = "0"
    code = main(["train", "--dataset", str(cli_workspace["data"]), "--backbone",
                 str(cli_workspace["backbone"]), "--out", str(tmp_path), *flags])
    assert code == 1
    assert "invalid input" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ablate


def test_ablate_all_variants(tmp_path, cli_workspace):
    # the default run trains the cells in a worker per usable CPU; one pinned
    # to a single CPU trains them in its own process and must write the same
    # bytes to the same place, the archived config included
    pins = {"default": None}
    if usable_cpus() >= 2:
        pins["one-cpu"] = lambda: os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out = tmp_path / "ablate"
    runs = {}
    for name, pin in pins.items():
        shutil.rmtree(out, ignore_errors=True)
        r = run_cli("ablate", "--dataset", str(cli_workspace["data"]),
                    "--backbone", str(cli_workspace["backbone"]),
                    "--out", str(out), "--epochs", "1", "--batch-size", "8",
                    "--seed", "5", "--mix-width", "32", "--audio-hidden", "8",
                    "--vision-hidden", "8", "--token-count", "2",
                    "--learning-rate", "0.005", preexec_fn=pin)
        assert r.returncode == 0, r.stderr
        runs[name] = (r.stdout, digests(out))
    assert all(run == runs["default"] for run in runs.values())
    # the archived config, the ablation report and table, and per variant a
    # report, a checkpoint and a step log
    assert len(runs["default"][1]) == 3 + 3 * 7
    table = (out / "ablate-table.txt").read_text()
    for label in ("w/o A", "w/o V", "w/o T", "w/o A,V", "w/o mixer",
                  "w/o fusion", "full"):
        assert label in table
    payload = json.loads((out / "ablate-report.json").read_text())
    assert set(payload) == {"full", "no_mixer", "no_fusion", "no_text",
                            "no_audio", "no_vision", "no_audio_vision"}


# ---------------------------------------------------------------------------
# worker processes


def group_gone(pgid, timeout=20.0) -> bool:
    """Whether every process of the group has exited within `timeout` s. A
    worker's resource tracker exits once it sees its parent's end, and an
    orphan is reaped by the init process, so both can take a moment."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)


def pool_workers(pid) -> list[int]:
    """The pool worker processes among pid's children."""
    found = []
    for children in Path(f"/proc/{pid}/task").glob("*/children"):
        for child in children.read_text().split():
            cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
            if b"spawn_main" in cmdline:
                found.append(int(child))
    return found


needs_two_cpus = pytest.mark.skipif(usable_cpus() < 2,
                                    reason="the worker pool needs two usable CPUs")


def two_seed_train(cli_workspace, out, epochs="1", program=("-m", "mmadapt"), env=None):
    """`mmadapt train` on seeds 5 and 6, in a session and process group of
    its own; with two usable CPUs the seeds train in two workers."""
    flags = list(TRAIN_FLAGS)
    flags[flags.index("--seed"):flags.index("--seed") + 2] = ["--seeds", "5,6"]
    flags[flags.index("--epochs") + 1] = epochs
    return subprocess.Popen(
        [sys.executable, *program, "train", "--dataset", str(cli_workspace["data"]),
         "--backbone", str(cli_workspace["backbone"]), "--out", str(out), *flags],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        env=env)


def test_train_in_two_workers_leaves_no_process_behind(tmp_path, cli_workspace):
    """Nor a temporary file: the backbone file the workers load goes too."""
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    proc = two_seed_train(cli_workspace, tmp_path / "out", env={**os.environ, "TMPDIR": str(tmp)})
    _, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    assert len(json.loads((tmp_path / "out" / "report-full.json").read_text())["per_seed"]) == 2
    assert group_gone(proc.pid)
    assert list(tmp.iterdir()) == []


def test_a_shipped_backbone_a_worker_cannot_read_ends_train_with_exit_2(
        monkeypatch, tmp_path, capsys, cli_workspace):
    import mmadapt.parallel as parallel_mod
    import mmadapt.trainer as trainer_mod

    missing = tmp_path / "missing.mseb"
    if parallel_mod._pool is not None:  # no worker may hold this backbone yet
        parallel_mod._discard(parallel_mod._pool)
    monkeypatch.setattr(trainer_mod, "usable_workers", lambda tasks: 2)
    monkeypatch.setattr(trainer_mod, "_ship", lambda backbone: (str(missing), backbone.checksum))
    flags = list(TRAIN_FLAGS)
    flags[flags.index("--seed"):flags.index("--seed") + 2] = ["--seeds", "5,6"]
    rc = main(["train", "--dataset", str(cli_workspace["data"]),
               "--backbone", str(cli_workspace["backbone"]), "--out", str(tmp_path / "out"),
               *flags])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert "runtime failure: WorkerError: " in err
    assert str(missing) in err
    assert "Traceback" not in err


@needs_two_cpus
def test_a_killed_worker_ends_train_with_exit_2(tmp_path, cli_workspace):
    proc = two_seed_train(cli_workspace, tmp_path, epochs="400")  # long enough to catch
    try:
        deadline = time.monotonic() + 120
        while not pool_workers(proc.pid) and proc.poll() is None:
            assert time.monotonic() < deadline, "no worker process started"
            time.sleep(0.05)
        os.kill(pool_workers(proc.pid)[0], signal.SIGKILL)
        _, err = proc.communicate(timeout=600)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 2, err
    assert "runtime failure: WorkerError: a worker process died" in err
    assert "Traceback" not in err
    assert not (tmp_path / "report-full.json").exists()
    assert group_gone(proc.pid)


# `mmadapt train` with a bug planted in seed 6; seed 5 would sleep ten minutes
PLANTED_BUG = """
import sys
import time

import mmadapt.trainer as trainer


def train_run(backbone, dataset, adapter_config, config, seed, out_dir=None):
    if seed == 6:
        raise RuntimeError("planted bug in seed 6")
    time.sleep(600)


# spawn runs this module in every pool worker too, so the plant reaches them
trainer.train_run = train_run

if __name__ == "__main__":
    from mmadapt.cli import main
    sys.exit(main(sys.argv[1:]))
"""


@needs_two_cpus
def test_a_cell_that_raises_ends_train_without_waiting_for_the_others(tmp_path, cli_workspace):
    script = tmp_path / "planted.py"
    script.write_text(PLANTED_BUG)
    start = time.monotonic()
    proc = two_seed_train(cli_workspace, tmp_path / "out", program=(str(script),))
    try:
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == 2, err
    assert "RuntimeError: planted bug in seed 6" in err
    assert time.monotonic() - start < 60
    assert group_gone(proc.pid)


# ---------------------------------------------------------------------------
# gradcheck


def test_gradcheck_cli(gradcheck_run):
    r, out = gradcheck_run["proc"], gradcheck_run["out"]
    assert r.returncode == 0, r.stderr
    assert "PASS" in r.stdout
    assert (out / "gradcheck.txt").read_text().splitlines()[-1].startswith("PASS")


# ---------------------------------------------------------------------------
# exit-code mapping (in process, with injected failures)


def test_exit_codes_for_error_classes(monkeypatch):
    import mmadapt.cli as cli_mod

    def raising(exc):
        def cmd(cfg):
            raise exc
        return cmd

    monkeypatch.setitem(cli_mod._COMMANDS, "gradcheck",
                        raising(FrozenViolation("drift")))
    assert main(["gradcheck"]) == 3
    monkeypatch.setitem(cli_mod._COMMANDS, "gradcheck",
                        raising(NumericError("nan")))
    assert main(["gradcheck"]) == 2
    monkeypatch.setitem(cli_mod._COMMANDS, "gradcheck",
                        raising(InputError("bad")))
    assert main(["gradcheck"]) == 1
    monkeypatch.setitem(cli_mod._COMMANDS, "gradcheck",
                        raising(RuntimeError("surprise")))
    assert main(["gradcheck"]) == 2


def test_help_exits_zero():
    assert main(["--help"]) == 0
    r = run_cli("--help")
    assert r.returncode == 0
    for cmd in ("synth", "pretrain-backbone", "train", "eval", "ablate",
                "gradcheck"):
        assert cmd in r.stdout
