"""Benchmark of the mmadapt lab: one workload per run, checked, one JSON line out.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The seed fixes every input: the synthetic
dataset, the backbone a train or eval run loads, the eval checkpoint and the
pretraining lines. Those inputs are built here, outside every timing; the
workload itself runs in a child process (`worker.py`) that times the
program's loaders (`setup_s`) and then repeats the workload's call for S
seconds. The outputs are then checked against the program's own artifacts
and the independent reference in `reference.py`.

The last line of standard output is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}: the
end-to-end metrics with --trace 0, the per-layer metrics (from alternate
traced calls) with --trace 1. Progress and failures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

# one BLAS thread in this process and the worker: the workloads are
# single-threaded by design, and a fixed thread count keeps runs comparable
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER_TIMEOUT_S = 150

WORKLOADS = ("train-acceptance", "eval-greedy", "pretrain-long")


def build_inputs(workload: str, seed: int, work: Path) -> dict:
    """Write the seed's dataset, and for train and eval a briefly pretrained
    backbone; eval also gets an adapter checkpoint trained briefly."""
    import numpy as np
    from mmadapt import backbone, corpus, trainer

    import checks
    import worker

    sub = [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=4)]
    shape = {"train-acceptance": worker.TRAIN, "eval-greedy": worker.EVAL,
             "pretrain-long": worker.PRETRAIN}[workload]
    spec = corpus.SyntheticSpec(class_count=3, noise=0.1, train=shape["train"],
                                valid=shape["valid"], test=shape["test"], audio_width=8,
                                vision_width=8, min_len=4, max_len=10, seed=sub[0])
    ds = corpus.generate_synthetic(spec, work / "data")
    inputs = {"dataset": str(work / "data"), "prompt": ds.preset.prompt,
              "class_count": ds.preset.class_count}
    if workload == "pretrain-long":
        inputs.update(lines_seed=sub[1], pretrain_seed=sub[2], steps=worker.PRETRAIN["steps"])
        return inputs
    token_count = worker.ADAPTER["token_count"]
    lines = trainer.build_pretrain_corpus(ds, ds.preset, token_count)
    bb, _ = backbone.pretrain_backbone(lines, 150, sub[1], backbone.BackboneConfig(), lr=3e-3)
    inputs["backbone"] = str(work / "backbone.mseb")
    bb.save(inputs["backbone"])
    inputs["backbone_digest"] = checks.file_digest(inputs["backbone"])
    if workload == "train-acceptance":
        inputs["seeds"] = sub[2:2 + worker.TRAIN["seeds"]]
        inputs["steps_per_seed"] = worker.TRAIN["epochs"] * -(-shape["chunk"] // worker.TRAIN["batch"])
        return inputs
    acfg = worker.adapter_config(ds.preset, bb.config.embed_width)
    run = trainer.train_run(bb, ds, acfg, trainer.TrainConfig(epochs=1, seeds=(sub[2],)),
                            sub[2], out_dir=work / "checkpoint")
    inputs["checkpoint"] = str(run.checkpoint_path)
    return inputs


def end_to_end(result: dict) -> dict:
    """Every time scaled to the nominal machine speed by the probes timed
    around it (`speed.py`). `samples_per_s` is one pass over the input's
    chunks, each timed at the median of its calls; `setup_s` the median
    set-up."""
    import speed

    by_chunk: dict[int, list[float]] = {}
    for c in result["calls"]:
        if c["failed"] < c["attempted"]:
            by_chunk.setdefault(c["chunk"], []).append(speed.scaled(c["seconds"], c["probe_s"]))
    if not by_chunk:
        raise RuntimeError("every timed call failed")
    units = result["calls"][0]["attempted"] * len(by_chunk)
    seconds = sum(statistics.median(times) for times in by_chunk.values())
    setups = [speed.scaled(s, p) for s, p in zip(result["setup_times"][1:], result["setup_probes"])]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "samples_per_s": {"value": units / seconds, "unit": "samples/s"},
        "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mmadapt" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import checks

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        inputs = build_inputs(args.workload, args.seed, work)
        spec = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                "work": str(work), "inputs": inputs,
                "result": str(work / "result.json"),
                "spans": str(WORK / f"spans-{args.workload}.jsonl")}
        (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(work / "spec.json")],
                              env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"perfbench: worker exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        failures = checks.verify(args.workload, inputs, result, args.seed)
        for line in failures:
            print(f"perfbench: check failed: {line}", file=sys.stderr)
        if args.trace:
            import tracing
            traced_s = sum(setup_s + c["seconds"] for setup_s, c in
                           zip(result["setup_times"][1:], result["calls"]) if c["traced"])
            print("self time per layer, as a share of the traced iterations "
                  "(set-up and call):", file=sys.stderr)
            for name, own in result["self_seconds"].items():
                print(f"  {name:30s} {own:9.4f} s {100 * own / traced_s:6.2f} %", file=sys.stderr)
            metrics = {k: {"value": v, "unit": tracing.PER_LAYER[k][0]}
                       for k, v in result["per_layer"].items()}
        else:
            metrics = end_to_end(result)
        print(json.dumps({
            "correct": not failures,
            "attempted": sum(c["attempted"] for c in result["calls"]),
            "failed": sum(c["failed"] for c in result["calls"]),
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
