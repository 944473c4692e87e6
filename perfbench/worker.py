"""One workload in a fresh process: set-up, then the timed loop.

Run by `run.py` as `python3 perfbench/worker.py <spec.json>`; writes its
result to the spec's `result` path. Running in a process of its own makes
`peak_rss_mib` the high-water mark of this workload alone, not of the input
building and checking that `run.py` does around it.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from mmadapt import adapter, backbone, corpus, trainer
from speed import Probe
from tracing import Tracer

# shape of each workload's inputs (built by run.py) and of one timed call
TRAIN = {"train": 128, "valid": 4, "test": 4, "chunk": 32, "seeds": 2, "epochs": 1, "batch": 32}
EVAL = {"train": 64, "valid": 8, "test": 1000, "chunk": 50}
PRETRAIN = {"train": 200, "valid": 8, "test": 8, "lines": 64, "line_bytes": 200, "steps": 20}
ADAPTER = {"audio_hidden": 32, "vision_hidden": 32, "mix_width": 64, "token_count": 4}


def _time(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def timed_loop(seconds: float, setup, call, tracer):
    """Alternate one run of the program's loaders with one workload call
    until `seconds` have passed, so that set-up and workload are sampled over
    the same stretch of machine time. The speed probe runs between every two
    timed pieces, so each piece has a probe right before and right after it.
    With a tracer, every second iteration is traced and the others measure
    the overhead. Returns one record per iteration: (setup seconds, mean of
    the probes around it, call seconds, mean of the probes around it, traced,
    call result or the exception it raised)."""
    probe = Probe()
    records = []
    before = probe()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < (2 if tracer else 1):
        traced = tracer is not None and len(records) % 2 == 1
        if traced:
            tracer.install()
        try:
            setup_s, _ = _time(setup)
            middle = probe()
            t0 = time.perf_counter()
            try:
                out = call(len(records))
            except Exception as exc:  # a failed operation is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out = exc
            dt = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        after = probe()
        records.append((setup_s, (before + middle) / 2, dt, (middle + after) / 2, traced, out))
        before = after
    return records


def summary(first_setup_s: float, records, units: int, failed_units=lambda out: 0,
            chunks: int = 1) -> dict:
    """What run.py needs from the loop: set-up times and per-call outcomes,
    each time with the probe time measured around it. Call i took chunk
    i % chunks of the input. A call that raised failed all its units."""
    return {
        "setup_times": [first_setup_s] + [r[0] for r in records],
        "setup_probes": [r[1] for r in records],
        "calls": [{"seconds": dt, "probe_s": probe_s, "traced": traced, "chunk": i % chunks,
                   "attempted": units,
                   "failed": units if isinstance(out, Exception) else failed_units(out)}
                  for i, (_, _, dt, probe_s, traced, out) in enumerate(records)],
    }


def adapter_config(preset, embed_width: int) -> adapter.AdapterConfig:
    return adapter.AdapterConfig(audio_width=preset.audio_width, vision_width=preset.vision_width,
                                 embed_width=embed_width, **ADAPTER)


def run_train(spec: dict, tracer) -> dict:
    inp = spec["inputs"]
    setup = lambda: (corpus.load_dataset(inp["dataset"]),
                     backbone.FrozenBackbone.load(inp["backbone"]))
    first_setup_s, (ds, bb) = _time(setup)
    acfg = adapter_config(ds.preset, bb.config.embed_width)
    tcfg = trainer.TrainConfig(learning_rate=5e-3, epochs=TRAIN["epochs"],
                               batch_size=TRAIN["batch"], seeds=tuple(inp["seeds"]))
    # timed calls train on the split in fixed chunks, round robin: a call
    # stays short beside the speed probes around it, and a run still covers
    # the whole split, whose frame counts vary less between seeds than a chunk's
    size = TRAIN["chunk"]
    views = [corpus.Dataset(preset=ds.preset, splits={**ds.splits, "train": ds["train"][i:i + size]},
                            meta=ds.meta) for i in range(0, len(ds["train"]), size)]
    per_seed = tcfg.epochs * size
    out_dir = Path(spec["work"]) / "train"
    checksum_before = bb.checksum
    records = timed_loop(spec["seconds"], setup, lambda i: trainer.multi_seed_run(
        bb, views[i % len(views)], acfg, tcfg, out_dir=out_dir, eval_split="test"), tracer)
    return {
        **summary(first_setup_s, records, per_seed * len(tcfg.seeds),
                  lambda report: per_seed * len(report.failed_seeds), len(views)),
        "reports": [(i % len(views), out.to_json()) for i, (*_, out) in enumerate(records)
                    if not isinstance(out, Exception)],
        "out_dir": str(out_dir),
        "checksum_before": checksum_before,
        "checksum_after": bb.content_checksum(),
        "entries": ["trainer.multi_seed_run", "trainer.train_run"],
    }


def run_eval(spec: dict, tracer) -> dict:
    inp = spec["inputs"]

    def setup():
        ds = corpus.load_dataset(inp["dataset"])
        bb = backbone.FrozenBackbone.load(inp["backbone"])
        params, state, _ = adapter.load_adapter(inp["checkpoint"])
        prepared = trainer.prepare_samples(bb, ds["test"], ds.preset, params.config.token_count,
                                           state.drops_text_input)
        return ds, bb, params, state, prepared

    first_setup_s, (ds, bb, params, state, prepared) = _time(setup)

    # one untimed call over the whole split records the generated ids and
    # parsed predictions for the checks, and warms caches before timing
    tokens, preds = [], []
    detokenize, parse = backbone.detokenize, trainer.parse_generated

    def record_ids(ids):
        tokens.append([int(i) for i in ids])
        return detokenize(ids)

    def record_pred(*args, **kwargs):
        value, fallback = parse(*args, **kwargs)
        preds.append(value)
        return value, fallback

    backbone.detokenize, trainer.parse_generated = record_ids, record_pred
    try:
        whole = trainer.evaluate_split(bb, params, state, prepared, ds.preset)
    finally:
        backbone.detokenize, trainer.parse_generated = detokenize, parse

    # timed calls take the split in fixed chunks, round robin, so that a run
    # holds many short calls, each close to the speed probes around it
    size = EVAL["chunk"]
    chunks = [prepared[i:i + size] for i in range(0, len(prepared), size)]
    records = timed_loop(spec["seconds"], setup, lambda i: trainer.evaluate_split(
        bb, params, state, chunks[i % len(chunks)], ds.preset), tracer)
    return {
        **summary(first_setup_s, records, size, chunks=len(chunks)),
        "whole": whole.to_json(),
        "chunk_reports": [(i % len(chunks), out.to_json()) for i, (*_, out) in enumerate(records)
                          if not isinstance(out, Exception)],
        "chunk": size,
        "tokens": tokens,
        "preds": preds,
        "golds": [p.gold for p in prepared],
        "sids": [p.sid for p in prepared],
        "budget": trainer.eval_token_budget(ds.preset),
        "entries": ["trainer.evaluate_split"],
    }


def pretrain_lines(ds, seed: int) -> list[str]:
    """Lines of PRETRAIN['line_bytes'] bytes, each a run of the dataset's own
    'text + prompt + label' strings drawn in a seeded order."""
    import numpy as np

    rng = np.random.default_rng(seed)
    samples = ds["train"]
    lines = []
    for _ in range(PRETRAIN["lines"]):
        line = ""
        while len(line) < PRETRAIN["line_bytes"]:
            s = samples[int(rng.integers(len(samples)))]
            line += f"{s.text}{ds.preset.prompt}{int(s.label)} "
        lines.append(line[:PRETRAIN["line_bytes"]])
    return lines


def run_pretrain(spec: dict, tracer) -> dict:
    inp = spec["inputs"]
    setup = lambda: corpus.load_dataset(inp["dataset"])
    first_setup_s, ds = _time(setup)
    lines = pretrain_lines(ds, inp["lines_seed"])
    steps = PRETRAIN["steps"]
    last = {}

    def call(i):
        # keep only the newest backbone, so memory does not grow with the call count
        last["backbone"], losses = backbone.pretrain_backbone(
            lines, steps, inp["pretrain_seed"], backbone.BackboneConfig(), lr=3e-3)
        return losses

    records = timed_loop(spec["seconds"], setup, call, tracer)
    saved = Path(spec["work"]) / "pretrained.mseb"
    if last:
        last["backbone"].save(saved)
    return {
        **summary(first_setup_s, records, steps),
        "lines": lines,
        "losses": [out for *_, out in records if not isinstance(out, Exception)],
        "saved": str(saved) if last else None,
        "checksum": last["backbone"].checksum if last else None,
        "entries": ["backbone.pretrain_backbone"],
    }


RUNNERS = {"train-acceptance": run_train, "eval-greedy": run_eval, "pretrain-long": run_pretrain}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    tracer = Tracer() if spec["trace"] else None
    result = RUNNERS[spec["workload"]](spec, tracer)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        calls = result["calls"]
        samples = sum(c["attempted"] for c in calls if c["traced"])
        plain = [c["seconds"] for c in calls if not c["traced"]]
        traced = [c["seconds"] for c in calls if c["traced"]]
        layers = tracer.layer_metrics(samples, tuple(result["entries"]))
        layers["trace.overhead_pct"] = 100.0 * (statistics.median(traced)
                                                / statistics.median(plain) - 1.0)
        result["per_layer"] = layers
        result["self_seconds"] = tracer.self_time_by_layer()
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
