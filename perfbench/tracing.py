"""Spans and counters recorded around the public functions of `mmadapt`.

`Tracer.install()` replaces each traced function with a wrapper in every
`mmadapt` module that holds a reference to it (modules bind imported names
at import time), and `uninstall()` puts the originals back. Nothing inside
the program changes: a span covers one call into a layer's public function.

A span is (id, name, start, end, parent id, unit id). A unit is one training
sample, one evaluated sample or one pretraining step: a new unit starts when
a tape is entered, or when the adapter runs with no tape open (greedy
evaluation). Optimizer spans carry the unit of the last sample of their
batch. Tensor ops get counters, not spans: they are called hundreds of
times per sample and a span each would swamp what they measure.
"""

from __future__ import annotations

import functools
import gc
import importlib
import statistics
import time

# (module, function or Class.method, span name)
SPANNED = [
    ("corpus", "load_dataset", "corpus.load_dataset"),
    ("serialize", "read_features", "serialize.read_features"),
    ("serialize", "read_container", "serialize.read_container"),
    ("serialize", "write_container", "serialize.write_container"),
    ("tensor", "Tape.backward", "tensor.backward"),
    ("adapter", "build_pseudo_tokens", "adapter.build_pseudo_tokens"),
    ("adapter", "lstm_final_state", "adapter.lstm_final_state"),
    ("adapter", "text_guided_mix", "adapter.text_guided_mix"),
    ("adapter", "fuse_scales", "adapter.fuse_scales"),
    ("adapter", "expand_tokens", "adapter.expand_tokens"),
    ("adapter", "load_adapter", "adapter.load_adapter"),
    ("adapter", "save_adapter", "adapter.save_adapter"),
    ("backbone", "FrozenBackbone.forward_rows", "backbone.forward_rows"),
    ("backbone", "FrozenBackbone.verify", "backbone.verify"),
    ("backbone", "FrozenBackbone.load", "backbone.load"),
    ("backbone", "FrozenBackbone.save", "backbone.save"),
    ("backbone", "generate", "backbone.generate"),
    ("backbone", "pretrain_backbone", "backbone.pretrain_backbone"),
    ("trainer", "multi_seed_run", "trainer.multi_seed_run"),
    ("trainer", "train_run", "trainer.train_run"),
    ("trainer", "prepare_samples", "trainer.prepare_samples"),
    ("trainer", "sample_loss", "trainer.sample_loss"),
    ("trainer", "label_loss", "trainer.label_loss"),
    ("trainer", "evaluate_split", "trainer.evaluate_split"),
    ("optim", "adamw_step", "optim.adamw_step"),
    ("optim", "clip_global_norm", "optim.clip_global_norm"),
    ("metrics", "parse_generated", "metrics.parse_generated"),
    ("metrics", "score_predictions", "metrics.score_predictions"),
]

# public ops of mmadapt.tensor; each returns one Tensor
TENSOR_OPS = [
    "add", "add_rowvec", "add_scalar", "scale", "matmul", "hadamard",
    "elementwise_unary", "sigmoid", "tanh", "gelu", "transpose", "slice_rows",
    "slice_cols", "concat_rows", "stack_columns", "embedding_lookup",
    "reduce_mean_rows", "sum_all", "softmax_rows", "layernorm_rows",
    "causal_attention_scores", "softmax_cross_entropy", "rows_cross_entropy",
]

# per-layer metric -> (unit, better)
PER_LAYER = {
    "corpus.load_dataset_s": ("s", "lower"),
    "serialize.read_features_calls": ("count", "lower"),
    "serialize.read_features_ms": ("ms", "lower"),
    "serialize.write_container_ms": ("ms", "lower"),
    "tensor.tape_records_per_tape": ("count", "lower"),
    "tensor.backward_ms": ("ms", "lower"),
    "tensor.op_calls_per_sample": ("count", "lower"),
    "tensor.live_tapes": ("count", "lower"),
    "adapter.build_pseudo_tokens_ms": ("ms", "lower"),
    "adapter.lstm_final_state_ms": ("ms", "lower"),
    "adapter.lstm_final_state_calls": ("count", "lower"),
    "adapter.text_guided_mix_ms": ("ms", "lower"),
    "adapter.fuse_scales_ms": ("ms", "lower"),
    "adapter.expand_tokens_ms": ("ms", "lower"),
    "adapter.load_adapter_ms": ("ms", "lower"),
    "backbone.forward_rows_ms": ("ms", "lower"),
    "backbone.forward_rows_per_sample": ("count", "lower"),
    "backbone.rows_per_sample": ("count", "lower"),
    "backbone.generate_ms": ("ms", "lower"),
    "backbone.verify_ms": ("ms", "lower"),
    "backbone.load_ms": ("ms", "lower"),
    "trainer.prepare_samples_ms": ("ms", "lower"),
    "trainer.sample_loss_ms": ("ms", "lower"),
    "trainer.label_loss_ms": ("ms", "lower"),
    "trainer.validation_s": ("s", "lower"),
    "optim.adamw_step_ms": ("ms", "lower"),
    "optim.clip_global_norm_ms": ("ms", "lower"),
    "metrics.parse_generated_us": ("us", "lower"),
    "metrics.score_predictions_ms": ("ms", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.layer_coverage_pct": ("%", "higher"),
}

# a metric in one of these units is named <span name>_<unit> and reads the
# median duration per call of that span; trainer.validation_s is the one
# exception (evaluate_split calls made by train_run)
_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}

# a scan of every gc-tracked object costs a few ms, so live tapes are
# counted at every LIVE_TAPE_EVERY-th optimizer step only
LIVE_TAPE_EVERY = 4


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Tracer:
    """Records spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []   # (id, name, start, end, parent, unit)
        self.unit = 0
        self.op_calls = 0
        self.rows_in = 0               # rows passed to forward_rows
        self.tape_records: list[int] = []
        self.live_tapes: list[int] = []
        self._stack: list[int] = []
        self._op_depth = 0
        self._records = 0              # taped op outputs since the tape opened
        self._in_tape = False
        self._steps = 0
        self._patches: list[tuple] = []
        self._mm = {name: importlib.import_module(f"mmadapt.{name}") for name in
                    ("corpus", "serialize", "tensor", "adapter", "backbone",
                     "trainer", "optim", "metrics")}

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            sid = len(tracer.spans) + len(tracer._stack)  # spans started so far
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, name, start, end, parent, tracer.unit))
                if after is not None:
                    after()
        return wrapper

    def _op(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op_depth:
                return fn(*args, **kwargs)
            tracer._op_depth = 1
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._op_depth = 0
            tracer.op_calls += 1
            if out.tape is not None:
                tracer._records += 1
            return out
        return wrapper

    # hooks run around particular spans

    def _new_untaped_unit(self, *args) -> None:
        if not self._in_tape:
            self.unit += 1

    def _count_rows(self, backbone, rows) -> None:
        self.rows_in += rows.shape[0]

    def _tape_size(self, tape, root) -> None:
        self.tape_records.append(self._records)

    def _count_live_tapes(self) -> None:
        self._steps += 1
        if self._steps % LIVE_TAPE_EVERY == 1:
            Tape = self._mm["tensor"].Tape
            self.live_tapes.append(sum(1 for o in gc.get_objects() if type(o) is Tape))

    def _enter(self, fn):
        tracer = self

        def wrapper(tape):
            tracer.unit += 1
            tracer._records = 0
            tracer._in_tape = True
            return fn(tape)
        return wrapper

    def _exit(self, fn):
        tracer = self

        def wrapper(tape, *exc):
            tracer._in_tape = False
            return fn(tape, *exc)
        return wrapper

    # -- install ----------------------------------------------------------------

    def _replace(self, original, replacement) -> None:
        """Point every mmadapt module attribute bound to `original` at `replacement`."""
        for mod in self._mm.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def _patch_method(self, owner, attr: str, wrap) -> None:
        raw = owner.__dict__[attr]
        new = classmethod(wrap(raw.__func__)) if isinstance(raw, classmethod) else wrap(raw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        hooks = {
            "adapter.build_pseudo_tokens": (self._new_untaped_unit, None),
            "backbone.forward_rows": (self._count_rows, None),
            "tensor.backward": (self._tape_size, None),
            "optim.adamw_step": (None, self._count_live_tapes),
        }
        for module, qualname, span in SPANNED:
            mod = self._mm[module]
            before, after = hooks.get(span, (None, None))
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                self._patch_method(getattr(mod, cls_name), attr,
                                   lambda fn, s=span, b=before, a=after: self._span(s, fn, b, a))
            else:
                fn = getattr(mod, qualname)
                self._replace(fn, self._span(span, fn, before, after))
        for op in TENSOR_OPS:
            fn = getattr(self._mm["tensor"], op)
            self._replace(fn, self._op(fn))
        Tape = self._mm["tensor"].Tape
        self._patch_method(Tape, "__enter__", self._enter)
        self._patch_method(Tape, "__exit__", self._exit)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summaries --------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover."""
        own = {sid: end - start for sid, _, start, end, _, _ in self.spans}
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def self_time_by_layer(self) -> dict[str, float]:
        """Total self seconds per span name, largest first."""
        own = self.self_times()
        totals: dict[str, float] = {}
        for sid, name, *_ in self.spans:
            totals[name] = totals.get(name, 0.0) + own[sid]
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def durations(self, name: str, parent_name: str | None = None) -> list[float]:
        names = {s[0]: s[1] for s in self.spans}
        return [end - start for _, n, start, end, parent, _ in self.spans
                if n == name and (parent_name is None or names.get(parent) == parent_name)]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[1] == name)

    def layer_metrics(self, samples: int, entries: tuple[str, ...]) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far.

        `samples` is the number of units the workload's throughput counts.
        `entries` are the workload's outer calls: their self time is
        orchestration between layers, and the rest of their wall time is
        the share the traced layers cover.
        """
        out = {metric: _median(self.durations(metric.rsplit("_", 1)[0])) * _SCALE[unit]
               for metric, (unit, _) in PER_LAYER.items() if unit in _SCALE}
        loads = self.count("corpus.load_dataset")
        out["serialize.read_features_calls"] = (
            self.count("serialize.read_features") / loads if loads else 0)
        out["tensor.tape_records_per_tape"] = _median(self.tape_records)
        out["tensor.op_calls_per_sample"] = self.op_calls / samples
        out["tensor.live_tapes"] = max(self.live_tapes, default=0)
        out["adapter.lstm_final_state_calls"] = self.count("adapter.lstm_final_state") / samples
        out["backbone.forward_rows_per_sample"] = self.count("backbone.forward_rows") / samples
        out["backbone.rows_per_sample"] = self.rows_in / samples
        out["trainer.validation_s"] = _median(
            self.durations("trainer.evaluate_split", "trainer.train_run"))
        own = self.self_times()
        entry_wall = sum(end - start for _, n, start, end, parent, _ in self.spans
                         if parent is None and n in entries)
        entry_self = sum(own[s[0]] for s in self.spans if s[1] in entries)
        out["trace.layer_coverage_pct"] = (
            100.0 * (1.0 - entry_self / entry_wall) if entry_wall else 0.0)
        return out
