"""Instruments msnetlab from outside, by replacing the names its callers
look up (``msnetlab.model.forward``, ``msnetlab.autodiff.Tape.backward``,
...) with timing wrappers.  Nothing here changes an argument or a result.

``Clock`` is always installed: it takes the few timestamps the end-to-end
metrics need (fit wall times, per-step and per-prediction-batch times), two
clock reads per training step or prediction batch.  ``Tracer`` is installed only for a traced run: it keeps
one span per call into each layer's public functions, in memory, and
derives per-layer totals, self times and counts from them.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

now = time.perf_counter


class Patcher:
    """Replaces attributes and restores the originals on ``close``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def close(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Clock:
    """Wall times of ``fit`` calls, training steps and prediction batches.

    A step ends when ``optimizer_step`` returns and starts where the
    previous step of the same fit ended; the first step of a fit starts at
    its first ``forward`` call, so vocabulary, encoding and parameter set-up
    are not part of any step.  A prediction batch runs from one ``forward``
    call of ``predict`` to the next, so it covers one full pass of the
    predict loop (encode, forward, records); the partial last batch is left
    out.
    """

    def __init__(self) -> None:
        self.step_ms: list[float] = []
        self.fit_s: list[float] = []
        self.predict_batch_s: list[float] = []
        self._last: float | None = None
        self._forwards: list[float] | None = None

    def clear(self) -> None:
        for samples in (self.step_ms, self.fit_s, self.predict_batch_s):
            samples.clear()

    def drain_into(self, other: "Clock") -> None:
        other.step_ms += self.step_ms
        other.fit_s += self.fit_s
        other.predict_batch_s += self.predict_batch_s
        self.clear()

    def install(self, patcher: Patcher, msnetlab) -> None:
        model, cli = msnetlab.model, msnetlab.cli

        def fit(fn):
            def wrapper(*args, **kwargs):
                self._last = None
                t0 = now()
                result = fn(*args, **kwargs)
                self.fit_s.append(now() - t0)
                return result
            return wrapper

        def predict(fn):
            def wrapper(*args, **kwargs):
                self._forwards = []
                try:
                    return fn(*args, **kwargs)
                finally:
                    starts, self._forwards = self._forwards, None
                    self.predict_batch_s += [
                        b - a for a, b in zip(starts, starts[1:])]
            return wrapper

        def forward(fn):
            def wrapper(*args, **kwargs):
                t = now()
                if self._last is None:
                    self._last = t
                if self._forwards is not None:
                    self._forwards.append(t)
                return fn(*args, **kwargs)
            return wrapper

        def optimizer_step(fn):
            def wrapper(*args, **kwargs):
                fn(*args, **kwargs)
                t = now()
                self.step_ms.append((t - self._last) * 1e3)
                self._last = t
            return wrapper

        for owner in (model, cli):
            patcher.wrap(owner, "fit", fit)
            patcher.wrap(owner, "predict", predict)
        patcher.wrap(model, "forward", forward)
        patcher.wrap(model, "optimizer_step", optimizer_step)


class Tracer:
    """Spans (id, name, start, end, parent id, phase) and counters, kept in
    memory until ``dump``.

    ``phase`` is "setup" or "cycle"; ``per_pass`` reports set-up totals plus
    the mean over the traced cycles, so each figure is the cost of one
    set-up and one measured cycle of the workload.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.phase = "setup"
        self.cycles = 0
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[self.phase][name] += amount

    def _open(self, name: str) -> list:
        span = [len(self.spans), name, now(), None,
                self._stack[-1] if self._stack else None, self.phase]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        span[3] = now()
        self._stack.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        """One span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def spanned(self, name: str, before=None, after=None):
        """Wrapper factory for ``Patcher.wrap``: one span per call, plus
        optional hooks that read the arguments or the result."""
        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                span = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(span)
                if after is not None:
                    after(args, result)
                return result
            return wrapper
        return make

    def counted(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                self.count(name)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def install(self, patcher: Patcher, msnetlab) -> None:
        autodiff, cli, datagen = msnetlab.autodiff, msnetlab.cli, msnetlab.datagen
        metrics, model = msnetlab.metrics, msnetlab.model
        spanned, counted = self.spanned, self.counted

        def tape_nodes(args) -> None:
            self.count("autodiff.tape_nodes", len(args[0]._nodes))
            self.count("autodiff.backward_calls")

        def encoded(args, batch) -> None:
            self.count("features.seq_slots", batch.seq_mask.size)
            self.count("features.seq_filled", int(batch.seq_mask.sum()))

        def simulated(args, result) -> None:
            self.count("datagen.records", len(result.records))

        def written(args, result) -> None:
            self.count("datagen.tsv_bytes", Path(args[1]).stat().st_size)

        patcher.wrap(autodiff.Tape, "backward",
                     spanned("autodiff.backward", before=tape_nodes))
        patcher.wrap(model, "target_attention",
                     spanned("seqmodel.target_attention"))
        for name in ("meta_scale", "meta_shift", "scaling_weights",
                     "compose_kv"):
            patcher.wrap(model, name, spanned("seqmodel.meta"))
        for name, span in (("forward", "model.forward"),
                           ("compute_losses", "model.losses"),
                           ("loss_aux", "model.loss_aux"),
                           ("optimizer_step", "model.optimizer_step")):
            patcher.wrap(model, name, spanned(span))
        patcher.wrap(model, "build_vocab", spanned("features.build_vocab"))
        patcher.wrap(model, "encode_batch",
                     spanned("features.encode_batch", after=encoded))
        patcher.wrap(model, "partition_of", counted("metrics.partition_of"))
        patcher.wrap(metrics, "gauc", spanned("metrics.gauc"))
        patcher.wrap(metrics, "partition_aucs", spanned("metrics.partition_aucs"))
        # names imported into both the cli and their home module
        for owner in (model, cli):
            for name in ("fit", "predict", "save_checkpoint",
                         "load_checkpoint"):
                patcher.wrap(owner, name, spanned(f"model.{name}"))
        for owner in (metrics, cli):
            for name in ("grouped_report", "write_predictions",
                         "read_predictions"):
                patcher.wrap(owner, name, spanned(f"metrics.{name}"))
        for owner in (datagen, cli):
            patcher.wrap(owner, "simulate",
                         spanned("datagen.simulate", after=simulated))
            patcher.wrap(owner, "write_dataset",
                         spanned("datagen.write_dataset", after=written))
            for name in ("read_dataset", "read_catalog", "file_sha256"):
                patcher.wrap(owner, name, spanned(f"datagen.{name}"))

    # ------------------------------------------------------------------

    def _sums(self):
        """Per (phase, name): total span time, self time, calls; and per
        (phase) the summed fit-entry-to-first-forward delay."""
        total: dict[tuple[str, str], float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        calls: dict[tuple[str, str], int] = defaultdict(int)
        first_forward: dict[int, float] = {}
        for sid, name, start, end, parent, phase in self.spans:
            total[(phase, name)] += end - start
            calls[(phase, name)] += 1
            if parent is not None:
                child[parent] += end - start
                if name == "model.forward" and \
                        self.spans[parent][1] == "model.fit":
                    first_forward.setdefault(parent, start)
        own: dict[tuple[str, str], float] = defaultdict(float)
        for sid, name, start, end, parent, phase in self.spans:
            own[(phase, name)] += end - start - child[sid]
        wait: dict[str, float] = defaultdict(float)
        for fit_id, start in first_forward.items():
            _, _, fit_start, _, _, phase = self.spans[fit_id]
            wait[phase] += start - fit_start
        return total, own, calls, wait

    def per_pass(self) -> dict[str, float]:
        """Per-layer figures for one set-up plus one traced cycle."""
        total, own, calls, wait = self._sums()
        n = max(self.cycles, 1)

        def one(table, key):
            return table.get(("setup", key), 0) + table.get(("cycle", key), 0) / n

        def counter(key):
            return self.counts["setup"][key] + self.counts["cycle"][key] / n

        out = {}
        for name in {name for _, name in total}:
            out[f"{name}_s"] = one(total, name)
        out["model.forward_self_s"] = one(own, "model.forward")
        out["model.time_to_first_step_s"] = \
            wait.get("setup", 0) + wait.get("cycle", 0) / n
        out["model.steps"] = one(calls, "model.optimizer_step")
        out["seqmodel.target_attention_calls"] = \
            one(calls, "seqmodel.target_attention")
        out["features.encode_batch_calls"] = one(calls, "features.encode_batch")
        backward_calls = sum(c["autodiff.backward_calls"]
                             for c in self.counts.values())
        out["autodiff.tape_nodes_per_step"] = sum(
            c["autodiff.tape_nodes"] for c in self.counts.values()
        ) / max(backward_calls, 1)
        slots = sum(c["features.seq_slots"] for c in self.counts.values())
        out["features.seq_fill_ratio"] = sum(
            c["features.seq_filled"] for c in self.counts.values()
        ) / max(slots, 1)
        for key in ("datagen.records", "datagen.tsv_bytes"):
            out[key] = counter(key)
        out["metrics.partition_of_calls"] = counter("metrics.partition_of")
        return out

    def dump(self, path: Path) -> None:
        with path.open("w") as fh:
            for sid, name, start, end, parent, phase in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "phase": phase}) + "\n")
