"""Spans, step boundaries and tape accounting around trafficast's public calls.

Nothing inside ``src/`` is edited. For the length of one run, module-level
names of the package are replaced by wrappers that time each call, and the
originals are put back afterwards. Because the package's own loops
(``train_single``, ``predict``, ``run_experiment``) look these names up at
call time, a change inside those loops shows up in the numbers.

Two levels of wrapping:

* always on: the step boundaries (``training.stack_batch`` opens a step,
  the enclosing ``predict`` / ``train_single`` closes it) plus a handful of
  coarse calls that the end-to-end metrics need (one per fit, epoch or grid);
* traced runs only: a span around every layer boundary listed in
  ``TRACED``, a per-stage tag on each tape record, and a timer around each
  record's ``backward_fn``.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

# Stage a span belongs to, for the model/graph per-stage metrics.
STAGE_OF = {
    "model.encode": "encoder",
    "model.gru_cell": "decoder_gru",
    "model.attention_step": "attention",
    "model.dgcgru_cell": "dgc",
    "model.adaptive_mix_mats": "adjacency",
    "model.pre_mix_mats": "adjacency",
    "training.forward": "output",
    "training.mae_loss": "output",
}
STAGES = ("encoder", "decoder_gru", "attention", "dgc", "output", "adjacency")

# Wrapped on every run: a few calls per fit, epoch or grid, which the
# end-to-end metrics need.
ALWAYS = (
    "training.train_single", "training.predict", "training.evaluate",
    "training.train", "training.run_experiment", "cli.main",
)
# Wrapped on traced runs only.
TRACED = (
    "training.forward", "training.mae_loss", "training.clip_gradients",
    "training.adam_step",
    "model.encode", "model.gru_cell", "model.attention_step",
    "model.dgcgru_cell", "model.adaptive_mix_mats", "model.pre_mix_mats",
    "graph.build_predefined", "graph.row_normalize", "graph.read_edge_list",
    "data.synth_generate", "data.load_series", "data.prepare_dataset",
    "cli.resolve_config",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    step: int
    thread: int


@dataclass
class Step:
    """One closed-loop step: an optimizer step or one eval batch."""

    id: int
    kind: str          # "train" or "eval"
    start: float
    samples: int
    first: bool        # first step of its train_single / predict call
    phase: str
    end: float = 0.0


@dataclass
class TapeStats:
    """What one step put on the tape, and what its backward cost."""

    step: int
    records: int
    by_op: Dict[str, int]
    bytes: int
    stage_records: Dict[str, int]
    stage_bytes: Dict[str, int]
    stage_bwd_s: Dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(STAGES, 0.0))
    grad_bytes: int = 0
    backward_s: float = 0.0


class _ThreadState:
    def __init__(self):
        self.stack: List[int] = []
        self.step: Optional[Step] = None
        self.first = False
        self.in_predict = False
        self.in_encode = False
        self.tape = None
        self.ranges: list = []


class Tracer:
    """Collects steps always, and spans and tape stats when `traced`."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.phase = "setup"
        self.spans: List[Span] = []
        self.steps: List[Step] = []
        self.tapes: List[TapeStats] = []
        self.losses: List[float] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._patches: list = []

    # -- per-thread state --------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._tls, "st", None)
        if st is None:
            st = self._tls.st = _ThreadState()
        return st

    def _close_step(self, st: _ThreadState) -> None:
        if st.step is not None:
            st.step.end = time.perf_counter()
            st.step = None

    def _open_span(self, st: _ThreadState, name: str) -> Span:
        span = Span(next(self._ids), name, time.perf_counter(), 0.0,
                    st.stack[-1] if st.stack else -1,
                    st.step.id if st.step is not None else -1,
                    threading.get_ident())
        self.spans.append(span)
        st.stack.append(span.id)
        return span

    def _close_span(self, st: _ThreadState, span: Span) -> None:
        span.end = time.perf_counter()
        st.stack.pop()

    # -- installing wrappers ---------------------------------------------

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap the package's names; `modules` maps short name -> module."""
        wrappers = {
            "training.stack_batch": self._wrap_stack_batch,
            "training.predict": self._wrap_predict,
            "training.train_single": self._wrap_train_single,
            "training.backward": self._wrap_backward,
        }
        names = list(ALWAYS) + (list(TRACED) if self.traced else [])
        for qual in names:
            if qual not in wrappers:
                wrappers[qual] = self._wrap_span(qual)
        for qual, make in wrappers.items():
            mod_name, attr = qual.split(".")
            original = getattr(modules[mod_name], attr)
            self._replace(modules, original, make(original))
        if self.traced:
            training = modules["training"]
            self._patch(training, "Tape", self._tape_class(training.Tape))

    def _replace(self, modules, original, wrapped) -> None:
        # The package imports names across modules (`from trafficast.model
        # import forward`), so every module-level alias is replaced.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapped)

    def _patch(self, mod, attr, value) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap_span(self, name: str):
        tracer = self
        stage = STAGE_OF.get(name)

        def make(fn):
            def wrapper(*args, **kwargs):
                st = tracer._state()
                if name == "model.gru_cell" and st.in_encode:
                    return fn(*args, **kwargs)
                span = tracer._open_span(st, name)
                n0 = len(st.tape.records) if stage and st.tape is not None else 0
                if name == "model.encode":
                    st.in_encode = True
                try:
                    return fn(*args, **kwargs)
                finally:
                    if name == "model.encode":
                        st.in_encode = False
                    if stage and stage != "output" and st.tape is not None:
                        st.ranges.append((stage, n0, len(st.tape.records)))
                    tracer._close_span(st, span)
            return wrapper
        return make

    def _wrap_stack_batch(self, fn):
        tracer = self

        def stack_batch(samples):
            st = tracer._state()
            tracer._close_step(st)
            st.step = Step(next(tracer._ids), "eval" if st.in_predict else "train",
                           time.perf_counter(), len(samples), st.first, tracer.phase)
            st.first = False
            tracer.steps.append(st.step)
            if not tracer.traced:
                return fn(samples)
            span = tracer._open_span(st, "data.stack_batch")
            try:
                return fn(samples)
            finally:
                tracer._close_span(st, span)
        return stack_batch

    def _wrap_predict(self, fn):
        tracer = self
        inner = self._wrap_span("training.predict")(fn)

        def predict(*args, **kwargs):
            st = tracer._state()
            tracer._close_step(st)
            saved = st.first, st.in_predict
            st.first, st.in_predict = True, True
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._close_step(st)
                st.first, st.in_predict = saved
        return predict

    def _wrap_train_single(self, fn):
        tracer = self
        inner = self._wrap_span("training.train_single")(fn)

        def train_single(*args, **kwargs):
            st = tracer._state()
            st.first = True
            try:
                return inner(*args, **kwargs)
            finally:
                tracer._close_step(st)
                st.first = False
        return train_single

    def _wrap_backward(self, fn):
        tracer = self

        def backward(loss, tape):
            tracer.losses.append(loss.item())
            if not tracer.traced:
                return fn(loss, tape)
            st = tracer._state()
            labels = _labels(len(tape.records), st.ranges)
            stats = _count(tape, labels)
            stats.step = st.step.id if st.step is not None else -1
            for rec, label in zip(tape.records, labels):
                rec.backward_fn = _timed(rec.backward_fn, stats.stage_bwd_s, label)
            span = tracer._open_span(st, "tensor.backward")
            try:
                fn(loss, tape)
            finally:
                tracer._close_span(st, span)
            stats.backward_s = span.end - span.start
            stats.grad_bytes = sum(rec.output.grad.nbytes for rec in tape.records
                                   if rec.output.grad is not None)
            tracer.tapes.append(stats)
        return backward

    def _tape_class(self, base):
        tracer = self

        class TracedTape(base):
            """Registers itself so stage wrappers can note record ranges."""

            def __enter__(self):
                st = tracer._state()
                st.tape, st.ranges = self, []
                return super().__enter__()

            def __exit__(self, *exc):
                tracer._state().tape = None
                return super().__exit__(*exc)

        return TracedTape

    # -- output --------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        """One JSON line per span, with its self time."""
        child = {}
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] = child.get(s.parent, 0.0) + (s.end - s.start)
        with open(path, "w", encoding="ascii") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "step": s.step, "thread": s.thread,
                    "self_s": (s.end - s.start) - child.get(s.id, 0.0),
                }) + "\n")


def _count(tape, labels: List[str]) -> TapeStats:
    by_op: Dict[str, int] = {}
    stage_records = dict.fromkeys(STAGES, 0)
    stage_bytes = dict.fromkeys(STAGES, 0)
    for rec, label in zip(tape.records, labels):
        # each primitive's backward rule is a closure named "<op>.<locals>.bwd"
        op = rec.backward_fn.__qualname__.split(".")[0]
        by_op[op] = by_op.get(op, 0) + 1
        stage_records[label] += 1
        stage_bytes[label] += rec.output.data.nbytes
    return TapeStats(step=-1, records=len(tape.records), by_op=by_op,
                     bytes=sum(stage_bytes.values()), stage_records=stage_records,
                     stage_bytes=stage_bytes)


def _labels(n: int, ranges) -> List[str]:
    labels = ["output"] * n
    for stage, n0, n1 in ranges:
        labels[n0:n1] = [stage] * (n1 - n0)
    return labels


def _timed(fn, acc: Dict[str, float], label: str):
    def run(g):
        t0 = time.perf_counter()
        out = fn(g)
        acc[label] += time.perf_counter() - t0
        return out
    return run
