"""Spans around the calls into latentsteer's modules, recorded from outside the package.

While `Tracer.installed()` is active, every function named in TRACED is
rebound, in every latentsteer module that holds a reference to it, to a
wrapper that records a span: name, start, end, parent span and operation
id. Callers inside the package look these names up in their own module
globals at call time (`pipeline.fit_binary`, `cli.load_bundle`,
`director.latent_labels`, ...), so the package's own calls are traced and
nothing under src/ changes. Spans stay in memory until the run writes them.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("world", "models", "geometry", "director", "pipeline", "persist", "cli")

TRACED = (
    "world.build_world",
    "world.generate_image",
    "world.oracle_label",
    "models.fit_binary",
    "models.fit_multiclass",
    "models.fit_regressor",
    "geometry.sample_latents",
    "director.condition",
    "director.latent_labels",
    "pipeline.run_training",
    "pipeline.eval_latent_modification",
    "pipeline.eval_end_to_end",
    "persist.save_world",
    "persist.save_bundle",
    "persist.load_bundle",
    "persist.load_world",
    "persist.write_pgm",
    "cli.main",
)

_MODULES = ("latentsteer",) + tuple(f"latentsteer.{layer}" for layer in LAYERS)
_EVALS = ("pipeline.eval_latent_modification", "pipeline.eval_end_to_end")

NAME, START, END, PARENT, OP, INFO = range(6)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _fit_info(args, kwargs, result):
    meta = result.training_meta
    return {"epochs": meta.epochs_run, "final_loss": meta.final_loss}


def _condition_info(args, kwargs, result):
    spec = _arg(args, kwargs, 1, "spec")
    after = result.labels_after
    hit = all(after.discrete[k] == v for k, v in spec.discrete.items()) and all(
        abs(after.continuous[k] - v) <= 1e-9 for k, v in spec.continuous.items()
    )
    return {"hit": hit, "moved": result.moved,
            "multiclass_moves": sum(result.multiclass_moves.values())}


def _file_size(index, name):
    def info(args, kwargs, result):
        return {"bytes": Path(_arg(args, kwargs, index, name)).stat().st_size}
    return info


def _trials_info(args, kwargs, result):
    return {"trials": _arg(args, kwargs, 2, "trials")}


# what each observed call adds to its span, read from its arguments and result
_OBSERVERS = {
    "models.fit_binary": _fit_info,
    "models.fit_multiclass": _fit_info,
    "director.condition": _condition_info,
    "geometry.sample_latents": lambda a, k, r: {"latents": _arg(a, k, 0, "count")},
    "pipeline.eval_latent_modification": _trials_info,
    "pipeline.eval_end_to_end": _trials_info,
    "persist.save_bundle": _file_size(1, "path"),
    "persist.write_pgm": _file_size(1, "path"),
}


class Tracer:
    """Span recorder for one benchmark run; single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._bindings = []  # (module, attribute, original, wrapper)
        for dotted in TRACED:
            layer, func = dotted.split(".")
            original = getattr(importlib.import_module(f"latentsteer.{layer}"), func)
            wrapper = self._wrap(dotted, original, _OBSERVERS.get(dotted))
            for mod_name in _MODULES:
                module = importlib.import_module(mod_name)
                for attr, value in vars(module).items():
                    if value is original:
                        self._bindings.append((module, attr, original, wrapper))

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if observe is not None:
                span[INFO] = observe(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, op):
        """Trace calls made inside the block, tagging their spans with `op`."""
        self._op = op
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, original, _ in self._bindings:
                setattr(module, attr, original)
            self._op = None

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def trial_ids(self) -> list[int | None]:
        """Per span: the index of the eval trial it belongs to, None outside eval calls.

        Each trial of a single-round eval makes one condition call directly
        under the eval span, before the judge calls of the same trial.
        """
        trial: list[int | None] = [None] * len(self.spans)
        seen: dict[int, int] = {}  # eval span -> condition calls so far
        for i, s in enumerate(self.spans):
            parent = s[PARENT]
            if parent < 0:
                continue
            if self.spans[parent][NAME] in _EVALS:
                if s[NAME] == "director.condition":
                    seen[parent] = seen.get(parent, 0) + 1
                trial[i] = seen.get(parent, 0) - 1
            else:
                trial[i] = trial[parent]
        return trial

    def write_spans(self, path: Path) -> None:
        """One JSON object per line, gzip-compressed: a full traced run records ~10^5 spans."""
        trial = self.trial_ids()
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                     "parent": s[PARENT], "op": s[OP], "trial": trial[i],
                                     **(s[INFO] or {})}) + "\n")


def _pct(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100.0 * len(ordered)))]


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics listed in BENCHMARK.json, from every recorded span."""
    own = tracer.self_times()
    dur: dict[str, list[float]] = {name: [] for name in TRACED}
    self_t: dict[str, list[float]] = {name: [] for name in TRACED}
    info: dict[str, list[dict]] = {name: [] for name in TRACED}
    for s, t in zip(tracer.spans, own):
        dur[s[NAME]].append(s[END] - s[START])
        self_t[s[NAME]].append(t)
        if s[INFO] is not None:
            info[s[NAME]].append(s[INFO])

    def p50(name, scale):
        return statistics.median(dur[name]) * scale

    def per(name, values, key):
        return sum(values) / sum(i[key] for i in info[name])

    cond = info["director.condition"]
    m = {
        "world.generate_image.us_p50": (p50("world.generate_image", 1e6), "us"),
        "world.generate_image.calls": (len(dur["world.generate_image"]), "count"),
        "world.oracle_label.us_p50": (p50("world.oracle_label", 1e6), "us"),
        "world.oracle_label.calls": (len(dur["world.oracle_label"]), "count"),
        "world.build_world.ms": (p50("world.build_world", 1e3), "ms"),
        "models.fit_binary.s": (p50("models.fit_binary", 1.0), "s"),
        "models.fit_multiclass.s": (p50("models.fit_multiclass", 1.0), "s"),
        "models.fit_regressor.s": (p50("models.fit_regressor", 1.0), "s"),
        "geometry.sample_latents.us_per_latent": (
            per("geometry.sample_latents", dur["geometry.sample_latents"], "latents") * 1e6, "us"),
        "director.condition.us_p50": (p50("director.condition", 1e6), "us"),
        "director.condition.us_p99": (_pct(dur["director.condition"], 99) * 1e6, "us"),
        "director.condition.calls": (len(cond), "count"),
        "director.latent_labels.us_p50": (p50("director.latent_labels", 1e6), "us"),
        "director.latent_labels.calls": (len(dur["director.latent_labels"]), "count"),
        "director.multiclass_moves_per_call": (
            sum(c["multiclass_moves"] for c in cond) / len(cond), "moves/call"),
        "director.moved_ratio": (sum(c["moved"] for c in cond) / len(cond), "ratio"),
        "director.hit_ratio": (sum(c["hit"] for c in cond) / len(cond), "ratio"),
        "pipeline.run_training.self_s": (statistics.median(self_t["pipeline.run_training"]), "s"),
        "persist.save_world.ms": (p50("persist.save_world", 1e3), "ms"),
        "persist.save_bundle.ms": (p50("persist.save_bundle", 1e3), "ms"),
        "persist.load_bundle.us_p50": (p50("persist.load_bundle", 1e6), "us"),
        "persist.load_world.us_p50": (p50("persist.load_world", 1e6), "us"),
        "persist.write_pgm.us_p50": (p50("persist.write_pgm", 1e6), "us"),
        "persist.bundle_bytes": (info["persist.save_bundle"][-1]["bytes"], "bytes"),
        "persist.pgm_bytes": (statistics.median(i["bytes"] for i in info["persist.write_pgm"]), "bytes"),
        "cli.main.self_us_p50": (statistics.median(self_t["cli.main"]) * 1e6, "us"),
    }
    for kind in ("binary", "multiclass"):
        fits = info[f"models.fit_{kind}"]
        m[f"models.fit_{kind}.epochs"] = (statistics.median(f["epochs"] for f in fits), "count")
        m[f"models.fit_{kind}.final_loss"] = (statistics.median(f["final_loss"] for f in fits), "loss")
    for short, name in (("eval_latent", "pipeline.eval_latent_modification"),
                        ("eval_e2e", "pipeline.eval_end_to_end")):
        m[f"pipeline.{short}.us_per_trial"] = (per(name, dur[name], "trials") * 1e6, "us")
        m[f"pipeline.{short}.self_us_per_trial"] = (per(name, self_t[name], "trials") * 1e6, "us")
    return m


def self_time_table(tracer: Tracer, traced_wall: float) -> str:
    """Per layer and per traced function: calls, total and self time.

    `harness` is traced wall time outside every span: the benchmark's own code.
    """
    own = tracer.self_times()
    rows: dict[str, list[float]] = {}
    for s, t in zip(tracer.spans, own):
        row = rows.setdefault(s[NAME], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += s[END] - s[START]
        row[2] += t
    top = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] < 0)
    lines = [f"traced wall {traced_wall:.3f} s over {len(tracer.spans)} spans",
             f"{'layer':<10} {'self s':>10} {'share':>7}"]
    for layer in LAYERS:
        total = sum(r[2] for name, r in rows.items() if name.startswith(layer + "."))
        lines.append(f"{layer:<10} {total:>10.4f} {total / traced_wall:>7.1%}")
    harness = traced_wall - top
    lines.append(f"{'harness':<10} {harness:>10.4f} {harness / traced_wall:>7.1%}")
    lines.append("")
    lines.append(f"{'function':<36} {'calls':>8} {'total s':>10} {'self s':>10} {'self us/call':>13}")
    for name in TRACED:
        calls, total, self_s = rows.get(name, (0, 0.0, 0.0))
        per_call = self_s / calls * 1e6 if calls else 0.0
        lines.append(f"{name:<36} {calls:>8} {total:>10.4f} {self_s:>10.4f} {per_call:>13.1f}")
    return "\n".join(lines) + "\n"
