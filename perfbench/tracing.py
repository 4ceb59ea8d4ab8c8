"""Span tracing of cachenet's layers, applied from outside the package.

A `Tracer` rebinds every public function of the layer modules (`cli`,
`placement`, `delivery`, `phy`, `metrics`) to a wrapper that records a span:
name, start, end, parent span and job.  The function is rebound in its
defining module and in every `cachenet` module that imported it by name, so
calls between modules are traced as well.  `numpy.linalg.det` is wrapped to
count determinants.  Spans stay in memory until the run ends.

Self time of a span is its duration minus the time its child spans cover.
Counter bookkeeping done after a function returns is charged to neither the
function nor its caller: it extends the interval the child covers.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("cli", "placement", "delivery", "phy", "metrics")

# Functions whose per-call durations are split by network size K.
STAGES = (
    "phy.verify_plan_phy",
    "phy.sample_channel",
    "metrics.ndt_oracle",
    "delivery.verify_completeness",
)
STAGE_KS = (4, 6, 8)

# Per-function statistics reported as per-layer metrics.  The full set of
# traced functions is printed in the human-readable table.
REPORTED_FUNCTIONS = (
    "cli.main",
    "phy.sample_channel",
    "phy.zf_weights",
    "phy.equivalent_gains",
    "phy.verify_block_phy",
    "phy.verify_plan_phy",
    "placement.place_centralized",
    "placement.place_decentralized",
    "placement.subset_profile",
    "placement.expected_fraction",
    "delivery.build_centralized_plan",
    "delivery.build_tier_plan",
    "delivery.account_block",
    "delivery.plan_sdof",
    "delivery.verify_completeness",
    "delivery.serialize_plan",
    "delivery.parse_plan",
    "metrics.sdof_report",
    "metrics.ndt_closed_form",
    "metrics.ndt_oracle",
    "metrics.ndt_report",
    "metrics.mc_ndt",
    "metrics.ndt_finite",
)

# Span record layout: [name, start, end, cover_end, parent index, job index]
_NAME, _START, _END, _COVER, _PARENT, _JOB = range(6)


def public_functions(module) -> dict[str, object]:
    """Functions named in the module's __all__ and defined in that module."""
    out = {}
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name, None)
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__ and hasattr(obj, "__code__"):
            out[name] = obj
    return out


class Tracer:
    """Records spans and counters while installed; restores every binding on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job_tags: list[tuple[int, int, int, int]] = []
        self.job_index = -1
        self.counters: dict[str, int] = defaultdict(int)
        self.precoder_keys: set[tuple] = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    @contextmanager
    def installed(self):
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._patches):
                setattr(owner, attr, original)
            self._patches.clear()

    def _install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items() if name == "cachenet" or name.startswith("cachenet.")}
        posts = {
            "phy.zf_weights": self._post_zf_weights,
            "phy.verify_plan_phy": self._post_verify_plan_phy,
            "placement.place_decentralized": self._post_place_decentralized,
            "delivery.build_centralized_plan": self._post_plan_built,
            "delivery.build_tier_plan": self._post_plan_built,
            "delivery.serialize_plan": self._post_serialize_plan,
            "metrics.ndt_report": self._post_ndt_report,
        }
        for layer in LAYERS:
            module = modules[f"cachenet.{layer}"]
            for fname, fn in public_functions(module).items():
                qualname = f"{layer}.{fname}"
                wrapper = self._wrap(qualname, fn, posts.get(qualname))
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patches.append((mod, attr, fn))
                            setattr(mod, attr, wrapper)
        original_det = np.linalg.det
        counters = self.counters

        def counting_det(a, *args, **kwargs):
            shape = np.shape(a)
            counters["phy.det_calls"] += 1
            counters["phy.dets_evaluated"] += int(np.prod(shape[:-2], dtype=np.int64)) if len(shape) > 2 else 1
            return original_det(a, *args, **kwargs)

        self._patches.append((np.linalg, "det", original_det))
        np.linalg.det = counting_det

    def _wrap(self, qualname: str, fn, post):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            rec = [qualname, clock(), 0.0, 0.0, stack[-1] if stack else -1, tracer.job_index]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[_END] = rec[_COVER] = clock()
            if post is not None:
                post(args, kwargs, result)
                rec[_COVER] = clock()
            return result

        return functools.update_wrapper(wrapper, fn)

    @contextmanager
    def job(self, tag: tuple[int, int, int, int]):
        """Root span of one job; every span inside carries the job's index and tag."""
        self.job_tags.append(tag)
        self.job_index = len(self.job_tags) - 1
        rec = ["job", time.perf_counter(), 0.0, 0.0, -1, self.job_index]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self.stack.pop()
            rec[_END] = rec[_COVER] = time.perf_counter()
            self.job_index = -1

    # -- counters computed from arguments and return values -----------------

    def _post_zf_weights(self, args, kwargs, result) -> None:
        h = args[0] if args else kwargs["h"]
        tx_set = args[1] if len(args) > 1 else kwargs["tx_set"]
        targets = args[2] if len(args) > 2 else kwargs["zf_targets"]
        self.precoder_keys.add(
            (self.job_index, h.k_r, h.k_t, h.seed, tuple(sorted(tx_set)), tuple(sorted(targets)))
        )

    def _post_verify_plan_phy(self, args, kwargs, result) -> None:
        self.counters["phy.transmissions_checked"] += sum(r.checked for r in result)
        self.counters["phy.violations"] += sum(len(r.violations) for r in result)

    def _post_place_decentralized(self, args, kwargs, result) -> None:
        self.counters["placement.mask_bytes"] += int(result.rx_mask.nbytes)
        self.counters["placement.bits_sampled"] += int(np.count_nonzero(result.rx_mask))

    def _post_plan_built(self, args, kwargs, result) -> None:
        self.counters["delivery.entries_built"] += sum(len(block) for block in result.blocks)

    def _post_serialize_plan(self, args, kwargs, result) -> None:
        self.counters["delivery.plan_bytes"] += len(result.encode())

    def _post_ndt_report(self, args, kwargs, result) -> None:
        self.counters["metrics.mismatch_flags"] += int(result.formula_value != result.oracle_value)

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                covered[rec[_PARENT]] += rec[_COVER] - rec[_START]
        return [rec[_END] - rec[_START] - c for rec, c in zip(self.spans, covered)]

    def function_table(self) -> dict[str, tuple[int, float]]:
        """{qualified function name: (calls, self seconds)}, job root spans excluded."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for rec, own in zip(self.spans, self.self_times()):
            if rec[_NAME] == "job":
                continue
            calls[rec[_NAME]] += 1
            self_s[rec[_NAME]] += own
        return {name: (calls[name], self_s[name]) for name in sorted(calls)}

    def stage_table(self) -> dict[str, dict[int, list[float]]]:
        """Inclusive durations of the STAGES functions, grouped by K = max(K_T, K_R) of the job."""
        out: dict[str, dict[int, list[float]]] = {name: {k: [] for k in STAGE_KS} for name in STAGES}
        for rec in self.spans:
            if rec[_NAME] in out and rec[_JOB] >= 0:
                k_t, k_r, _, _ = self.job_tags[rec[_JOB]]
                k = max(k_t, k_r)
                if k in STAGE_KS:
                    out[rec[_NAME]][k].append(rec[_END] - rec[_START])
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as {name: (value, unit)}."""
        table = self.function_table()
        jobs = len(self.job_tags)
        out: dict[str, tuple[float, str]] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for name, (_, own) in table.items():
            layer_self[name.split(".", 1)[0]] += own
        total = sum(layer_self.values())
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
            out[f"{layer}.self_share"] = (layer_self[layer] / total if total else 0.0, "ratio")
        for name in REPORTED_FUNCTIONS:
            calls, own = table.get(name, (0, 0.0))
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (own, "s")
        place_calls = table.get("placement.place_centralized", (0, 0.0))[0]
        out["placement.place_centralized.calls_per_job"] = (place_calls / jobs if jobs else 0.0, "count")
        for key in (
            "phy.det_calls",
            "phy.dets_evaluated",
            "phy.transmissions_checked",
            "phy.violations",
            "placement.mask_bytes",
            "placement.bits_sampled",
            "delivery.entries_built",
            "delivery.plan_bytes",
            "metrics.mismatch_flags",
        ):
            out[key] = (self.counters[key], "B" if key.endswith("_bytes") else "count")
        zf_calls = table.get("phy.zf_weights", (0, 0.0))[0]
        out["phy.precoder_useful_ratio"] = (len(self.precoder_keys) / zf_calls if zf_calls else 0.0, "ratio")
        for name, by_k in self.stage_table().items():
            for k, durations in by_k.items():
                out[f"{name}.K{k}_median_s"] = (statistics.median(durations) if durations else 0.0, "s")
                out[f"{name}.K{k}_min_s"] = (min(durations) if durations else 0.0, "s")
                out[f"{name}.K{k}_calls"] = (len(durations), "count")
        out["trace.jobs"] = (jobs, "count")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def write_spans(self, path: Path) -> None:
        """All spans and job tags as gzip-compressed JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "cover_end", "parent", "job"],
                    "job_tags": self.job_tags,
                    "spans": self.spans,
                },
                fh,
            )
