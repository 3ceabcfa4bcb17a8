"""In-memory span tracer that wraps seqsew's public entry points from the
outside.

Nothing under ``src/`` is edited: :class:`Tracer` replaces functions and
methods on the imported modules and classes with timing wrappers, records
one span per call (layer, name, start, end, parent), keeps counts at the
same boundaries, and restores every original on :meth:`Tracer.uninstall`.
Spans stay in memory until :meth:`Tracer.write` dumps them.

Layers are the package's modules: prior, posterior, forecasters, bounds,
batch, datagen, cli.
"""

from __future__ import annotations

import functools
import gzip
import json
import math
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("prior", "posterior", "forecasters", "bounds", "batch", "datagen", "cli")

_perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        # (span_id, parent_id, layer, name, start, end, outermost_of_its_name)
        self.spans: list[tuple[int, int, str, str, float, float, bool]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._next_id = 1
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _state(self) -> tuple[list[int], dict[str, int]]:
        """This thread's open spans and how many of each name are open."""
        try:
            return self._local.stack, self._local.open
        except AttributeError:
            self._local.stack, self._local.open = [], defaultdict(int)
            return self._local.stack, self._local.open

    def _call(self, layer: str, name: str, fn, args, kwargs, hook=None):
        stack, open_names = self._state()
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1] if stack else 0
        outermost = not open_names[name]
        stack.append(span_id)
        open_names[name] += 1
        before = hook(None, args, kwargs) if hook is not None else None
        start = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            open_names[name] -= 1
        # A hook sees the call twice: before it (state None) and after it
        # (state = (what it returned before, result)).  After the call it may
        # rename the span, e.g. an update that rejuvenated.
        if hook is not None:
            renamed = hook((before, result), args, kwargs)
            if renamed:
                name = renamed
        self.spans.append((span_id, parent, layer, name, start, end, outermost))
        return result

    # -- installation -----------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: object) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def wrap_function(self, module, attr: str, layer: str, hook=None) -> None:
        """Wrap ``module.attr`` and every other binding of the same function
        object in the package, so callers that imported it by name see the
        wrapper too."""
        original = getattr(module, attr)
        tracer = self
        name = f"{layer}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, name, original, args, kwargs, hook)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "seqsew" or mod_name.startswith("seqsew.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def wrap_method(self, cls: type, attr: str, layer: str, hook=None) -> None:
        original = getattr(cls, attr)
        tracer = self
        name = f"{layer}.{attr}"

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer._call(layer, name, original, args, kwargs, hook)

        if attr in cls.__dict__:
            self._patch(cls, attr, wrapper)
        else:
            # Inherited: shadow it on this class, remove the shadow later.
            setattr(cls, attr, wrapper)
            self._restore.append((cls, attr, None))

    def install(self, sq) -> None:
        """Wrap the public entry points of every layer of the imported
        ``seqsew`` package ``sq``."""
        c = self.counts
        posterior = sq.posterior

        def calls(key: str):
            def hook(state, args, kwargs):
                if state is not None:
                    c[key] += 1

            return hook

        def sample_hook(state, args, kwargs):
            if state is None:
                return None
            size = kwargs.get("size", args[2] if len(args) > 2 else None)
            c["prior.sample_calls"] += 1
            c["prior.draws"] += 1 if size is None else int(size)
            return None

        self.wrap_function(sq.prior, "sample", "prior", sample_hook)

        def init_hook(state, args, kwargs):
            if state is None:
                return None
            cloud = state[1]
            if cloud.backend == "quadrature":
                c["posterior.grid_points"] += int(cloud.samples.shape[0])
            return None

        self.wrap_function(posterior, "init", "posterior", init_hook)

        def update_hook(state, args, kwargs):
            cloud = args[0]
            if state is None:
                return cloud.resample_count
            t = len(cloud.history)
            n = int(cloud.samples.shape[0])
            if cloud.backend == "chain":
                c["posterior.chain_work"] += cloud.config.burn_in * n * t
                return "posterior.chain_advance"
            if cloud.resample_count > state[0]:
                c["posterior.rejuvenations"] += 1
                c["posterior.kernel_work"] += cloud.config.refresh_sweeps * cloud.prior.dim * n * t
                return "posterior.rejuvenate"
            c["posterior.updates"] += 1
            return None

        def snapshot_hook(state, args, kwargs):
            if state is not None:
                frozen = state[1]
                c["posterior.snapshots"] += 1
                # Computed from array shapes, not measured.
                c["posterior.snapshot_bytes"] += (
                    frozen.samples.nbytes + frozen.log_weights.nbytes + frozen.cum_loss.nbytes
                )
            return None

        cloud_cls = posterior.PosteriorCloud
        self.wrap_method(cloud_cls, "predict", "posterior", calls("posterior.predict_calls"))
        self.wrap_method(cloud_cls, "update", "posterior", update_hook)
        self.wrap_method(cloud_cls, "ess", "posterior")
        self.wrap_method(cloud_cls, "weights", "posterior", calls("posterior.weights_calls"))
        self.wrap_method(cloud_cls, "snapshot", "posterior", snapshot_hook)

        fc = sq.forecasters

        def observe_hook(state, args, kwargs):
            forecaster = args[0]
            regime = getattr(forecaster, "regime", None)
            if state is None:
                return regime.r if regime is not None else None
            if regime is not None:
                c["forecasters.restarts"] += regime.r - state[0]
            return None

        for cls in (fc.SeqSEWFixed, fc.SeqSEWAdaptive, fc.SeqSEWAuto):
            self.wrap_method(cls, "predict", "forecasters")
            self.wrap_method(cls, "observe", "forecasters", observe_hook)
            self.wrap_method(cls, "state_row", "forecasters")
        self.wrap_function(fc, "run_protocol", "forecasters")

        def comparator_hook(state, args, kwargs):
            if state is None:
                return None
            features = args[0]
            s = int(kwargs.get("s", args[2] if len(args) > 2 else 0))
            d = int(features.shape[1])
            if state[1].exact:
                c["bounds.comparator_supports"] += sum(math.comb(d, k) for k in range(s + 1))
            else:  # forward selection: one least-squares fit per candidate
                c["bounds.comparator_supports"] += sum(d - i for i in range(min(s, d)))
            return None

        self.wrap_function(sq.bounds, "best_sparse_comparator", "bounds", comparator_hook)
        self.wrap_function(sq.bounds, "verify", "bounds", calls("bounds.verify_calls"))

        def fit_hook(state, args, kwargs):
            if state is None:
                return None
            est = state[1]
            c["batch.fits"] += 1
            clouds = [cloud for cloud, _ in est.snapshots]
            # Snapshots only change sample set at a rejuvenation, so counting
            # changes between neighbours counts the distinct sets.
            c["batch.distinct_sample_sets"] += 1 + sum(
                1 for a, b in zip(clouds, clouds[1:]) if not _same_array(a.samples, b.samples)
            )
            c["batch.distinct_thresholds"] += len({b for _, b in est.snapshots})
            return None

        def predict_many_hook(state, args, kwargs):
            if state is not None:
                est, xs = args[0], args[1]
                c["batch.snapshot_evals"] += len(est.snapshots) * len(xs)
            return None

        self.wrap_function(sq.batch, "fit_random_design", "batch", fit_hook)
        self.wrap_method(sq.batch.BatchEstimator, "predict_many", "batch", predict_many_hook)
        self.wrap_function(sq.batch, "risk", "batch")

        self.wrap_function(sq.datagen, "gen_individual_sequence", "datagen", calls("datagen.gen_calls"))
        self.wrap_function(sq.datagen, "gen_stochastic", "datagen", calls("datagen.gen_calls"))

        for cmd in ("gen", "run", "verify", "batch", "plot"):
            self.wrap_function(sq.cli, f"cmd_{cmd}", "cli")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per-layer self time: each span's duration minus the part its
        direct children cover."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        out = {layer: 0.0 for layer in LAYERS}
        for span_id, _, layer, _, start, end, _ in self.spans:
            out[layer] += (end - start) - child_time[span_id]
        return out

    def span_seconds(self, name: str, since: int = 0) -> float:
        """Inclusive time of the outermost spans called ``name`` (from span
        index ``since`` on)."""
        return sum(
            end - start for _, _, _, n, start, end, outer in self.spans[since:] if n == name and outer
        )

    def covered_seconds(self, ancestor: str, names: set[str], since: int = 0) -> float:
        """Self time of spans named in ``names`` that run inside a span
        called ``ancestor`` (from span index ``since`` on)."""
        by_id = {s[0]: s for s in self.spans}
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end, _ in self.spans:
            if parent:
                child_time[parent] += end - start
        total = 0.0
        for span_id, parent, _, name, start, end, _ in self.spans[since:]:
            if name not in names:
                continue
            p = parent
            while p and by_id[p][3] != ancestor:
                p = by_id[p][1]
            if p:
                total += (end - start) - child_time[span_id]
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            for span_id, parent, layer, name, start, end, _ in self.spans:
                fh.write(json.dumps([span_id, parent, layer, name, start, end]) + "\n")


def _same_array(a, b) -> bool:
    return a is b or (a.shape == b.shape and bool((a == b).all()))
