"""Spans and memory probes around the public functions of ``idealdensity``.

Everything here works from outside the package: a probe replaces a public
function by a wrapper in every ``idealdensity`` module that bound it (for
example ``zeta.count_ideals`` and ``cli.density_profile``), so nested calls
record their parent span, and ``uninstall`` puts the originals back.

Wrappers do O(1) work per call: they keep references to arguments and
results, and every count is derived from those in ``Tracer.summary`` after
the job has finished.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import tracemalloc
from fractions import Fraction

#: (module, qualified attribute, span name) of every traced public call.
#: ``harmonic_ideal_sum`` is on no workload's path and stays unmeasured.
TARGETS = (
    ("fields", "primes_up_to_norm", "fields.primes_up_to_norm"),
    ("ideals", "count_ideals", "ideals.count_ideals"),
    ("families", "ExplicitFamily.members_up_to", "families.members_up_to"),
    ("families", "PrimePowerFamily.members_up_to", "families.members_up_to"),
    ("families", "NormIntervalFamily.members_up_to", "families.members_up_to"),
    ("families", "minimal_members", "families.minimal_members"),
    ("density", "finite_ie_density", "density.finite_ie_density"),
    ("density", "a_limit", "density.a_limit"),
    ("density", "multiplicative_density", "density.multiplicative_density"),
    ("density", "sieve_multiples_density", "density.sieve_multiples_density"),
    ("density", "density_profile", "density.density_profile"),
    ("zeta", "partial_euler_product", "zeta.partial_euler_product"),
    ("zeta", "dedekind_zeta", "zeta.dedekind_zeta"),
    ("experiments", "primepower_free_experiment",
     "experiments.primepower_free_experiment"),
    ("cli", "main", "cli.main"),
)

#: Functions whose peak traced allocation the memory pass reports.
MEMORY_TARGETS = (
    ("fields", "primes_up_to_norm", "fields.primes_up_to_norm"),
    ("ideals", "count_ideals", "ideals.count_ideals"),
    ("density", "density_profile", "density.density_profile"),
)

CACHED = ("fields.primes_up_to_norm", "ideals.count_ideals")
SPLIT_COLD_WARM = ("density.density_profile", "density.sieve_multiples_density")
PACKAGE = "idealdensity"


def _resolve(module_name: str, qualname: str):
    """(owner, attribute, function) for a target, or None if it is absent."""
    owner = sys.modules.get(f"{PACKAGE}.{module_name}")
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    fn = getattr(owner, parts[-1], None)
    return None if fn is None else (owner, parts[-1], fn)


class _Patcher:
    """Rebinds functions in every package module and restores them."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, original, wrapper) -> None:
        if isinstance(owner, type):
            # An inherited method is patched on the class that defines it.
            bindings = [(owner, attr)] if attr in vars(owner) else []
        else:
            bindings = [(mod, name)
                        for mod_name, mod in list(sys.modules.items())
                        if mod_name == PACKAGE
                        or mod_name.startswith(PACKAGE + ".")
                        for name, value in list(vars(mod).items())
                        if value is original]
        for target, name in bindings:
            self._saved.append((target, name, original))
            setattr(target, name, wrapper)

    def restore(self) -> None:
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)


class Span:
    __slots__ = ("name", "parent", "children", "start", "end", "child_time",
                 "args", "kwargs", "result", "miss", "cold", "table_built")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.children = []
        self.child_time = 0.0
        self.result = None
        self.miss = False
        self.cold = False
        self.table_built = False

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def child(self, name):
        return next((c for c in self.children if c.name == name), None)


def _misses(fn) -> int | None:
    info = getattr(fn, "cache_info", None)
    return None if info is None else info().misses


class Tracer:
    """In-memory span recorder; ``install`` wraps ``TARGETS``."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.originals: dict[str, object] = {}
        self._seen: dict[str, set] = {name: set() for name in SPLIT_COLD_WARM}
        self._patcher = _Patcher()
        self._table_fn = None

    # -- recording --------------------------------------------------------
    def wrap(self, name: str, fn):
        tracer = self
        cached = name in CACHED
        split = name in SPLIT_COLD_WARM

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            span = Span(name, parent)
            span.args, span.kwargs = args, kwargs
            if cached:
                before = _misses(fn)
            if split:
                table_before = _misses(tracer._table_fn)
                key = _field_and_bound(fn, args, kwargs)
                span.cold = key not in tracer._seen[name]
                tracer._seen[name].add(key)
            tracer.stack.append(span)
            span.start = tracer.clock()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                span.end = tracer.clock()
                tracer.stack.pop()
                if parent is not None:
                    parent.child_time += span.end - span.start
                    parent.children.append(span)
                if cached:
                    span.miss = before is None or _misses(fn) != before
                if split and table_before is not None:
                    span.table_built = _misses(tracer._table_fn) != table_before
                tracer.spans.append(span)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> "Tracer":
        density = sys.modules.get(f"{PACKAGE}.density")
        self._table_fn = getattr(density, "_ideal_table", None)
        for module_name, qualname, name in TARGETS:
            found = _resolve(module_name, qualname)
            if found is None:
                continue
            owner, attr, fn = found
            self.originals.setdefault(name, fn)
            self._patcher.replace(owner, attr, fn, self.wrap(name, fn))
        return self

    def uninstall(self) -> None:
        self._patcher.restore()

    def cache_info(self) -> dict:
        """``cache_info()`` of the cached layers, as plain dicts."""
        out = {}
        for name in CACHED:
            info = getattr(self.originals.get(name), "cache_info", None)
            out[name] = info()._asdict() if info is not None else None
        return out

    # -- summarising ------------------------------------------------------
    def totals(self, counter_H=None) -> dict:
        """Additive per-layer times and counts of the recorded spans.

        Totals of several jobs add up key by key; ``layer_metrics`` turns
        them into the reported metrics.  ``counter_H(K, X)`` returns a
        callable x -> H(x) for a quadratic field K; only the marking counts
        need it.
        """
        out: dict[str, float] = {
            "trace.self_sum_s": 0.0, "trace.root_s": 0.0,
            "fields.prime_ideals_built": 0, "ideals.sieve_updates": 0,
            "families.minimal_members.kept": 0,
            "families.minimal_members.given": 0,
            "density.ie_terms": 0, "density.table_ideals": 0,
            "density.marks_attempted": 0, "density.distinct_multiples": 0}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        H_cache: dict = {}

        def H_func(K, X):
            if K.is_rational:
                return lambda x: x
            if (K, X) not in H_cache:
                H_cache[(K, X)] = counter_H(K, X)
            return H_cache[(K, X)]

        for span in self.spans:
            add(f"{span.name}.self_s", span.self_time)
            add(f"{span.name}.calls", 1)
            add("trace.self_sum_s", span.self_time)
            if span.parent is None:
                add("trace.root_s", span.duration)
            if span.name in SPLIT_COLD_WARM:
                add(f"{span.name}.{'cold_s' if span.cold else 'warm_s'}",
                    span.self_time)
            if span.name == "fields.primes_up_to_norm" and span.miss:
                add("fields.prime_ideals_built", len(span.result or ()))
            elif span.name == "ideals.count_ideals" and span.miss:
                X = _arguments(self.originals[span.name], span.args,
                               span.kwargs)["X"]
                primes = span.child("fields.primes_up_to_norm")
                if primes is not None and primes.result is not None:
                    add("ideals.sieve_updates",
                        sum(X // pr.norm for pr in primes.result))
            elif span.name == "families.minimal_members":
                add("families.minimal_members.given", len(span.args[0]))
                add("families.minimal_members.kept", len(span.result or ()))
            elif span.name == "density.finite_ie_density":
                minimal = span.child("families.minimal_members")
                if span.result is not None and minimal is not None:
                    add("density.ie_terms", ie_terms(minimal.result))
            elif span.name in SPLIT_COLD_WARM and span.result is not None:
                minimal = span.child("families.minimal_members")
                K, X = _field_and_bound(self.originals[span.name],
                                        span.args, span.kwargs)
                if minimal is None or K is None:
                    continue
                H = H_func(K, X)
                add("density.marks_attempted", sum(
                    H(X // a.norm) for a in minimal.result if a.norm <= X))
                if span.name == "density.density_profile":
                    add("density.distinct_multiples",
                        span.result.member_counts[-1])
                else:
                    add("density.distinct_multiples",
                        int(Fraction(span.result) * H(X)))
                if span.table_built and not K.is_rational:
                    add("density.table_ideals", H(X))
        return out


#: Per-layer metrics a traced run reports, with their units.
LAYER_METRICS = {
    "fields.primes_up_to_norm.self_s": "s",
    "fields.primes_up_to_norm.calls": "count",
    "fields.primes_up_to_norm.hit_ratio": "ratio",
    "fields.prime_ideals_built": "count",
    "ideals.count_ideals.self_s": "s",
    "ideals.count_ideals.calls": "count",
    "ideals.count_ideals.hit_ratio": "ratio",
    "ideals.sieve_updates": "count",
    "families.members_up_to.self_s": "s",
    "families.members_up_to.calls": "count",
    "families.minimal_members.self_s": "s",
    "families.minimal_members.kept_ratio": "ratio",
    "density.finite_ie_density.self_s": "s",
    "density.finite_ie_density.calls": "count",
    "density.ie_terms": "count",
    "density.a_limit.self_s": "s",
    "density.multiplicative_density.self_s": "s",
    "density.density_profile.cold_s": "s",
    "density.density_profile.warm_s": "s",
    "density.table_ideals": "count",
    "density.sieve_multiples_density.cold_s": "s",
    "density.sieve_multiples_density.warm_s": "s",
    "density.marks_attempted": "count",
    "density.mark_useful_ratio": "ratio",
    "zeta.partial_euler_product.self_s": "s",
    "zeta.partial_euler_product.calls": "count",
    "zeta.dedekind_zeta.self_s": "s",
    "experiments.primepower_free_experiment.self_s": "s",
    "cli.main.self_s": "s",
}


def layer_metrics(totals: dict, cache_infos: list[dict]) -> dict:
    """The ``LAYER_METRICS`` of one traced workload pass.

    ``totals`` are ``Tracer.totals`` summed over the pass's jobs and
    ``cache_infos`` the per-job ``Tracer.cache_info`` records.  Metrics of
    layers the pass never called read 0.
    """
    out = {name: float(totals.get(name, 0)) for name in LAYER_METRICS}
    for name in CACHED:
        infos = [ci[name] for ci in cache_infos if ci.get(name)]
        hits = sum(i["hits"] for i in infos)
        calls = hits + sum(i["misses"] for i in infos)
        out[f"{name}.hit_ratio"] = hits / calls if calls else 0.0
    given = totals.get("families.minimal_members.given", 0)
    out["families.minimal_members.kept_ratio"] = (
        totals.get("families.minimal_members.kept", 0) / given if given else 0.0)
    marks = totals.get("density.marks_attempted", 0)
    out["density.mark_useful_ratio"] = (
        totals.get("density.distinct_multiples", 0) / marks if marks else 0.0)
    return out


def ie_terms(members) -> int:
    """Sum of 2^|block| - 1 over blocks of members sharing prime support."""
    if not members or any(not m.factors for m in members):
        return 0
    blocks: list[tuple[set, int]] = []
    for m in members:
        support = {pr for pr, _ in m.factors}
        size = 1
        for block in [b for b in blocks if b[0] & support]:
            blocks.remove(block)
            support |= block[0]
            size += block[1]
        blocks.append((support, size))
    return sum(2 ** size - 1 for _, size in blocks)


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _field_and_bound(fn, args, kwargs):
    """(field, X) of a sieve_multiples_density or density_profile call."""
    a = _arguments(fn, args, kwargs)
    subject = a.get("A", a.get("subject"))
    K = getattr(subject, "field", None) or a.get("K")
    if K is None and isinstance(subject, (list, tuple)) and subject:
        K = subject[0].field
    return K, a["X"]


class MemoryProbe:
    """Peak traced allocation inside each of ``MEMORY_TARGETS``.

    Each call's peak is measured from the traced size at its entry and
    includes its nested calls.  Only for a pass that is not timed:
    tracemalloc slows allocation-heavy code several times over.
    """

    def __init__(self):
        self.peak_mb: dict[str, float] = {n: 0.0 for _, _, n in MEMORY_TARGETS}
        self._frames: list[list[int]] = []     # [entry size, peak seen]
        self._patcher = _Patcher()

    def wrap(self, name: str, fn):
        probe = self

        def wrapper(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            if probe._frames:
                probe._frames[-1][1] = max(probe._frames[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
            probe._frames.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                probe._frames.pop()
                top = max(frame[1], tracemalloc.get_traced_memory()[1])
                if probe._frames:
                    probe._frames[-1][1] = max(probe._frames[-1][1], top)
                probe.peak_mb[name] = max(probe.peak_mb[name],
                                          (top - frame[0]) / 2**20)

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> "MemoryProbe":
        for module_name, qualname, name in MEMORY_TARGETS:
            found = _resolve(module_name, qualname)
            if found is not None:
                owner, attr, fn = found
                self._patcher.replace(owner, attr, fn, self.wrap(name, fn))
        tracemalloc.start()
        return self

    def uninstall(self) -> None:
        tracemalloc.stop()
        self._patcher.restore()
