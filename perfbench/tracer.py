"""Outside-in layer tracer for barrec.

The tracer never edits ``src/``.  ``Tracer.install`` replaces the public
functions of each barrec layer with wrappers, in the defining module and
at every site that imported them by name, and ``Tracer.uninstall`` puts
the originals back.  Wrappers record one of two things:

* a span -- name, start, end, parent span and the benchmark cell id --
  at each layer boundary.  Spans are kept in memory for the current pass
  and written out by the runner when the run ends;
* a count only, for the hot methods (``InfSeq.__call__``,
  ``PartialFn.defined_at``, the ``sibling_cache`` probes and the
  context's fuel charges), where a span per call would swamp the run.

Three times are derived per span name:

* ``self_s``: span duration minus the time its child spans cover;
* ``s``: duration of the spans that have no ancestor of the same name,
  minus their direct ``choice.engine`` continuation children.  A selection
  function calls its continuation, which re-enters the engine, so without
  that cut ``choice.eps.s`` would be the whole recursion below it.  Below
  a continuation the same-name rule starts afresh;
* ``count``: number of spans.

``items_copied`` and ``items_scanned`` are computed element counts (result
lengths and scanned lengths), not measured bytes.
"""

from __future__ import annotations

import dataclasses
import sys
import time
from collections import defaultdict

MARK = "__perfbench_wrapper__"

ENGINE = "choice.engine"

# Carrier operations whose self time is summed into ``pfun.carrier.s``.
CARRIER_SPANS = ("pfun.seq_append", "pfun.seq_overlay", "pfun.pf_update",
                 "pfun.pf_merge", "pfun.extend_hat")

# Public functions wrapped as spans: (module, function) -> span name.
SPAN_FUNCTIONS = {
    ("pfun", "extend_hat"): "pfun.extend_hat",
    ("choice", "solve_spector"): "choice.solve",
    ("choice", "solve_symmetric"): "choice.solve",
    ("choice", "phi_spector"): ENGINE,
    ("choice", "psi_symmetric"): ENGINE,
    ("choice", "psi_via_sbr"): ENGINE,
    ("choice", "verify_equations"): "choice.verify_equations",
    ("choice", "thread_prefix"): "choice.thread_prefix",
    ("threads", "thread_decomposition"): "threads.decomposition",
    ("threads", "is_thread"): "threads.is_thread",
    ("threads", "theta_bound"): "threads.witness",
    ("threads", "sspec_witness"): "threads.witness",
    ("threads", "spec_witness"): "threads.witness",
    ("threads", "thread_of_partial"): "threads.thread_of_partial",
    ("threads", "thread_of_total"): "threads.thread_of_total",
    ("threads", "trace_thread"): "threads.trace_thread",
    ("recursors", "br"): "recursors.br",
    ("recursors", "sbr"): "recursors.sbr",
    ("recursors", "theta"): "recursors.theta",
    ("recursors", "sbr_discrete"): "recursors.sbr_discrete",
    ("interdef", "br_from_sbr"): "interdef.br_from_sbr",
    ("interdef", "sbr_from_br"): "interdef.sbr_from_br",
    ("interdef", "theta_from_br"): "interdef.theta_from_br",
    ("interdef", "carrier_stages"): "interdef.carrier_stages",
    ("noinjection", "counterexample"): "noinjection.counterexample",
    ("hdsl", "parse"): "hdsl.parse",
    ("hdsl", "to_text"): "hdsl.to_text",
    ("checks", "run_suites"): "checks.run_suites",
    ("cli", "main"): "cli.main",
    ("cli", "_format_rows"): "cli.format",
    ("cli", "_bench_text"): "cli.format",
}

# Every public generator in ``gen`` is one layer, ``gen``.
GEN_PREFIX = "gen_"

# Span methods on the carrier classes: (class, method) -> span name.
SPAN_METHODS = {
    ("FiniteSeq", "append"): "pfun.seq_append",
    ("FiniteSeq", "overlay"): "pfun.seq_overlay",
    ("PartialFn", "update"): "pfun.pf_update",
    ("PartialFn", "merge"): "pfun.pf_merge",
}

# Methods whose result length is summed into ``<span>.items_copied``.
COPYING = {"pfun.seq_append", "pfun.seq_overlay", "pfun.pf_update"}

# Deep sequential recursions run with extra wrapper frames per level.
TRACED_RECURSION_LIMIT = 200_000


def _mark(fn, original):
    setattr(fn, MARK, original)
    return fn


class CountingMemo(dict):
    """A context memo dict that counts lookups, hits and stored entries."""

    def __init__(self, counts):
        super().__init__()
        self._counts = counts

    def get(self, key, default=None):
        counts = self._counts
        counts["context.memo.lookups"] += 1
        if key in self:
            counts["context.memo.hits"] += 1
            return self[key]
        return default

    def __setitem__(self, key, value):
        if key not in self:
            self._counts["context.memo.entries"] += 1
        super().__setitem__(key, value)


class Tracer:
    """Spans and counters for one traced pass at a time."""

    def __init__(self):
        self.cell = None
        self.counts = defaultdict(int)
        self._patches = []
        self._limit = None
        self.reset()

    # -- recording ---------------------------------------------------------

    def reset(self):
        """Drop everything recorded so far; keep the installed wrappers,
        which hold on to ``self.counts``."""
        self.counts.clear()
        self.max_domain = 0
        self.spans = []
        self.agg = {}
        self.cell_self = defaultdict(float)
        self._stack = []
        self._segments = [defaultdict(int)]
        self._next_id = 0

    def enter(self, name, cont=False):
        segment = self._segments[-1]
        outer = segment[name] == 0
        if cont:
            segment = defaultdict(int)
            self._segments.append(segment)
        segment[name] += 1
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append([sid, name, time.perf_counter(), 0.0, 0.0, outer,
                            cont])

    def exit(self):
        end = time.perf_counter()
        sid, name, start, child, conts, outer, cont = self._stack.pop()
        if cont:
            self._segments.pop()
        else:
            self._segments[-1][name] -= 1
        dur = end - start
        parent = None
        if self._stack:
            frame = self._stack[-1]
            parent = frame[0]
            frame[3] += dur
            if cont:
                frame[4] += dur
        agg = self.agg.get(name)
        if agg is None:
            agg = self.agg[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[2] += dur - child
        if outer:
            agg[1] += dur - conts
        self.cell_self[(self.cell, name)] += dur - child
        self.spans.append((sid, name, start, end, parent, self.cell))

    # -- wrappers ----------------------------------------------------------

    def span(self, name, fn):
        """Any-arity span wrapper, for calls that are not on the recursion
        spine."""
        enter, exit_ = self.enter, self.exit

        def wrapper(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return _mark(wrapper, fn)

    def span1(self, name, fn, cont=False):
        """One-argument span wrapper.  The sequential engine recurses
        through selections and continuations; a fixed-arity wrapper keeps
        those calls Python-to-Python, so they use no C stack."""
        enter, exit_ = self.enter, self.exit

        def wrapper(x):
            enter(name, cont)
            try:
                return fn(x)
            finally:
                exit_()

        return _mark(wrapper, fn)

    def copying_method(self, name, fn):
        enter, exit_, counts = self.enter, self.exit, self.counts
        key = name + ".items_copied"

        def wrapper(*args):
            enter(name)
            try:
                result = fn(*args)
            finally:
                exit_()
            counts[key] += len(result)
            return result

        return _mark(wrapper, fn)

    def wrap_h(self, h):
        return self.span1("noinjection.h", h)

    def wrap_choice_params(self, cp):
        """Instrument a choice instance: its control and its selections,
        with each selection's continuation marked as an engine
        re-entry."""
        span1 = self.span1

        def eps(n):
            select = cp.eps(n)

            def traced_select(p):
                return select(span1(ENGINE, p, cont=True))

            return span1("choice.eps", traced_select)

        return dataclasses.replace(
            cp, control=span1("choice.control", cp.control),
            eps=_mark(eps, cp.eps))

    # -- install / uninstall -----------------------------------------------

    def _patch(self, owner, attr, new):
        old = owner[attr] if isinstance(owner, dict) else getattr(owner,
                                                                  attr)
        self._patches.append((owner, attr, old))
        if isinstance(owner, dict):
            owner[attr] = new
        else:
            setattr(owner, attr, new)

    def _patch_everywhere(self, modules, original, new):
        """Replace ``original`` in every barrec module namespace that
        holds it, which covers both the definition and each
        ``from .x import name`` site."""
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self, modules):
        """Install every wrapper.  ``modules`` maps short names
        (``"pfun"``, ``"cli"``, ...) to the imported barrec modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        pfun = modules["pfun"]
        for (modname, fname), name in SPAN_FUNCTIONS.items():
            fn = getattr(modules[modname], fname)
            self._patch_everywhere(modules, fn, self.span(name, fn))
        gen = modules["gen"]
        for fname, fn in list(vars(gen).items()):
            if fname.startswith(GEN_PREFIX) and callable(fn) \
                    and getattr(fn, "__module__", "") == gen.__name__:
                inner = (self._traced_gen_choice(fn)
                         if fname == "gen_choice_instance" else fn)
                self._patch_everywhere(modules, fn, self.span("gen", inner))
        suites = modules["checks"].ALL_SUITES
        for suite, fn in list(suites.items()):
            traced = self.span("checks." + suite, fn)
            self._patch(suites, suite, traced)
            self._patch_everywhere(modules, fn, traced)

        for (cls_name, meth), name in SPAN_METHODS.items():
            cls = getattr(pfun, cls_name)
            fn = vars(cls)[meth]
            wrap = self.copying_method if name in COPYING else self.span
            self._patch(cls, meth, wrap(name, fn))

        self._install_counters(modules, self.counts)
        self._install_factories(modules)

        self._limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(self._limit, TRACED_RECURSION_LIMIT))

    def _install_counters(self, modules, counts):
        pfun, context = modules["pfun"], modules["context"]
        interdef = modules["interdef"]

        infseq_call = pfun.InfSeq.__call__

        def counted_call(self_, i):
            counts["pfun.ext_reads.count"] += 1
            return infseq_call(self_, i)

        self._patch(pfun.InfSeq, "__call__", _mark(counted_call,
                                                   infseq_call))

        defined_at = pfun.PartialFn.defined_at

        def counted_defined_at(self_, n):
            counts["pfun.defined_at.count"] += 1
            counts["pfun.defined_at.items_scanned"] += len(self_.entries)
            return defined_at(self_, n)

        self._patch(pfun.PartialFn, "defined_at",
                    _mark(counted_defined_at, defined_at))

        diag_finite = interdef.diag_finite

        def counted_diag_finite(s):
            counts["interdef.diag_finite.count"] += 1
            return diag_finite(s)

        self._patch_everywhere(modules, diag_finite,
                               _mark(counted_diag_finite, diag_finite))

        ctx_cls = context.EvalContext
        charge, tick, init = ctx_cls.charge, ctx_cls.tick, ctx_cls.__init__
        tracer = self

        def counted_charge(self_, size):
            charge(self_, size)
            counts["context.calls"] += 1
            if size > tracer.max_domain:
                tracer.max_domain = size

        def counted_tick(self_):
            tick(self_)
            counts["context.ticks"] += 1

        def counting_init(self_, *args, **kwargs):
            init(self_, *args, **kwargs)
            if self_.memo is not None:
                self_.memo = CountingMemo(counts)

        self._patch(ctx_cls, "charge", _mark(counted_charge, charge))
        self._patch(ctx_cls, "tick", _mark(counted_tick, tick))
        self._patch(ctx_cls, "__init__", _mark(counting_init, init))

        sibling_cache = context.sibling_cache

        def counting_sibling_cache(f):
            def miss(x):
                counts["context.sibling.misses"] += 1
                return f(x)

            cached = sibling_cache(miss)

            def probe(x):
                counts["context.sibling.probes"] += 1
                return cached(x)

            return probe

        self._patch_everywhere(modules, sibling_cache,
                               _mark(counting_sibling_cache, sibling_cache))

    def _install_factories(self, modules):
        """Instrument the producers of ``H`` functionals and choice
        instances, so that every control, selection and ``H`` the solvers
        see is wrapped."""
        noinjection, hdsl = modules["noinjection"], modules["hdsl"]

        make_cp = noinjection.make_choice_params

        def traced_make_cp(h):
            return self.wrap_choice_params(make_cp(self.wrap_h(h)))

        self._patch_everywhere(modules, make_cp,
                               _mark(traced_make_cp, make_cp))

        verify = noinjection.verify_counterexample

        def verify_with_traced_h(h, c):
            return verify(self.wrap_h(h), c)

        self._patch_everywhere(
            modules, verify,
            self.span("noinjection.verify",
                      _mark(verify_with_traced_h, verify)))

        as_functional = hdsl.as_functional

        def traced_as_functional(e):
            return self.span1("hdsl.eval", as_functional(e))

        self._patch_everywhere(modules, as_functional,
                               _mark(traced_as_functional, as_functional))

    def _traced_gen_choice(self, gen_choice):
        def traced_gen_choice(rng):
            return self.wrap_choice_params(gen_choice(rng))

        return _mark(traced_gen_choice, gen_choice)

    def uninstall(self):
        """Restore every original, newest patch first."""
        for owner, attr, old in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches = []
        if self._limit is not None:
            sys.setrecursionlimit(self._limit)
            self._limit = None

    # -- results -----------------------------------------------------------

    def layers(self):
        """Every count and time of the pass, keyed by metric name."""
        out = {}
        for name, (count, layer_s, self_s) in sorted(self.agg.items()):
            out[name + ".count"] = count
            out[name + ".s"] = layer_s
            out[name + ".self_s"] = self_s
        counts = dict(self.counts)
        misses = counts.pop("context.sibling.misses", 0)
        counts["context.sibling.hits"] = (
            counts.get("context.sibling.probes", 0) - misses)
        counts["context.max_domain"] = self.max_domain
        out.update(counts)
        out["pfun.carrier.s"] = sum(self.agg[n][2] for n in CARRIER_SPANS
                                    if n in self.agg)
        return out

    def cell_split(self):
        """Self time per cell and span name."""
        split = defaultdict(dict)
        for (cell, name), secs in self.cell_self.items():
            split[cell][name] = secs
        return dict(split)


def installed_wrappers(modules):
    """Names of tracer wrappers still reachable from barrec: module
    attributes, class attributes and the suite table."""
    found = []
    for modname, mod in modules.items():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK) and not isinstance(value, type):
                found.append("%s.%s" % (modname, attr))
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for meth, fn in vars(value).items():
                    if hasattr(fn, MARK):
                        found.append("%s.%s.%s" % (modname, attr, meth))
    for suite, fn in modules["checks"].ALL_SUITES.items():
        if hasattr(fn, MARK):
            found.append("checks.ALL_SUITES[%s]" % suite)
    return found
