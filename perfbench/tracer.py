"""Spans and counts at the boundaries of the `hsl` modules, installed from
outside the package for the benchmark's traced run.

Each boundary is wrapped by name in the module that defines it and in
every loaded `hsl` module that imported the same object by name, so that
`from .species import reassemble` in `hsl.antipode` is traced too.  A
boundary that no longer exists is reported as missing; it never stops the
run.  Untraced passes install no wrappers.

A span records its name, start, end, parent span and op id.  Spans stay in
memory and are written out once, at the end of the process.  Self time is
a span's duration minus the time its traced child spans cover; it is
accumulated while the run goes, with a stack.  Count-only boundaries
(the hottest, cheapest calls) add no span, so their time stays with the
span that called them.  A call made while the same boundary is already
active (recursion, or a view delegating to its base view) is passed
through uncounted.
"""

from __future__ import annotations

import array
import gzip
import importlib
import json
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Boundary:
    """One traced layer boundary.

    `targets` name module attributes: "f" for a function, "Cls.m" for a
    method defined on that class, "*.m" for the method on every class of
    the module that defines it.  `report` maps the suffix of each reported
    metric to the statistic it reads: "calls", "elements" (summed size of
    the results), "self_s", or "inner:<boundary>.<stat>" for work another
    boundary does while this one is active.
    """

    name: str
    module: str
    targets: tuple
    report: dict
    span: bool = True
    size: str = "len"  # how "elements" measures a result: "len" or "terms"


BOUNDARIES = (
    Boundary("species.reassemble", "hsl.species", ("reassemble",),
             {"calls": "calls", "self_s": "self_s"}),
    Boundary("species.compositions", "hsl.species", ("compositions",),
             {"elements": "elements"}, span=False),
    Boundary("species.verify_axioms", "hsl.species", ("verify_axioms",),
             {"self_s": "self_s"}),
    Boundary("species.mult", "hsl.species", ("Family.mult",),
             {"calls": "calls"}, span=False),
    Boundary("species.comult", "hsl.species", ("Family.comult",),
             {"calls": "calls"}, span=False),
    Boundary("antipode.takeuchi", "hsl.antipode", ("takeuchi_antipode",),
             {"self_s": "self_s",
              "terms_summed": "inner:species.reassemble.calls",
              "terms_surviving": "elements"}, size="terms"),
    Boundary("antipode.closed_form", "hsl.antipode", ("closed_form_antipode",),
             {"self_s": "self_s"}),
    Boundary("antipode.self_adjoint_gate", "hsl.antipode", ("require_self_adjoint",),
             {"self_s": "self_s"}),
    Boundary("antipode.reassembly_upset", "hsl.antipode", ("reassembly_upset",),
             {"calls": "calls"}),
    Boundary("antipode.grading", "hsl.antipode", ("grading",),
             {"calls": "calls"}),
    Boundary("antipode.factorize", "hsl.antipode", ("factorize",),
             {"calls": "calls"}),
    Boundary("antipode.primitives_basis", "hsl.antipode", ("primitives_basis",),
             {"self_s": "self_s"}),
    Boundary("posets.upset", "hsl.posets", ("*.upset",),
             {"calls": "calls", "elements": "elements", "self_s": "self_s"}),
    Boundary("posets.interval", "hsl.posets", ("interval",),
             {"calls": "calls", "elements": "elements", "self_s": "self_s"}),
    Boundary("posets.mobius", "hsl.posets", ("mobius",),
             {"calls": "calls", "self_s": "self_s"}),
    Boundary("posets.leq", "hsl.posets", ("*.leq",),
             {"calls": "calls"}, span=False),
    Boundary("posets.check_galois", "hsl.posets", ("check_galois",),
             {"self_s": "self_s"}),
    Boundary("posets.graded_char_eval", "hsl.posets", ("graded_char_eval",),
             {"self_s": "self_s"}),
    Boundary("families.enumerate", "hsl.species", ("Family.enumerate",),
             {"calls": "calls", "elements": "elements", "self_s": "self_s"}),
    Boundary("families.encode", "hsl.families", ("*.encode",),
             {"calls": "calls", "self_s": "self_s"}),
    Boundary("families.parse", "hsl.families", ("parse_structure",),
             {"calls": "calls"}),
    Boundary("families.graph_flats", "hsl.families", ("graph_flats",),
             {"swept": "inner:families.enumerate.elements", "flats": "elements"}),
    Boundary("families.closed_form", "hsl.families",
             ("closed_form_antipode_graphs", "closed_form_antipode_partitions",
              "closed_form_antipode_sc"),
             {"self_s": "self_s"}),
    Boundary("families.acyclic", "hsl.families", ("acyclic_orientation_count",),
             {"self_s": "self_s"}),
    Boundary("vectors.freevector", "hsl.vectors", ("FreeVector.__init__",),
             {"inits": "calls", "self_s": "self_s"}),
    Boundary("vectors.inverted_basis", "hsl.vectors", ("inverted_basis",),
             {"calls": "calls", "self_s": "self_s"}),
    Boundary("vectors.duality", "hsl.vectors", ("duality_pairing_check",),
             {"self_s": "self_s"}),
    Boundary("fock.power_sum", "hsl.fock", ("power_sum_identity_check",),
             {"self_s": "self_s"}),
    Boundary("fock.char_poly", "hsl.fock", ("partition_char_poly_check",),
             {"self_s": "self_s"}),
    Boundary("symfunc.to_monomial", "hsl.symfunc", ("SymFunc.to_monomial",),
             {"calls": "calls", "self_s": "self_s"}),
    Boundary("cli.main", "hsl.cli", ("main",),
             {"self_s": "self_s"}),
)


def metric_names() -> list:
    """Every per-layer metric the tracer reports, with its unit."""
    out = []
    for b in BOUNDARIES:
        for suffix, stat in b.report.items():
            unit = "s" if stat.endswith("self_s") else "count"
            out.append((f"{b.name}.{suffix}", unit))
    return out


def _inner_links() -> dict:
    """inner boundary -> [(outer boundary, stat)] for the "inner:" reports."""
    links: dict = {}
    for b in BOUNDARIES:
        for stat in b.report.values():
            if stat.startswith("inner:"):
                inner, _, what = stat[len("inner:"):].rpartition(".")
                links.setdefault(inner, []).append((b.name, what))
    return links


def _size(result, how: str) -> int:
    if how == "terms":
        return len(result.terms)
    return len(result)


@dataclass
class Tracer:
    """Holds the spans and statistics of one traced process."""

    enabled: bool = False
    op_id: int = -1
    names: list = field(default_factory=list)
    name_ids: dict = field(default_factory=dict)
    span_name: array.array = field(default_factory=lambda: array.array("i"))
    span_start: array.array = field(default_factory=lambda: array.array("d"))
    span_end: array.array = field(default_factory=lambda: array.array("d"))
    span_parent: array.array = field(default_factory=lambda: array.array("i"))
    span_op: array.array = field(default_factory=lambda: array.array("i"))
    stats: dict = field(default_factory=dict)
    depth: dict = field(default_factory=dict)
    stack: list = field(default_factory=list)  # [span index, child seconds]
    missing: list = field(default_factory=list)

    def _name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stats(self, name: str) -> dict:
        return self.stats.setdefault(name, {"calls": 0, "elements": 0, "self_s": 0.0})

    def _open(self, name: str) -> None:
        idx = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self.stack[-1][0] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self.stack.append([idx, 0.0])
        self.span_start.append(time.perf_counter())

    def _close(self, name: str) -> None:
        end = time.perf_counter()
        idx, child = self.stack.pop()
        self.span_end[idx] = end
        duration = end - self.span_start[idx]
        if self.stack:
            self.stack[-1][1] += duration
        if name:
            self.stats[name]["self_s"] += duration - child

    # -- ops ---------------------------------------------------------------

    def begin_op(self, op_id: int, name: str) -> None:
        """Open the root span of one benchmark operation and start recording."""
        self.op_id = op_id
        self.enabled = True
        self._open("op." + name)

    def end_op(self) -> None:
        self._close("")
        self.enabled = False

    # -- installation ------------------------------------------------------

    def wrap(self, boundary: Boundary, fn):
        name = boundary.name
        stats = self._stats(name)
        self.depth.setdefault(name, 0)
        links = _INNER.get(name, ())
        for outer, _ in links:
            self._stats(outer)
            self.depth.setdefault(outer, 0)
        wants_size = "elements" in boundary.report.values() or any(
            what == "elements" for _, what in links)
        depth = self.depth
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled or depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            if boundary.span:
                tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if boundary.span:
                    tracer._close(name)
                depth[name] -= 1
            stats["calls"] += 1
            size = _size(result, boundary.size) if wants_size else 0
            stats["elements"] += size
            for outer, what in links:
                if depth[outer]:
                    inner = tracer.stats[outer]
                    key = "inner:" + name + "." + what
                    inner[key] = inner.get(key, 0) + (1 if what == "calls" else size)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self) -> list:
        """Wrap every boundary that exists; return the names of the missing."""
        modules = {}
        for b in BOUNDARIES:
            try:
                modules[b.module] = importlib.import_module(b.module)
            except ImportError:
                pass
        hsl_modules = [m for n, m in sorted(sys.modules.items())
                       if (n == "hsl" or n.startswith("hsl.")) and m is not None]
        for b in BOUNDARIES:
            module = modules.get(b.module)
            if module is None:
                self.missing.append(f"{b.name} ({b.module})")
                continue
            for target in b.targets:
                places = list(_resolve(module, target))
                if not places:
                    self.missing.append(f"{b.name} ({b.module}:{target})")
                for owner, attr, fn in places:
                    wrapper = self.wrap(b, fn)
                    setattr(owner, attr, wrapper)
                    if owner is not module:
                        continue
                    for other in hsl_modules:
                        for alias, value in list(vars(other).items()):
                            if value is fn:
                                setattr(other, alias, wrapper)
        return self.missing

    # -- output ------------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per-layer metric name -> value, every boundary included."""
        out = {}
        for b in BOUNDARIES:
            st = self.stats.get(b.name, {})
            for suffix, stat in b.report.items():
                default = 0.0 if stat.endswith("self_s") else 0
                out[f"{b.name}.{suffix}"] = st.get(stat, default)
        return out

    def spans(self) -> int:
        return len(self.span_start)

    def dump(self, path) -> None:
        """Write every span, column by column, as gzip-compressed JSON."""
        data = {
            "fields": ["name", "start", "end", "parent", "op"],
            "names": self.names,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
            "missing": self.missing,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(data, fh)


_INNER = _inner_links()


def _resolve(module, target: str):
    """(owner, attribute, function) for each place `target` names."""
    if "." not in target:
        fn = vars(module).get(target)
        if callable(fn):
            yield module, target, fn
        return
    cls_name, _, attr = target.partition(".")
    if cls_name == "*":
        classes = [c for c in vars(module).values()
                   if isinstance(c, type) and c.__module__ == module.__name__]
    else:
        cls = vars(module).get(cls_name)
        classes = [cls] if isinstance(cls, type) else []
    for cls in classes:
        fn = cls.__dict__.get(attr)
        if callable(fn):
            yield cls, attr, fn
