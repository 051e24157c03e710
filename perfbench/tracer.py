"""In-process tracer for the ioc_eiv package, installed from outside it.

``install`` wraps every public module-level function of every ``ioc_eiv``
module, plus the few private helpers named in ``EXTRA_PRIVATE``, and
rebinds the wrapper at every binding site: a name brought in with
``from .numerics import solve_qp`` is a separate module attribute, so
patching ``numerics.solve_qp`` alone would miss those calls.  Each call
passes through exactly one wrapper, the one bound where the caller looks
the name up.

Spans are aggregated in memory into a call tree keyed by the chain of
span names from the root, so that "calls of X under Y" can be asked
after the run.  Self time is a span's duration minus the time covered by
its child spans.  ``uninstall`` restores every original binding.
"""

from __future__ import annotations

import importlib
import pkgutil
from time import perf_counter

# private helpers worth a span: one ``_beta_step`` per MAP outer iteration
EXTRA_PRIVATE = ("map_estimator._beta_step",)


class Node:
    """Aggregate of every span with the same chain of names from the root."""

    __slots__ = ("name", "calls", "incl_s", "self_s", "errors", "extra", "children")

    def __init__(self, name):
        self.name = name
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.errors = {}
        self.extra = {}
        self.children = {}

    def walk(self, ancestors=()):
        """Yield ``(node, ancestor names)`` for every node below this one."""
        for child in self.children.values():
            yield child, ancestors
            yield from child.walk(ancestors + (child.name,))


class Tracer:
    """Call-tree aggregator; create one per traced phase."""

    def __init__(self):
        self.root = Node("<root>")
        # each frame is [node, time covered by finished child spans]
        self.stack = [[self.root, 0.0]]
        # (binding-site module, span name) -> calls made through that site
        self.site_calls = {}

    def wrap(self, name, site, fn, on_return=None):
        stack = self.stack
        site_calls = self.site_calls
        key = (site, name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent[0].children.get(name)
            if node is None:
                node = parent[0].children[name] = Node(name)
            frame = [node, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                err = type(e).__name__
                node.errors[err] = node.errors.get(err, 0) + 1
                raise
            finally:
                dur = perf_counter() - t0
                stack.pop()
                node.calls += 1
                node.incl_s += dur
                node.self_s += dur - frame[1]
                parent[1] += dur
                site_calls[key] = site_calls.get(key, 0) + 1
            if on_return is not None:
                on_return(node, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ queries

    def nodes(self, name, under=None):
        """Every node named ``name``, optionally only those below ``under``."""
        return [
            n for n, anc in self.root.walk()
            if n.name == name and (under is None or under in anc)
        ]

    def calls(self, name, under=None):
        return sum(n.calls for n in self.nodes(name, under))

    def self_s(self, name):
        return sum(n.self_s for n in self.nodes(name))

    def incl_s(self, name, under=None):
        return sum(n.incl_s for n in self.nodes(name, under))

    def errors(self, name, err):
        return sum(n.errors.get(err, 0) for n in self.nodes(name))

    def extra(self, name, key):
        return sum(n.extra.get(key, 0) for n in self.nodes(name))

    def profile(self):
        """Flat per-name totals, for the written report."""
        out = {}
        for n, _ in self.root.walk():
            row = out.setdefault(n.name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += n.calls
            row["incl_s"] += n.incl_s
            row["self_s"] += n.self_s
        return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))


def _bump(node, key, by=1):
    node.extra[key] = node.extra.get(key, 0) + by


def _qp_iters(node, sol):
    _bump(node, "iters", int(sol.n_iter))


def _tls_inner_path(node, out):
    # out = (U, theta, lam, cost, path, step_trace); any path other than
    # 'exact' means the exact phase raised Infeasible and the penalty ran
    if out[4] != "exact":
        _bump(node, "penalty")


def _tls_corner(node, res):
    theta = res.theta
    if float(theta.min()) <= 1e-9 * float(abs(theta).sum()):
        _bump(node, "corner")


ON_RETURN = {
    "numerics.solve_qp": _qp_iters,
    "tls_estimator.tls_inner": _tls_inner_path,
    "tls_estimator.estimate": _tls_corner,
}


def package_modules(package="ioc_eiv"):
    pkg = importlib.import_module(package)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{package}.{info.name}"))
    return mods


def _short(mod):
    return mod.__name__.rpartition(".")[2]


def install(tracer, modules):
    """Wrap every traced function at every binding site.

    Returns ``(patches, bound)``: the list of ``(module, attr, original)``
    needed to undo the install, and the set of ``"module.attr"`` binding
    sites that now hold a wrapper.
    """
    canonical = {}  # id(function) -> span name
    for mod in modules:
        short = _short(mod)
        for attr, obj in vars(mod).items():
            if (
                callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == mod.__name__
                and (not attr.startswith("_") or f"{short}.{attr}" in EXTRA_PRIVATE)
            ):
                canonical[id(obj)] = f"{short}.{attr}"
    patches = []
    bound = set()
    for mod in modules:
        short = _short(mod)
        for attr, obj in list(vars(mod).items()):
            name = canonical.get(id(obj))
            if name is None:
                continue
            setattr(mod, attr, tracer.wrap(name, short, obj, ON_RETURN.get(name)))
            patches.append((mod, attr, obj))
            bound.add(f"{short}.{attr}")
    return patches, bound


def uninstall(patches):
    for mod, attr, obj in reversed(patches):
        setattr(mod, attr, obj)
