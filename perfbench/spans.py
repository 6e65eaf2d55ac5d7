"""Per-layer spans, recorded from outside the package.

``Tracer.install()`` replaces the public functions of each ``quandles``
module, the public methods of ``PermGroup`` and the constructors of the
table-backed classes with timing wrappers, everywhere the package binds
them, and ``uninstall()`` puts the originals back.  Nothing in ``src/`` knows
about it.

Spans are aggregated in memory by name as they close: call count, total time
and self time (duration minus the time covered by child spans).  Methods of
the small value types (``Permutation``, ``FiniteGroup.mul`` and the like) are
not wrapped, because they run millions of times per pass; their time is
charged to the span that called them, so the self times still add up to the
traced wall time.  Generator functions get one span per resumption.
"""

import functools
import importlib
import inspect
import time

LAYERS = ("perms", "groups", "quandle", "symmetry", "theorems", "cli")

# Classes whose constructor is a span, and classes whose public methods are.
_CONSTRUCTORS = {"perms": ("PermGroup",), "groups": ("FiniteGroup", "GroupMap"), "quandle": ("Quandle",)}
_METHODS = {"perms": ("PermGroup",)}

# The quandle constructors the `quandle.construct` metrics add up.
_CONSTRUCT = ("trivial_quandle", "conj_quandle", "takasaki", "alexander", "gen_alexander", "dihedral")


def _set(owner, attr, value):
    """Rebind a module or class attribute, or a registry entry."""
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class _Stat:
    __slots__ = ("calls", "total", "self", "items")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.items = 0


class Tracer:
    def __init__(self):
        self.stats = {}
        self._stack = [0.0]               # per open span: time covered by its children
        self._patches = []
        self._aut_tables = set()
        self.aut_repeats = 0
        self.spans = 0
        self._suites = []

    # -- spans ------------------------------------------------------------------

    def _stat(self, name):
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def _close(self, stat, t0):
        dur = time.perf_counter() - t0
        self.spans += 1
        stat.total += dur
        stat.self += dur - self._stack.pop()
        self._stack[-1] += dur

    def _wrap(self, name, fn, count=None):
        """A span around fn; count(stat, args, result) runs after it, untimed."""
        stat = self._stat(name)
        stack = self._stack
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(stat, fn)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stat.calls += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stat, t0)
            if count is not None:
                count(stat, args, result)
            return result

        return span

    def _wrap_generator(self, stat, fn):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stat.calls += 1
            gen = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._close(stat, t0)
                stat.items += 1
                yield item

        return span

    # -- installation -------------------------------------------------------------

    def install(self):
        import quandles

        modules = {layer: importlib.import_module(f"quandles.{layer}") for layer in LAYERS}
        theorems = modules["theorems"]
        suite_names = {fn: f"theorems.{tid}" for tid, (fn, _) in theorems.THEOREM_SUITES.items()}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrappers[obj] = self._wrap(suite_names.get(obj, f"{layer}.{attr}"), obj,
                                           self._counter(layer, attr))
            for cls_name in _CONSTRUCTORS.get(layer, ()):
                cls = getattr(mod, cls_name)
                self._patch(cls, "__init__", self._wrap(f"{layer}.{cls_name}", cls.__init__))
            for cls_name in _METHODS.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if not attr.startswith("_") and inspect.isfunction(obj):
                        self._patch(cls, attr, self._wrap(f"{layer}.{attr}", obj))
        # rebind every name the package holds for a wrapped function
        for mod in [quandles, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        registry = theorems.THEOREM_SUITES
        self._suites = list(registry)
        for tid, (fn, desc) in list(registry.items()):
            self._patch(registry, tid, (wrappers[fn], desc))

    def _counter(self, layer, attr):
        """What a span counts besides calls, in ``stat.items``."""
        if (layer, attr) == ("groups", "automorphism_group"):
            def count(stat, args, result):
                stat.items += len(result)                 # maps listed
                key = args[0].table.tobytes()
                self.aut_repeats += key in self._aut_tables
                self._aut_tables.add(key)

            return count
        if (layer, attr) == ("symmetry", "quandle_isomorphic"):
            def count(stat, args, result):
                stat.items += result is not None          # isomorphisms found

            return count
        if layer == "theorems" and attr.startswith("suite_"):
            def count(stat, args, report):
                stat.items += report.instances_tested

            return count
        return None

    def _patch(self, owner, attr, value):
        original = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        _set(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            _set(owner, attr, original)
        self._patches.clear()

    # -- metrics ------------------------------------------------------------------

    def metrics(self, wall, untraced_wall):
        """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
        s = self.stats

        def get(name):
            return s.get(name) or _Stat()

        def calls(name):
            return get(name).calls, "count"

        def self_s(name):
            return get(name).self, "s"

        def ratio(num, den):
            return (num / den if den else 0.0), "ratio"

        out = {}
        for name in ("perms.order", "perms.stabilizer", "perms.orbit", "perms.is_k_transitive",
                     "groups.automorphism_group", "groups.centralizer_in_aut", "groups.GroupMap",
                     "quandle.Quandle", "quandle.load_quandle", "quandle.validate_axioms",
                     "symmetry.automorphism_group_backtrack", "symmetry.quandle_isomorphic",
                     "symmetry.inner_group", "symmetry.is_connected", "cli.main"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
        aut = get("groups.automorphism_group")
        out["groups.automorphism_group.maps"] = aut.items, "count"
        out["groups.automorphism_group.repeat_ratio"] = ratio(self.aut_repeats, aut.calls)
        iso = get("symmetry.quandle_isomorphic")
        out["symmetry.quandle_isomorphic.found_ratio"] = ratio(iso.items, iso.calls)
        enum = get("quandle.enumerate_quandle_tables")
        out["quandle.enumerate_quandle_tables.tables"] = enum.items, "count"
        out["quandle.enumerate_quandle_tables.self_s"] = enum.self, "s"
        construct = [get(f"quandle.{fn}") for fn in _CONSTRUCT]
        out["quandle.construct.calls"] = sum(c.calls for c in construct), "count"
        out["quandle.construct.self_s"] = sum(c.self for c in construct), "s"
        for tid in self._suites:
            suite = get(f"theorems.{tid}")
            out[f"theorems.{tid}.s"] = suite.total, "s"
            out[f"theorems.{tid}.instances"] = suite.items, "count"
        layer_self = {layer: sum(st.self for name, st in s.items() if name.startswith(layer + "."))
                      for layer in LAYERS}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer], "s"
        out["bench.self_s"] = wall - self._stack[0], "s"     # outside every top-level span
        out["trace.wall_s"] = wall, "s"
        out["trace.untraced_wall_s"] = untraced_wall, "s"
        out["trace.overhead_s"] = wall - untraced_wall, "s"
        out["trace.overhead_frac"] = ratio(wall - untraced_wall, untraced_wall)
        out["trace.layer_share"] = ratio(sum(layer_self.values()), wall)
        out["trace.spans"] = self.spans, "count"
        return out
