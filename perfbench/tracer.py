"""Outside-in per-layer tracing of the planegroups package.

``Tracer.install()`` replaces each public callable of the package with a
wrapper at every place its callers look it up: class attributes of
``GroupElement``, ``Subgroup`` and ``Signature``, and module globals in each
``planegroups`` module that holds the original object.  No file under
``src/`` is edited.

Spans are folded into counters as they close, because one traced run makes
millions of calls: per span name the number of calls, the self time (span
minus the spans it caused) and, for the outermost span of a name, the
inclusive time.  A few counters record outcomes where the work happens:
letters parsed, syntax errors, membership answers, oracle witnesses, and the
products made inside each power.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> (module, class, attribute)
CLASS_METHODS = {
    "elements.mul": ("planegroups.elements", "GroupElement", "__mul__"),
    "elements.construct": ("planegroups.elements", "GroupElement", "__post_init__"),
    "elements.inverse": ("planegroups.elements", "GroupElement", "inverse"),
    "elements.pow": ("planegroups.elements", "GroupElement", "__pow__"),
    "elements.order": ("planegroups.elements", "GroupElement", "order"),
    "elements.format": ("planegroups.elements", "GroupElement", "__str__"),
    "centralizers.contains": ("planegroups.centralizers", "Subgroup", "contains"),
    "classify.signature": ("planegroups.classify", "Signature", "__post_init__"),
}
# span name -> (module, function); wrapped wherever a module global holds it
FUNCTIONS = {
    "words.parse_word": ("planegroups.words", "parse_word"),
    "words.evaluate_word": ("planegroups.words", "evaluate_word"),
    "centralizers.centralizer": ("planegroups.centralizers", "centralizer"),
    "centralizers.commutes": ("planegroups.centralizers", "commutes"),
    "centralizers.cyclic_exponent": ("planegroups.centralizers", "cyclic_exponent"),
    "classify.euler_factor": ("planegroups.classify", "euler_factor"),
    "classify.classify": ("planegroups.classify", "classify"),
    "oracle.verify_centralizer": ("planegroups.oracle", "verify_centralizer"),
    "cli.main": ("planegroups.cli", "main"),
}
GENERATORS = {
    "oracle.ball": ("planegroups.oracle", "ball"),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # one frame per open span: [name, nanoseconds spent in child spans]
        self._stack: list[list] = []

    def _wrap(self, name, fn, after=None, error_type=None):
        stack = self._stack
        calls, self_ns, incl_ns, counts = self.calls, self.self_ns, self.incl_ns, self.counts
        clock = time.perf_counter_ns
        under_pow = name == "elements.mul"

        def traced(*args, **kwargs):
            if stack and under_pow and stack[-1][0] == "elements.pow":
                counts["elements.pow.muls"] += 1
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if error_type is not None and isinstance(exc, error_type):
                    counts[name + ".errors"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_ns[name] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if not stack or stack[-1][0] != name:
                    incl_ns[name] += elapsed
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn):
        stack = self._stack
        self_ns, counts = self.self_ns, self.counts
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = [name, 0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_ns[name] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
                counts[name + ".elements"] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def _after_hooks(self, words_mod):
        counts = self.counts

        def letters(word):
            counts["words.parse_word.letters"] += len(word.letters)

        def member(answer):
            counts["centralizers.contains.true"] += bool(answer)

        def witnesses(report):
            counts["oracle.verify_centralizer.witnesses"] += len(report.witnesses)

        return {
            "words.parse_word": (letters, words_mod.WordSyntaxError),
            "centralizers.contains": (member, None),
            "oracle.verify_centralizer": (witnesses, None),
        }

    def install(self) -> None:
        """Wrap every traced callable; import ``planegroups.cli`` first."""
        import importlib

        for module in ("planegroups", "planegroups.cli"):
            importlib.import_module(module)
        hooks = self._after_hooks(sys.modules["planegroups.words"])
        replaced = {}
        for name, (module, owner, attr) in CLASS_METHODS.items():
            cls = getattr(sys.modules[module], owner)
            original = cls.__dict__[attr]
            after, error_type = hooks.get(name, (None, None))
            wrapper = self._wrap(name, original, after, error_type)
            for key, value in list(cls.__dict__.items()):
                if value is original:  # catches aliases such as __contains__
                    setattr(cls, key, wrapper)
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            after, error_type = hooks.get(name, (None, None))
            replaced[id(original)] = self._wrap(name, original, after, error_type)
        for name, (module, attr) in GENERATORS.items():
            original = getattr(sys.modules[module], attr)
            replaced[id(original)] = self._wrap_generator(name, original)
        holders = [m for n, m in sys.modules.items() if n.split(".")[0] == "planegroups"]
        for module in holders:
            for key, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, key, wrapper)

    def snapshot(self) -> dict:
        """Plain-dict counters, safe to send through JSON."""
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "incl_ns": dict(self.incl_ns),
            "counts": dict(self.counts),
        }


def merge(into: dict, snap: dict) -> dict:
    """Add the counters of ``snap`` to ``into`` (both snapshot dicts)."""
    for section, values in snap.items():
        target = into.setdefault(section, {})
        for key, value in values.items():
            target[key] = target.get(key, 0) + value
    return into
