"""In-memory spans around calls into blebsheet's module-level functions.

A :class:`Tracer` replaces functions and methods of the package with
wrappers that record one :class:`Span` per call: name, start, end and the
span that was open when the call began.  Nothing inside ``src/`` is edited.
``dynamics``, ``stationary``, ``energy`` and ``cli`` import ``cg_solve``,
``step``, ``simulate`` and friends by name, so :meth:`Tracer.patch_function`
rebinds every module of the package that holds the original object, not
just the defining one.  :meth:`Tracer.restore` puts the originals back.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs", "children_time")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.attrs: dict = {}
        self.children_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_time

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


def _package_modules():
    return [
        mod for key, mod in list(sys.modules.items())
        if mod is not None and (key == "blebsheet" or key.startswith("blebsheet."))
    ]


class Tracer:
    """Records spans for the calls it wraps; single-threaded use only.

    ``before(span, arguments)`` runs inside the span before the call, with
    the call's arguments bound to their parameter names, and may add or
    replace arguments; ``after(span, arguments, result)`` runs inside the
    span after it.  Their cost is part of the tracing overhead.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, before=None, after=None):
        stack = self._stack
        spans = self.spans
        signature = inspect.signature(fn) if before or after else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                if signature is None:
                    return fn(*args, **kwargs)
                call = signature.bind(*args, **kwargs)
                if before is not None:
                    before(span, call.arguments)
                result = fn(*call.args, **call.kwargs)
                if after is not None:
                    after(span, call.arguments, result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.children_time += span.end - span.start

        return traced

    def patch_function(self, module, attr: str, name: str, **hooks) -> None:
        """Wrap ``module.attr`` in every package module that binds it."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **hooks)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, **hooks) -> None:
        """Wrap a method (plain or classmethod) on the class itself."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(name, raw.__func__, **hooks))
        else:
            wrapped = self.wrap(name, raw, **hooks)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def call_after(self, owner, attr: str, callback) -> None:
        """Run ``callback()`` after every call of ``owner.attr``, outside its span.

        ``owner`` is a class, or a module: then every package module that
        binds the function is rebound, as in :meth:`patch_function`.
        """
        inner = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(inner)
        def then_callback(*args, **kwargs):
            try:
                return inner(*args, **kwargs)
            finally:
                callback()

        targets = [owner] if isinstance(owner, type) else _package_modules()
        for obj in targets:
            for key, value in list(vars(obj).items()):
                if value is inner:
                    self._patches.append((obj, key, value))
                    setattr(obj, key, then_callback)

    def restore(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent line index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as out:
            for s in self.spans:
                out.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                      "parent": index.get(id(s.parent))}) + "\n")
