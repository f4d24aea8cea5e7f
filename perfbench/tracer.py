"""Light span tracer that measures the program's layers from outside.

The tracer replaces a layer's public functions with wrappers for the
length of a traced pass and puts the originals back afterwards.  A
function imported by name (``from repro.common.encoding import encode``)
is bound once per importing module, so :meth:`Tracer.wrap_function`
rebinds every ``repro`` module attribute that holds the original object;
methods are wrapped once, on the class that defines them.

Each wrapped call records a count, optional bytes, and one span: the
layer it belongs to, its ``perf_counter_ns`` start and end, and the id of
the span it ran inside.  Spans stay in memory in flat ``array`` columns
and are only reduced (self time) or written out once the pass is over.
A layer's self time is the duration of its spans minus the part covered
by their child spans, so nested layers are never counted twice.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``size(args, result)`` -> bytes handled by one call
SizeFn = Callable[[tuple, Any], int]
#: ``after(args, result)`` -> None, run after a successful call
AfterFn = Callable[[tuple, Any], None]


class Tracer:
    """Wraps functions, keeps spans in memory, reduces them per layer."""

    def __init__(self) -> None:
        self.layers: List[str] = []
        self._layer_ids: Dict[str, int] = {}
        #: wrapped-function key (``"encoding.encode"``) -> calls
        self.calls: Dict[str, int] = defaultdict(int)
        #: layer -> bytes reported by the layer's ``size`` callbacks
        self.bytes: Dict[str, int] = defaultdict(int)
        #: free-form counts filled by ``after`` callbacks
        self.extra: Dict[str, int] = defaultdict(int)
        self.span_layer = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self._stack: List[int] = [-1]
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installing wrappers -------------------------------------------------------

    def _layer(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    def _wrapper(
        self,
        fn: Callable,
        layer: str,
        key: str,
        size: Optional[SizeFn],
        after: Optional[AfterFn],
        span: bool,
    ) -> Callable:
        calls = self.calls
        if not span:
            def counted(*args: Any, **kwargs: Any) -> Any:
                calls[key] += 1
                return fn(*args, **kwargs)

            return counted

        layer_id = self._layer(layer)
        nbytes = self.bytes
        lay, start, end, parent = (
            self.span_layer, self.span_start, self.span_end, self.span_parent,
        )
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            sid = len(lay)
            lay.append(layer_id)
            parent.append(stack[-1])
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if size is not None:
                nbytes[layer] += size(args, result)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_function(
        self,
        module: str,
        name: str,
        layer: str,
        key: Optional[str] = None,
        size: Optional[SizeFn] = None,
        after: Optional[AfterFn] = None,
        span: bool = True,
    ) -> None:
        """Wrap a module-level function wherever a ``repro`` module binds it."""
        original = getattr(importlib.import_module(module), name)
        wrapper = self._wrapper(original, layer, key or f"{layer}.{name}", size, after, span)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self.patch(mod, attr, wrapper)

    def wrap_method(
        self,
        module: str,
        qualname: str,
        layer: str,
        key: Optional[str] = None,
        size: Optional[SizeFn] = None,
        after: Optional[AfterFn] = None,
        span: bool = True,
    ) -> None:
        """Wrap ``Class.method`` on the class that defines it."""
        cls_name, meth = qualname.split(".")
        cls = getattr(importlib.import_module(module), cls_name)
        original = vars(cls)[meth]
        wrapper = self._wrapper(original, layer, key or f"{layer}.{meth}", size, after, span)
        self.patch(cls, meth, wrapper)

    def patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr`` until :meth:`restore` puts the original back."""
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every original function back (reverse order of patching)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reducing spans ----------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_layer)

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        n = len(self.span_layer)
        child = array("q", bytes(8 * n))
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        own = [0] * len(self.layers)
        lay = self.span_layer
        for i in range(n):
            own[lay[i]] += end[i] - start[i] - child[i]
        return {name: own[i] / 1e9 for i, name in enumerate(self.layers)}

    def write_spans(self, directory: str, stem: str) -> str:
        """Write the spans column by column, plus a JSON index.

        ``<stem>.spans`` holds the four columns one after another, each
        ``span_count`` little-endian values: layer id (int32), start ns,
        end ns and parent span id (int64; -1 for a root).  ``<stem>.json``
        names the layers.
        """
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, stem + ".spans")
        columns = (self.span_layer, self.span_start, self.span_end, self.span_parent)
        with open(path, "wb") as fh:
            for column in columns:
                if sys.byteorder != "little":
                    column = array(column.typecode, column)
                    column.byteswap()
                column.tofile(fh)
        with open(os.path.join(directory, stem + ".json"), "w") as fh:
            json.dump({"layers": self.layers, "spans": self.span_count,
                       "columns": [["layer", "int32"], ["start_ns", "int64"],
                                   ["end_ns", "int64"], ["parent", "int64"]]}, fh)
        return path
