"""In-memory span tracer that wraps the package's public functions.

``Tracer.install()`` replaces every public function, and every public
method and ``__call__`` of every class, defined in the modules named by
``TRACED_MODULES`` with a wrapper that records a span (name, start, end,
parent), and patches each ``from .x import f`` copy of a wrapped function
in the other ``specdec`` modules.  ``uninstall()`` puts the originals back.
Spans live in flat arrays and are written once, by ``save()``, when the
run ends.  ``TargetModel.forward`` spans are named by the kind of call:
``[prefill]`` (empty cache), ``[decode]`` (one row), ``[verify]`` (several
rows against a cache) or ``[batch]`` (no cache).  Counters (Tensor objects
built, KV-cache bytes copied, bytes tokenized) are kept per root span name.
"""

import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("engine", "tree", "model", "tensor", "training", "tokenizer")
# a span around a context-manager factory would end before its body runs
SKIP = {"tensor.no_grad"}


def _kv_bytes(cache, layers):
    return sum(cache.keys[i].nbytes + cache.values[i].nbytes for i in layers)


def _append_bytes(args, kwargs, result):
    cache, layer, k = args[0], args[1], args[2]
    # the first append stores the new rows; later ones copy the whole prefix
    if cache.keys[layer].shape[1] == k.shape[1]:
        return 0
    return _kv_bytes(cache, [layer])


def _keep_bytes(args, kwargs, result):
    cache = args[0]
    return _kv_bytes(cache, range(len(cache.keys)))


def _encode_bytes(args, kwargs, result):
    text = args[1]
    return len(text.encode("utf-8") if isinstance(text, str) else bytes(text))


COUNTER_HOOKS = {
    "model.KvCache.append": ("kv_bytes", _append_bytes),
    "model.KvCache.keep": ("kv_bytes", _keep_bytes),
    "tokenizer.Tokenizer.encode": ("encoded_bytes", _encode_bytes),
}


def _forward_kind(args, kwargs):
    tokens = args[1]
    cache = kwargs.get("cache", args[4] if len(args) > 4 else None)
    if cache is None:
        return "batch"
    if len(cache) == 0:
        return "prefill"
    return "decode" if np.asarray(tokens).shape[-1] == 1 else "verify"


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counters = {}
        self._undo = []

    def name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def root_name(self):
        return self.names[self.name[self._stack[1]]] if len(self._stack) > 1 else ""

    def count(self, counter, value):
        key = (self.root_name(), counter)
        self.counters[key] = self.counters.get(key, 0) + value

    def __len__(self):
        return len(self.start)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, name):
        tracer = self
        nid = self.name_id(name)
        kinds = None
        if name == "model.TargetModel.forward":
            kinds = {k: self.name_id(f"{name}[{k}]")
                     for k in ("prefill", "decode", "verify", "batch")}
        counter, hook = COUNTER_HOOKS.get(name, (None, None))
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name.append(kinds[_forward_kind(args, kwargs)] if kinds else nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.end.append(0)
            tracer._stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            if hook is not None:
                tracer.count(counter, hook(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        package = sys.modules["specdec"]
        loaded = [m for n, m in sys.modules.items() if n == "specdec" or n.startswith("specdec.")]
        replaced = {}
        for short in TRACED_MODULES:
            module = getattr(package, short)
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and f"{short}.{attr}" not in SKIP:
                    replaced[obj] = self._wrap(obj, f"{short}.{attr}")
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        public = meth == "__call__" or not meth.startswith("_")
                        if inspect.isfunction(fn) and public:
                            self._set(obj, meth, self._wrap(fn, f"{short}.{obj.__name__}.{meth}"))
        for module in loaded:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(module, attr, replaced[obj])
        tensor_cls = package.tensor.Tensor
        init = tensor_cls.__init__
        tracer = self

        def counted_init(obj, *args, **kwargs):
            tracer.count("tensors", 1)
            init(obj, *args, **kwargs)

        self._set(tensor_cls, "__init__", counted_init)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis -----------------------------------------------------------

    def arrays(self, first=0):
        """Spans from index ``first`` on as numpy arrays; parents re-based."""
        name = np.frombuffer(self.name, dtype=np.int32)[first:]
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:].astype(np.int64) - first
        parent[parent < 0] = -1
        start = np.frombuffer(self.start, dtype=np.int64)[first:]
        dur = (np.frombuffer(self.end, dtype=np.int64)[first:] - start) / 1e6  # ms
        return name, parent, start, dur

    def summary(self, first=0):
        """{(root name, span name): [calls, total ms, self ms]} over spans >= first.

        A span's self time is its duration minus its direct children's.
        """
        name, parent, _, dur = self.arrays(first)
        n = len(name)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ms = dur - child
        root = np.where(has_parent, parent, np.arange(n))
        while True:  # pointer jumping up to each span's root
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        out = {}
        k = len(self.names)
        key = name[root].astype(np.int64) * k + name
        calls = np.bincount(key, minlength=k * k)
        total = np.bincount(key, weights=dur, minlength=k * k)
        selft = np.bincount(key, weights=self_ms, minlength=k * k)
        for flat in np.flatnonzero(calls):
            out[(self.names[flat // k], self.names[flat % k])] = \
                [int(calls[flat]), float(total[flat]), float(selft[flat])]
        return out

    def save(self, path):
        name, parent, start, dur = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start_ns=start, end_ns=np.frombuffer(self.end, dtype=np.int64))
