"""Span tracing of the dupcodes layers, installed from outside the package.

`Tracer.install()` wraps every public function defined in the layer modules
and rebinds each wrapper everywhere the package holds the original, which
covers functions imported by name (`dupcodes.codes.error_ball`,
`dupcodes.bounds.error_ball`, `dupcodes.codes.signature_scan`, ...).
`Word` construction is counted, not spanned: its time stays in the self time
of whichever span built the word. `uninstall()` restores every original.

Each wrapped call records one span (id, parent id, function, invocation id,
start, end) and adds to per-function counters: calls, self seconds (duration
minus the time covered by child spans), exceptions raised, and result sizes
for the functions whose size is a metric.
"""

import importlib
import inspect
import re
import time
from array import array

LAYERS = ("words", "channel", "transform", "wordspace", "bounds", "codes", "cli")
PACKAGE = "dupcodes"
PACKAGE_MODULES = (None, "formulas") + LAYERS  # None: the package itself


def _array_bytes(result):
    arrays = result if isinstance(result, tuple) else (result,)
    return sum(a.nbytes for a in arrays)


# function (module, name) -> how its result is measured: (counter, size function)
_RESULT_SIZES = {
    ("wordspace", "all_words"): ("rows", len),
    ("channel", "error_ball"): ("members", len),
}
_CODEBOOK = re.compile(r"^\w+_codebook$")
_KERNEL = re.compile(r"^(signature_scan|run_stats|pal2_free_mask)(_\w+)?$")


class Tracer:
    """Holds the spans and counters of one traced round."""

    def __init__(self):
        self.funcs = []  # function id -> (module, name)
        self.calls = []
        self.self_s = []
        self.errors = []
        self.sizes = {}  # (counter, function id) -> summed result size
        self.bytes_computed = 0
        self.words_constructed = 0
        self.spans = array("d")  # flat records of 6: id, parent, function id, invocation, start, end
        self.invocation = -1
        self._next_span = 0
        self._stack = [-1]
        self._kernel_spans = set()  # ids of wordspace spans; their wordspace children are not counted again
        self._child = [0.0]
        self._originals = []  # (object, attribute, original value)

    def _wrap(self, fid, fn, module, name):
        perf = time.perf_counter
        stack, child, spans = self._stack, self._child, self.spans
        calls, self_s, errors = self.calls, self.self_s, self.errors
        size = _RESULT_SIZES.get((module, name))
        if size is None and module == "codes" and _CODEBOOK.match(name):
            size = ("codewords", len)
        kernel = module == "wordspace" and (_KERNEL.match(name) or name == "all_words")
        tracer = self  # the closure reads and rebinds counters on the tracer

        def traced(*args, **kwargs):
            sid = tracer._next_span
            tracer._next_span = sid + 1
            parent = stack[-1]
            stack.append(sid)
            child.append(0.0)
            if kernel:
                tracer._kernel_spans.add(sid)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[fid] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                covered = child.pop()
                duration = t1 - t0
                child[-1] += duration
                self_s[fid] += duration - covered
                calls[fid] += 1
                spans.extend((sid, parent, fid, tracer.invocation, t0, t1))
            if size is not None:
                key = (size[0], fid)
                tracer.sizes[key] = tracer.sizes.get(key, 0) + size[1](result)
            if kernel and parent not in tracer._kernel_spans:
                inputs = sum(a.nbytes for a in args if hasattr(a, "nbytes"))
                tracer.bytes_computed += inputs + _array_bytes(result)
            return result

        return traced

    def install(self):
        wrappers = {}  # id(original) -> wrapper
        for module in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{module}")
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                fid = len(self.funcs)
                self.funcs.append((module, name))
                self.calls.append(0)
                self.self_s.append(0.0)
                self.errors.append(0)
                wrappers[id(fn)] = self._wrap(fid, fn, module, name)
        for module in PACKAGE_MODULES:
            mod = importlib.import_module(PACKAGE if module is None else f"{PACKAGE}.{module}")
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._originals.append((mod, name, value))
                    setattr(mod, name, wrapper)
        word = importlib.import_module(f"{PACKAGE}.words").Word
        post_init = word.__post_init__
        tracer = self

        def counted_post_init(w):
            tracer.words_constructed += 1
            post_init(w)

        self._originals.append((word, "__post_init__", post_init))
        word.__post_init__ = counted_post_init

    def uninstall(self):
        for obj, name, value in reversed(self._originals):
            setattr(obj, name, value)
        self._originals.clear()

    def select(self, module, pattern):
        """Function ids of `module` whose name fully matches `pattern`."""
        rx = re.compile(pattern)
        return [fid for fid, (m, n) in enumerate(self.funcs) if m == module and rx.fullmatch(n)]

    def total(self, field, fids):
        values = getattr(self, field)
        return sum(values[f] for f in fids)

    def size(self, counter, fids):
        return sum(self.sizes.get((counter, f), 0) for f in fids)
