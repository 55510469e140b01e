"""Op-level profiling of the :mod:`repro.nn.autograd` engine.

:class:`OpProfiler` monkey-patches the ``Tensor`` op methods (and the
module-level ``spmm``/``concat`` helpers, wherever they were imported)
so every autograd op records its forward wall time, and wraps each
result's backward closure so the backward pass is attributed to the op
that created it.  A FLOP-ish work estimate is derived from operand
shapes — exact for ``matmul``/``spmm``, per-element heuristics
elsewhere — giving a cheap roofline-style signal next to the times.

Patching only happens between :meth:`~OpProfiler.enable` and
:meth:`~OpProfiler.disable`; outside that window the engine runs the
original unwrapped methods, and the wrappers never touch values or
gradients, so results are bit-identical with profiling on or off.
"""

from __future__ import annotations

import contextlib
import sys
import time

__all__ = ["OpStats", "OpProfiler", "profile_ops"]

#: Tensor methods wrapped by the profiler.  ``__radd__``/``__rmul__`` are
#: class-level aliases that Python dispatches to directly, so they get
#: their own wrapper (but share the display label of the base op).
#: ``__rsub__``/``__rtruediv__``/``mean``/``l2_normalize`` delegate to
#: already-wrapped ops and are deliberately excluded to avoid double
#: counting.
_TENSOR_OPS = [
    "__add__", "__radd__", "__neg__", "__sub__", "__mul__", "__rmul__",
    "__truediv__", "__pow__", "__getitem__",
    "matmul", "__matmul__", "transpose", "reshape", "sum", "trace",
    "exp", "log", "sqrt", "abs", "clip",
    "sigmoid", "tanh", "relu", "leaky_relu", "softmax", "log_softmax",
]

_LABELS = {"__radd__": "add", "__rmul__": "mul", "__matmul__": "matmul"}

#: Module-level autograd entry points patched in every repro module that
#: imported them by value.
_FUNCTIONS = ["spmm", "concat", "fused_bce_with_logits", "fused_gcn_layer"]

#: Per-element cost heuristic for the FLOP-ish estimate.
_TRANSCENDENTAL = {"exp", "log", "sqrt", "sigmoid", "tanh",
                   "softmax", "log_softmax"}


def _display(name: str) -> str:
    return _LABELS.get(name, name.strip("_"))


class OpStats:
    """Accumulated counters for one op kind."""

    __slots__ = ("op", "calls", "forward_s", "backward_s", "flops")

    def __init__(self, op: str):
        self.op = op
        self.calls = 0
        self.forward_s = 0.0
        self.backward_s = 0.0
        self.flops = 0

    @property
    def total_s(self) -> float:
        return self.forward_s + self.backward_s

    def to_dict(self) -> dict:
        return {"op": self.op, "calls": self.calls,
                "forward_s": self.forward_s, "backward_s": self.backward_s,
                "total_s": self.total_s, "flops": self.flops}


def _estimate_flops(label: str, out_data, self_data, args) -> int:
    if label == "matmul":
        inner = out_data.shape[-1] if out_data.ndim else 1
        return 2 * self_data.size * inner
    per = 4 if label in _TRANSCENDENTAL else 1
    return per * out_data.size


class OpProfiler:
    """Times every autograd op while enabled; reports per-op aggregates."""

    def __init__(self):
        self.stats: dict[str, OpStats] = {}
        self.enabled = False
        self._saved_methods: dict[str, object] = {}
        self._saved_globals: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #
    def _stat(self, label: str) -> OpStats:
        stat = self.stats.get(label)
        if stat is None:
            stat = self.stats[label] = OpStats(label)
        return stat

    def _wrap_backward(self, label: str, out) -> None:
        bwd = out._backward
        if bwd is None:
            return
        profiler = self

        def timed_backward(grad):
            if not profiler.enabled:
                bwd(grad)
                return
            t0 = time.perf_counter()
            bwd(grad)
            profiler._stat(label).backward_s += time.perf_counter() - t0

        out._backward = timed_backward

    def _wrap_method(self, name: str, fn):
        label = _display(name)
        profiler = self

        def wrapped(tensor_self, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(tensor_self, *args, **kwargs)
            elapsed = time.perf_counter() - t0
            stat = profiler._stat(label)
            stat.calls += 1
            stat.forward_s += elapsed
            stat.flops += _estimate_flops(label, out.data,
                                          tensor_self.data, args)
            profiler._wrap_backward(label, out)
            return out

        wrapped.__name__ = fn.__name__
        wrapped.__qualname__ = getattr(fn, "__qualname__", fn.__name__)
        return wrapped

    def _wrap_spmm(self, fn):
        profiler = self

        def wrapped(matrix, x, transpose=None):
            t0 = time.perf_counter()
            out = fn(matrix, x, transpose)
            elapsed = time.perf_counter() - t0
            stat = profiler._stat("spmm")
            stat.calls += 1
            stat.forward_s += elapsed
            cols = x.data.shape[1] if x.data.ndim > 1 else 1
            stat.flops += 2 * int(matrix.nnz) * cols
            profiler._wrap_backward("spmm", out)
            return out

        wrapped.__name__ = fn.__name__
        return wrapped

    def _wrap_fused_bce(self, fn):
        profiler = self

        def wrapped(logits, target, weights=None, reduction="sum",
                    buffers=None):
            t0 = time.perf_counter()
            out = fn(logits, target, weights=weights, reduction=reduction,
                     buffers=buffers)
            elapsed = time.perf_counter() - t0
            stat = profiler._stat("bce_fused")
            stat.calls += 1
            stat.forward_s += elapsed
            # relu/mul/sub/abs/exp/log + reduction ≈ 8 flops per element.
            stat.flops += 8 * int(logits.data.size)
            profiler._wrap_backward("bce_fused", out)
            return out

        wrapped.__name__ = fn.__name__
        return wrapped

    def _wrap_fused_gcn(self, fn):
        profiler = self

        def wrapped(x, weight, matrix, bias=None, negative_slope=None):
            t0 = time.perf_counter()
            out = fn(x, weight, matrix, bias=bias,
                     negative_slope=negative_slope)
            elapsed = time.perf_counter() - t0
            stat = profiler._stat("gcn_fused")
            stat.calls += 1
            stat.forward_s += elapsed
            # dense GEMM + sparse product + elementwise epilogue; a
            # matrix wider than tall aggregates first, (Ā x) W.
            rows, inputs = matrix.shape
            width, cols = weight.data.shape
            dense_rows, sparse_cols = ((rows, width) if inputs > rows
                                       else (inputs, cols))
            stat.flops += (2 * dense_rows * width * cols
                           + 2 * int(matrix.nnz) * sparse_cols
                           + 2 * int(out.data.size))
            profiler._wrap_backward("gcn_fused", out)
            return out

        wrapped.__name__ = fn.__name__
        return wrapped

    def _wrap_concat(self, fn):
        profiler = self

        def wrapped(tensors, axis=0):
            t0 = time.perf_counter()
            out = fn(tensors, axis=axis)
            elapsed = time.perf_counter() - t0
            stat = profiler._stat("concat")
            stat.calls += 1
            stat.forward_s += elapsed
            stat.flops += out.data.size
            profiler._wrap_backward("concat", out)
            return out

        wrapped.__name__ = fn.__name__
        return wrapped

    # -- lifecycle ------------------------------------------------------ #
    def enable(self) -> "OpProfiler":
        """Patch the autograd engine; idempotence guarded globally."""
        global _ACTIVE
        if self.enabled:
            return self
        if _ACTIVE is not None:
            raise RuntimeError("another OpProfiler is already enabled")
        from ..nn import autograd
        from ..nn.autograd import Tensor

        for name in _TENSOR_OPS:
            original = getattr(Tensor, name)
            self._saved_methods[name] = original
            setattr(Tensor, name, self._wrap_method(name, original))
        wrappers = {"spmm": self._wrap_spmm, "concat": self._wrap_concat,
                    "fused_bce_with_logits": self._wrap_fused_bce,
                    "fused_gcn_layer": self._wrap_fused_gcn}
        for fname in _FUNCTIONS:
            original = getattr(autograd, fname)
            wrapped = wrappers[fname](original)
            # Rebind every by-value import across the repro package so
            # call sites like ``layers.spmm`` are intercepted too.
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, fname, None) is original:
                    self._saved_globals.append((mod, fname, original))
                    setattr(mod, fname, wrapped)
        self.enabled = True
        _ACTIVE = self
        return self

    def disable(self) -> "OpProfiler":
        """Restore the pristine engine; collected stats are kept."""
        global _ACTIVE
        if not self.enabled:
            return self
        from ..nn.autograd import Tensor
        for name, original in self._saved_methods.items():
            setattr(Tensor, name, original)
        for mod, fname, original in self._saved_globals:
            setattr(mod, fname, original)
        self._saved_methods.clear()
        self._saved_globals.clear()
        self.enabled = False
        _ACTIVE = None
        return self

    def __enter__(self) -> "OpProfiler":
        return self.enable()

    def __exit__(self, *exc) -> None:
        self.disable()

    # -- reporting ------------------------------------------------------ #
    def total_seconds(self) -> float:
        """Forward + backward wall time across every recorded op."""
        return sum(s.total_s for s in self.stats.values())

    def top(self, k: int | None = None) -> list[OpStats]:
        ranked = sorted(self.stats.values(), key=lambda s: -s.total_s)
        return ranked if k is None else ranked[:k]

    def to_dict(self) -> dict:
        return {"ops": [s.to_dict() for s in self.top()],
                "total_s": self.total_seconds()}

    def report(self, top: int | None = 10) -> str:
        """Aligned per-op table, heaviest first."""
        total = self.total_seconds() or 1.0
        lines = [f"{'op':14s} {'calls':>8s} {'fwd_s':>9s} {'bwd_s':>9s} "
                 f"{'total_s':>9s} {'%':>6s} {'MFLOP':>10s}"]
        for s in self.top(top):
            lines.append(
                f"{s.op:14s} {s.calls:>8d} {s.forward_s:>9.4f} "
                f"{s.backward_s:>9.4f} {s.total_s:>9.4f} "
                f"{100.0 * s.total_s / total:>5.1f}% "
                f"{s.flops / 1e6:>10.1f}")
        lines.append(f"{'TOTAL':14s} "
                     f"{sum(s.calls for s in self.stats.values()):>8d} "
                     f"{sum(s.forward_s for s in self.stats.values()):>9.4f} "
                     f"{sum(s.backward_s for s in self.stats.values()):>9.4f} "
                     f"{self.total_seconds():>9.4f} {100.0:>5.1f}% "
                     f"{sum(s.flops for s in self.stats.values()) / 1e6:>10.1f}")
        return "\n".join(lines)

    def reset(self) -> None:
        self.stats.clear()


_ACTIVE: OpProfiler | None = None


def active_profiler() -> OpProfiler | None:
    return _ACTIVE


@contextlib.contextmanager
def profile_ops():
    """``with profile_ops() as prof:`` — enable, run, disable, inspect."""
    profiler = OpProfiler()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
