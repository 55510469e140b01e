"""Tests for the reusable dense buffers of the reconstruction term.

A full-batch fit evaluates ``BCE(σ(PPᵀ), Ã)`` once per epoch on N×N
arrays.  It now allocates one set of those arrays per fit
(:func:`repro.nn.backend.bce_buffers`) and writes every epoch into it.
The contract under test:

* the buffered kernels give the bits of the allocating expressions they
  replaced, for any dtype, reduction, weights and non-finite logits;
* a buffer set never leaks one call's values into another's results;
* after its first epoch a fit allocates no N×N array per epoch;
* the buffers belong to one fit, so concurrent fits do not share them;
* grad mode is per thread, so ``no_grad`` elsewhere cannot stop a fit
  from recording its graph.
"""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import AnECI, workspace_cache
from repro.graph.generators import planted_partition
from repro.nn import backend as kernels, no_grad


# --------------------------------------------------------------------- #
# The kernel against the allocating expressions it replaced             #
# --------------------------------------------------------------------- #
def _old_forward(x, t, weights, reduction):
    mask = x > 0
    exp_neg_abs = np.exp(-np.abs(x))
    denom = exp_neg_abs + 1.0
    elementwise = (x * mask - x * t) + np.log(denom)
    if weights is not None:
        elementwise = elementwise * weights
    if reduction == "none":
        return elementwise, (mask, exp_neg_abs, denom, None)
    if reduction == "sum":
        return elementwise.sum(), (mask, exp_neg_abs, denom, 1.0)
    return (elementwise.sum() * (1.0 / elementwise.size),
            (mask, exp_neg_abs, denom, 1.0 / elementwise.size))


def _old_backward(g, x, t, weights, ctx):
    mask, exp_neg_abs, denom, scale = ctx
    if scale is None:
        upstream = g
    else:
        upstream = np.broadcast_to(g * scale, x.shape)
    if weights is not None:
        upstream = upstream * weights
    dv = upstream / denom
    grad = upstream * mask
    grad = grad + (-upstream) * t
    grad = grad + (-(dv * exp_neg_abs)) * np.sign(x)
    return grad


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


@st.composite
def _bce_case(draw):
    dtype = np.dtype(draw(st.sampled_from(["float32", "float64"])))
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=6))
    width = dtype.itemsize * 8
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    logits = st.one_of(special, st.floats(-40, 40, width=width))
    unit = st.floats(0, 1, width=width)
    reduction = draw(st.sampled_from(["sum", "mean", "none"]))
    weighted = draw(st.booleans())

    def inputs():
        x = draw(hnp.arrays(dtype, shape, elements=logits))
        t = draw(hnp.arrays(dtype, shape, elements=unit))
        w = (draw(hnp.arrays(dtype, shape, elements=st.floats(
            0.25, 4, width=width))) if weighted else None)
        if reduction == "none":
            g = draw(hnp.arrays(dtype, shape, elements=st.floats(
                -2, 2, width=width)))
        else:
            g = np.asarray(draw(st.floats(-2, 2, width=width)), dtype)
        return x, t, w, g

    return dtype, shape, reduction, inputs(), inputs()


def _call(x, t, w, g, reduction, buffers):
    value, ctx = kernels.bce_with_logits_forward(x, t, w, reduction,
                                                 buffers)
    return value, lambda: kernels.bce_with_logits_backward(g, x, t, w, ctx,
                                                           buffers)


@settings(max_examples=200, deadline=None)
@given(_bce_case())
def test_buffered_kernels_match_the_allocating_expressions(case):
    dtype, shape, reduction, first, second = case
    buffers = kernels.bce_buffers(shape, dtype)
    with np.errstate(all="ignore"):
        expected = []
        for x, t, w, g in (first, second):
            value, ctx = _old_forward(x, t, w, reduction)
            expected.append((_bits(value),
                             _bits(_old_backward(g, x, t, w, ctx))))

        for args, (value_bits, grad_bits) in zip((first, second), expected):
            assert _bits(_call(*args, reduction, None)[0]) == value_bits
            assert _bits(_call(*args, reduction, None)[1]()) == grad_bits

        # Two calls on one buffer set: each matches its own inputs, and
        # the second forward leaves the first call's value and gradient
        # alone (the gradient is rewritten by the next backward only).
        value1, backward1 = _call(*first, reduction, buffers)
        grad1 = backward1()
        assert (_bits(value1), _bits(grad1)) == expected[0]
        value2, backward2 = _call(*second, reduction, buffers)
        assert (_bits(value1), _bits(grad1)) == expected[0]
        assert _bits(value2) == expected[1][0]
        assert _bits(backward2()) == expected[1][1]
        assert _bits(value1) == expected[0][0]
        assert _bits(value2) == expected[1][0]


# --------------------------------------------------------------------- #
# Fits                                                                   #
# --------------------------------------------------------------------- #
def _graph():
    # 400 nodes and narrow layers, so the per-epoch N×d arrays stay well
    # under one N×N array and only N×N allocations can cross the bound.
    return planted_partition(4, 100, 0.2, 0.01, np.random.default_rng(0),
                             num_features=16)


def _epoch_peaks(graph, **config):
    """Traced peak of each epoch above its starting size, epochs ≥ 1."""
    workspace_cache().clear()
    model = AnECI(graph.num_features, num_communities=4, epochs=5, seed=0,
                  hidden_dims=(16,), **config)
    peaks, start = [], []

    def callback(epoch, _model, _record):
        _, peak = tracemalloc.get_traced_memory()
        if start:
            peaks.append(peak - start[0])
        tracemalloc.reset_peak()
        start[:] = [tracemalloc.get_traced_memory()[0]]

    tracemalloc.start()
    try:
        model.fit(graph, callback=callback)
    finally:
        tracemalloc.stop()
    return peaks, model.config.dtype


class TestNoDenseAllocationPerEpoch:
    def _check(self, **config):
        graph = _graph()
        peaks, dtype = _epoch_peaks(graph, **config)
        dense = graph.num_nodes ** 2 * np.dtype(dtype).itemsize
        assert len(peaks) == 4
        assert max(peaks) < dense, (peaks, dense)

    def test_full_batch(self):
        self._check()

    def test_sampled_block_path(self):
        # k = 240 of 400 nodes: the per-epoch target block is k×k, and
        # the buffers must be reused as they are on the full path.
        self._check(recon_sample_size=240)


def _digest(model):
    return hashlib.blake2b(np.ascontiguousarray(model.embed()).tobytes(),
                           digest_size=16).hexdigest()


def test_concurrent_fits_keep_their_own_buffers():
    graph = planted_partition(3, 60, 0.3, 0.05, np.random.default_rng(2),
                              num_features=16)
    models = [AnECI(graph.num_features, num_communities=3, epochs=30,
                    lr=0.02, seed=seed) for seed in (0, 1)]
    serial = [_digest(model.fit(graph)) for model in models]
    assert serial[0] != serial[1]
    barrier = threading.Barrier(2)

    def fit(model):
        barrier.wait(timeout=60)
        model.fit(graph)

    threads = [threading.Thread(target=fit, args=(model,))
               for model in models]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-epoch
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [_digest(model) for model in models] == serial


def test_no_grad_in_another_thread_leaves_a_fit_recording():
    graph = planted_partition(3, 60, 0.3, 0.05, np.random.default_rng(2),
                              num_features=16)
    other = AnECI(graph.num_features, num_communities=3, epochs=3,
                  seed=1).fit(graph)
    model = AnECI(graph.num_features, num_communities=3, epochs=30,
                  lr=0.02, seed=0)
    serial = _digest(model.fit(graph))
    inside, stop = threading.Event(), threading.Event()

    def embed_loop():
        with no_grad():
            inside.set()
            while not stop.is_set():
                other.embed()

    thread = threading.Thread(target=embed_loop)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-epoch
    try:
        thread.start()
        assert inside.wait(timeout=60)
        model.fit(graph)
    finally:
        stop.set()
        thread.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert _digest(model) == serial
