"""The graph-convolutional attributed-network encoder (Section IV-B)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..nn import Dropout, GCNConv, Module, Tensor

__all__ = ["GCNEncoder"]


class GCNEncoder(Module):
    """Multi-layer GCN ``H^{(l+1)} = LeakyReLU(Ā H^{(l)} W^{(l)})`` (Eq. 2).

    The final layer is linear (no activation) so the output can serve both
    as the embedding ``Z`` and, after a softmax, as the community
    membership ``P``.
    """

    def __init__(self, num_features: int, dims: tuple[int, ...],
                 rng: np.random.Generator, dropout: float = 0.0,
                 negative_slope: float = 0.01, dtype=None):
        super().__init__()
        if not dims:
            raise ValueError("encoder needs at least one output dimension")
        self.negative_slope = negative_slope
        widths = [num_features, *dims]
        self.convs = [GCNConv(widths[i], widths[i + 1], rng, dtype=dtype)
                      for i in range(len(dims))]
        self.dropout = Dropout(dropout, rng) if dropout else None

    def forward(self, x: Tensor, adj_norm: sp.spmatrix) -> Tensor:
        h = x
        last = len(self.convs) - 1
        for i, conv in enumerate(self.convs):
            # Hidden layers hand the activation slope to the conv so the
            # LeakyReLU fuses into the layer's single graph node; the
            # final layer stays linear (embedding/membership head).
            h = conv(h, adj_norm,
                     negative_slope=None if i == last
                     else self.negative_slope)
            if i != last and self.dropout is not None:
                h = self.dropout(h)
        return h

    def forward_blocks(self, x: Tensor, blocks: list[sp.spmatrix],
                       pools: list | None = None) -> Tensor:
        """Minibatch forward: one rectangular block matrix per layer.

        ``blocks[i]`` plays the role of ``adj_norm`` for layer ``i`` —
        its rows are the layer's output nodes, its columns the input
        nodes ``x`` covers (for ``i = 0``) or the previous block's rows.
        Used by the sampled training mode, where each block holds a
        fanout-bounded neighbour sample; with blocks sliced from the full
        normalised adjacency the result equals :meth:`forward` restricted
        to the final block's rows.  ``pools`` holds one
        :class:`~repro.nn.backend.BufferPool` per layer for a caller that
        runs the forward once per epoch (see :func:`repro.nn.fused_gcn_layer`).
        """
        if len(blocks) != len(self.convs):
            raise ValueError(
                f"{len(self.convs)}-layer encoder needs one block per "
                f"layer, got {len(blocks)}")
        h = x
        last = len(self.convs) - 1
        for i, (conv, block) in enumerate(zip(self.convs, blocks)):
            h = conv(h, block,
                     negative_slope=None if i == last
                     else self.negative_slope,
                     pool=None if pools is None else pools[i])
            if i != last and self.dropout is not None:
                h = self.dropout(h)
        return h
