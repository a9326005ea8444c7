"""Multi-order GCN embedding model (paper §IV-A, §V-A).

One weight stack ``W(1)..W(k)`` shared by *every* network being embedded —
source, target, and all augmented copies (the weight-sharing mechanism of
Alg 1 that keeps all embedding spaces identical and makes Prop 1/Prop 2
apply across networks).

The forward pass follows Eq 1:

    H(l) = σ( C H(l-1) W(l) ),    H(0) = F

with ``C`` the normalized Laplacian (or its influence-weighted variant from
Eq 15 during refinement) and σ = tanh (ReLU discards sign information and is
not bijective; paper §IV-A).  The sparse product runs on whichever of
``H(l-1)`` and ``H(l-1) W(l)`` is narrower: layer 1 (m attributes → d
dimensions, m < d) computes ``σ((C F) W(1))``, later layers ``σ(C (H W))``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from ..autograd import Tensor, init, spmm, normalize_rows
from ..graphs import AttributedGraph, propagation_matrix
from .config import GAlignConfig

__all__ = ["MultiOrderGCN"]

_ACTIVATIONS = {
    "tanh": lambda t: t.tanh(),
    "relu": lambda t: t.relu(),
    "linear": lambda t: t,
}


class MultiOrderGCN:
    """A k-layer weight-shared GCN producing embeddings at every order.

    Parameters
    ----------
    input_dim:
        Attribute dimensionality m (all aligned networks must share it —
        attribute consistency presumes comparable attribute spaces, §II-C).
    config:
        Model hyper-parameters.
    rng:
        RNG for Xavier weight initialization.
    """

    def __init__(
        self,
        input_dim: int,
        config: GAlignConfig,
        rng: np.random.Generator,
    ) -> None:
        if input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {input_dim}")
        self.input_dim = input_dim
        self.config = config
        self._activation = _ACTIVATIONS[config.activation]
        self.weights: List[Tensor] = []
        previous = input_dim
        for layer in range(config.num_layers):
            weight = init.xavier_uniform(
                (previous, config.embedding_dim), rng, name=f"W{layer + 1}"
            )
            self.weights.append(weight)
            previous = config.embedding_dim

    @property
    def num_layers(self) -> int:
        return self.config.num_layers

    def parameters(self) -> List[Tensor]:
        """Trainable weight matrices W(1)..W(k)."""
        return list(self.weights)

    def forward(
        self,
        graph: AttributedGraph,
        propagation: Optional[sp.spmatrix] = None,
        normalize: bool = True,
    ) -> List[Tensor]:
        """Embed every node of ``graph`` at every order.

        Parameters
        ----------
        graph:
            Network to embed; its features seed H(0).
        propagation:
            Propagation matrix override (the refinement step passes the
            influence-weighted matrix of Eq 15); defaults to the standard
            normalized Laplacian of ``graph``.
        normalize:
            Row-normalize each H(l) so layer-wise alignment matrices
            (Eq 11) become cosine similarities comparable across layers.

        Returns
        -------
        list of Tensor
            ``[H(0), H(1), ..., H(k)]`` — the multi-order features (§V-A);
            H(0) is the (optionally normalized) attribute matrix.
        """
        if graph.num_features != self.input_dim:
            raise ValueError(
                f"graph has {graph.num_features} attributes, model expects "
                f"{self.input_dim}"
            )
        if propagation is None:
            propagation = propagation_matrix(graph)
        hidden = Tensor(graph.features)
        embeddings = [normalize_rows(hidden) if normalize else hidden]
        for weight in self.weights:
            if hidden.shape[1] < weight.shape[1]:
                pre = spmm(propagation, hidden) @ weight
            else:
                pre = spmm(propagation, hidden @ weight)
            hidden = self._activation(pre)
            embeddings.append(normalize_rows(hidden) if normalize else hidden)
        return embeddings

    def embed(
        self,
        graph: AttributedGraph,
        propagation: Optional[sp.spmatrix] = None,
        normalize: bool = True,
    ) -> List[np.ndarray]:
        """Inference-only forward pass returning plain numpy arrays."""
        from ..autograd import no_grad

        with no_grad():
            embeddings = self.forward(graph, propagation, normalize)
        return [tensor.data for tensor in embeddings]

    def state_dict(self) -> List[np.ndarray]:
        """Copy of all weight arrays (checkpointing)."""
        return [weight.data.copy() for weight in self.weights]

    def load_state_dict(self, state: Sequence[np.ndarray]) -> None:
        """Restore weights saved by :meth:`state_dict`."""
        if len(state) != len(self.weights):
            raise ValueError(
                f"expected {len(self.weights)} weight arrays, got {len(state)}"
            )
        for weight, array in zip(self.weights, state):
            if weight.data.shape != array.shape:
                raise ValueError(
                    f"shape mismatch: {weight.data.shape} vs {array.shape}"
                )
            weight.data = array.copy()
