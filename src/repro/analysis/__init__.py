"""Embedding analysis: t-SNE projection and qualitative diagnostics."""

from .tsne import tsne
from .errors import MisalignmentReport, analyze_errors
from .diagnostics import (
    EmbeddingDiagnostics,
    diagnose_embeddings,
    concatenate_orders,
)

__all__ = [
    "tsne",
    "EmbeddingDiagnostics",
    "diagnose_embeddings",
    "concatenate_orders",
    "MisalignmentReport",
    "analyze_errors",
]
