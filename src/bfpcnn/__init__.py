"""Self-contained deep-learning micro-framework and CLI for four-class
brain-MRI classification: image preprocessing, a dual-attention CNN built on
taped reverse-mode autodiff, training, and multiclass evaluation."""

__version__ = "0.1.0"

from .tensor import Tensor, matmul

__all__ = ["Tensor", "matmul", "__version__"]
