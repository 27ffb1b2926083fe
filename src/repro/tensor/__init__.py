"""NumPy-backed tensor and reverse-mode automatic differentiation substrate.

This package replaces the CUDA/cuDNN operator library used by the original
Crossbow system.  It provides:

* :class:`~repro.tensor.tensor.Tensor` — an n-dimensional array that records the
  operations applied to it and can back-propagate gradients,
* :mod:`~repro.tensor.functional` — the differentiable operators needed by the
  models in the paper (dense, convolution, pooling, batch normalisation,
  activations, dropout, softmax cross-entropy),
* :mod:`~repro.tensor.init` — weight initialisers.
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor import functional
from repro.tensor import init

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "functional", "init"]
