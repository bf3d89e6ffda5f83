"""Numpy-backed reverse-mode autograd engine (PyTorch substitute).

All ndarray math in the engine's forward/backward hot paths dispatches
through a pluggable :mod:`~repro.tensor.backend` (``reference`` — plain
numpy, or ``fused`` — out=/in-place kernels over reusable workspace arenas;
both bitwise-identical).  Select with ``set_backend`` / the ``REPRO_BACKEND``
environment variable / the ``--backend`` CLI flag.

Importing the package fixes glibc's malloc thresholds once
(:mod:`~repro.tensor.allocator`) so the activations each backward pass frees
stay on the heap for the next step instead of being faulted in again.
"""

from .tensor import Tensor, concatenate, stack, where, no_grad, is_grad_enabled
from . import functional
from .backend import (ArrayBackend, available_backends, get_backend,
                      resolve_backend_name, set_backend, use_backend)
from .gradcheck import gradcheck, numerical_grad
from .allocator import tune_malloc

tune_malloc()

__all__ = [
    "Tensor",
    "concatenate",
    "stack",
    "where",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "gradcheck",
    "numerical_grad",
    "ArrayBackend",
    "available_backends",
    "get_backend",
    "resolve_backend_name",
    "set_backend",
    "use_backend",
]
