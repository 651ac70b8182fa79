"""Shared test helpers."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor


def numeric_gradient(func, array, epsilon=1e-3):
    """Central-difference gradient of scalar ``func`` at ``array``."""
    array = np.asarray(array, dtype=np.float64)
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = func(array.astype(np.float32))
        flat[index] = original - epsilon
        lower = func(array.astype(np.float32))
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * epsilon)
    return grad


def check_gradient(build_output, array, rtol=1e-2, atol=1e-3):
    """Assert autograd matches finite differences for a scalar function.

    ``build_output(tensor)`` must return a scalar Tensor built from the
    input tensor.
    """
    tensor = Tensor(np.asarray(array, dtype=np.float32),
                    requires_grad=True)
    output = build_output(tensor)
    output.backward()
    analytic = tensor.grad

    def scalar_func(values):
        fresh = Tensor(values, requires_grad=True)
        return float(build_output(fresh).data)

    numeric = numeric_gradient(scalar_func, array)
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


#: Where the bit pins (model digests, accumulated-step trails) were
#: recorded.  GEMM bits depend on the shape and the BLAS kernel, so a pin
#: can fail on another numpy or BLAS build without any code change.
PINNED_PLATFORM = "numpy 2.4.6 with OpenBLAS 0.3.31"


def pin_note():
    """Failure message for a bit pin: its recording platform and this
    run's numpy version and BLAS vendor/version."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):  # numpy without show_config(mode=...)
        blas = "an unreported BLAS"
    return (f"pinned under {PINNED_PLATFORM}; this run has numpy "
            f"{np.__version__} with {blas}")


@pytest.fixture
def rng():
    return np.random.default_rng(0)
