"""Central-difference gradient check for the tests of the tape autodiff."""

from __future__ import annotations

from typing import Callable, Iterable, Optional

import numpy as np

from grounddial.autodiff import Tape, Tensor, backward


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5,
               coords: Optional[Iterable] = None) -> float:
    """Max relative error between tape gradients of f and central differences.

    f must be scalar-valued and built from ops that record onto the tape.
    `coords` optionally restricts the check to a subset of flat indices of
    x; the default checks every coordinate.
    """
    was = x.requires_grad
    x.requires_grad = True
    x.grad = None
    try:
        with Tape() as tape:
            loss = f(x)
        backward(loss, tape)
        analytic = x.grad.copy() if x.grad is not None else np.zeros_like(x.data)
        x.grad = None
        flat = x.data.reshape(-1)
        aflat = analytic.reshape(-1)
        if coords is None:
            coords = range(flat.size)
        worst = 0.0
        for k in coords:
            orig = flat[k]
            flat[k] = orig + h
            fp = f(x).item()
            flat[k] = orig - h
            fm = f(x).item()
            flat[k] = orig
            numeric = (fp - fm) / (2.0 * h)
            a = aflat[k]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > worst:
                worst = err
        return worst
    finally:
        x.requires_grad = was
        x.grad = None
