"""L-BFGS-B driven straight through scipy's compiled kernel.

``lbfgsb`` repeats the driver loop of scipy 1.17.1's ``_minimize_lbfgsb``
step for step: the same ``setulb`` calls on the same arrays, so the
iterates, ``nit``, ``nfev`` and ``status`` are scipy's bit for bit.  The
objective is called directly, without ``ScalarFunction``, ``MemoizeJac``
or a per-iteration ``OptimizeResult``.  ``ocp.solve`` passes it to
``scipy.optimize.minimize`` as a callable ``method`` (so the ``minimize``
boundary stays); ``model.min_weighted_output`` calls it directly.

``scipy.optimize._lbfgsb`` is a private scipy module.  Its 17-argument
``setulb`` is the C translation of L-BFGS-B that came with scipy 1.15.
``tests/test_lbfgsb.py`` compares this driver with
``minimize(method="L-BFGS-B")`` bit for bit and so pins the kernel's
calling convention.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import OptimizeResult, _lbfgsb
from scipy.optimize._optimize import MemoizeJac

_NEW_X, _FG, _CONVERGENCE, _STOP = 1, 3, 4, 5
_NBD = np.array([[0, 3], [1, 2]], dtype=np.int32)  # scipy's nbd by [finite lower, finite upper]


def lbfgsb(fun, x0, args=(), jac=None, bounds=None, maxcor=10,
           ftol=2.2204460492503131e-09, gtol=1e-5, maxfun=15000, maxiter=15000,
           maxls=20, hess=None, hessp=None, constraints=(), callback=None):
    """Minimize ``fun`` over a box by L-BFGS-B; scipy's options and counters.

    fun(x, *args) returns the value (a float) and the gradient (a float
    array) and must not modify x.  Called directly, pass ``jac=True``;
    as ``minimize(fun, x0, jac=True, method=lbfgsb, ...)`` the
    ``MemoizeJac`` wrapper minimize puts around fun is bypassed.  bounds
    is one (low, high) pair per variable, +-inf for none.  The result
    has scipy's x, fun, jac, nit, nfev, status and success.
    """
    if hess is not None or hessp is not None or callback is not None or len(constraints):
        raise ValueError("lbfgsb takes no Hessian, constraints or callback")
    if isinstance(fun, MemoizeJac):
        fun = fun.fun
    elif jac is not True:
        raise ValueError("lbfgsb needs jac=True: fun returns its value and gradient")
    lower, upper = np.array(bounds, dtype=float).T
    x = np.clip(np.asarray(x0, dtype=float).ravel(), lower, upper)
    n = x.size
    has_lower, has_upper = ~np.isinf(lower), ~np.isinf(upper)
    nbd = _NBD[has_lower.astype(int), has_upper.astype(int)]
    lower = np.where(has_lower, lower, 0.0)
    upper = np.where(has_upper, upper, 0.0)
    factr = ftol / np.finfo(float).eps
    f, g = np.array(0.0), np.zeros(n)
    wa = np.zeros(2 * maxcor * n + 5 * n + 11 * maxcor * maxcor + 8 * maxcor)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task, ln_task = np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.int32)
    lsave, isave = np.zeros(4, dtype=np.int32), np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)

    x_last = x.copy()  # the last point evaluated, with its value and gradient
    # its entries as floats: list == compares them like numpy's x == x_last
    # (-0.0 == 0.0, nan != nan), for a fraction of the cost on short vectors
    point = x_last.tolist()
    f_last, g_last = fun(x_last, *args)
    nfev, nit = 1, 0
    while True:
        g = g.astype(np.float64)  # a copy: setulb writes into g
        _lbfgsb.setulb(maxcor, x, lower, upper, nbd, f, g, factr, gtol, wa, iwa,
                       task, lsave, isave, dsave, maxls, ln_task)
        if task[0] == _FG:
            entries = x.tolist()
            if entries != point:
                x_last, point = x.copy(), entries
                f_last, g_last = fun(x_last, *args)
                nfev += 1
            f, g = f_last, g_last
        elif task[0] == _NEW_X:
            nit += 1
            if nit >= maxiter:
                task[:] = _STOP, 504  # iteration limit
            elif nfev > maxfun:
                task[:] = _STOP, 502  # evaluation limit
        else:
            break

    if task[0] == _CONVERGENCE:
        status = 0
    else:
        status = 1 if nfev > maxfun or nit >= maxiter else 2
    return OptimizeResult(x=x, fun=f, jac=g, nit=nit, nfev=nfev, status=status,
                          success=status == 0)
