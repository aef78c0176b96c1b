import numpy as np
import pytest

from tacempc.errors import ConfigError, DomainError, InfeasibleError
from tacempc.history import steady_history
from tacempc.model import (
    DissipativityCertificate,
    SteadyState,
    SystemModel,
    _fd_jacobian,
    check_dissipativity_grid,
    eval_rotated_stage_cost,
    output_extremes,
    solve_steady_state,
    validate_certificate,
)


def test_builtin_steady_state(builtin):
    model, _, _ = builtin
    ss = solve_steady_state(model)
    assert ss.x_s[0] == pytest.approx(2.0, abs=1e-6)
    assert ss.u_s[0] == pytest.approx(1.0, abs=1e-6)
    assert ss.ell_s == pytest.approx(2.0, abs=1e-6)
    assert ss.h_s[0] == pytest.approx(0.0, abs=1e-6)


def test_steady_state_without_output_constraint():
    # dropping the output constraint moves the optimum to (3, 1), cost 1
    model = SystemModel.from_expressions(
        n=1, m=1,
        f_sources=["x1 * u1"],
        ell_source="(x1 - 3)^2 + u1^2",
        h_sources=["0 * x1"],
        z_lower=[-10.0, -10.0],
        z_upper=[10.0, 10.0],
    )
    ss = solve_steady_state(model)
    assert ss.x_s[0] == pytest.approx(3.0, abs=1e-6)
    assert ss.u_s[0] == pytest.approx(1.0, abs=1e-6)
    assert ss.ell_s == pytest.approx(1.0, abs=1e-6)


def test_steady_state_infeasible_output():
    # h > 0 everywhere on the box: no admissible steady state
    model = SystemModel.from_expressions(
        n=1, m=1,
        f_sources=["x1"],
        ell_source="x1^2 + u1^2",
        h_sources=["x1^2 + u1^2 + 1"],
        z_lower=[-1.0, -1.0],
        z_upper=[1.0, 1.0],
    )
    with pytest.raises(InfeasibleError):
        solve_steady_state(model)


def test_crossed_bounds_rejected():
    with pytest.raises(ConfigError):
        SystemModel.from_expressions(
            n=1, m=1,
            f_sources=["x1"],
            ell_source="x1^2",
            h_sources=["x1"],
            z_lower=[1.0, 0.0],
            z_upper=[-1.0, 1.0],
        )


def test_dissipativity_residual_nonnegative(builtin):
    model, cert, ss = builtin
    residual = check_dissipativity_grid(model, cert, ss, grid_density=101)
    assert residual >= -1e-9


def test_dissipativity_fails_for_inflated_margin(builtin):
    model, cert, ss = builtin
    bad = DissipativityCertificate(
        lam=cert.lam, lambda_bar=cert.lambda_bar, a=10.0,
        omega=cert.omega, L_h=cert.L_h, lam_grad=cert.lam_grad,
    )
    assert check_dissipativity_grid(model, bad, ss, grid_density=51) < -1e-9


def test_dissipativity_residual_closed_form(builtin):
    # for this model the residual equals 0.75 (x - u - 1)^2 >= 0
    model, cert, ss = builtin
    rng = np.random.default_rng(5)
    for _ in range(50):
        x = rng.uniform(-10, 10, 1)
        u = rng.uniform(-10, 10, 1)
        res = (
            float(model.ell(x, u)) - ss.ell_s
            + float(cert.lambda_bar @ np.atleast_1d(model.h(x, u)))
            - cert.a * np.linalg.norm(np.array([x[0] - 2.0, u[0] - 1.0])) ** cert.omega
            - float(cert.lam(np.atleast_1d(model.f(x, u))))
            + float(cert.lam(x))
        )
        assert res == pytest.approx(0.75 * (x[0] - u[0] - 1.0) ** 2, abs=1e-9)


def test_validate_certificate_rejects_unnormalized(builtin):
    model, cert, ss = builtin
    validate_certificate(cert, ss)  # the builtin pair is consistent
    shifted = DissipativityCertificate(
        lam=lambda x: cert.lam(x) + 1.0, lambda_bar=cert.lambda_bar,
        a=cert.a, omega=cert.omega, L_h=cert.L_h,
    )
    with pytest.raises(ConfigError):
        validate_certificate(shifted, ss)


def test_rotated_stage_cost_examples(builtin):
    model, cert, ss = builtin
    assert eval_rotated_stage_cost(model, cert, ss, [1.0], [1.0]) == pytest.approx(1.0)
    assert eval_rotated_stage_cost(model, cert, ss, [3.0], [0.5]) == pytest.approx(2.0)
    assert eval_rotated_stage_cost(model, cert, ss, [2.0], [1.0]) == pytest.approx(0.0)


def test_rotated_stage_cost_outside_box(builtin):
    model, cert, ss = builtin
    with pytest.raises(DomainError):
        eval_rotated_stage_cost(model, cert, ss, [11.0], [1.0])


def test_rotated_stage_cost_nonnegative_on_grid(builtin):
    model, cert, ss = builtin
    xs = np.linspace(-10, 10, 41)
    us = np.linspace(-10, 10, 41)
    for x in xs:
        for u in us:
            assert eval_rotated_stage_cost(model, cert, ss, [x], [u]) >= -1e-9


def test_output_extremes_affine(builtin):
    model, cert, _ = builtin
    theta_low, theta_high, h_low, h_high = output_extremes(model, cert)
    # h = 2x + u - 5 on [-10, 10]^2
    assert theta_low == pytest.approx(-35.0, abs=1e-6)
    assert theta_high == pytest.approx(25.0, abs=1e-6)
    assert h_low[0] == pytest.approx(-35.0, abs=1e-6)
    assert h_high[0] == pytest.approx(25.0, abs=1e-6)


def test_certificate_parameter_validation():
    with pytest.raises(ConfigError):
        DissipativityCertificate(lam=lambda x: 0.0, lambda_bar=[-1.0], a=1.0, omega=2.0, L_h=1.0)
    with pytest.raises(ConfigError):
        DissipativityCertificate(lam=lambda x: 0.0, lambda_bar=[1.0], a=-1.0, omega=2.0, L_h=1.0)


def test_steady_history_shape():
    ss = SteadyState(
        x_s=np.array([2.0]), u_s=np.array([1.0]), ell_s=2.0, h_s=np.array([0.0])
    )
    assert steady_history(ss.h_s, 6).columns.shape == (1, 5)
    assert steady_history(ss.h_s, 1).columns.shape == (1, 0)


def test_finite_difference_jacobians(builtin):
    model, _, _ = builtin
    x, u = np.array([1.7]), np.array([0.4])
    np.testing.assert_allclose(model.jac_f(x, u), [[0.4, 1.7]], atol=1e-6)
    np.testing.assert_allclose(model.grad_ell(x, u), [2 * (1.7 - 3.0), 0.8], atol=1e-6)
    np.testing.assert_allclose(model.jac_h(x, u), [[2.0, 1.0]], atol=1e-6)
    # without Jacobian callables the model falls back to central differences
    fd_model = SystemModel(
        n=2, m=1, p=2,
        f=lambda x, u: np.array([x[0] * u[0], x[1] + x[0] ** 2]),
        ell=lambda x, u: (x[0] - 3.0) ** 2 + x[1] * u[0],
        h=lambda x, u: np.array([2 * x[0] + u[0] - 5.0, x[0] * x[1]]),
        z_lower=[-10.0, -10.0, -10.0], z_upper=[10.0, 10.0, 10.0],
    )
    x, u = np.array([1.7, -0.3]), np.array([0.4])
    np.testing.assert_allclose(
        fd_model.jac_f(x, u), [[0.4, 0.0, 1.7], [3.4, 1.0, 0.0]], atol=1e-6
    )
    np.testing.assert_allclose(fd_model.grad_ell(x, u), [-2.6, 0.4, -0.3], atol=1e-6)
    np.testing.assert_allclose(
        fd_model.jac_h(x, u), [[2.0, 0.0, 1.0], [-0.3, 1.7, 0.0]], atol=1e-6
    )
    cert = DissipativityCertificate(
        lam=lambda z: 1.5 * (z[0] - 2.0) + z[0] * z[1],
        lambda_bar=[1.0], a=1.0, omega=2.0, L_h=1.0,
    )
    np.testing.assert_allclose(cert.grad_lam([1.0, 3.0]), [4.5, 1.0], atol=1e-6)


def test_batched_jacobians_match_pointwise():
    # n = m = p = 2 with powers, products and a quotient; the last column
    # sits far outside the box, where a fixed difference step would vanish
    model = SystemModel.from_expressions(
        2, 2, ["x1 * u1 + 0.1 * x2^3", "x2 / (1 + u2^2) - x1^2"],
        "(x1 - 3)^2 + u1^2 + x2 * u2", ["2*x1 + u1 - 5", "x1^3 * u2 - x2"],
        [-10.0] * 4, [10.0] * 4,
    )
    rng = np.random.default_rng(7)
    z = np.column_stack([rng.uniform(-10.0, 10.0, (4, 5)), [3e12, -2.0, 0.5, 1e9]])
    x, u = z[:2], z[2:]
    batched = {
        "jac_f": model.jac_f(x, u),
        "grad_ell": model.grad_ell(x, u),
        "jac_h": model.jac_h(x, u),
        "fd_f": _fd_jacobian(model.f, x, u, 2),
        "fd_ell": _fd_jacobian(lambda a, b: [model.ell(a, b)], x, u, 1),
        "fd_h": _fd_jacobian(model.h, x, u, 2),
    }
    assert batched["jac_f"].shape == (2, 4, 6) and batched["grad_ell"].shape == (4, 6)
    for k in range(z.shape[1]):
        xk, uk = x[:, k], u[:, k]
        pointwise = {
            "jac_f": model.jac_f(xk, uk),
            "grad_ell": model.grad_ell(xk, uk),
            "jac_h": model.jac_h(xk, uk),
            "fd_f": _fd_jacobian(model.f, xk, uk, 2),
            "fd_ell": _fd_jacobian(lambda a, b: [model.ell(a, b)], xk, uk, 1),
            "fd_h": _fd_jacobian(model.h, xk, uk, 2),
        }
        for name, want in pointwise.items():
            got = batched[name][..., k]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        fd, exact = pointwise["fd_f"], pointwise["jac_f"]
        if k == z.shape[1] - 1:  # a fixed 1e-7 step would round away next to 3e12
            fd, exact = fd[:, 0], exact[:, 0]
        np.testing.assert_allclose(fd, exact, rtol=1e-6, atol=1e-6)
