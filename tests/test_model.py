import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tacempc import model as model_mod
from tacempc.config import load_config
from tacempc.diagnostics import turnpike_report
from tacempc.errors import ConfigError, DomainError, InfeasibleError
from tacempc.history import steady_history
from tacempc.model import (
    DissipativityCertificate,
    SteadyState,
    SystemModel,
    _grid_blocks,
    _grid_density,
    check_dissipativity_grid,
    eval_rotated_stage_cost,
    min_weighted_output,
    solve_steady_state,
    storage_sup,
    validate_certificate,
)
from tacempc.ocp import (
    ORIGINAL, ROTATED, OcpSpec, _Forward, _Problem, rotated_identity_check, solve,
)
from tacempc.validation import _fd_jacobian


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


def test_constant_cost_and_storage_keep_the_batch_shape():
    # ell = 2 and lam = 0 read no variable, yet a batch of K columns gets K
    # values: the steady-state grid search indexes them per column and the
    # turnpike report sums N of them
    model = SystemModel.from_expressions(
        1, 1, ["x1 * u1"], "2", ["2*x1 + u1 - 5"], [-10.0, -10.0], [10.0, 10.0]
    )
    cert = DissipativityCertificate.from_expression(1, "0", [1.0], 1.0, 2.0, 1.0)
    z = np.array([[1.0, 2.0, 3.0], [0.5, 1.0, 1.5]])
    assert model.ell(z[:1], z[1:]).tobytes() == np.full(3, 2.0).tobytes()
    assert cert.lam(z[:1]).tobytes() == np.zeros(3).tobytes()

    ss = solve_steady_state(model)
    assert ss.ell_s == 2.0
    assert abs(float(model.f(ss.x_s, ss.u_s)[0]) - ss.x_s[0]) <= 1e-8
    assert ss.h_s[0] <= 1e-8

    x0 = np.array([1.0])
    H0 = steady_history(model.h(x0, np.array([1.0])), 3)
    sol = solve(OcpSpec(model=model, cert=cert, ss=ss, N=6, T=3, x0=x0, H0=H0,
                        objective=ORIGINAL))
    assert turnpike_report(sol, ss, cert, 0.1).delta == 0.0

    point = (np.array([1.0]), np.array([1.0]))
    assert type(model.ell(*point)) is float and type(cert.lam(point[0])) is float


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
    residual = check_dissipativity_grid(model, cert, ss)
    assert residual >= -1e-9


def test_dissipativity_fails_for_inflated_margin(builtin):
    model, cert, ss = builtin
    bad = DissipativityCertificate(
        lam=cert.lam, lambda_bar=cert.lambda_bar, a=10.0,
        omega=cert.omega, L_h=cert.L_h, lam_grad=cert.lam_grad,
    )
    assert check_dissipativity_grid(model, bad, ss) < -1e-9


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
        a=cert.a, omega=cert.omega, L_h=cert.L_h, lam_grad=cert.lam_grad,
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


# ---------------------------------------------------------------------------
# the batched rotated stage cost

# dynamics that map the box [-1, 1]^(n+m) into the state box [-1, 1]^n
_IN_BOX_DYNAMICS = ("0.5 * x{a} * u{b}", "0.9 * x{a} - 0.1 * u{b}", "x{a} / (1.5 + u{b}^2)")
_OUTPUTS = ("2 * x{a} + u{b} - 5", "x{a} * u{b}^2 - 1", "x{a}^3 / (1 + u{b}^2)")


@st.composite
def _rotated_setups(draw):
    """Compiled model on the box [-1, 1]^(n+m), certificate and steady state."""
    n, m, p = (draw(st.sampled_from([1, 2])) for _ in range(3))

    def source(templates):
        return draw(st.sampled_from(templates)).format(
            a=draw(st.integers(1, n)), b=draw(st.integers(1, m)))

    model = SystemModel.from_expressions(
        n, m, [source(_IN_BOX_DYNAMICS) for _ in range(n)],
        f"(x1 - 0.5)^2 + u{m}^2 + 0.5 * x{n} * u1", [source(_OUTPUTS) for _ in range(p)],
        [-1.0] * (n + m), [1.0] * (n + m),
    )
    lambda_bar = draw(hnp.arrays(float, p, elements=st.floats(0.0, 2.0)))
    cert = DissipativityCertificate.from_expression(
        n, f"x1^2 - 0.5 * x{n}", lambda_bar, 1.0, 2.0, 1.0)
    ss = SteadyState(np.zeros(n), np.zeros(m), draw(st.floats(-2.0, 2.0)), np.zeros(p))
    return model, cert, ss


def _in_box(draw, *shape):
    return draw(hnp.arrays(float, shape, elements=st.floats(-1.0, 1.0)))


@given(_rotated_setups(), st.data())
def test_rotated_stage_cost_batch_matches_pointwise(setup, data):
    model, cert, ss = setup
    n = model.n
    z = _in_box(data.draw, n + model.m, data.draw(st.integers(1, 6)))
    batched = eval_rotated_stage_cost(model, cert, ss, z[:n], z[n:])
    assert batched.shape == (z.shape[1],)
    pointwise = [eval_rotated_stage_cost(model, cert, ss, z[:n, k], z[n:, k])
                 for k in range(z.shape[1])]
    assert all(type(value) is float for value in pointwise)
    assert batched.tobytes() == np.array(pointwise).tobytes()


@given(_rotated_setups(), st.data())
def test_rotated_stage_cost_rejects_any_column_outside_box(setup, data):
    model, cert, ss = setup
    n, dim = model.n, model.n + model.m
    z = _in_box(data.draw, dim, data.draw(st.integers(1, 6)))
    i, k = data.draw(st.integers(0, dim - 1)), data.draw(st.integers(0, z.shape[1] - 1))
    side = data.draw(st.sampled_from([-1.0, 1.0]))
    z[i, k] = side * (1.0 + 5e-10)  # within the 1e-9 tolerance
    eval_rotated_stage_cost(model, cert, ss, z[:n], z[n:])
    z[i, k] = side * (1.0 + data.draw(st.floats(2e-9, 10.0)))
    with pytest.raises(DomainError):
        eval_rotated_stage_cost(model, cert, ss, z[:n], z[n:])
    with pytest.raises(DomainError):
        eval_rotated_stage_cost(model, cert, ss, z[:n, k], z[n:, k])


@given(_rotated_setups(), st.data())
def test_rotated_stage_cost_sums_to_telescoped_objective(setup, data):
    model, cert, ss = setup
    T = data.draw(st.integers(1, 3))
    N = data.draw(st.integers(T, 8))
    spec = OcpSpec(model=model, cert=cert, ss=ss, N=N, T=T,
                   x0=_in_box(data.draw, model.n),
                   H0=steady_history(np.zeros(model.p), T), objective=ROTATED)
    u = _in_box(data.draw, N, model.m)
    fwd = _Forward(spec)(u)
    stagewise = float(np.sum(eval_rotated_stage_cost(model, cert, ss, fwd.x[:N].T, u.T)))
    telescoped = _Problem(spec).objective(fwd)[0]
    assert stagewise == pytest.approx(telescoped, rel=0, abs=1e-10)
    assert rotated_identity_check(spec, u) == abs(stagewise - telescoped)


def test_grid_density_cap():
    # 10^7 points: n + m <= 3 keeps 201 per axis, n + m = 4 gets 56
    assert _grid_density(201, 3) == 201 and 201**3 <= model_mod._GRID_MAX_POINTS
    assert _grid_density(101, 4) == _grid_density(201, 4) == 56
    assert 56**4 <= model_mod._GRID_MAX_POINTS < 57**4
    assert _grid_density(21, 4) == 21
    assert _grid_density(201, 7) == 10  # 10^7 exactly


def _meshgrid(lower, upper, density):
    """The whole grid in one (dim, k**dim) array, kept as the oracle of the
    block order: np.meshgrid with "ij" indexing, flattened."""
    k = _grid_density(density, len(lower))
    axes = [np.linspace(lo, hi, k) for lo, hi in zip(lower, upper)]
    return np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1)


def test_grid_points_respect_cap(monkeypatch, builtin):
    monkeypatch.setattr(model_mod, "_GRID_MAX_POINTS", 1000)
    lower, upper = -np.ones(4), np.ones(4)
    pts = np.hstack(list(_grid_blocks(lower, upper, 101)))
    assert pts.shape == (4, 5**4)  # 6^4 = 1296 > 1000
    assert pts.tobytes() == _meshgrid(lower, upper, 101).tobytes()
    assert {tuple(c) for c in pts.T} >= {(-1.0,) * 4, (1.0,) * 4}
    assert np.hstack(list(_grid_blocks(lower[:3], upper[:3], 101))).shape == (3, 10**3)
    assert np.hstack(list(_grid_blocks(lower[:2], upper[:2], 21))).shape == (2, 21**2)
    # a capped search (6 points per axis, spacing 4) takes its candidate
    # tolerance from the coarser grid: no grid point is within 2 of a steady state
    model, _, _ = builtin
    monkeypatch.setattr(model_mod, "_GRID_MAX_POINTS", 6**2)
    ss = solve_steady_state(model)
    np.testing.assert_allclose(np.r_[ss.x_s, ss.u_s], [2.0, 1.0], atol=1e-6)


@pytest.mark.parametrize("density", [7, 8])
def test_dissipativity_grid_blocks_match_one_block(monkeypatch, builtin, pair, density):
    for model, cert, ss in (builtin, pair):
        monkeypatch.setattr(model_mod, "_CERT_GRID", density)
        dim = model.n + model.m
        # the former evaluation: every grid point in one batch
        pts = _meshgrid(model.z_lower, model.z_upper, density)
        r = np.linalg.norm(pts - np.r_[ss.x_s, ss.u_s][:, None], axis=0)
        rotated = eval_rotated_stage_cost(model, cert, ss, pts[: model.n], pts[model.n :])
        whole = float(np.min(rotated - cert.rho(r)))
        assert check_dissipativity_grid(model, cert, ss).hex() == whole.hex()
        # blocks of 10 columns: several, the last one partial for density 7;
        # together they are the grid's columns in order
        blocks = []

        def recording(model, cert, ss, x, u):
            blocks.append(np.vstack([x, u]))
            return eval_rotated_stage_cost(model, cert, ss, x, u)

        monkeypatch.setattr(model_mod, "_GRID_BLOCK", 10)
        monkeypatch.setattr(model_mod, "eval_rotated_stage_cost", recording)
        assert check_dissipativity_grid(model, cert, ss).hex() == whole.hex()
        assert len(blocks) == -(-density**dim // 10) > 1
        assert np.hstack(blocks).tobytes() == pts.tobytes()
        monkeypatch.undo()


@pytest.mark.parametrize("density", [7, 8])
def test_steady_state_and_weighted_output_blocks_match_one_block(monkeypatch, builtin, pair,
                                                                 density):
    # the SLSQP starts (the ranked steady-state candidates) and the L-BFGS-B
    # start of min_weighted_output (its first best grid point)
    starts, refinements = [], []
    minimize, lbfgsb = model_mod.optimize.minimize, model_mod.lbfgsb
    monkeypatch.setattr(model_mod.optimize, "minimize",
                        lambda fun, z0, **kw: starts.append(z0) or minimize(fun, z0, **kw))
    monkeypatch.setattr(model_mod, "lbfgsb",
                        lambda fun, z0, **kw: refinements.append(z0) or lbfgsb(fun, z0, **kw))
    monkeypatch.setattr(model_mod, "_CERT_GRID", density)
    model, cert, _ = pair
    # lambda_bar = (1, 0) ties the weighted output across x2 and u2
    tied = dataclasses.replace(cert, lambda_bar=np.array([1.0, 0.0]))
    for model, cert, _ in (builtin, (model, cert, None), (model, tied, None)):
        # the former ranking: the whole grid at once, ties by flat index
        pts = _meshgrid(model.z_lower, model.z_upper, density)
        x, u = pts[: model.n], pts[model.n :]
        grid_tol = np.max((model.z_upper - model.z_lower) / (density - 1))
        feasible = (np.max(np.abs(model.f(x, u) - x), axis=0) <= grid_tol) & (
            np.max(np.atleast_2d(model.h(x, u)), axis=0) <= grid_tol)
        ranked = np.flatnonzero(feasible)
        ranked = ranked[np.argsort(model.ell(x, u)[ranked], kind="stable")][:10]
        weighted = np.sum(cert.lambda_bar * np.atleast_2d(model.h(x, u)).T, axis=-1)
        results = []
        for block in (model_mod._GRID_BLOCK, 10):
            monkeypatch.setattr(model_mod, "_GRID_BLOCK", block)
            starts.clear()
            ss = solve_steady_state(model, grid_density=density)
            assert np.array(starts).tobytes() == pts[:, ranked].T.tobytes()
            results.append((np.r_[ss.x_s, ss.u_s, ss.ell_s, ss.h_s].tobytes(),
                            min_weighted_output(model, cert).hex()))
            assert refinements[-1].tobytes() == pts[:, np.argmin(weighted)].tobytes()
        assert density ** (model.n + model.m) > 10
        assert results[0] == results[1]
    # the pair model's symmetric cost ties candidates
    assert len(set(model.ell(x, u)[ranked])) < len(ranked)
    assert np.count_nonzero(weighted == weighted.min()) > 10


def test_min_weighted_output_affine(builtin):
    model, cert, _ = builtin
    # h = 2x + u - 5 on [-10, 10]^2, lambda_bar = 1
    assert min_weighted_output(model, cert) == pytest.approx(-35.0, abs=1e-6)


def test_min_weighted_output_refines_off_grid():
    # the minimizer's x = 0.123 lies between the grid's x points (step 0.2);
    # in the second case (-0.456 for u too) the minimum is interior, not on a
    # face of the box, and the grid's best point reads -9.98187
    for h, want in [("(x1 - 0.123)^2 + u1 - 5", -30.0),
                    ("(x1 - 0.123)^2 + (u1 + 0.456)^2 - 5", -10.0)]:
        model = SystemModel.from_expressions(
            1, 1, ["x1"], "x1^2", [h], [-10.0, -10.0], [10.0, 10.0]
        )
        cert = DissipativityCertificate.from_expression(1, "x1", [2.0], 1.0, 2.0, 1.0)
        assert min_weighted_output(model, cert) == pytest.approx(want, abs=1e-9)


def test_certificate_parameter_validation():
    kw = dict(lam=lambda x: 0.0, lambda_bar=[1.0], a=1.0, omega=2.0, L_h=1.0,
              lam_grad=lambda x: np.zeros(1))
    with pytest.raises(ConfigError):
        DissipativityCertificate(**{**kw, "lambda_bar": [-1.0]})
    with pytest.raises(ConfigError):
        DissipativityCertificate(**{**kw, "a": -1.0})
    # NaN compares false with 0, so "a <= 0" let it through
    for name in ("a", "omega", "L_h"):
        for value in (np.nan, np.inf, 0.0):
            with pytest.raises(ConfigError, match="a, omega and L_h must be positive and finite"):
                DissipativityCertificate(**{**kw, name: value})
    for value in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="multiplier lambda_bar must be finite"):
            DissipativityCertificate(**{**kw, "lambda_bar": [1.0, value]})


@given(st.floats())
@example(5e-324)
@example(1e-170)  # rho = 0.25 * 1e-340 underflows to 0
@example(1e154)
@example(1e155)  # rho = 0.25 * 1e310 overflows to inf
@example(1e300)
@example(np.inf)
@example(np.nan)
@example(-0.0)
def test_margin_is_the_one_proximity_radius_test(builtin, eps):
    # the report divides by the margin: it is rho(eps) where both are
    # positive and finite, and a DomainError, never a warning, elsewhere;
    # load_config refuses exactly the radii it refuses
    cert = builtin[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            margin = cert.margin(eps)
        except DomainError:
            margin = None
        try:
            load_config(model_name="mueller-koehler", overrides={"eps": eps})
            loaded = True
        except ConfigError:
            loaded = False
    assert loaded == (margin is not None)
    if margin is not None:
        # == is bit equality for positive finite doubles
        assert 0 < margin < np.inf and margin == float(cert.rho(eps))


@pytest.mark.parametrize("side", ["z_lower", "z_upper"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_box_bounds_finite(side, value):
    # Z is compact; NaN compares false with the other bound, so it passed
    # the crossed-bounds check
    box = {"z_lower": [-1.0, -1.0], "z_upper": [1.0, 1.0]}
    box[side][0] = value
    with pytest.raises(ConfigError, match="box bounds must be finite"):
        SystemModel.from_expressions(1, 1, ["x1"], "x1^2", ["x1"], **box)


def test_steady_history_shape():
    ss = SteadyState(
        x_s=np.array([2.0]), u_s=np.array([1.0]), ell_s=2.0, h_s=np.array([0.0])
    )
    assert steady_history(ss.h_s, 6).columns.shape == (1, 5)
    assert steady_history(ss.h_s, 1).columns.shape == (1, 0)


def test_finite_difference_jacobians(builtin):
    # the builtin's compiled Jacobians hold the closed-form derivatives
    model, _, _ = builtin
    x, u = np.array([1.7]), np.array([0.4])
    np.testing.assert_allclose(model.f_jac(x, u), [[0.4, 1.7]], atol=1e-6)
    np.testing.assert_allclose(model.ell_grad(x, u), [2 * (1.7 - 3.0), 0.8], atol=1e-6)
    np.testing.assert_allclose(model.h_jac(x, u), [[2.0, 1.0]], atol=1e-6)


def _python_model(drop=()):
    """A two-state model built in Python, its Jacobians given as nested
    lists, without the callables named in drop."""
    def zero(x):  # 0 in x's batch shape
        return 0 * x[0]

    callables = dict(
        f=lambda x, u: np.array([x[0] * u[0], x[1] + x[0] ** 2]),
        ell=lambda x, u: (x[0] - 3.0) ** 2 + x[1] * u[0],
        h=lambda x, u: np.array([2 * x[0] + u[0] - 5.0, x[0] * x[1]]),
        f_jac=lambda x, u: [[u[0], zero(x), x[0]], [2 * x[0], 1 + zero(x), zero(x)]],
        ell_grad=lambda x, u: [2 * (x[0] - 3.0), u[0], x[1]],
        h_jac=lambda x, u: [[2 + zero(x), zero(x), 1 + zero(x)], [x[1], x[0], zero(x)]],
    )
    return SystemModel(n=2, m=1, p=2, z_lower=[-10.0] * 3, z_upper=[10.0] * 3,
                       **{k: v for k, v in callables.items() if k not in drop})


@pytest.mark.parametrize("name", ["f_jac", "ell_grad", "h_jac"])
def test_model_requires_its_jacobians(name):
    # no Jacobian falls back to differences: leaving one out is a TypeError,
    # and None, built directly or through dataclasses.replace, a ConfigError
    with pytest.raises(TypeError, match=name):
        _python_model(drop=(name,))
    model = _python_model()
    fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model) if f.init}
    message = f"SystemModel.{name} must be callable"
    with pytest.raises(ConfigError, match=message):
        SystemModel(**{**fields, name: None})
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(model, **{name: None})


def test_certificate_requires_its_gradient():
    kw = dict(lam=lambda x: 1.5 * (x[0] - 2.0), lambda_bar=[1.0], a=1.0, omega=2.0, L_h=1.0)
    message = "DissipativityCertificate.lam_grad must be callable"
    with pytest.raises(TypeError, match="lam_grad"):
        DissipativityCertificate(**kw)
    with pytest.raises(ConfigError, match=message):
        DissipativityCertificate(**kw, lam_grad=None)
    cert = DissipativityCertificate(**kw, lam_grad=lambda x: [1.5])
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(cert, lam_grad=None)


def test_list_valued_derivatives_of_a_python_model():
    # nested-list Jacobians reach the record through np.reshape, bit for
    # bit like arrays, and a list storage gradient reaches sup |lam|
    lists = _python_model()
    arrays = dataclasses.replace(lists, **{
        name: (lambda fn: lambda x, u: np.array(fn(x, u), dtype=float))(getattr(lists, name))
        for name in ("f_jac", "ell_grad", "h_jac")})
    us = np.array([[0.4], [-0.3], [0.9]])
    records = [np.zeros((4, sum(model_mod.step_record_widths(2, 1, 2)))) for _ in range(2)]
    for model, record in zip((lists, arrays), records):
        model.stage_pass(np.array([1.7, -0.3]), us, record)
    assert records[0].tobytes() == records[1].tobytes()
    np.testing.assert_allclose(records[0][0, 3:5], [2 * 1.7 + 0.4 - 5.0, 1.7 * -0.3])
    cert = DissipativityCertificate(lam=lambda x: 1.5 * (x[0] - 2.0), lambda_bar=[1.0, 0.0],
                                    a=1.0, omega=2.0, L_h=1.0, lam_grad=lambda x: [1.5, 0.0])
    assert storage_sup(lists, cert) == pytest.approx(1.5 * 12.0)


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
        "f_jac": model.f_jac(x, u),
        "ell_grad": model.ell_grad(x, u),
        "h_jac": model.h_jac(x, u),
        "fd_f": _fd_jacobian(model.f, x, u, 2),
        "fd_ell": _fd_jacobian(lambda a, b: [model.ell(a, b)], x, u, 1),
        "fd_h": _fd_jacobian(model.h, x, u, 2),
    }
    assert batched["f_jac"].shape == (2, 4, 6) and batched["ell_grad"].shape == (4, 6)
    for k in range(z.shape[1]):
        xk, uk = x[:, k], u[:, k]
        pointwise = {
            "f_jac": model.f_jac(xk, uk),
            "ell_grad": model.ell_grad(xk, uk),
            "h_jac": model.h_jac(xk, uk),
            "fd_f": _fd_jacobian(model.f, xk, uk, 2),
            "fd_ell": _fd_jacobian(lambda a, b: [model.ell(a, b)], xk, uk, 1),
            "fd_h": _fd_jacobian(model.h, xk, uk, 2),
        }
        for name, want in pointwise.items():
            got = batched[name][..., k]
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
        fd, exact = pointwise["fd_f"], pointwise["f_jac"]
        if k == z.shape[1] - 1:  # a fixed 1e-7 step would round away next to 3e12
            fd, exact = fd[:, 0], exact[:, 0]
        np.testing.assert_allclose(fd, exact, rtol=1e-6, atol=1e-6)


def test_array_holding_dataclasses_compare_and_hash_by_identity(builtin, pair):
    # distinct instances with equal values: the generated field-tuple
    # comparison would ask numpy for the truth value of an array
    model, cert, ss = pair
    for obj, field in ((builtin[0], "z_lower"), (model, "z_lower"),
                       (cert, "lambda_bar"), (ss, "x_s")):
        twin = dataclasses.replace(obj, **{field: getattr(obj, field).copy()})
        assert obj == obj and obj != twin and not obj == twin
        assert len({obj, twin, obj}) == 2
