import math

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from _oracles import (aitken_step, interp_field_per_point, keldysh_entries_per_node,
                      sample_per_node, validate_bounds_loop)
from sonicflow import keldysh
from sonicflow.field2d import Field2D, field_csv_text, sample
from sonicflow.keldysh import (InsufficientGradingError, KeldyshBC,
                               KeldyshCoefficients, KeldyshConvergenceError,
                               KeldyshDivergenceError, KeldyshDomain,
                               KeldyshOptions, corner_probe,
                               manufactured_scenario, solve_model,
                               sonic_derivative_scan, reference_scenario,
                               verify_bounds)

A = 4.0


@pytest.fixture(scope="module")
def domain():
    return KeldyshDomain(eps0=0.5, f=lambda x: 1.0 + x, fp=lambda x: 1.0,
                         fpp=lambda x: 0.0, omega=1.0)


@pytest.fixture(scope="module")
def plain_coeffs():
    return KeldyshCoefficients(a=A, b=1.0)


def manufactured_bc(eps0=0.5):
    exact = lambda x: x * x / (2.0 * A)
    return KeldyshBC(top_mode="dirichlet", top_data=exact,
                     right_data=lambda y: exact(eps0))


@pytest.fixture(scope="module")
def manufactured_fields(domain, plain_coeffs):
    out = {}
    for n in (17, 33, 65):
        opts = KeldyshOptions(nx=n, ny=n, tol=1e-12, max_iter=120)
        out[n] = solve_model(domain, plain_coeffs, opts, manufactured_bc())
    return out


@pytest.fixture(scope="module")
def scenario_field():
    dom, coeffs, bc = reference_scenario()
    fld = solve_model(dom, coeffs, KeldyshOptions(nx=97, ny=97, tol=1e-11, max_iter=160), bc)
    return fld, coeffs


# ---------------------------------------------------------------------------
# domain / coefficient validation
# ---------------------------------------------------------------------------

def test_domain_validation():
    one, zero = (lambda x: 1.0), (lambda x: 0.0)
    with pytest.raises(ValueError, match="f\\(0\\)"):
        KeldyshDomain(eps0=0.5, f=lambda x: x, fp=one, fpp=zero, omega=1.0)
    with pytest.raises(ValueError, match="df/dx"):
        KeldyshDomain(eps0=0.5, f=lambda x: 1.0 - x, fp=lambda x: -1.0, fpp=zero, omega=0.5)
    with pytest.raises(ValueError, match="eps0"):
        KeldyshDomain(eps0=-1.0, f=lambda x: 1.0 + x, fp=one, fpp=zero)
    with pytest.raises(TypeError, match="fp"):  # no finite-difference fallback
        KeldyshDomain(eps0=0.5, f=lambda x: 1.0 + x)
    # derivatives that do not match f, and samples that are not finite, are
    # named with the first interval where the trapezoid differences disagree
    with pytest.raises(ValueError,
                       match=r"^fp disagrees with the differences of f on \[0, 0\.00125\]$"):
        KeldyshDomain(eps0=0.5, f=lambda x: 1.0 + x, fp=lambda x: 2.0, fpp=lambda x: 0.7)
    with pytest.raises(ValueError, match=r"^fpp disagrees with the differences of fp on \[0, "):
        KeldyshDomain(eps0=0.5, f=lambda x: 1.0 + x, fp=one, fpp=lambda x: 0.7)
    with pytest.raises(ValueError,
                       match=r"^fp disagrees with the differences of f on \[0\.2, 0\.2013\]$"):
        KeldyshDomain(eps0=0.5, f=lambda x: 1.0 + x, fp=lambda x: math.nan if x > 0.2 else 1.0,
                      fpp=zero)
    with pytest.raises(ValueError, match=r"^fp disagrees with the differences of f on \[0\.3, "):
        KeldyshDomain(eps0=0.5, f=lambda x: math.inf if x > 0.3 else 1.0 + x, fp=one, fpp=zero)


# one hand-made violator per check of validate_bounds, with its message
BOUND_VIOLATORS = [
    (dict(O1=lambda x, y: 0.5 * x, N=0.1), r"\|O1\(0\.02,0\)\| exceeds N\*x\^2"),
    *[(dict([(name, lambda x, y: 2.0 * x)]), rf"\|{name}\(0\.02,0\)\| exceeds N\*x$")
      for name in ("O2", "O3", "O4", "O5")],
    (dict(O1=lambda x, y: 0.5 * x * x * math.cos(40.0 * y)),
     r"\|DO1\(0\.06,0\.133\)\| exceeds N\*x$"),
    *[(dict([(name, lambda x, y: 0.5 * x * math.cos(40.0 * y))]),
       rf"\|D{name}\(0\.06,0\.133\)\| exceeds N$")
      for name in ("O2", "O3", "O4", "O5")],
    # the ids keep the names these two cases had before the messages named the point
    pytest.param(dict(beta1=lambda x, y: 0.1, lam=0.5), r"beta1\(0\.02,1\.02\) < lambda",
                 id="kwargs10-beta1 < lambda"),
    pytest.param(dict(beta2=lambda x, y: -2.5, lam=0.5), r"\|beta2\(0\.02,1\.02\)\| > 1/lambda",
                 id=r"kwargs11-\|beta2\| > 1/lambda"),
]


def _bounds_outcome(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("kwargs, message", BOUND_VIOLATORS)
def test_bounds_violator_matches_the_loop(domain, kwargs, message):
    coeffs = KeldyshCoefficients(a=A, b=1.0, **kwargs)
    with pytest.raises(ValueError, match=message):
        coeffs.validate_bounds(domain)
    assert _bounds_outcome(coeffs.validate_bounds, domain) == \
        _bounds_outcome(validate_bounds_loop, coeffs, domain)


def test_bounds_sweep_matches_the_loop():
    """validate_bounds ends as the loops first written did, message and all,
    on reference scenarios inside their bounds and, from eps0 = 2 on for the
    larger o_scale, outside them."""
    outcomes = []
    for o_scale in (0.01, 0.05, 0.5, 3.0):
        for eps0 in (0.1, 0.5, 2.0, 3.0, 5.0, 9.0):
            for a in (1.0, 4.0):
                dom, coeffs, _ = reference_scenario(eps0=eps0, a=a, o_scale=o_scale)
                got = _bounds_outcome(coeffs.validate_bounds, dom)
                assert got == _bounds_outcome(validate_bounds_loop, coeffs, dom)
                outcomes.append(got)
    # the default o_scale 0.05 at eps0 = 3 fails first at x = 2.64
    assert None in outcomes and "|DO3(2.64,0.91)| exceeds N" in outcomes


def test_coefficient_bounds(domain):
    good = KeldyshCoefficients(a=A, b=1.0, O1=lambda x, y: 0.05 * x * x, N=0.1)
    good.validate_bounds(domain)
    bad = KeldyshCoefficients(a=A, b=1.0, O1=lambda x, y: 0.5 * x, N=0.1)
    with pytest.raises(ValueError, match="O1"):
        bad.validate_bounds(domain)
    skew = KeldyshCoefficients(a=A, b=1.0, beta1=lambda x, y: 0.1, lam=0.5)
    with pytest.raises(ValueError, match="beta1"):
        skew.validate_bounds(domain)


# ---------------------------------------------------------------------------
# manufactured solution
# ---------------------------------------------------------------------------

def test_manufactured_reproduced(manufactured_fields):
    fld = manufactured_fields[65]
    err = np.max(np.abs(fld.values - fld.x ** 2 / (2 * A)))
    assert err < 5e-4
    assert fld.metadata["residual"] < 1e-8
    assert not fld.metadata["clamp_active"]


def test_manufactured_convergence_order(manufactured_fields):
    errs = [float(np.max(np.abs(f.values - f.x ** 2 / (2 * A))))
            for f in (manufactured_fields[17], manufactured_fields[33],
                      manufactured_fields[65])]
    slope = np.polyfit(np.log2([1 / 16, 1 / 32, 1 / 64]), np.log2(errs), 1)[0]
    # nominal first order (upwinded first-derivative term)
    assert abs(slope - 1.0) <= 0.3


def test_zero_data_gives_zero(domain, plain_coeffs):
    fld = solve_model(domain, plain_coeffs, KeldyshOptions(nx=17, ny=17), KeldyshBC())
    assert np.max(np.abs(fld.values)) == 0.0


def test_zero_data_stops_on_the_first_simplified_correction(domain, plain_coeffs):
    """On zero data the Newton step dw is 0, so the full trial passes the
    monotonicity test and its simplified correction, also 0, ends the run:
    one Newton step, one LU besides the start's, no chord step."""
    fld = solve_model(domain, plain_coeffs, KeldyshOptions(nx=33, ny=33), KeldyshBC())
    meta = fld.metadata
    assert meta["iterations"] == 1 and meta["factorizations"] == 2
    assert meta["update_history"] == [0.0]
    assert meta["step_factors"] == [1.0] and meta["chord_steps"] == [0]
    assert meta["final_update"] == 0.0
    assert not np.any(fld.values)


def test_determinism(domain, plain_coeffs):
    opts = KeldyshOptions(nx=21, ny=21)
    f1 = solve_model(domain, plain_coeffs, opts, manufactured_bc())
    f2 = solve_model(domain, plain_coeffs, opts, manufactured_bc())
    assert np.array_equal(f1.values, f2.values)


def test_convergence_error(domain, plain_coeffs):
    with pytest.raises(KeldyshConvergenceError):
        solve_model(domain, plain_coeffs, KeldyshOptions(nx=17, ny=17, max_iter=2, tol=1e-14),
                    manufactured_bc())
    with pytest.raises(ValueError, match="max_iter"):
        KeldyshOptions(max_iter=0)


def test_sample_matches_the_per_node_loop():
    """One scalar call per node, so the samples are bit-identical and
    callables written with math.* work."""
    dom, coeffs, bc = reference_scenario()
    grid = keldysh._Grid(dom, 33, 17, 2.0)
    for fn in (coeffs.O1, coeffs.O2, coeffs.O3, coeffs.O4, coeffs.O5, keldysh._zero,
               coeffs.beta1, lambda x, y: np.float32(x) + 1):
        got = sample(fn, grid.X, grid.Y)
        assert got.dtype == np.float64
        assert np.array_equal(got, sample_per_node(fn, grid.X, grid.Y))
    for fn in (dom.f, dom.fp, dom.fpp, bc.top_data, bc.right_data, lambda x: math.exp(-x),
               lambda x: np.float32(x) + 1):
        got = sample(fn, grid.x)
        assert got.dtype == np.float64
        assert np.array_equal(got, sample_per_node(fn, grid.x))


def _curved_scenario():
    """An oblique top with varying obliqueness and data on a curved domain."""
    dom = KeldyshDomain(eps0=0.4, f=lambda x: 1.0 + x + 0.3 * x * x, fp=lambda x: 1.0 + 0.6 * x,
                        fpp=lambda x: 0.6, omega=1.0)
    coeffs = KeldyshCoefficients(
        a=A, b=1.5, O1=lambda x, y: 0.04 * x * x * math.sin(y),
        O3=lambda x, y: 0.05 * x * math.cos(y), N=0.2,
        beta1=lambda x, y: 1.0 + 0.3 * math.sin(x * y), beta2=lambda x, y: 0.5 * math.cos(y))
    bc = KeldyshBC(top_data=lambda x: 0.01 * math.exp(x), right_data=lambda y: 0.02 * math.cos(y))
    return dom, coeffs, bc


@pytest.mark.parametrize("scenario", [reference_scenario, manufactured_scenario,
                                      _curved_scenario])
@pytest.mark.parametrize("nx, ny", [(33, 33), (24, 17)])
def test_assembly_matches_the_per_node_loops(scenario, nx, ny):
    """The array-built samples and top rows give _assemble's pattern, values
    and rhs bit for bit as the per-node loops first written did."""
    dom, coeffs, bc = scenario()
    st = keldysh._assemble(dom, coeffs, KeldyshOptions(nx=nx, ny=ny), bc)
    grid = st.grid
    for fn, got in ((dom.f, grid.fx), (dom.fp, grid.fpx), (dom.fpp, grid.fppx)):
        assert np.array_equal(got, sample_per_node(fn, grid.x))
    O1, *entries = keldysh_entries_per_node(grid, coeffs, bc)
    ref = keldysh._Stencil(grid, coeffs.a, O1, *keldysh._node_order(nx, ny, bc.top_mode),
                           *entries)
    assert np.array_equal(st.O1, O1)
    for name in ("rows", "indptr", "m0", "p", "d", "rhs"):
        assert np.array_equal(getattr(st, name), getattr(ref, name)), name


def test_newton_matrix_is_the_jacobian():
    """Off the clamp's switching set, M0 + diag(c1) P - a diag(P w) D is dF/dw."""
    dom, coeffs, bc = reference_scenario()
    st = keldysh._assemble(dom, coeffs, KeldyshOptions(nx=9, ny=9), bc)
    w = st.grid.X ** 2 / (4 * A) * (1.0 + 0.3 * np.sin(np.pi * st.grid.eta))[None, :]
    F, c1, free, pw = st.evaluate(w)
    assert free.all()
    jac = st.matrix(c1, -coeffs.a * free * pw.reshape(w.shape))
    v = np.random.default_rng(0).standard_normal(w.shape)
    h = 1e-6
    fd = (st.evaluate(w + h * v)[0] - st.evaluate(w - h * v)[0]) / (2 * h)
    # the matrix is in the pattern's node order; F covers every node,
    # Dirichlet rows included
    assert np.max(np.abs(jac @ v.ravel()[st.order] - fd[st.order])) <= 1e-8 * np.max(np.abs(fd))


def test_one_factorization_per_step_and_fixed_point(monkeypatch):
    calls = []

    def counting_splu(mat, **kwargs):
        calls.append(mat.shape)
        return splu(mat, **kwargs)

    monkeypatch.setattr(keldysh, "splu", counting_splu)
    dom, coeffs, bc = reference_scenario()
    opts = KeldyshOptions(nx=65, ny=65, tol=1e-11, max_iter=200)
    fld = solve_model(dom, coeffs, opts, bc)
    # one LU for the start, then one per Newton step; chord steps reuse it
    assert len(calls) == fld.metadata["iterations"] + 1 == fld.metadata["factorizations"] == 5
    # the solution is the fixed point of the frozen-coefficient (Picard) map,
    # solved here on the whole system, Dirichlet rows included
    st = keldysh._assemble(dom, coeffs, opts, bc)
    assert set(calls) == {(st.m, st.m)}
    _, c1, _, _ = st.evaluate(fld.values)
    frozen = splu(st.matrix(c1)).solve(st.rhs[st.order])[st.position].reshape(fld.values.shape)
    assert np.max(np.abs(frozen - fld.values)) <= 1e-9 * np.max(np.abs(fld.values))


@pytest.mark.parametrize("top_mode", ["oblique", "dirichlet"])
def test_node_order_puts_dirichlet_nodes_last(top_mode):
    nx, ny = 40, 23
    order, m = keldysh._node_order(nx, ny, top_mode)
    n_eta = ny + 1
    assert np.array_equal(np.sort(order), np.arange((nx + 1) * n_eta))
    j, i = np.divmod(order, n_eta)
    dirichlet = (j == 0) | (j == nx) | ((i == ny) if top_mode == "dirichlet" else False)
    assert not dirichlet[:m].any() and dirichlet[m:].all()
    top = ny + (top_mode == "oblique")
    assert m == (nx - 1) * top
    # the first cut is the middle x line of the unknown box, ordered last
    assert np.all(j[m - top:m] == 20) and np.array_equal(i[m - top:m], np.arange(top))
    # the first leaf: the lower half of the longer side is kept until the box
    # holds at most _LEAF nodes (with 16, 4 x-lines by 3 eta-lines when
    # oblique, 4 by 2 when Dirichlet), row-major
    lines, heights = nx - 1, top
    while lines * heights > keldysh._LEAF:
        if lines >= heights:
            lines //= 2
        else:
            heights //= 2
    J, I = np.meshgrid(np.arange(1, lines + 1), np.arange(heights), indexing="ij")
    assert np.array_equal(order[:J.size], (J * n_eta + I).ravel())
    # the leaf ends where the box is cut: the node after it is not in it
    assert not (1 <= j[J.size] <= lines and i[J.size] < heights)


@pytest.mark.parametrize("scenario", [reference_scenario, manufactured_scenario])
def test_reduced_solve_matches_the_full_system(scenario):
    """The Dirichlet rows hold only their unit diagonal, so the unknown block
    is a prefix of the pattern; solving it alone gives the full solution."""
    dom, coeffs, bc = scenario()
    opts = KeldyshOptions(nx=65, ny=65, tol=1e-11, max_iter=200)
    fld = solve_model(dom, coeffs, opts, bc)
    st = keldysh._assemble(dom, coeffs, opts, bc)
    _, c1, free, pw = st.evaluate(fld.values)
    g = -coeffs.a * free.ravel() * pw
    jac = st.matrix(c1, g)
    m = st.m
    assert st.rows[:st.indptr[m]].max() < m
    assert jac[m:, :m].nnz == 0
    assert np.array_equal(jac[m:, m:].toarray(), np.eye(jac.shape[0] - m))
    # the reference: splu of the whole matrix in node order, one refinement step
    full = jac[st.position][:, st.position]
    b = np.random.default_rng(1).standard_normal(full.shape[0])
    lu = splu(full)
    ref = lu.solve(b)
    ref += lu.solve(b - full @ ref)
    _, solve = st.factor(c1, g)
    assert np.max(np.abs(solve(b) - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("scenario, reliable", [(manufactured_scenario, True),
                                                (reference_scenario, False)])
def test_reliable_flag_at_65(scenario, reliable):
    """No node of the manufactured solution is clamped at the final iterate
    past the first interior column; the reference's are (in its last
    interior column), so only the reference is flagged unreliable."""
    dom, coeffs, bc = scenario()
    fld = solve_model(dom, coeffs, KeldyshOptions(nx=65, ny=65), bc)
    assert fld.metadata["reliable"] is reliable
    assert fld.metadata["clamp_active"] is not reliable


def test_newton_counts_and_divergence_pinned(scenario_field):
    fld, _ = scenario_field
    assert fld.metadata["iterations"] == 9  # 97^2
    dom, coeffs, bc = reference_scenario()
    fld = solve_model(dom, coeffs, KeldyshOptions(nx=81, ny=81, tol=1e-11, max_iter=200), bc)
    assert fld.metadata["iterations"] == 10
    dom, coeffs, bc = reference_scenario(a=4.1251, o_scale=0.0659, eps0=0.5055)
    with pytest.raises(KeldyshDivergenceError, match="Newton step 15 "):
        solve_model(dom, coeffs, KeldyshOptions(nx=129, ny=129, tol=1e-11, max_iter=200), bc)


def test_hard_draw_takes_tiny_damped_steps():
    """The draw _MIN_STEP's comment names: one step passes the monotonicity
    test only at t ~ 8e-6, after which full steps converge."""
    dom, coeffs, bc = reference_scenario(o_scale=0.046, eps0=0.496)
    fld = solve_model(dom, coeffs, KeldyshOptions(nx=97, ny=97, tol=1e-11, max_iter=160), bc)
    meta = fld.metadata
    assert meta["iterations"] == 11
    assert len(meta["step_factors"]) == meta["iterations"]
    assert min(meta["step_factors"]) < 1e-4
    assert meta["step_factors"][-1] == 1.0


def test_solver_telemetry(scenario_field, manufactured_fields):
    meta = scenario_field[0].metadata
    assert meta["factorizations"] == meta["iterations"] + 1 == len(meta["update_history"]) + 1
    assert meta["final_update"] <= 1e-11
    # fill of the reduced block in nested-dissection order with 16-node
    # leaves and a 0.01 diagonal pivot threshold: 580,909.  64-node leaves
    # give 697,301, SuperLU's default threshold of 1 gives 661,935, both
    # together 805,470, and SuperLU's COLAMD on the whole matrix about 1.0M
    assert 0 < meta["lu_nnz"] < 650_000
    assert meta["step_factors"] == [1.0] * 5 + [0.125, 0.015625, 0.0625, 1.0]
    # the last LU is kept through ten chord steps
    assert meta["chord_steps"] == [0] * 8 + [10]
    # the reference scenario clamps next to the top-right corner only; the
    # count is recorded at the start and after each Newton step
    assert meta["clamp_active"] and meta["clamp_count"] > 0
    assert meta["clamp_columns"] == [96, 96]
    assert meta["clamped_per_step"] == [75, 18, 8] + [10] * 5 + [11] * 2
    meta = manufactured_fields[65].metadata
    assert not meta["clamp_active"]
    assert meta["clamp_count"] == 0 and meta["clamp_columns"] is None


def test_start_from_the_degenerate_boundary_asymptotic():
    """Newton starts from the linear solve with c1 = x + O1, the asymptotic
    psi_x ~ x/a at x = 0.  On the manufactured field, where that holds
    everywhere, only columns 2 and 3 clamp at the start (next to column 1,
    which is not counted) and none after one step; from w = 0 the first
    step would clamp 1,351 nodes and the solve take 9 Newton steps."""
    dom, coeffs, bc = manufactured_scenario()
    meta = solve_model(dom, coeffs, KeldyshOptions(nx=65, ny=65), bc).metadata
    assert meta["factorizations"] == meta["iterations"] + 1 == 4
    assert meta["clamped_per_step"] == [118, 0, 0, 0]
    assert meta["step_factors"] == [1.0] * 3


@pytest.fixture(scope="module")
def reference_65():
    dom, coeffs, bc = reference_scenario()
    return solve_model(dom, coeffs, KeldyshOptions(nx=65, ny=65, tol=1e-11), bc)


def test_chord_steps_run_on_the_reference(reference_65):
    """On the reference at 65^2 the contracting tail keeps LUs through
    chord steps, one entry per Newton step."""
    meta = reference_65.metadata
    assert len(meta["chord_steps"]) == meta["iterations"]
    assert sum(meta["chord_steps"]) > 0


def test_a_fresh_newton_step_from_the_result_is_below_tol(reference_65, scenario_field,
                                                           manufactured_fields):
    """The run stops on a correction made with the last Newton LU and makes
    no LU to confirm it: a fresh Newton step (a new LU at the returned
    field) is still at most tol in relative size."""
    cases = [(reference_65, reference_scenario(), 1e-11),
             (scenario_field[0], reference_scenario(), 1e-11),
             (manufactured_fields[65], manufactured_scenario(), 1e-12)]
    for fld, (dom, coeffs, bc), tol in cases:
        assert fld.metadata["final_update"] <= tol
        n = fld.shape[0] - 1
        st = keldysh._assemble(dom, coeffs, KeldyshOptions(nx=n, ny=n), bc)
        F, c1, free, pw = st.evaluate(fld.values)
        _, solve = st.factor(c1, -coeffs.a * free.ravel() * pw)
        step = float(np.max(np.abs(solve(F)))) / max(1.0, float(np.max(np.abs(fld.values))))
        assert step <= tol


@pytest.mark.parametrize("eps0", [0.4, 0.6])
def test_reference_converges_off_center(eps0):
    dom, coeffs, bc = reference_scenario(eps0=eps0)
    fld = solve_model(dom, coeffs, KeldyshOptions(nx=65, ny=65, tol=1e-11, max_iter=200), bc)
    assert fld.metadata["residual"] <= 1e-8
    assert fld.metadata["iterations"] <= 20


# ---------------------------------------------------------------------------
# derivative scan
# ---------------------------------------------------------------------------

def test_scan_manufactured(manufactured_fields):
    fld = manufactured_fields[65]
    scan = sonic_derivative_scan(fld, [0.25, 0.5])
    assert not scan.corner_contaminated.any()
    assert np.all(np.abs(scan.limits - 0.25) < 0.02)


def test_scan_corner_contamination_flag(manufactured_fields):
    fld = manufactured_fields[65]
    f0 = float(fld.y[0, -1])
    scan = sonic_derivative_scan(fld, [0.5 * f0, f0 - 1e-6])
    assert scan.corner_contaminated.tolist() == [False, True]


def test_scan_insufficient_grading(domain, plain_coeffs):
    fld = solve_model(domain, plain_coeffs, KeldyshOptions(nx=4, ny=8), manufactured_bc())
    with pytest.raises(InsufficientGradingError):
        sonic_derivative_scan(fld, [0.5])


def test_scan_mesh_consistency(domain, plain_coeffs):
    """Scan limits move monotonically and Richardson estimates stabilize."""
    dom, coeffs, bc = reference_scenario()
    limits = []
    for n in (33, 65, 97):
        fld = solve_model(dom, coeffs, KeldyshOptions(nx=n, ny=n, max_iter=160), bc)
        limits.append(sonic_derivative_scan(fld, [0.25]).limits[0])
    d1, d2 = limits[1] - limits[0], limits[2] - limits[1]
    assert d1 * d2 >= 0.0  # monotone approach
    assert abs(limits[2] - limits[1]) / abs(limits[2]) < 0.10


# ---------------------------------------------------------------------------
# corner probe
# ---------------------------------------------------------------------------

def test_corner_probe_manufactured_no_gap(manufactured_fields):
    probe = corner_probe(manufactured_fields[65])
    assert probe.limit_tangential == pytest.approx(0.25, abs=0.02)
    assert probe.limit_hugging == pytest.approx(0.25, abs=0.02)
    assert probe.gap < 0.01


def test_corner_probe_zero_field(domain, plain_coeffs):
    fld = solve_model(domain, plain_coeffs, KeldyshOptions(nx=33, ny=33), KeldyshBC())
    probe = corner_probe(fld)
    assert probe.limit_tangential == 0.0
    assert probe.limit_hugging == 0.0


def test_corner_probe_scenario_gap(scenario_field):
    fld, _ = scenario_field
    probe = corner_probe(fld)
    assert probe.gap > 0.5 / A


def test_corner_probe_coarse_grid_raises():
    """Three x nodes resolve no trace abscissa: the probe says so by name."""
    x = np.repeat(np.array([0.0, 0.125, 0.5])[:, None], 3, axis=1)
    y = np.linspace(0.0, 1.0, 3)[None, :] * (1.0 + x)
    with pytest.raises(InsufficientGradingError, match="abscissas"):
        corner_probe(Field2D(x=x, y=y, values=x * x / (2.0 * A)))


def test_scan_and_probe_match_per_point_oracle(manufactured_fields, scenario_field):
    """The array sampler and aitken_limit reproduce, bit for bit, the
    per-point sampler and scalar Aitken step as first written."""
    dom, coeffs, bc = reference_scenario()
    fields = [manufactured_fields[33], manufactured_fields[65], scenario_field[0],
              solve_model(dom, coeffs, KeldyshOptions(nx=33, ny=33), bc)]
    for fld in fields:
        _, psi_xx = keldysh.structured_derivatives(fld)
        xcol, f0 = fld.x[:, 0], float(fld.y[0, -1])
        ys = [fr * f0 for fr in (0.1, 0.25, 0.5, 0.8, 0.999)]
        scan = sonic_derivative_scan(fld, ys)
        table = np.array([[interp_field_per_point(fld, psi_xx, float(xv), yv)
                           for xv in scan.x_k] for yv in ys])
        assert np.array_equal(scan.table, table)
        assert np.array_equal(scan.limits, [aitken_step(list(row[::-1]), 0.99, row[0])
                                            for row in table])
        eps0 = float(xcol[-1])
        x_m = [eps0 * 2.0 ** -k for k in range(2, 40) if eps0 * 2.0 ** -k >= xcol[2]]
        for c in (1.0, 0.3):
            probe = corner_probe(fld, c=c)
            tang = [interp_field_per_point(fld, psi_xx, xv, max(f0 - c * xv, 0.0)) for xv in x_m]
            hug = [interp_field_per_point(
                fld, psi_xx, xv, max(float(np.interp(xv, xcol, fld.y[:, -1])) - c * xv * xv, 0.0))
                for xv in x_m]
            assert np.array_equal(probe.x_m, x_m)
            assert np.array_equal(probe.tangential, tang)
            assert np.array_equal(probe.hugging, hug)
            assert probe.limit_tangential == aitken_step(tang[::-1], 0.99, tang[0])
            assert probe.limit_hugging == aitken_step(hug[::-1], 0.99, hug[0])


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bounds_manufactured(manufactured_fields, plain_coeffs):
    checks = verify_bounds(manufactured_fields[65], plain_coeffs)
    assert checks.psi_nonneg
    # constant ratio psi_x/x = 1/a = (2-delta)/a for any delta < 1; the
    # discrete ratio drifts high near the degenerate edge, so the margin is
    # asserted rather than delta = 1 exactly
    assert checks.slope_upper_holds and checks.delta > 0.5
    assert checks.quadratic_L == pytest.approx(1.0 / (2 * A), abs=0.03)
    assert checks.mu == pytest.approx(0.0, abs=1e-6)


def test_bounds_zero_field(domain, plain_coeffs):
    fld = solve_model(domain, plain_coeffs, KeldyshOptions(nx=17, ny=17), KeldyshBC())
    checks = verify_bounds(fld, plain_coeffs)
    assert checks.psi_nonneg and checks.quadratic_holds


def test_bounds_negative_control(manufactured_fields, plain_coeffs):
    fld = manufactured_fields[33]
    flipped = Field2D(x=fld.x, y=fld.y, values=-fld.values, metadata={})
    checks = verify_bounds(flipped, plain_coeffs)
    assert not checks.psi_nonneg


def test_scenario_bounds(scenario_field):
    fld, coeffs = scenario_field
    checks = verify_bounds(fld, coeffs)
    assert checks.psi_nonneg
    assert checks.quadratic_holds and checks.quadratic_L < 10.0


def test_max_principle_zero_perturbations(domain, plain_coeffs):
    """O_i = 0 and nonnegative top data give a nonnegative solution."""
    bc = KeldyshBC(top_mode="oblique", top_data=lambda x: 0.1 * x,
                   right_data=lambda y: 0.0)
    fld = solve_model(domain, plain_coeffs, KeldyshOptions(nx=33, ny=33), bc)
    assert float(np.min(fld.values)) >= -1e-10 * max(1.0, float(np.max(np.abs(fld.values))))


# ---------------------------------------------------------------------------
# scenario sanity + serialization
# ---------------------------------------------------------------------------

def test_scenario_scan(scenario_field):
    fld, _ = scenario_field
    f0 = float(fld.y[0, -1])
    scan = sonic_derivative_scan(fld, [0.25 * f0, 0.5 * f0])
    assert np.all(np.abs(scan.limits - 0.25) <= 0.15 * 0.25)


def test_field_csv(manufactured_fields, tmp_path):
    fld = manufactured_fields[17]
    text = field_csv_text(fld)
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,psi"
    assert len(lines) == fld.values.size + 1
