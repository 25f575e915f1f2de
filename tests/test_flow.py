"""Flow integrator: speed law, stepping, stopping, traces, evolution identities.

Oracles:
  * geodesic spheres are exactly stationary (speed vanishes to rounding),
  * the offset sphere has the closed-form speed sinh(a) cos(theta_c) / cosh(r0),
    with theta_c the polar angle about the sphere's own center, measured from
    the axis direction pointing back toward the origin,
  * conservation/monotonicity of the tracked functionals along short runs,
  * the evolution identities, d/dt a central difference along the flow
    velocity, and the recentering sphere, on which every W_k stays constant.
"""

import numpy as np
import pytest

import hypflow.flow as flow
from hypflow.checks import variational_check
from hypflow.flow import (
    DEFAULT_CFL,
    DEFAULT_T_MAX,
    MAX_CFL,
    MONO_TOL,
    FlowState,
    StepFailureError,
    cfl_dt,
    run,
    step,
)
from hypflow.grids import AxisymGrid, FullSphereGrid
from hypflow.hypersurface import HCONVEX_TOL, RadialGraph, generate_shape, geometry_fields
from hypflow.symfunc import ConeViolationError, quotient_eval, quotient_from_esym


def make_state(grid, kind="perturbed_sphere", r0=1.0, m=1, **kw):
    return FlowState.create(generate_shape(grid, kind, r0, **kw), m)


class TestNormalSpeed:
    def test_spheres_are_stationary(self):
        for grid in [AxisymGrid(48, 2), AxisymGrid(48, 4), FullSphereGrid(48)]:
            for m in range(1, grid.n if grid.backend == "axisym" else 2):
                st = make_state(grid, "sphere", 1.0, m=m)
                f, rate = st.speed
                assert np.abs(f).max() < 1e-13
                assert np.abs(rate).max() < 1e-13

    def test_offset_sphere_closed_form(self):
        r0, a = 1.0, 0.1
        st = make_state(AxisymGrid(64, 2), "offset_sphere", r0, a=a)
        f, _ = st.speed
        grid = st.graph.grid
        # polar angle about the displaced center, measured from the direction
        # pointing back toward the origin
        cos_tc = (np.cosh(a) * np.cosh(r0) - np.cosh(st.graph.r)) / (np.sinh(a) * np.sinh(r0))
        f_ref = np.sinh(a) * cos_tc / np.cosh(r0)
        assert np.abs(f - f_ref).max() < 1e-6
        # near side (theta = pi about the origin) pushes out: recentering
        assert f[-1] > 0.0 > f[0]

    def test_quotient_from_fields_matches_quotient_eval(self):
        # the flow reads F from the stored E columns; it must be the very
        # array quotient_eval builds from the curvatures
        shapes = [("sphere", {}), ("perturbed_sphere", {"eps": 0.05, "l": 2}),
                  ("offset_sphere", {"a": 0.3})]
        for grid in [FullSphereGrid(32), AxisymGrid(32, 2), AxisymGrid(32, 3),
                     AxisymGrid(32, 4)]:
            for kind, kw in shapes:
                graph = generate_shape(grid, kind, 1.0, **kw)
                fields = geometry_fields(graph)
                for m in range(1, grid.n):
                    ref = quotient_eval(m, fields.kappa)[0]
                    assert np.array_equal(quotient_from_esym(m, fields.E), ref)
                    assert np.array_equal(FlowState.create(graph, m).F, ref)

    def test_cone_violation_raises(self):
        grid = AxisymGrid(64, 2)
        graph = RadialGraph(grid, 1.0 + 0.2 * np.cos(6.0 * grid.theta))
        assert graph.fields.E[..., 1].min() < 0.0  # genuinely outside the cone
        with pytest.raises(ConeViolationError):
            FlowState(graph, 1, 0.0, np.zeros(3)).speed

    def test_state_validates_order(self):
        g = generate_shape(AxisymGrid(32, 3), "sphere", 1.0)
        for bad_m in (0, 3, -1):
            with pytest.raises(ValueError):
                FlowState.create(g, bad_m)
        FlowState.create(g, 2)  # in range


class TestStep:
    def test_plain_step_advances_time(self):
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        dt = cfl_dt(st, DEFAULT_CFL)
        new, dt_used, halvings, _ = step(st, dt, DEFAULT_CFL)
        assert halvings == 0
        assert dt_used == dt
        assert new.t == pytest.approx(dt)
        assert new.W_init is st.W_init  # initial records survive stepping

    def test_oversized_step_halves_until_accepted(self):
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        with np.errstate(all="ignore"):
            new, dt_used, halvings, _ = step(st, 50.0, DEFAULT_CFL)
        assert halvings > 0
        assert dt_used == pytest.approx(50.0 / 2 ** halvings)
        assert new.fields.kappa.min() >= 1.0 - HCONVEX_TOL

    def test_exhausted_halvings_raise_with_diagnostics(self, monkeypatch):
        monkeypatch.setattr(flow, "MAX_HALVINGS", 0)
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        with np.errstate(all="ignore"), pytest.raises(StepFailureError) as exc:
            step(st, 50.0, DEFAULT_CFL)
        err = exc.value
        assert err.t == pytest.approx(0.0)
        assert isinstance(err.diagnostics, dict) and err.diagnostics


class TestRunStopsAndTrace:
    def test_sphere_stops_immediately_traceless(self):
        final, trace = run(make_state(AxisymGrid(32, 2), "sphere", 1.0), t_max=1.0)
        assert trace.stop_reason == "traceless_small"
        assert len(trace.rows) == 1
        assert final.t == 0.0

    def test_sphere_stops_stationary_when_tolstop_disabled(self):
        _, trace = run(make_state(AxisymGrid(32, 2), "sphere", 1.0),
                       t_max=1.0, tol_stop=0.0)
        assert trace.stop_reason == "stationary"

    def test_tmax_and_max_steps(self):
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        _, trace = run(st, t_max=0.01)
        assert trace.stop_reason == "t_max"
        _, trace2 = run(make_state(AxisymGrid(32, 2), eps=0.1, l=2),
                        t_max=10.0, max_steps=3)
        assert trace2.stop_reason == "max_steps"
        assert len(trace2.rows) == 4  # initial row + 3 steps

    def test_cfl_fraction_validated(self):
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        for bad in (0.0, -0.1, 0.5):
            with pytest.raises(ValueError):
                run(st, t_max=1.0, c_cfl=bad)

    def test_header_exact(self):
        # a sphere stops on its first row, which names the columns
        _, trace = run(make_state(AxisymGrid(32, 2), "sphere", 1.0), t_max=1.0)
        assert trace.header() == (
            "t,dt,W0,W1,W2,minF,maxF,minH,maxH,minr,maxr,minu,"
            "AtrL2,AtrMax,minKappaMinus1,cumDeficitIntegral"
        )
        _, trace = run(make_state(AxisymGrid(32, 4), "sphere", 1.0, m=2), t_max=1.0)
        assert len(trace.rows) == 1
        assert trace.header().split(",")[2:7] == ["W0", "W1", "W2", "W3", "W4"]

    def test_csv_lines_format(self):
        _, trace = run(make_state(AxisymGrid(32, 2), eps=0.1, l=2), t_max=0.005)
        lines = list(trace.csv_lines())
        assert lines[0] == trace.header()
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 0.0  # t=0 row, dt=0
        ncol = len(trace.header().split(","))
        for ln in lines[1:]:
            vals = [float(x) for x in ln.split(",")]
            assert len(vals) == ncol and all(np.isfinite(vals))
        # 17 significant digits survive the round trip
        assert float(lines[2].split(",")[0]) == trace.rows[1]["t"]

    def test_column_accessor(self):
        _, trace = run(make_state(AxisymGrid(32, 2), eps=0.1, l=2), t_max=0.01)
        t = trace.column("t")
        assert t[0] == 0.0 and np.all(np.diff(t) > 0)
        with pytest.raises(KeyError):
            trace.column("nope")

    def test_partial_trace_attached_on_failure(self, monkeypatch):
        # a first step of dt = 10 on two stages leaves the radii non-finite
        monkeypatch.setattr(flow, "MAX_HALVINGS", 0)
        monkeypatch.setattr(flow, "cfl_dt", lambda state, c_cfl: 1e3)
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        with np.errstate(all="ignore"), pytest.raises(StepFailureError) as exc:
            run(st, t_max=10.0)
        assert len(exc.value.partial_trace.rows) == 1
        # the failed attempt's one stage evaluation is counted
        assert exc.value.partial_trace.rhs_evals == exc.value.rhs_evals == 1


class TestShortRuns:
    def test_axisym_conservation_and_monotonicity(self):
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        _, trace = run(st, t_max=0.5)
        w1, w2 = trace.column("W1"), trace.column("W2")
        assert np.abs(w1 - w1[0]).max() < 1e-4          # conserved (coarse grid)
        assert np.all(np.diff(w2) <= MONO_TOL * np.abs(w2[:-1]))
        assert trace.flag_count == 0
        assert trace.rejections == 0
        assert trace.column("minKappaMinus1").min() > -HCONVEX_TOL

    def test_full_backend_short_run(self):
        st = make_state(FullSphereGrid(32), eps=0.05, l=2, order=2)
        _, trace = run(st, t_max=0.2)
        w1, w2 = trace.column("W1"), trace.column("W2")
        assert np.abs(w1 - w1[0]).max() < 1e-6
        assert np.all(np.diff(w2) <= MONO_TOL * np.abs(w2[:-1]))
        assert trace.flag_count == 0

    def test_higher_order_flow(self):
        # n = 4, m = 2: same structure, deeper quotient
        st = make_state(AxisymGrid(32, 4), eps=0.05, l=2, m=2)
        _, trace = run(st, t_max=0.2)
        w2, w3 = trace.column("W2"), trace.column("W3")
        assert np.abs(w2 - w2[0]).max() < 1e-5
        assert np.all(np.diff(w3) <= MONO_TOL * np.abs(w3[:-1]))

    def test_traceless_decay(self):
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        _, trace = run(st, t_max=2.5)
        atr = trace.column("AtrMax")
        assert atr[-1] < 0.02 * atr[0]  # contracting toward round


class TestMonitors:
    # the bounds are the run's first row and its first state's inradius
    def test_u_drop_flags(self):
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        first = flow._trace_row(st, 0.0, 0.0)
        row = {"minF": 1.5, "maxF": first["maxF"], "minH": 5.0, "maxH": 5.0,
               "minr": 1.0, "maxr": 1.1, "minu": first["minu"] - 1.0}
        names = flow._monitor_flags(st, row, first, st.graph.inball.rho)
        assert "u_lower" in names

    def test_quiet_on_initial_scalars(self):
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        first = flow._trace_row(st, 0.0, 0.0)
        assert flow._monitor_flags(st, first, first, st.graph.inball.rho) == []

    def test_f_bounds_flag(self):
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        first = flow._trace_row(st, 0.0, 0.0)
        rho = st.graph.inball.rho
        bad = dict(first)
        bad["minF"] = 0.5
        assert "F_lower" in flow._monitor_flags(st, bad, first, rho)
        bad = dict(first)
        bad["maxF"] = first["maxF"] + 1.0
        assert "F_upper" in flow._monitor_flags(st, bad, first, rho)


    def test_inradius_evaluated_once_by_run(self, count_calls):
        graph = generate_shape(AxisymGrid(32, 2), "perturbed_sphere", 1.0, eps=0.1, l=2)
        calls = count_calls("inradius")
        st = FlowState.create(graph, 1)
        assert calls == []
        run(st, t_max=0.01)
        assert len(calls) == 1 and calls[0] is graph

    def test_run_from_later_state_reads_its_inball(self, count_calls):
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        new = step(st, cfl_dt(st, DEFAULT_CFL), DEFAULT_CFL)[0]
        calls = count_calls("inradius")
        run(new, t_max=1.0, max_steps=1)
        assert len(calls) == 1 and calls[0] is new.graph


class TestStepSizePolicy:
    def test_step_with_cfl_fraction_matches_run(self):
        # step derives the polar cutoff from c_cfl exactly as run does
        st = make_state(FullSphereGrid(32), eps=0.05, l=2, order=2)
        final, trace = run(st, t_max=DEFAULT_T_MAX, c_cfl=DEFAULT_CFL, max_steps=1)
        dt = trace.column("dt")[1]
        new, _, _, _ = step(st, dt, DEFAULT_CFL)
        assert trace.stop_reason == "max_steps"
        assert np.array_equal(new.graph.r, final.graph.r)
        # and the cutoff acts: the looser cutoff of a smaller fraction lands elsewhere
        assert not np.array_equal(step(st, dt, 0.01)[0].graph.r, new.graph.r)

    def test_rkc_is_second_order(self):
        # the same interval at dt, dt/2 and dt/4 on the full stage count:
        # the grid is fixed, so successive differences shrink by 2^2
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        dt = 2.0 * cfl_dt(st, DEFAULT_CFL)
        ends = []
        for k in (1, 2, 4):
            s = st
            for _ in range(4 * k):
                s = flow._advance(s, dt / k, DEFAULT_CFL, flow.STAGES,
                                  lambda graph: graph.fields)
            ends.append(s.graph.r)
        coarse = np.abs(ends[0] - ends[1]).max()
        fine = np.abs(ends[1] - ends[2]).max()
        assert 3.5 <= coarse / fine <= 4.5

    def test_rhs_evals_count_every_geometry_call(self, count_calls):
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        calls = count_calls("geometry_fields")
        _, trace = run(st, t_max=0.05)
        assert trace.rhs_evals == len(calls) == 24
        # rejected attempts count too
        calls.clear()
        with np.errstate(all="ignore"):
            _, _, halvings, evals = step(st, 50.0, DEFAULT_CFL)
        assert halvings > 0
        assert evals == len(calls)

    def test_quotient_evaluated_once_per_geometry_evaluation(self, monkeypatch):
        # F is read from each state's cache: one quotient per geometry
        # evaluation while stepping, plus the initial state's
        calls = []

        def counted(m, E):
            calls.append(m)
            return quotient_from_esym(m, E)

        monkeypatch.setattr(flow, "quotient_from_esym", counted)
        st = make_state(AxisymGrid(32, 2), eps=0.1, l=2)
        _, trace = run(st, t_max=0.05)
        assert trace.rejections == 0
        assert len(calls) == trace.rhs_evals + 1 == 25

    def test_near_round_relaxation_takes_cfl_steps(self):
        # the discrete W3 of this relaxation stays monotone near round, so
        # the CFL-sized steps run proposes are accepted without halving
        st = make_state(AxisymGrid(24, 4), eps=0.05, l=2, m=2)
        _, trace = run(st, t_max=DEFAULT_T_MAX)
        assert trace.stop_reason == "traceless_small"
        assert trace.rejections <= 10

    def test_full_run_at_max_cfl_takes_no_halving(self):
        # the longest step run proposes at the largest CFL fraction is stable
        # under the polar filter and spends the full stage count every step
        st = make_state(FullSphereGrid(48), eps=0.05, l=2, order=2)
        _, trace = run(st, t_max=2.0, c_cfl=MAX_CFL)
        steps = len(trace.rows) - 1
        assert trace.stop_reason == "t_max"
        assert trace.rejections == 0 and trace.flag_count == 0
        # no rejected attempt; only the last step, cut at t_max, is shorter
        assert flow.STAGES * (steps - 1) < trace.rhs_evals <= flow.STAGES * steps
        assert steps <= 410


class TestEvolutionIdentities:
    def test_variational_identity_axisym(self):
        st = make_state(AxisymGrid(48, 2), eps=0.1, l=2)
        rep = variational_check(st)
        assert rep.k_residuals[0] < 1e-5
        assert rep.k_residuals[1] < 1e-5          # k = m, conservation
        assert rep.k_residuals[2] < 2e-3          # k = m + 1: 1.3e-9 measured
        assert rep.minkowski_residual < 1e-4

    def test_variational_identity_full(self):
        st = make_state(FullSphereGrid(32), eps=0.05, l=2, order=2)
        rep = variational_check(st)
        assert rep.k_residuals.max() < 2e-3
        assert rep.minkowski_residual < 1e-4

    def test_variational_identity_recentering_sphere(self):
        # both sides of every identity vanish on this exact solution, so the
        # residual is measured against int |f| E_k dmu, not the rounding of
        # either side: 1.1e-8 measured
        st = make_state(AxisymGrid(64, 4), "offset_sphere", m=2, a=0.3)
        rep = variational_check(st)
        assert rep.k_residuals.max() < 1e-6
        assert rep.minkowski_residual < 1e-4

    @pytest.mark.parametrize("grid,m", [(AxisymGrid(16, 2), 1), (FullSphereGrid(16), 1),
                                        (AxisymGrid(32, 4), 2)],
                             ids=["axisym16-n2", "full16", "axisym32-n4"])
    def test_variational_identity_stationary_sphere(self, grid, m):
        # f is rounding on a sphere about the origin; the scale floors |f| at
        # the stationary speed, so rounding does not read as a unit residual:
        # 2.2e-6, 1.9e-6 and 2.2e-6 measured
        rep = variational_check(make_state(grid, "sphere", m=m))
        assert rep.k_residuals.max() < 1e-5
        assert rep.minkowski_residual < 1e-5
