"""Command-line interface: config validation, artifacts, exit codes,
byte-determinism of outputs.
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hypflow.cli as cli
from hypflow.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VERIFY,
    ConfigError,
    main,
    parse_config,
)
from hypflow.flow import FlowState, FlowTrace, StepFailureError, run
from hypflow.grids import AxisymGrid, FullSphereGrid
from hypflow.hypersurface import SHAPE_KINDS, DiscretizationError, generate_shape
from hypflow.stability import SweepRecord

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


FLOW_CFG = {
    "n": 2, "m": 1, "backend": "axisym", "J": 32,
    "shape": {"kind": "perturbed_sphere", "r0": 1.0, "eps": 0.1, "l": 2},
    "flow": {"t_max": 0.05},
}

SWEEP_CFG = {
    "n": 2, "m": 1, "backend": "axisym", "J": 32,
    "shape": {"kind": "perturbed_sphere", "r0": 1.0, "l": 2},
    "sweep": {"eps_list": [0.05, 0.1, 0.2]},
}


class TestParseConfig:
    def test_valid_quermass(self):
        cfg = parse_config({"n": 3, "m": 2, "backend": "axisym", "J": 48,
                            "shape": {"kind": "sphere", "r0": 1.5}}, "quermass")
        assert (cfg.n, cfg.m, cfg.backend, cfg.J) == (3, 2, "axisym", 48)
        assert cfg.shape.kind == "sphere" and cfg.shape.r0 == 1.5

    def test_aggregated_errors_with_paths(self):
        bad = {"n": 1, "backend": "nope", "J": 7, "m": 0,
               "shape": {"kind": "banana"}, "bogus": 1}
        with pytest.raises(ConfigError) as exc:
            parse_config(bad, "quermass")
        text = "\n".join(exc.value.errors)
        for frag in ("n:", "backend:", "J:", "m:", "shape.kind:", "bogus: unknown key"):
            assert frag in text
        assert len(exc.value.errors) >= 6
        # 342 is the largest n whose unit-sphere area is a finite float
        ok = {"n": 342, "m": 1, "backend": "axisym", "J": 16,
              "shape": {"kind": "sphere", "r0": 1.0}}
        assert parse_config(ok, "quermass").n == 342
        with pytest.raises(ConfigError) as exc:
            parse_config(dict(ok, n=343), "quermass")
        assert exc.value.errors == ["n: must be <= 342, got 343"]

    def test_full_backend_constraints(self):
        with pytest.raises(ConfigError, match="requires n=2"):
            parse_config({"n": 3, "backend": "full", "J": 32, "m": 1,
                          "shape": {"kind": "sphere", "r0": 1.0}}, "quermass")
        with pytest.raises(ConfigError, match="even J"):
            parse_config({"n": 2, "backend": "full", "J": 33, "m": 1,
                          "shape": {"kind": "sphere", "r0": 1.0}}, "quermass")

    def test_booleans_rejected_for_numbers(self):
        with pytest.raises(ConfigError, match="expected integer"):
            parse_config({"n": 2, "backend": "axisym", "J": True, "m": 1,
                          "shape": {"kind": "sphere", "r0": 1.0}}, "quermass")
        with pytest.raises(ConfigError, match="expected number"):
            parse_config({"n": 2, "backend": "axisym", "J": 32, "m": 1,
                          "shape": {"kind": "sphere", "r0": False}}, "quermass")

    def test_flow_parameter_ranges(self):
        base = dict(FLOW_CFG)
        for flow_block, frag in [
            ({"c_cfl": 0.5}, "c_cfl"),
            ({"c_cfl": 0.0}, "c_cfl"),
            ({"tol_stop": -1.0}, "tol_stop"),
            ({"t_max": 0.0}, "t_max"),
            ({"dt": 0.1}, "unknown key"),
        ]:
            cfg = dict(base, flow=flow_block)
            with pytest.raises(ConfigError, match=frag):
                parse_config(cfg, "flow")
        # tol_stop = 0 is the documented off switch, not an error
        cfg = parse_config(dict(base, flow={"tol_stop": 0.0}), "flow")
        assert cfg.flow.tol_stop == 0.0

    def test_flow_defaults(self):
        cfg = parse_config({k: v for k, v in FLOW_CFG.items() if k != "flow"}, "flow")
        assert cfg.flow.c_cfl == 0.2
        assert cfg.flow.tol_stop == 1e-6
        assert cfg.flow.t_max == 30.0

    def test_sweep_rules(self):
        parse_config(SWEEP_CFG, "sweep")  # valid
        bad = json.loads(json.dumps(SWEEP_CFG))
        bad["shape"]["eps"] = 0.1
        with pytest.raises(ConfigError, match="eps_list, remove it"):
            parse_config(bad, "sweep")
        bad = json.loads(json.dumps(SWEEP_CFG))
        bad["shape"] = {"kind": "sphere", "r0": 1.0}
        with pytest.raises(ConfigError, match="perturbed_sphere"):
            parse_config(bad, "sweep")
        bad = json.loads(json.dumps(SWEEP_CFG))
        bad["sweep"] = {"eps_list": []}
        with pytest.raises(ConfigError, match="nonempty"):
            parse_config(bad, "sweep")
        bad = json.loads(json.dumps(SWEEP_CFG))
        bad["sweep"] = {"eps_list": [0.05, -0.1]}
        with pytest.raises(ConfigError, match=r"eps_list\[1\]"):
            parse_config(bad, "sweep")
        # Python's json reads NaN, Infinity and integers beyond float range;
        # each is reported with its key path, integer keys included
        huge = "1" + "0" * 400
        bad = json.loads(json.dumps(SWEEP_CFG).replace(
            '"r0": 1.0', f'"r0": {huge}').replace("[0.05, 0.1, 0.2]",
                                                  f"[0.05, NaN, Infinity, {huge}]"))
        bad.update(n=10 ** 400, J=10 ** 400)
        bad["shape"].update(l=10 ** 400, order=10 ** 400)
        with pytest.raises(ConfigError) as exc:
            parse_config(bad, "sweep")
        assert exc.value.errors == ["n: must be finite",
                                    "J: must be finite",
                                    "shape.r0: must be finite",
                                    "shape.l: must be finite",
                                    "shape.order: must be finite",
                                    "sweep.eps_list[1]: must be finite",
                                    "sweep.eps_list[2]: must be finite",
                                    "sweep.eps_list[3]: must be finite"]

    def test_config_tables_in_step(self):
        # every numeric row names a key some command admits, and every admitted
        # numeric key has a row: without one, `get` raises KeyError
        admitted = set().union(*cli._COMMAND_KEYS.values())
        shape_keys = {"r0"}.union(*(kind.keys for kind in SHAPE_KINDS.values()))
        for path in cli._NUMERIC:
            group, _, key = path.rpartition(".")
            assert key in {"": admitted, "shape": shape_keys,
                           "flow": set(cli._FLOW_KEYS)}[group], path
        for key in shape_keys:
            assert f"shape.{key}" in cli._NUMERIC, key
        for key in cli._FLOW_KEYS:
            assert f"flow.{key}" in cli._NUMERIC, key

    def test_shape_key_sets_are_strict(self):
        with pytest.raises(ConfigError, match="shape.a: unknown key"):
            parse_config({"n": 2, "backend": "axisym", "J": 32, "m": 1,
                          "shape": {"kind": "sphere", "r0": 1.0, "a": 0.1}}, "quermass")
        with pytest.raises(ConfigError, match="shape.a: required"):
            parse_config({"n": 2, "backend": "axisym", "J": 32, "m": 1,
                          "shape": {"kind": "offset_sphere", "r0": 1.0}}, "quermass")
        with pytest.raises(ConfigError, match="must be < r0"):
            parse_config({"n": 2, "backend": "axisym", "J": 32, "m": 1,
                          "shape": {"kind": "offset_sphere", "r0": 1.0, "a": 1.5}},
                         "quermass")
        # an unhashable kind is a config error, not a TypeError
        with pytest.raises(ConfigError, match=r"shape\.kind: expected one of .*, got \[1\]"):
            parse_config({"n": 2, "backend": "axisym", "J": 32, "m": 1,
                          "shape": {"kind": [1], "r0": 1.0}}, "quermass")

    def test_shape_order(self):
        base = {"n": 2, "m": 1, "backend": "full", "J": 32,
                "shape": {"kind": "perturbed_sphere", "r0": 1.0, "eps": 0.05, "l": 3,
                          "order": 2}}
        assert parse_config(base, "flow").shape.params["order"] == 2
        assert parse_config(dict(base, shape=dict(base["shape"], order=0)),
                            "flow").shape.params["order"] == 0
        with pytest.raises(ConfigError, match=r"shape\.order: must be <= l \(3\), got 4"):
            parse_config(dict(base, shape=dict(base["shape"], order=4)), "flow")
        with pytest.raises(ConfigError, match=r"shape\.order: must be >= 0"):
            parse_config(dict(base, shape=dict(base["shape"], order=-1)), "flow")
        with pytest.raises(ConfigError, match=r"shape\.order: backend 'axisym'"):
            parse_config(dict(base, backend="axisym"), "flow")
        with pytest.raises(ConfigError, match=r"shape\.order: unknown key"):
            parse_config(dict(base, shape={"kind": "sphere", "r0": 1.0, "order": 1}),
                         "flow")

    @pytest.mark.parametrize("shape, label", [
        ({"kind": "sphere", "r0": 1.0}, "sphere(r0=1)"),
        ({"kind": "offset_sphere", "r0": 1.0, "a": 0.3}, "offset_sphere(r0=1, a=0.3)"),
        ({"kind": "perturbed_sphere", "r0": 1.0, "eps": 0.05},
         "perturbed_sphere(r0=1, eps=0.05, l=2, order=0)"),
    ])
    def test_shape_label(self, shape, label):
        cfg = parse_config({"n": 2, "m": 1, "backend": "axisym", "J": 32, "shape": shape},
                           "quermass")
        assert cfg.shape.label() == label

    @pytest.mark.parametrize("backend, shape", [
        ("axisym", {"kind": "offset_sphere", "r0": 1.0, "a": 1.5}),
        ("axisym", {"kind": "perturbed_sphere", "r0": 1.0, "eps": 0.05, "l": 3, "order": 2}),
        ("full", {"kind": "perturbed_sphere", "r0": 1.0, "eps": 0.05, "l": 3, "order": 4}),
    ])
    def test_generator_reports_the_config_rule(self, backend, shape):
        # one rule per kind: the generator raises the text the config reader reports
        with pytest.raises(ConfigError) as exc:
            parse_config({"n": 2, "m": 1, "backend": backend, "J": 32, "shape": shape},
                         "quermass")
        grid = AxisymGrid(32, n=2) if backend == "axisym" else FullSphereGrid(32)
        keys = {k: v for k, v in shape.items() if k != "kind"}
        with pytest.raises(ValueError) as raised:
            generate_shape(grid, shape["kind"], **keys)
        assert exc.value.errors == [str(raised.value)]

    def test_conformal_has_no_order_key(self):
        with pytest.raises(ConfigError, match="m: unknown key"):
            parse_config({"n": 2, "backend": "axisym", "J": 32, "m": 1,
                          "shape": {"kind": "sphere", "r0": 1.0}}, "conformal")

    def test_verify_schema(self):
        assert parse_config({"seed": 5}, "verify").seed == 5
        assert parse_config({}, "verify").seed == 0
        with pytest.raises(ConfigError):
            parse_config({"seed": -1}, "verify")
        with pytest.raises(ConfigError) as exc:
            parse_config({"seed": 10 ** 400}, "verify")
        assert exc.value.errors == ["seed: must be finite"]
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config({"n": 2}, "verify")

    def test_unknown_command(self):
        with pytest.raises(ConfigError):
            parse_config({}, "frobnicate")

    def test_nonobject_root(self):
        with pytest.raises(ConfigError, match="config root"):
            parse_config([1, 2], "quermass")


class TestMainQuermass:
    def test_sphere_stdout(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 2, "m": 1, "backend": "full", "J": 64,
                                      "shape": {"kind": "sphere", "r0": 1.0}})
        assert main(["quermass", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "W0 = 5.1109327057082" in out
        assert "W1 = 5.7851291272571" in out
        assert "W2 = 5.8924344400224" in out
        assert "hconvexity_margin" in out and "inradius_rho" in out

    def test_tiny_sphere_inradius(self, tmp_path, capfd):
        # every trial center stays inside the body, where cosh cannot overflow
        cfg = write_config(tmp_path, {"n": 2, "m": 1, "backend": "full", "J": 16,
                                      "shape": {"kind": "sphere", "r0": 1e-4}})
        assert main(["quermass", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        captured = capfd.readouterr()
        assert captured.err == ""
        rho = [line.split(" = ")[1] for line in captured.out.splitlines()
               if line.startswith("inradius_rho = ")]
        assert len(rho) == 1
        assert float(rho[0]) == pytest.approx(1e-4, rel=1e-12)

    def test_large_axisym_sphere_inradius(self, tmp_path, capsys):
        # the nodes sit half a cell off the poles, 12.6 from a pole at this
        # radius, so a center that drifts to a pole reads too large
        cfg = write_config(tmp_path, {"n": 2, "m": 1, "backend": "axisym", "J": 32,
                                      "shape": {"kind": "sphere", "r0": 10}})
        assert main(["quermass", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert "inradius_rho = 10" in out
        assert "inradius_center_norm = 0" in out

    def test_nonfinite_quermassintegral_exits_numerical(self, tmp_path, capfd, recwarn):
        # sinh(30)^40 overflows: caught where it first appears, before NumPy warns
        cfg = write_config(tmp_path, {"n": 40, "m": 1, "backend": "axisym", "J": 16,
                                      "shape": {"kind": "sphere", "r0": 30}})
        code = main(["quermass", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        captured = capfd.readouterr()
        assert captured.err.splitlines() == [
            "numerical failure: non-finite area density at node index [0]"]
        assert "W0 = " not in captured.out
        assert [str(w.message) for w in recwarn] == []

    def test_warp_overflow_exits_numerical(self, tmp_path, capfd, recwarn):
        # sinh(800) overflows: refused before any field is built from it
        cfg = write_config(tmp_path, {"n": 2, "m": 1, "backend": "full", "J": 16,
                                      "shape": {"kind": "sphere", "r0": 800}})
        code = main(["quermass", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        captured = capfd.readouterr()
        assert captured.err.splitlines() == [
            "numerical failure: non-finite warp factor at radius 800"]
        assert "W0 = " not in captured.out
        assert [str(w.message) for w in recwarn] == []

    def test_offset_sphere_overflow_exits_numerical(self, tmp_path, capfd, recwarn):
        # cosh(801) overflows: refused before the profile is formed
        cfg = write_config(tmp_path, {"n": 2, "m": 1, "backend": "axisym", "J": 16,
                                      "shape": {"kind": "offset_sphere", "r0": 800, "a": 0.5}})
        code = main(["quermass", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        captured = capfd.readouterr()
        assert captured.err.splitlines() == [
            "numerical failure: offset sphere overflows: cosh(801) is not finite"]
        assert "W0 = " not in captured.out
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("command", ["quermass", "conformal"])
    def test_underflowing_area_density_exits_numerical(self, tmp_path, capfd, recwarn,
                                                       command):
        # sinh(1e-9)^60 underflows to 0: a zero measure is refused in the geometry
        cfg = {"n": 60, "backend": "axisym", "J": 16, "shape": {"kind": "sphere", "r0": 1e-9}}
        if command == "quermass":
            cfg["m"] = 1
        code = main([command, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert capfd.readouterr().err.splitlines() == [
            "numerical failure: nonpositive area density at node index [0]"]
        assert [str(w.message) for w in recwarn] == []

    @pytest.mark.parametrize("backend, n, r0", [("axisym", 2, 1e-300), ("axisym", 2, 1e-150),
                                                ("full", 2, 1e-300), ("axisym", 3, 1e-100)])
    def test_tiny_sphere_exits_numerical(self, tmp_path, capfd, recwarn, backend, n, r0):
        # at 1e-300 lam^2 underflows to 0 and the geometry divides by it; at
        # 1e-150 and 1e-100 Brent's method cannot close the ball-radius bracket
        cfg = write_config(tmp_path, {"n": n, "m": 1, "backend": backend, "J": 16,
                                      "shape": {"kind": "sphere", "r0": r0}})
        assert main(["quermass", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical failure: ")
        assert [str(w.message) for w in recwarn] == []

    def test_arithmetic_error_exits_numerical(self, tmp_path, capfd):
        # the degree-170 harmonic's normalisation takes factorial(171) as a float
        cfg = write_config(tmp_path, {"n": 2, "m": 1, "backend": "full", "J": 342,
                                      "shape": {"kind": "perturbed_sphere", "r0": 1.0,
                                                "eps": 0.01, "l": 170, "order": 1}})
        code = main(["quermass", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        assert capfd.readouterr().err.splitlines() == [
            "numerical failure: int too large to convert to float"]

    def test_unallocatable_grid_exits_config(self, tmp_path, capfd, monkeypatch):
        # at J = 1000000 the grid's quadrature matrix needs 7.28 TiB; the
        # builder raises NumPy's message here instead of allocating
        message = ("Unable to allocate 7.28 TiB for an array with shape "
                   "(1000000, 999999) and data type float64")

        def unallocatable(J, n):
            raise MemoryError(message)
        monkeypatch.setattr(cli, "AxisymGrid", unallocatable)
        cfg = write_config(tmp_path, {"n": 2, "m": 1, "backend": "axisym", "J": 1000000,
                                      "shape": {"kind": "sphere", "r0": 1.0}})
        assert main(["quermass", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capfd.readouterr().err.splitlines() == [f"config error: {message}"]

    def test_huge_l_exits_config(self, tmp_path, capfd):
        # before the bound, l = 100000 ran out of memory and l = 1e20 failed
        # with a NumPy size message that named no key
        for l in (100000, 10 ** 20):
            cfg = write_config(tmp_path, {"n": 2, "m": 1, "backend": "axisym", "J": 16,
                                          "shape": {"kind": "perturbed_sphere", "r0": 1.0,
                                                    "eps": 0.01, "l": l}})
            assert main(["quermass", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
            assert capfd.readouterr().err.splitlines() == [
                f"config error: shape.l: must be <= 1000, got {l}"]

    def test_unresolved_degree_exits_config(self, tmp_path, capfd):
        # Y_l^2 has degree 2l in cos(theta); J latitudes integrate it exactly
        # only below degree J, so l = 8 is the first refused at J = 16
        for backend in ("axisym", "full"):
            cfg = write_config(tmp_path, {"n": 2, "m": 1, "backend": backend, "J": 16,
                                          "shape": {"kind": "perturbed_sphere", "r0": 1.0,
                                                    "eps": 0.01, "l": 8}})
            assert main(["quermass", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
            assert capfd.readouterr().err.splitlines() == [
                "config error: shape.l: must be < J/2 (8) for the grid to resolve it, got 8"]

    def test_nonpositive_quermassintegral_exits_numerical(self, tmp_path, capfd):
        # the recursion cancels at n = 342: W_0 of this body is the first of
        # its quermassintegrals to come out negative
        cfg = write_config(tmp_path, {"n": 342, "m": 200, "backend": "axisym", "J": 16,
                                      "shape": {"kind": "offset_sphere", "r0": 1.0, "a": 0.1}})
        assert main(["quermass", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "numerical failure: nonpositive or non-finite quermassintegral W_0 = ")

    @pytest.mark.parametrize("n, m, r0, k", [(174, 1, 1.0, 173), (20, 19, 1e-3, 0)])
    def test_nonpositive_quermassintegral_of_any_order_exits_numerical(
            self, tmp_path, capfd, n, m, r0, k):
        # these spheres printed W_173 = -9.4e-59 and W_0 = -5.5e-21 with exit 0,
        # since only the deficit's own W_m was checked
        cfg = write_config(tmp_path, {"n": n, "m": m, "backend": "axisym", "J": 16,
                                      "shape": {"kind": "sphere", "r0": r0}})
        assert main(["quermass", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"numerical failure: nonpositive or non-finite quermassintegral W_{k} = -")

    def test_unresolved_offset_sphere_exits_numerical(self, tmp_path, capsys):
        # a geodesic sphere of radius 1 has margin coth 1 - 1 ~ 0.313; at J=16
        # the a=0.999 offset sphere showed a margin of -140.85
        cfg = write_config(tmp_path, {"n": 2, "m": 1, "backend": "full", "J": 16,
                                      "shape": {"kind": "offset_sphere", "r0": 1.0,
                                                "a": 0.999}})
        code = main(["quermass", "--config", cfg, "--out", str(tmp_path)])
        assert code == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical failure: offset sphere not h-convex")
        assert "hconvexity_margin" not in captured.out


class TestMainFlow:
    def test_writes_trace_and_svg(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FLOW_CFG)
        out = tmp_path / "artifacts"
        code = main(["flow", "--config", cfg, "--out", str(out), "--plot"])
        assert code == EXIT_OK
        stdout = capsys.readouterr().out
        csv_path = out / "flow_trace.csv"
        assert csv_path.exists()
        data = csv_path.read_bytes()
        assert b"\r" not in data  # LF endings
        lines = data.decode().strip().split("\n")
        assert lines[0] == ("t,dt,W0,W1,W2,minF,maxF,minH,maxH,minr,maxr,minu,"
                            "AtrL2,AtrMax,minKappaMinus1,cumDeficitIntegral")
        steps = int(stdout.split("steps = ")[1].split()[0])
        assert len(lines) == steps + 2  # header + initial row + steps
        svg = (out / "flow.svg").read_text()
        assert svg.startswith("<svg") and "</svg>" in svg
        assert "terminal_fit radius = " in stdout and "center_offset = " in stdout
        assert "dissipation_residual = " in stdout

    def test_golden_trace_hash(self, tmp_path):
        # pins the trace bytes across changes, not just run to run
        cfg = write_config(tmp_path, FLOW_CFG)
        assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        data = (tmp_path / "flow_trace.csv").read_bytes()
        assert data.count(b"\n") == 8
        assert hashlib.sha256(data).hexdigest() == (
            "e38df2b8b430378b32cbb3371ecbae2d786326b2b0ce09d27c7676c387ac48f4")

    def test_rhs_evals_reported(self, tmp_path, capsys):
        # six accepted steps on four stages each, none rejected
        cfg = write_config(tmp_path, FLOW_CFG)
        assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert "monitor_flags = 0  rejections = 0  rhs_evals = 24\n" in capsys.readouterr().out

    def test_byte_determinism(self, tmp_path):
        cfg = write_config(tmp_path, FLOW_CFG)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["flow", "--config", cfg, "--out", str(out)]) == EXIT_OK
            outs.append((out / "flow_trace.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_rejected_shape_exits_numerical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(
            FLOW_CFG, shape={"kind": "perturbed_sphere", "r0": 1.0, "eps": 0.8, "l": 2}))
        assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_step_failure_writes_partial_with_marker(self, tmp_path, capsys, monkeypatch):
        def exploding_run(state, **kw):
            err = StepFailureError("synthetic blow-up", t=0.01, dt=1e-5,
                                   diagnostics={"reason": "test"})
            trace = FlowTrace()
            trace.rows.append({"t": 0.0, "dt": 0.0, "W0": 1.0})
            err.partial_trace = trace
            raise err
        monkeypatch.setattr(cli, "run", exploding_run)
        cfg = write_config(tmp_path, FLOW_CFG)
        assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        text = (tmp_path / "flow_trace.csv").read_text()
        assert text.rstrip().endswith("FAILED: synthetic blow-up")
        assert "numerical failure" in capsys.readouterr().err


class TestMainSweep:
    def test_writes_csv_and_svg(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_CFG)
        out = tmp_path / "sweepout"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--plot"]) == EXIT_OK
        stdout = capsys.readouterr().out
        lines = (out / "sweep.csv").read_text().strip().split("\n")
        assert lines[0] == "eps,deficit,dist,ratio_m2,ratio_3,minF,maxF,maxH,rhoMinus"
        assert len(lines) == 4
        assert "C* (max ratio) = " in stdout
        assert "log-log slope = " in stdout
        svg = (out / "sweep.svg").read_text()
        assert 'data-slope="0.333333"' in svg
        assert 'data-slope="0.5"' in svg

    def test_threads_key_is_unknown(self, tmp_path, capsys):
        # the worker count is the CPU count, capped by the members; no config sets it
        cfg = write_config(tmp_path, dict(SWEEP_CFG, threads=2))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.splitlines() == [
            "config error: threads: unknown key"]

    def test_member_failure_exits_numerical(self, tmp_path, capfd, monkeypatch):
        # the member fails in a worker process; its typed error reaches main
        real = cli.generate_shape

        def failing(grid, kind, **kw):
            if kw["eps"] == 0.1:
                raise DiscretizationError("synthetic failure at eps 0.1")
            return real(grid, kind, **kw)
        monkeypatch.setattr(cli, "generate_shape", failing)
        cfg = write_config(tmp_path, SWEEP_CFG)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert capfd.readouterr().err.splitlines() == [
            "numerical failure: synthetic failure at eps 0.1"]

    def test_nonzonal_order_golden_hash(self, tmp_path):
        cfg = write_config(tmp_path, {
            "n": 2, "m": 1, "backend": "full", "J": 32,
            "shape": {"kind": "perturbed_sphere", "r0": 1.0, "l": 3, "order": 1},
            "sweep": {"eps_list": [0.0125, 0.025, 0.05, 0.1, 0.2]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        data = (tmp_path / "sweep.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "7de8f566e6c233976f1a1793df70086075e67eaf6ae464222419b9d8433a8136")

    def test_summary_line(self, tmp_path, capsys):
        cfg = str(Path(__file__).resolve().parent.parent / "scripts" / "configs"
                  / "sweep_n2.json")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == (
            "sweep: n=2 m=1 l=2 order=0 J=96 backend=full members=5 rejected=0")

    def test_axisym_sweep_golden_hash(self, tmp_path):
        cfg = str(Path(__file__).resolve().parent.parent / "scripts" / "configs"
                  / "sweep_n4_m2.json")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        data = (tmp_path / "sweep.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "bdd5332c78c68c07abfa96f3a6c161a839d9457eddcd0bf239a8930d7af28c89")

    def test_insufficient_points_still_succeeds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, dict(SWEEP_CFG, sweep={"eps_list": [0.05, 0.1]}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert "not fitted" in capsys.readouterr().out

    def test_plot_without_positive_points_still_succeeds(self, tmp_path, capsys):
        # the round member has no deficit to plot; the CSV is still the result
        cfg = write_config(tmp_path, dict(SWEEP_CFG, sweep={"eps_list": [0.0]}))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path), "--plot"]) == EXIT_OK
        assert "sweep.svg: not written (" in capsys.readouterr().out
        assert (tmp_path / "sweep.csv").exists()
        assert not (tmp_path / "sweep.svg").exists()


class TestMainConformal:
    def test_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 2, "backend": "axisym", "J": 48,
                                      "shape": {"kind": "perturbed_sphere", "r0": 1.0,
                                                "eps": 0.1, "l": 2}})
        assert main(["conformal", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        report = (tmp_path / "conformal_report.txt").read_text().strip().split("\n")
        assert len(report) == 7
        assert report[1].startswith("relation_residual_max = ")
        res = float(report[1].split(" = ")[1])
        assert res < 1e-4
        margin = float(report[3].split(" = ")[1])
        assert margin > -1e-8

    def test_image_on_the_boundary_exits_numerical(self, tmp_path, capfd):
        # 2 tanh(50) rounds to 2: the image leaves the open ball
        cfg = write_config(tmp_path, {"n": 2, "backend": "full", "J": 16,
                                      "shape": {"kind": "sphere", "r0": 100.0}})
        assert main(["conformal", "--config", cfg, "--out", str(tmp_path)]) == EXIT_NUMERICAL
        assert capfd.readouterr().err.splitlines() == [
            "numerical failure: conformal image reaches the ball's boundary: "
            "2 tanh(r/2) rounds to 2 at r = 100"]


class TestOneEvaluationPerGraph:
    """Each command evaluates the geometry of its input graph once."""

    @pytest.mark.parametrize("command", ["quermass", "conformal"])
    def test_static_commands(self, tmp_path, count_calls, command):
        graphs = count_calls("geometry_fields")
        raw = {"n": 2, "backend": "axisym", "J": 32,
               "shape": {"kind": "perturbed_sphere", "r0": 1.0, "eps": 0.1, "l": 2}}
        cfg = write_config(tmp_path, dict(raw, m=1) if command == "quermass" else raw)
        assert main([command, "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert sum(g is graphs[0] for g in graphs) == 1

    def test_flow_initial_graph(self, tmp_path, count_calls):
        # the shape check, the initial state and the dissipation check share it
        graphs = count_calls("geometry_fields")
        cfg = write_config(tmp_path, FLOW_CFG)
        assert main(["flow", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert sum(g is graphs[0] for g in graphs) == 1


@st.composite
def geometry_configs(draw):
    """(command, config) for quermass and conformal on both backends; n and l
    reach past the float range of sphere areas and factorials, r0 into underflow."""
    command = draw(st.sampled_from(["quermass", "conformal"]))
    backend = draw(st.sampled_from(["full", "axisym"]))
    n = 2 if backend == "full" else draw(st.integers(2, 400))
    r0 = 10.0 ** draw(st.floats(-12, 3))
    shape = {"kind": draw(st.sampled_from(["sphere", "offset_sphere", "perturbed_sphere"])),
             "r0": r0}
    if shape["kind"] == "offset_sphere":
        shape["a"] = draw(st.floats(0, 0.9)) * r0
    elif shape["kind"] == "perturbed_sphere":
        shape.update(eps=draw(st.floats(0, 0.2)) * r0, l=draw(st.integers(2, 200)),
                     order=draw(st.integers(0, 3)))
    cfg = {"n": n, "backend": backend, "J": draw(st.sampled_from([16, 24])), "shape": shape}
    if command == "quermass":
        cfg["m"] = draw(st.integers(1, n - 1))
    return command, cfg


class TestMainFuzz:
    @settings(max_examples=60, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=geometry_configs())
    def test_exit_codes(self, tmp_path, case):
        command, cfg = case
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", path, "--out", str(tmp_path)]) in (
            EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)


class TestMainPlumbing:
    def test_missing_config_file(self, capsys):
        assert main(["flow", "--config", "/nonexistent.json"]) == EXIT_CONFIG
        assert "no such file" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["flow", "--config", str(bad)]) == EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err

    def test_config_errors_reported_individually(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 1, "backend": "nope", "J": 7,
                                      "shape": {"kind": "banana"}, "bogus": 1})
        assert main(["quermass", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("config error:") >= 5

    def test_out_directory_created(self, tmp_path):
        cfg = write_config(tmp_path, {"n": 2, "m": 1, "backend": "axisym", "J": 32,
                                      "shape": {"kind": "sphere", "r0": 1.0}})
        nested = tmp_path / "deep" / "nested" / "dir"
        assert main(["quermass", "--config", cfg, "--out", str(nested)]) == EXIT_OK
        assert nested.is_dir()

    def test_verify_exit_code_on_failure(self, capsys, monkeypatch):
        from hypflow.checks import CheckResult
        fake = [CheckResult("alpha", True, "ok", 0.0),
                CheckResult("beta", False, "wrong", 0.0)]
        monkeypatch.setattr(cli, "run_verify", lambda seed=0: fake)
        assert main(["verify"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "verify: 1/2 checks passed" in out
        assert "FAIL" in out

    def test_verify_runs_every_check(self, capsys):
        assert main(["verify"]) == EXIT_OK
        assert "verify: 10/10 checks passed (seed=0)" in capsys.readouterr().out

    def test_verify_all_pass_exit_zero(self, capsys, monkeypatch):
        from hypflow.checks import CheckResult
        monkeypatch.setattr(cli, "run_verify",
                            lambda seed=0: [CheckResult("alpha", True, "ok", 0.0)])
        assert main(["verify"]) == EXIT_OK


class TestReadmeOutputs:
    @staticmethod
    def documented_header(artifact):
        """The header line README's "Outputs" section gives for an artifact."""
        text = README.read_text(encoding="utf-8")
        outputs = text.split("\n## Outputs\n", 1)[1].split("\n## ", 1)[0]
        return outputs.split(f"`{artifact}`", 1)[1].split("```\n", 2)[1].strip()

    def test_flow_trace_header_documented(self):
        _, trace = run(FlowState.create(generate_shape(AxisymGrid(16, 2), "sphere", 1.0), 1),
                       t_max=1.0)
        documented = self.documented_header("flow_trace.csv")
        assert documented.replace("W0,...,Wn", "W0,W1,W2") == trace.header()

    def test_sweep_header_documented(self):
        assert self.documented_header("sweep.csv") == SweepRecord.csv_header()
