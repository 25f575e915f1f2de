"""Command-line front end: JSON experiment configs, dispatch, and
deterministic CSV/SVG artifacts.

Commands:
  quermass   print quermassintegrals, deficit, convexity margin, inradius
  flow       run the constrained flow, write the trace CSV (+ optional SVG);
             print the conserved drift, the descent, the terminal sphere fit
             and the dissipation residual against the initial deficit
  sweep      static stability sweep over perturbation sizes, CSV (+ SVG)
  conformal  conformal-image identity report
  verify     the consolidated property suite; nonzero exit on any failure

Configs are strict: unknown keys are rejected and every violation is
reported with its key path. Outputs are byte-deterministic for a fixed
config and seed (17 significant digits, LF line endings, UTF-8); a sweep
forks one worker process per CPU, never more than it has members, and needs
a platform with `fork`, such as Linux.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 verification
failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import Optional

from .conformal import area_identity_check, conf_relation_residual, image_convexity_margin, to_ball
from .checks import run_verify
from .flow import (
    DEFAULT_CFL,
    DEFAULT_T_MAX,
    DEFAULT_TOL_STOP,
    MAX_CFL,
    FlowState,
    StepFailureError,
    run,
)
from .grids import AxisymGrid, FullSphereGrid
from .hypersurface import (
    SHAPE_KINDS,
    DiscretizationError,
    RadialGraph,
    ShapeRejectionError,
    generate_shape,
    hconvexity_margin,
)
from .stability import (
    InsufficientDataError,
    deficit,
    exponent_fit,
    proof_trace_check,
    sphere_fit,
    stability_sweep,
)
from .svgplot import flow_svg, sweep_svg
from .symfunc import ConeViolationError

__all__ = ["main", "parse_config", "ConfigError", "ExperimentConfig",
           "EXIT_OK", "EXIT_CONFIG", "EXIT_NUMERICAL", "EXIT_VERIFY", "EXIT_IO"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4
EXIT_IO = 5


class ConfigError(Exception):
    """Invalid experiment config; `errors` lists every violation with its key path."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass
class ShapeSpec:
    kind: str
    r0: float
    params: dict   # the kind's keys in table order, defaults filled in

    def build(self, grid, **keys) -> RadialGraph:
        return generate_shape(grid, self.kind, r0=self.r0, **{**self.params, **keys})

    def label(self) -> str:
        keys = ", ".join(f"{key}={v:g}" for key, v in {"r0": self.r0, **self.params}.items())
        return f"{self.kind}({keys})"


@dataclass
class FlowParams:
    c_cfl: float = DEFAULT_CFL
    tol_stop: float = DEFAULT_TOL_STOP
    t_max: float = DEFAULT_T_MAX


@dataclass
class ExperimentConfig:
    command: str
    n: int = 2
    m: int = 1
    backend: str = "full"
    J: int = 64
    shape: Optional[ShapeSpec] = None
    flow: FlowParams = field(default_factory=FlowParams)
    sweep_eps: list = field(default_factory=list)
    seed: int = 0

    def build_grid(self):
        if self.backend == "full":
            return FullSphereGrid(self.J)
        return AxisymGrid(self.J, n=self.n)


def _finite(v) -> bool:
    """Whether a JSON number is a finite float: Python's json also reads
    NaN, Infinity and integers too large for a float."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


#: every numeric config key by path: (integer, lower bound, whether the lower bound
#: is strict, upper bound); 342 is the largest n whose sphere_area(n) is finite
_NUMERIC = {
    "n": (True, 2, False, 342),
    "J": (True, 16, False, None),
    "m": (True, 1, False, None),
    "seed": (True, 0, False, None),
    "shape.r0": (False, 0.0, True, None),
    "shape.a": (False, 0.0, False, None),
    "shape.eps": (False, 0.0, False, None),
    "shape.l": (True, 2, False, 1000),
    "shape.order": (True, 0, False, None),
    "flow.c_cfl": (False, 0.0, True, MAX_CFL),
    "flow.tol_stop": (False, 0.0, False, None),
    "flow.t_max": (False, 0.0, True, None),
}


def _reader(obj: dict, allowed, errs: list, path: str = ""):
    """Report each key of `obj` outside `allowed` and return `(get, got)`: `get(key)`
    checks one numeric key against its `_NUMERIC` entry and returns its value, also
    stored in `got`, or None when the key is absent or fails a check."""
    errs.extend(f"{path}{key}: unknown key" for key in obj if key not in allowed)
    got: dict = {}

    def get(key, required=False):
        if key not in obj:
            if required:
                errs.append(f"{path}{key}: required")
            return None
        integer, lo, strict, hi = _NUMERIC[path + key]
        v, fmt = obj[key], "d" if integer else "g"
        if isinstance(v, bool) or not isinstance(v, int if integer else (int, float)):
            err = f"expected {'integer' if integer else 'number'}, got {type(v).__name__}"
        elif not _finite(v):
            err = "must be finite"
        elif v <= lo if strict else v < lo:
            err = f"must be {'>' if strict else '>='} {lo}, got {v:{fmt}}"
        elif hi is not None and v > hi:
            err = f"must be <= {hi}, got {v:{fmt}}"
        else:
            got[key] = v if integer else float(v)
            return got[key]
        errs.append(f"{path}{key}: {err}")
        return None

    return get, got


_COMMAND_KEYS = {
    "quermass": {"n", "m", "backend", "J", "shape"},
    "flow": {"n", "m", "backend", "J", "shape", "flow"},
    "sweep": {"n", "m", "backend", "J", "shape", "sweep"},
    "conformal": {"n", "backend", "J", "shape"},
    "verify": {"seed"},
}

_FLOW_KEYS = ("c_cfl", "tol_stop", "t_max")


def parse_config(raw: dict, command: str) -> ExperimentConfig:
    """Validate a config dict for a command; raises ConfigError listing every
    violation with its key path."""
    if command not in _COMMAND_KEYS:
        raise ConfigError([f"unknown command {command!r}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"config root: expected object, got {type(raw).__name__}"])
    errs: list = []
    get, cfg = _reader(raw, _COMMAND_KEYS[command], errs)
    if command == "verify":
        get("seed")
        if errs:
            raise ConfigError(errs)
        return ExperimentConfig(command, **cfg)

    n = get("n", required=True)
    backend = cfg["backend"] = raw.get("backend")
    if backend not in ("full", "axisym"):
        errs.append(f"backend: expected 'full' or 'axisym', got {backend!r}")
    J = get("J", required=True)
    if backend == "full" and n is not None and n != 2:
        errs.append(f"n: backend 'full' requires n=2, got {n}")
    if backend == "full" and J is not None and J % 2 != 0:
        errs.append(f"J: backend 'full' requires even J, got {J}")
    if command != "conformal":
        m = get("m", required=command != "quermass")
        if m is not None and n is not None and not 1 <= m <= n - 1:
            errs.append(f"m: out of range 1..{n - 1}, got {m}")

    sh = raw.get("shape")
    kind = sh.get("kind") if isinstance(sh, dict) else None
    if "shape" not in raw:
        errs.append("shape: required")
    elif not isinstance(sh, dict):
        errs.append(f"shape: expected object, got {type(sh).__name__}")
    elif not isinstance(kind, str) or kind not in SHAPE_KINDS:
        errs.append(f"shape.kind: expected one of {sorted(SHAPE_KINDS)}, got {kind!r}")
    else:
        row = SHAPE_KINDS[kind]
        # a sweep sets the amplitude per member, so the config must not
        amp = row.amplitude if command == "sweep" else None
        keys = {"r0": None, **row.keys}
        get_shape, shape = _reader(sh, ("kind", *keys), errs, "shape.")
        for key, default in keys.items():
            get_shape(key, required=default is None and key != amp)
        errs.extend(row.rule(backend, J, **{**keys, **shape}))
        if command == "sweep" and amp is None:
            swept = " or ".join(repr(k) for k, other in SHAPE_KINDS.items() if other.amplitude)
            errs.append(f"shape.kind: sweep requires {swept}")
        elif command == "sweep" and amp in sh:
            errs.append(f"shape.{amp}: set per member by sweep.eps_list, remove it")
        cfg["shape"] = ShapeSpec(kind, shape.get("r0"), {
            key: shape.get(key, default) for key, default in row.keys.items() if key != amp})

    if command == "flow":
        fl = raw.get("flow", {})
        if not isinstance(fl, dict):
            errs.append(f"flow: expected object, got {type(fl).__name__}")
        else:
            get_flow, params = _reader(fl, _FLOW_KEYS, errs, "flow.")
            for key in _FLOW_KEYS:
                get_flow(key)
            cfg["flow"] = FlowParams(**params)

    if command == "sweep":
        sw = raw.get("sweep")
        if not isinstance(sw, dict):
            errs.append("sweep: required object with key eps_list")
        else:
            _reader(sw, ("eps_list",), errs, "sweep.")
            lst = sw.get("eps_list")
            if not isinstance(lst, list) or not lst:
                errs.append("sweep.eps_list: required nonempty list of numbers")
            else:
                eps = cfg["sweep_eps"] = []
                for i, v in enumerate(lst):
                    if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
                        errs.append(f"sweep.eps_list[{i}]: expected number >= 0, got {v!r}")
                    elif not _finite(v):
                        errs.append(f"sweep.eps_list[{i}]: must be finite")
                    else:
                        eps.append(float(v))

    if errs:
        raise ConfigError(errs)
    return ExperimentConfig(command, **cfg)


def _g17(x: float) -> str:
    return f"{x:.17g}"


def _write_text(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _emit_csv(path: str, lines, failed: Optional[str] = None):
    body = "\n".join(lines)
    if failed is not None:
        body += f"\nFAILED: {failed}"
    _write_text(path, body + "\n")


def cmd_quermass(cfg: ExperimentConfig, out_dir: str, plot: bool) -> int:
    graph = cfg.shape.build(cfg.build_grid())
    d = deficit(graph, cfg.m)
    inr = graph.inball
    print(f"shape: {cfg.shape.label()}  backend={cfg.backend} n={cfg.n} J={cfg.J} m={cfg.m}")
    for k, w in enumerate(graph.W):
        print(f"W{k} = {_g17(w)}")
    print(f"deficit = {_g17(d.value)}  (raw {_g17(d.raw)}, ball radius {_g17(d.ball_radius)})")
    print(f"hconvexity_margin = {_g17(hconvexity_margin(graph.fields))}")
    print(f"inradius_rho = {_g17(inr.rho)}")
    print(f"inradius_center_norm = {_g17(inr.center_norm())}")
    return EXIT_OK


def cmd_flow(cfg: ExperimentConfig, out_dir: str, plot: bool) -> int:
    graph = cfg.shape.build(cfg.build_grid())
    state = FlowState.create(graph, cfg.m)
    csv_path = os.path.join(out_dir, "flow_trace.csv")
    try:
        final, trace = run(state, t_max=cfg.flow.t_max, tol_stop=cfg.flow.tol_stop,
                           c_cfl=cfg.flow.c_cfl)
    except StepFailureError as exc:
        _emit_csv(csv_path, exc.partial_trace.csv_lines(), failed=str(exc))
        print(f"wrote partial trace {csv_path}")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    _emit_csv(csv_path, trace.csv_lines())
    steps = len(trace.rows) - 1
    print(f"flow: {cfg.shape.label()}  m={cfg.m} J={cfg.J} backend={cfg.backend}")
    print(f"stop_reason = {trace.stop_reason}  steps = {steps}  t_end = {_g17(final.t)}")
    print(f"W{cfg.m} drift = {_g17(abs(final.W[cfg.m] - state.W_init[cfg.m]))}")
    print(f"W{cfg.m + 1} drop = {_g17(state.W_init[cfg.m + 1] - final.W[cfg.m + 1])}")
    print(f"monitor_flags = {trace.flag_count}  rejections = {trace.rejections}  "
          f"rhs_evals = {trace.rhs_evals}")
    fit = sphere_fit(final.graph)
    print(f"terminal_fit radius = {_g17(fit.radius)}  gap = {_g17(fit.cheb)}  "
          f"center_offset = {_g17(fit.center_norm())}")
    proof = proof_trace_check(graph, cfg.m, trace)
    print(f"dissipation_residual = {_g17(proof.relative_residual)}")
    print(f"wrote {csv_path}")
    if plot:
        svg_path = os.path.join(out_dir, "flow.svg")
        _write_text(svg_path, flow_svg(trace, cfg.m))
        print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, out_dir: str, plot: bool) -> int:
    spec, grid = cfg.shape, cfg.build_grid()
    amplitude = SHAPE_KINDS[spec.kind].amplitude

    def family(eps: float) -> RadialGraph:
        return spec.build(grid, **{amplitude: eps})

    result = stability_sweep(family, cfg.m, cfg.sweep_eps, n=cfg.n)
    csv_path = os.path.join(out_dir, "sweep.csv")
    _emit_csv(csv_path, result.csv_lines())
    keys = " ".join(f"{key}={v:g}" for key, v in spec.params.items())
    print(f"sweep: n={cfg.n} m={cfg.m} {keys} J={cfg.J} "
          f"backend={cfg.backend} members={len(result.records)} "
          f"rejected={len(result.rejections)}")
    for eps, reason in result.rejections:
        print(f"  rejected eps={eps:g}: {reason}")
    print(f"C* (max ratio) = {_g17(result.max_ratio())}")
    try:
        slope, intercept, r2 = exponent_fit(result.records)
        print(f"log-log slope = {_g17(slope)}  r2 = {_g17(r2)}")
    except InsufficientDataError as exc:
        print(f"log-log slope: not fitted ({exc})")
    print(f"wrote {csv_path}")
    if plot:
        try:
            svg = sweep_svg(result)
        except InsufficientDataError as exc:
            print(f"sweep.svg: not written ({exc})")
        else:
            svg_path = os.path.join(out_dir, "sweep.svg")
            _write_text(svg_path, svg)
            print(f"wrote {svg_path}")
    return EXIT_OK


def cmd_conformal(cfg: ExperimentConfig, out_dir: str, plot: bool) -> int:
    graph = cfg.shape.build(cfg.build_grid())
    image = to_ball(graph)
    res_max, res_l2 = conf_relation_residual(graph.fields, image)
    margin = image_convexity_margin(image)
    area = area_identity_check(graph.fields, image)
    s = image.s
    lines = [
        f"conformal report: {cfg.shape.label()}  backend={cfg.backend} n={cfg.n} J={cfg.J}",
        f"relation_residual_max = {_g17(res_max)}",
        f"relation_residual_l2 = {_g17(res_l2)}",
        f"image_convexity_margin = {_g17(margin)}",
        f"area_identity_mismatch = {_g17(area.relative_mismatch)}",
        f"density_ratio_range = [{_g17(area.density_ratio_min)}, {_g17(area.density_ratio_max)}]",
        f"ball_radius_range = [{_g17(float(s.min()))}, {_g17(float(s.max()))}]",
    ]
    for line in lines:
        print(line)
    path = os.path.join(out_dir, "conformal_report.txt")
    _write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig, out_dir: str, plot: bool) -> int:
    results = run_verify(seed=cfg.seed)
    for res in results:
        print(res.line())
    passed = sum(r.passed for r in results)
    print(f"verify: {passed}/{len(results)} checks passed (seed={cfg.seed})")
    return EXIT_OK if passed == len(results) else EXIT_VERIFY


_COMMANDS = {
    "quermass": cmd_quermass,
    "flow": cmd_flow,
    "sweep": cmd_sweep,
    "conformal": cmd_conformal,
    "verify": cmd_verify,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypflow",
        description="Constrained curvature flows of h-convex hypersurfaces in hyperbolic space")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=name != "verify",
                       help="path to a JSON experiment config")
        p.add_argument("--out", default=".", help="output directory (default: cwd)")
        if name in ("flow", "sweep"):
            p.add_argument("--plot", action="store_true", help="also write an SVG plot")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    plot = getattr(args, "plot", False)
    try:
        if args.config is None:
            raw: dict = {}
        else:
            try:
                with open(args.config, "r", encoding="utf-8") as fh:
                    raw = json.load(fh)
            except FileNotFoundError:
                print(f"config error: no such file: {args.config}", file=sys.stderr)
                return EXIT_CONFIG
            except json.JSONDecodeError as exc:
                print(f"config error: {args.config} is not valid JSON: {exc}", file=sys.stderr)
                return EXIT_CONFIG
        try:
            cfg = parse_config(raw, args.command)
        except ConfigError as exc:
            for line in exc.errors:
                print(f"config error: {line}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"I/O error: cannot create output directory {args.out}: {exc}",
                  file=sys.stderr)
            return EXIT_IO
        return _COMMANDS[args.command](cfg, args.out, plot)
    except (ShapeRejectionError, DiscretizationError, ConeViolationError,
            StepFailureError, InsufficientDataError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # a value the schema admits but a generator rejects, e.g. a radius
        # whose ball profile leaves the representable range
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        # a grid the schema admits but memory cannot hold, e.g. the J x J
        # quadrature matrix at J = 1000000
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
