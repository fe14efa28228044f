"""Seeded workloads of the staticpot benchmark.

Each workload turns the benchmark seed into the inputs the library receives
(suite configs and suite seeds, launch states), runs one pass through the
library's public entry points, and checks every output of that pass. Only
worker processes import this module, because importing it imports staticpot.

A pass returns a ``PassResult``: work units done, operations attempted and
failed, and a fingerprint of everything it produced. Two passes with the same
inputs must give byte-identical fingerprints; the worker counts a mismatch as a
failed operation. A pass calls ``between()`` after each top-level library
call; the worker probes the host's speed there and leaves that time out.
"""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from staticpot import cli, geodesics, geometry, global_checks, potentials, quadrature
from staticpot.geometry import PerturbationTerm


@dataclass
class PassResult:
    units: int = 0
    attempted: int = 0
    failed: int = 0
    fingerprint: bytes = b""
    problems: list = field(default_factory=list)

    def check(self, name, passed, detail=""):
        self.attempted += 1
        if not passed:
            self.failed += 1
            self.problems.append(f"{name}: {detail}")

    def crashed(self, name):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{name} raised:\n{traceback.format_exc()}")


def _canonical(payload) -> bytes:
    return json.dumps(payload, indent=2, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# suite workloads: pointwise_dense and zeroset_flow go through cli.run_suite


DENSE_POINTS = 150

# Point-kernel evaluations per suite pass as (per sampled point, fixed), read
# off the suite bodies in cli.py: e.g. schwarzschild_static runs
# static_residual and curvature_at on every point, plus backend agreement,
# eigenframe and eigenvalue checks on the first 20 points.
POINT_KERNELS = {
    "euclidean_affine": (2, 20),
    "schwarzschild_static": (2, 60),
    "tod_identities": (1, 20),
    "conformal_double": (2, 1),
    "huisken_yau": (0, 322),
}


def _suite_seed(rng) -> int:
    return int(rng.integers(0, 2 ** 31 - 1))


def _dense_inputs(rng):
    plan = []
    for suite in ("euclidean_affine", "schwarzschild_static", "tod_identities",
                  "conformal_double"):
        plan.append((suite, {"n_points": str(DENSE_POINTS)}, _suite_seed(rng)))
    plan.append(("huisken_yau", {}, _suite_seed(rng)))
    return {"plan": plan}


def _dense_units(plan) -> int:
    total = 0
    for suite, overrides, _ in plan:
        per_point, fixed = POINT_KERNELS[suite]
        total += per_point * int(overrides.get("n_points", 0)) + fixed
    return total


def _zeroset_inputs(rng):
    plan = [("zero_set_gauss_bonnet", {}, _suite_seed(rng)),
            ("anisotropy_limit", {}, _suite_seed(rng)),
            ("mass_fit", {}, _suite_seed(rng)),
            ("growth_bound", {}, _suite_seed(rng))]
    # a start on the sphere r = 0.6 just outside the zero set r = 0.5 of the
    # mass-1 potential; every direction escapes, as the shipped default does
    d = rng.normal(size=3)
    d *= 0.6 / np.linalg.norm(d)
    start = ", ".join("%.17g" % float(c) for c in d)
    plan.append(("flow_classify", {"start": start}, _suite_seed(rng)))
    return {"plan": plan}


def _run_suites(inputs, out_dir, between, units_of=None) -> PassResult:
    res = PassResult()
    reports = {}
    for suite, overrides, seed in inputs["plan"]:
        suite_dir = os.path.join(out_dir, suite)
        res.attempted += 1  # suite set-up
        try:
            report = cli.run_suite(suite, dict(overrides), suite_dir, seed=seed)
        except Exception:
            res.failed += 1
            res.problems.append(f"{suite} set-up raised:\n{traceback.format_exc()}")
            continue
        finally:
            between()
        for chk in report["checks"]:
            res.check(f"{suite}.{chk['name']}", chk["passed"], chk["detail"])
        with open(os.path.join(suite_dir, "report.json"), "rb") as fh:
            reports[suite] = fh.read()
        if units_of is None:
            res.units += len(report["checks"])
    if units_of is not None:
        res.units = units_of(inputs["plan"])
    res.fingerprint = b"".join(reports[k] for k in sorted(reports))
    return res


# ---------------------------------------------------------------------------
# shell_quadrature: the three integrals of the integral_identities suite


REL_TOL = 1e-5        # integral_identities default rel_tol
CAPACITY_TOL = 0.02   # integral_identities default capacity_tol

# (r_inner, r_outer, (n_polar, n_azimuth), n_panels, nodes_per_panel) of each
# integral_identity_check, and the capacity volume integral. The shipped suite
# config evaluates 54,432 volume + 976 flux nodes (about 50 s a pass); these
# sizes keep its three integrals and its tolerances at 1,740 + 244 nodes.
SHELL_BALANCE = (2.0, 40.0, (4, 8), 4, 6)
REFINE_COARSE = (2.0, 10.0, (3, 6), 2, 3)
REFINE_FINE = (2.0, 10.0, (6, 12), 2, 3)
CAPACITY = (60.0, (3, 6), 6, 4)   # r_outer, rule, n_panels, nodes_per_panel


def shell_node_counts(mass, balances=(SHELL_BALANCE, REFINE_COARSE, REFINE_FINE),
                      capacity=CAPACITY):
    """Volume and flux quadrature nodes of one pass, from the rule sizes."""
    volume = flux = 0
    for r_in, r_out, rule, n_panels, per_panel in balances:
        n_dirs = quadrature.sphere_rule(*rule).count
        radii, _ = quadrature.radial_panels(r_in, r_out, n_panels, per_panel)
        volume += len(radii) * n_dirs
        flux += 2 * n_dirs
    r_out, rule, n_panels, per_panel = capacity
    radii, _ = quadrature.radial_panels((0.5 * mass) ** 2 / r_out, r_out, n_panels,
                                        per_panel, breakpoints=(0.5 * mass,))
    volume += len(radii) * quadrature.sphere_rule(*rule).count
    return volume, flux


def _shell_inputs(rng):
    # masses in [0.84, 1.19]: the shell [2, 40] stays outside the horizon m/2
    return {"mass": float(2.0 ** rng.uniform(-0.25, 0.25))}


def _balance(f, metric, spec):
    r_in, r_out, rule, n_panels, per_panel = spec
    return global_checks.integral_identity_check(
        f, metric, r_in, r_out, rule=quadrature.sphere_rule(*rule),
        n_panels=n_panels, nodes_per_panel=per_panel)


def _shell_pass(inputs, out_dir, between) -> PassResult:
    mass = inputs["mass"]
    metric = geometry.schwarzschild(mass)
    f = potentials.schwarzschild_potential(mass)
    res = PassResult(units=sum(shell_node_counts(mass)))
    found = {}
    try:
        found["shell_flux_defect"] = _balance(f, metric, SHELL_BALANCE).relative_defect
    except Exception:
        res.crashed("shell_flux_defect")
    between()
    try:
        coarse = _balance(f, metric, REFINE_COARSE).relative_defect
        between()
        fine = _balance(f, metric, REFINE_FINE).relative_defect
        found["angular_refinement_stable"] = abs(coarse - fine)
    except Exception:
        res.crashed("angular_refinement_stable")
    between()
    try:
        r_out, rule, n_panels, per_panel = CAPACITY
        found["capacity_balance"] = global_checks.capacity_balance_instance(
            mass, f, geometry.schwarzschild(mass, exterior_only=False), r_outer=r_out,
            rule=quadrature.sphere_rule(*rule), n_panels=n_panels,
            nodes_per_panel=per_panel).relative_gap
    except Exception:
        res.crashed("capacity_balance")
    between()
    tolerances = {"shell_flux_defect": REL_TOL, "angular_refinement_stable": REL_TOL,
                  "capacity_balance": CAPACITY_TOL}
    for name, value in found.items():
        res.check(name, value <= tolerances[name],
                  f"{value:.3e} above tolerance {tolerances[name]:g}")
    res.fingerprint = _canonical({"mass": repr(mass),
                                  "checks": {k: repr(v) for k, v in found.items()}})
    return res


# ---------------------------------------------------------------------------
# geodesic_transport: integrate_geodesic with transport on two metrics


GEODESICS_PER_METRIC = 2
GEODESIC_T_END = 20.0
SPEED_DRIFT_TOL = 1e-6        # integrate_geodesic's own unit-speed gate
ANGULAR_MOMENTUM_TOL = 1e-8   # relative, observed ~1e-11 at rtol 1e-10
TRANSPORT_TOL = 1e-8          # absolute on f in (0, 1), observed ~1e-10

PERTURBATION = (PerturbationTerm(0, 0, 0.3, (0, 0, 0)),
                PerturbationTerm(1, 2, 0.2, (1, 1, 0)))


def _metrics():
    return {"schwarzschild": geometry.schwarzschild(1.0),
            "perturbed_as": geometry.perturbed_as(1.0, PERTURBATION)}


def _psi(mass, x):
    return 1.0 + 0.5 * mass / np.linalg.norm(x, axis=-1)


def _potential(mass, x):
    q = 0.5 * mass / np.linalg.norm(x, axis=-1)
    return (1.0 - q) / (1.0 + q)


def _geodesic_inputs(rng):
    """Launch states at r in [3, 6] with a nonnegative radial velocity.

    Coordinate spheres are convex on both slices out there, so such a geodesic
    moves outward and never meets the chart boundary. The transported scalar
    starts with the value and slope of the mass-1 static potential, whose
    restriction to a Schwarzschild geodesic solves the transport equation.
    """
    f = potentials.schwarzschild_potential(1.0)
    metrics = _metrics()
    launches = []
    for name, metric in metrics.items():
        for _ in range(GEODESICS_PER_METRIC):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            x0 = rng.uniform(3.0, 6.0) * d
            v = rng.normal(size=3)
            v -= min(0.0, float(v @ d)) * d
            state = geodesics.launch_state(metric, x0, v)
            launches.append((name, geodesics.GeodesicState(
                t=0.0, position=state.position, velocity=state.velocity,
                f_value=f.value(x0), f_slope=float(f.gradient(x0) @ state.velocity))))
    return {"metrics": metrics, "launches": launches}


def _geodesic_pass(inputs, out_dir, between) -> PassResult:
    res = PassResult()
    digest = []
    for k, (name, start) in enumerate(inputs["launches"]):
        label = f"{name}[{k}]"
        try:
            traj = geodesics.integrate_geodesic(inputs["metrics"][name], start,
                                                GEODESIC_T_END, transport=True)
        except Exception:
            res.crashed(label)
            continue
        finally:
            between()
        res.check(label, True)
        res.units += len(traj.states)
        xs, vs, us = traj.positions, np.array([s.velocity for s in traj.states]), traj.f_values
        digest.append(np.concatenate([xs.ravel(), vs.ravel(), us]).tobytes())
        res.check(f"{label}.speed_drift", traj.max_speed_drift <= SPEED_DRIFT_TOL,
                  f"unit-speed drift {traj.max_speed_drift:.3e}")
        if name != "schwarzschild":
            continue
        # rotations are isometries of the slice, so psi^4 x cross x' is conserved
        L = _psi(1.0, xs)[:, None] ** 4 * np.cross(xs, vs)
        dev = float(np.max(np.linalg.norm(L - L[0], axis=1)) / np.linalg.norm(L[0]))
        res.check(f"{label}.angular_momentum", dev <= ANGULAR_MOMENTUM_TOL,
                  f"relative drift {dev:.3e}")
        # Hess f = f Ric, so f along the geodesic is the transported scalar
        err = float(np.max(np.abs(us - _potential(1.0, xs))))
        res.check(f"{label}.transport_closed_form", err <= TRANSPORT_TOL,
                  f"max error {err:.3e}")
    res.fingerprint = b"".join(digest)
    return res


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    make_inputs: object
    run_pass: object
    unit: str


WORKLOADS = {
    "shell_quadrature": Workload(_shell_inputs, _shell_pass, "quadrature nodes"),
    "pointwise_dense": Workload(
        _dense_inputs, lambda inp, out, between: _run_suites(inp, out, between, _dense_units),
        "point-kernel evaluations"),
    "zeroset_flow": Workload(_zeroset_inputs, _run_suites, "suite checks"),
    "geodesic_transport": Workload(_geodesic_inputs, _geodesic_pass,
                                   "accepted ODE samples"),
}


def make_inputs(name, seed):
    return WORKLOADS[name].make_inputs(np.random.default_rng(seed % 2 ** 64))
