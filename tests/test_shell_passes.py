"""Differential tests: the shell integrals in shared curvature passes.

``volume_integral`` takes consecutive radial panels in one curvature pass, up
to ``quadrature._PASS_NODES`` nodes, and ``integral_identity_check`` takes its
static gate's three probes and both boundary spheres in one pass. Each must
give the bits of the drivers in ``reference_pointwise`` that take one pass per
panel, per sphere and for the probes, on a Schwarzschild chart and on a
rotated ``perturbed_as`` chart.
"""

import numpy as np
import pytest

import staticpot as sp
from staticpot import global_checks, potentials, quadrature
from staticpot.geometry import PerturbationTerm, Point3, _bundle_nodes

from .reference_pointwise import (reference_integral_identity_check,
                                  reference_panel_flux_integral, reference_panel_volume_integral)

LOOSE = 1e12  # a gate every probe passes, so the non-static pair still integrates
_Q = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])
F = sp.schwarzschild_potential(1.0)


def _metrics():
    bumpy = sp.perturbed_as(1.0, [PerturbationTerm(0, 0, 0.4, (1, 0, 0)),
                                  PerturbationTerm(0, 1, 0.3, (0, 0, 1)),
                                  PerturbationTerm(2, 2, -0.5, (1, 1, 0))])
    return {"schwarzschild": sp.schwarzschild(1.0),
            "rotated_perturbed_as": sp.rotate_chart(bumpy, _Q)}


METRICS = _metrics()

# (rule, n_panels, nodes_per_panel, breakpoints, panels per pass)
SHELLS = {
    "four_panels_a_pass": ((3, 6), 5, 3, (), 4),        # 54-node panels, 5 = 4 + 1
    "one_192_node_panel_a_pass": ((4, 8), 4, 6, (), 1),
    "panel_over_the_cap": ((6, 12), 3, 4, (), 1),       # 288 nodes > 256
    "capacity_like": ((3, 6), 6, 4, (5.0,), 3),         # 72-node panels and a breakpoint
}


def _hex(*values):
    return [float(v).hex() for v in values]


def _counted(monkeypatch, module):
    calls = []
    inner = module.curvature_at

    def counted(metric, point, *args, **kwargs):
        calls.append(np.size(point.x1))
        return inner(metric, point, *args, **kwargs)

    monkeypatch.setattr(module, "curvature_at", counted)
    return calls


@pytest.mark.parametrize("shell", sorted(SHELLS))
@pytest.mark.parametrize("name", sorted(METRICS))
def test_grouped_volume_matches_the_panel_loop(monkeypatch, name, shell):
    metric = METRICS[name]
    sizes, n_panels, per_panel, breaks, grouped = SHELLS[shell]
    rule = sp.sphere_rule(*sizes)
    density = global_checks._ricci_density(F, lambda v: v)
    want = reference_panel_volume_integral(metric, density, 3.0, 12.0, rule, n_panels,
                                           per_panel, breakpoints=breaks)
    calls = _counted(monkeypatch, quadrature)
    got = sp.volume_integral(metric, density, 3.0, 12.0, rule, n_panels=n_panels,
                             nodes_per_panel=per_panel, breakpoints=breaks)
    assert _hex(got) == _hex(want)
    panels = len(quadrature.radial_panels(3.0, 12.0, n_panels, per_panel, breaks)[0]) // per_panel
    panel_nodes = per_panel * rule.count
    assert calls == [panel_nodes * min(grouped, panels - k) for k in range(0, panels, grouped)]
    assert max(calls) <= max(panel_nodes, quadrature._PASS_NODES)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_paired_fluxes_and_folded_gate_match_separate_passes(monkeypatch, name):
    metric, rule = METRICS[name], sp.sphere_rule(4, 8)
    gated = []

    def loose_gate(res, f, metric, tol):
        gated.append(res)
        return potentials._gate(res, f, metric, LOOSE)

    want = reference_integral_identity_check(F, metric, 3.0, 40.0, rule, 4, 6, static_tol=LOOSE)
    monkeypatch.setattr(global_checks, "_gate", loose_gate)
    calls = _counted(monkeypatch, global_checks)
    got = global_checks.integral_identity_check(F, metric, 3.0, 40.0, rule=rule, n_panels=4,
                                                nodes_per_panel=6)
    assert _hex(got.bulk, got.flux_inner, got.flux_outer) == _hex(
        want.bulk, want.flux_inner, want.flux_outer)
    assert calls == [3 + 2 * rule.count]
    # the gate's slice of the pass is the probes' own static residual
    (res,) = gated
    probes = sp.static_residual(F, metric, res.point)
    for field in ("f_value", "tensor_residual", "laplacian_residual", "gradient",
                  "covariant_hessian"):
        assert getattr(res, field).tobytes() == getattr(probes, field).tobytes(), field
    assert res.curvature.ricci.tobytes() == probes.curvature.ricci.tobytes()


def test_fluxes_match_separate_passes_on_the_static_pair():
    metric, rule = METRICS["schwarzschild"], sp.sphere_rule(6, 12)
    got = global_checks.integral_identity_check(F, metric, 1.5, 10.0, rule=rule, n_panels=2,
                                                nodes_per_panel=3)
    want = reference_integral_identity_check(F, metric, 1.5, 10.0, rule, 2, 3)
    assert _hex(got.bulk, got.flux_inner, got.flux_outer) == _hex(
        want.bulk, want.flux_inner, want.flux_outer)


def test_flux_integral_is_its_own_pass_reduced():
    metric, rule = METRICS["rotated_perturbed_as"], sp.sphere_rule(3, 6)

    def field(b):
        return (b.ricci @ F.gradient(b.point)[..., None])[..., 0]

    for radius in (3.0, 7.5):
        assert _hex(sp.flux_integral(metric, field, radius, rule)) == _hex(
            reference_panel_flux_integral(metric, field, radius, rule))


def test_bundle_nodes_cut_every_array():
    bundle = sp.ricci_with_derivative(METRICS["rotated_perturbed_as"],
                                      Point3.stack([(3.0, 1.0, -2.0), (4.0, 0.5, 1.0),
                                                    (-2.5, 3.0, 0.5)]))
    part = _bundle_nodes(bundle, slice(1, 3))
    alone = sp.ricci_with_derivative(METRICS["rotated_perturbed_as"], part.point)
    assert part.point.x1.tolist() == [4.0, -2.5]
    for name in ("metric_matrix", "dg", "d2g", "gamma", "riemann", "ricci", "scalar", "dricci"):
        assert getattr(part, name).tobytes() == getattr(alone, name).tobytes(), name
