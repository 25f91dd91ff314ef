"""Expected outcomes the benchmark checks every operation against.

Every value here is copied from the repository's test suite, with the
test that fixes it cited next to it. The benchmark never recomputes an
expectation with the code it measures.
"""

# Reference equations for the `verdicts` workload: name -> (f, g, expected).
# `expected` maps a report field to its verdict; a field left out is only
# required to be determinate.
REFERENCE_EQUATIONS = {
    # tests/test_acceptance.py, criterion 1 (known-equation grid)
    "camassa_holm": ("ux", "u", {"momentum": True, "h1": True, "l2m": False, "weighted_h2": False}),
    "degasperis_procesi": ("2*ux", "u", {"momentum": True, "h1": False, "l2m": False, "weighted_h2": False}),
    "novikov": ("u*ux", "u^2", {"momentum": False, "h1": True, "l2m": False, "weighted_h2": False}),
    "modified_camassa_holm": ("0", "u^2-ux^2", {"momentum": True, "h1": True, "l2m": False, "weighted_h2": False}),
    # tests/test_acceptance.py, criterion 4 (momentum False, solution set the
    # line nu = 0); tests/test_conslaw.py::test_singular_family_report (h1,
    # l2m and weighted_h2 all True)
    "singular_overlap": ("ux/u^3", "1/u^2", {
        "momentum": False, "h1": True, "l2m": True, "weighted_h2": True, "grad_energy": "line",
    }),
    # tests/test_conslaw.py::test_grad_energy_solution_sets (the point
    # (mu, nu) = (2, 0)) and test_l2_flux_instance (m-L2 current exists)
    "l2m_family": ("-u*ux", "u^2", {"l2m": True, "grad_energy": "point"}),
    # tests/test_acceptance.py, criterion 4 (momentum and H1 both conserved)
    "momentum_h1_overlap": ("ux*(u^2-ux^2)", "u*(u^2-ux^2)+(u^2-ux^2)", {"momentum": True, "h1": True}),
}

# Family members f = ux*f1(u^2-ux^2) [+ u/(u^2-ux^2)] conserve momentum;
# adding 0.001*u must flip the verdict to False.
# tests/test_acceptance.py, criterion 3 (forward residual zero; the 1e-3*u
# perturbation is rejected)
FAMILY_PERTURBATION = "0.001*u"

# Frozen drift bounds of conserved integrals.
# tests/test_acceptance.py, criterion 6: M and H1sq of Camassa-Holm, H1sq
# and L2msq of the singular equation drift by at most 1e-8
DRIFT_512_BOUND = 1e-8
DRIFT_512_CONSERVED = {"camassa_holm": ("M", "H1sq"), "singular": ("H1sq", "L2msq")}
# tests/test_twave.py::test_solitary_wave_transport_in_simulator: H1sq and
# L2msq of the solitary run stay within 1e-10
TRANSPORT_SOLITARY_BOUND = 1e-10
TRANSPORT_SOLITARY_CONSERVED = ("H1sq", "L2msq")

# The status every reference run must end with (pde.STATUS_COMPLETED;
# criteria 6 and 9 assert it).
RUN_STATUS = "completed"
