from dataclasses import replace

import pytest

from ptwaveguide.helmholtz import amplitude_arrays
from ptwaveguide.medium import from_config
from ptwaveguide.quantities import E_CHARGE, Config
from ptwaveguide.timeprop import plan_packet_run, scatter_packet


@pytest.fixture(scope="session")
def params():
    """Reference medium, built as the CLI builds it from the default config:
    5 eV resonance tuned to the cutoff, 0.2 eV plasma frequency, 1.25 eV
    damping, 19.7 um regions."""
    return from_config(Config())


@pytest.fixture(scope="session")
def hermitian_params(params):
    """Same geometry with the resonant term switched off (unitary control)."""
    return replace(params, omega_p=0.0)


@pytest.fixture(scope="session")
def subcritical_params():
    """Weaker pumping (0.1 eV plasma frequency), as the CLI builds it from a
    config of ``hbar_omegap_ev = 0.1``: short time-domain runs at low
    carriers converge too.  It is not shown to be below its amplification
    threshold at every frequency."""
    return from_config(Config(hbar_omegap_ev=0.1))


@pytest.fixture(scope="session")
def default_packet_run(params):
    """(plan, result) of the default gain-first packet run on the reference
    medium (sigma 3 um, 0.2 eV carrier) with a snapshot at 0.4 ps; one run
    shared by the tests that read it."""
    plan = plan_packet_run(params, sigma=3e-6, energy=0.2 * E_CHARGE)
    result = scatter_packet(params, plan.spec, plan.grid, plan.t_final,
                            record_times=(0.4e-12,))
    return plan, result


def max_relative_difference(a, b) -> float:
    """Worst relative disagreement between two (t_left, r_left, t_right,
    r_right) tuples; each amplitude is scaled by the larger of its pair."""
    worst = 0.0
    for x, y in zip(a, b):
        scale = max(abs(x), abs(y))
        if scale > 0:
            worst = max(worst, abs(x - y) / scale)
    return worst


def kernel_amplitudes(k_outer, layers):
    """(t_left, r_left, t_right, r_right) of one stack from the array kernel,
    in the order of oracles.ode_amplitudes; t_left = t_right = 1/m22."""
    t, r_left, r_right, _, _ = amplitude_arrays(k_outer, layers)
    return complex(t), complex(r_left), complex(t), complex(r_right)
