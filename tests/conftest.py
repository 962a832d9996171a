import pytest

from ptwaveguide.helmholtz import amplitude_arrays
from ptwaveguide.medium import MediumParams
from ptwaveguide.quantities import E_CHARGE, ev_to_angular
from ptwaveguide.timeprop import plan_packet_run, scatter_packet


@pytest.fixture(scope="session")
def params():
    """Reference medium: 5 eV resonance tuned to the cutoff, 0.2 eV plasma
    frequency, 1.25 eV damping, 19.7 um regions."""
    return MediumParams(
        omega0=ev_to_angular(5.0),
        omega_p=ev_to_angular(0.2),
        delta=ev_to_angular(1.25),
        region_length=19.7e-6,
    )


@pytest.fixture(scope="session")
def hermitian_params():
    """Same geometry with the resonant term switched off (unitary control)."""
    return MediumParams(
        omega0=ev_to_angular(5.0),
        omega_p=0.0,
        delta=ev_to_angular(1.25),
        region_length=19.7e-6,
    )


@pytest.fixture(scope="session")
def subcritical_params():
    """Weaker pumping (0.1 eV plasma frequency): short time-domain runs at
    low carriers converge too.  It is not shown to be below its
    amplification threshold at every frequency."""
    return MediumParams(
        omega0=ev_to_angular(5.0),
        omega_p=ev_to_angular(0.1),
        delta=ev_to_angular(1.25),
        region_length=19.7e-6,
    )


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
    in the order of helmholtz.ode_amplitudes; t_left = t_right = 1/m22."""
    t, r_left, r_right, _ = amplitude_arrays(k_outer, layers)
    return complex(t), complex(r_left), complex(t), complex(r_right)
