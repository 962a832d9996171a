import pytest

from ptwaveguide.medium import MediumParams
from ptwaveguide.quantities import E_CHARGE, ev_to_angular
from ptwaveguide.timeprop import plan_packet_run, scatter_packet


@pytest.fixture(scope="session")
def params():
    """Reference medium: 5 eV resonance tuned to the cutoff, 0.2 eV plasma
    frequency, 1.25 eV damping, 19.7 um regions."""
    return MediumParams.tuned(
        omega0=ev_to_angular(5.0),
        omega_p=ev_to_angular(0.2),
        delta=ev_to_angular(1.25),
        region_length=19.7e-6,
    )


@pytest.fixture(scope="session")
def hermitian_params():
    """Same geometry with the resonant term switched off (unitary control)."""
    return MediumParams.tuned(
        omega0=ev_to_angular(5.0),
        omega_p=0.0,
        delta=ev_to_angular(1.25),
        region_length=19.7e-6,
    )


@pytest.fixture(scope="session")
def subcritical_params():
    """Weaker pumping (0.1 eV plasma frequency): the gain section stays below
    its amplification threshold at every frequency, so time-domain runs
    converge at low carriers too."""
    return MediumParams.tuned(
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
