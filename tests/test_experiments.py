"""Experiment drivers: the timestep families, and input checks made
before any work."""

import numpy as np
import pytest

from polydg import experiments
from polydg.basis import BasisError
from polydg.experiments import (ExperimentError, advection_timestep,
                                euler_timestep, run_advect, run_euler_vortex,
                                run_random_advect)
from polydg.mesh import h_E_from_area, pattern_side_length
from polydg.vonneumann import TIMESTEP_FACTORS, timestep_family


def family_reference(k1):
    """The per-function timestep tables that TIMESTEP_FACTORS replaced."""
    return {"k1": k1, "k2": 2.0 * k1, "k3": 4.0 * k1}


@pytest.mark.parametrize("label", TIMESTEP_FACTORS)
def test_timesteps_equal_the_per_function_tables(label):
    for x in np.geomspace(1e-4, 1e3, 401):
        h_E = h_E_from_area(x)
        for ref, href in (("hE", h_E),
                          ("square", pattern_side_length("square", h_E))):
            assert (timestep_family(x, label, ref).hex()
                    == family_reference(3.0 * href)[label].hex())
        assert (advection_timestep(label, x).hex()
                == family_reference(x / np.sqrt(2.0))[label].hex())
        assert (euler_timestep(label, x).hex()
                == family_reference(0.03 * x)[label].hex())


@pytest.fixture
def work(monkeypatch):
    """Names of the set-ups and solves the drivers make, in call order."""
    calls = []
    for name in ("solve_linear", "DgSpace"):
        def counted(*args, name=name, fn=getattr(experiments, name),
                    **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(experiments, name, counted)
    return calls


SMALL = {"p_list": (0,), "k_labels": ("k1",)}
ADVECT = dict(SMALL, h=0.2, n_steps=1)
BAD_INPUTS = {
    "p7": ({"p_list": (0, 7)}, BasisError, "degree p=7 unsupported"),
    "p1.5": ({"p_list": (0, 1.5)}, BasisError, "degree p=1.5 unsupported"),
    "k9": ({"k_labels": ("k1", "k9")}, ExperimentError,
           "unknown timestep label 'k9'")}
BAD_PATTERN = {"foo": ({"patterns": ("hexagon", "foo")}, ExperimentError,
                       "unknown pattern kind 'foo'")}


def cases(driver, small, bad_inputs):
    return [pytest.param(driver, small, *case, id=f"{driver.__name__}-{name}")
            for name, case in bad_inputs.items()]


@pytest.mark.parametrize("driver, small, bad, error, message", [
    *cases(run_advect, dict(ADVECT, patterns=("hexagon",)),
           BAD_INPUTS | BAD_PATTERN),
    *cases(run_random_advect, ADVECT, BAD_INPUTS),
    *cases(run_euler_vortex, dict(SMALL, patterns=("square",)),
           BAD_INPUTS | BAD_PATTERN)])
def test_drivers_check_inputs_before_any_work(work, driver, small, bad, error,
                                              message):
    with pytest.raises(error, match=message):
        driver(**dict(small, **bad))
    assert work == []
