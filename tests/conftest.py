import numpy as np
import pytest

import carlesonlab as cl
from carlesonlab.harness import build_curve

# the benchmark's single-call zoo: curve specs at n = 4096
ZOO_SPECS = {
    "graded_circle": {"kind": "graded_circle", "radius": 1.0},
    "corner": {"kind": "corner", "turn": np.pi / 2, "r_min": 1e-6},
    "spiral_1": {"kind": "log_spiral", "delta": 1.0},
    "spiral_2": {"kind": "log_spiral", "delta": 2.0},
    "mixed": {"kind": "mixed_spirality", "alpha": -1.0, "beta": 1.0,
              "r_min": 1e-6},
}


@pytest.fixture(scope="session")
def unit_circle():
    return cl.generate_circle(1.0, 4096)


@pytest.fixture(scope="session")
def graded_circle():
    return cl.generate_graded_circle(1.0, 8192)


@pytest.fixture(scope="session")
def spiral1():
    return cl.generate_log_spiral(1.0, 1e-4, 1.0, 8192)


@pytest.fixture(scope="session")
def spiral1_branch(spiral1):
    return cl.unwrap_arg(spiral1, 0j)


@pytest.fixture(scope="session")
def corner():
    return cl.generate_corner(np.pi / 2, 1e-6, 1.0, 8192)


@pytest.fixture(scope="session")
def segment():
    return cl.generate_log_spiral(0.0, 1e-4, 1.0, 2048)


@pytest.fixture(scope="session")
def zoo():
    """name -> (curve, t0) for the specs of ZOO_SPECS at n = 4096."""
    return {name: build_curve(spec, 4096)[:2]
            for name, spec in ZOO_SPECS.items()}


def moved(curve, t0, z):
    """The curve rotated by arg z and dilated by |z| about t0."""
    return cl.Curve(t0 + z * (curve.samples - t0), abs(z) * curve.cumlen,
                    curve.closed)
