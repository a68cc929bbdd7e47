import contextlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from cvfade import outputs
from cvfade.channel import FadingStats

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    """scripts/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixed_fading(eta):
    """Moments of a channel whose transmittance is eta at every instant."""
    return FadingStats(eta, math.sqrt(eta))


def rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


def beamsplitter(tau, n_modes=2, modes=(0, 1)):
    """Symplectic of a beamsplitter with transmittance tau on two modes."""
    s = np.eye(2 * n_modes)
    i, j = modes
    t, r = np.sqrt(tau), np.sqrt(1.0 - tau)
    for q in range(2):
        s[2 * i + q, 2 * i + q] = t
        s[2 * i + q, 2 * j + q] = r
        s[2 * j + q, 2 * i + q] = -r
        s[2 * j + q, 2 * j + q] = t
    return s


def random_symplectic_two_mode(rng):
    """Product of rotations, bounded squeezers and a beamsplitter."""
    def local(theta1, theta2, r1, r2):
        blocks = []
        for theta, r in ((theta1, r1), (theta2, r2)):
            sq = np.diag([np.exp(r), np.exp(-r)])
            blocks.append(rotation(theta) @ sq)
        out = np.zeros((4, 4))
        out[:2, :2] = blocks[0]
        out[2:, 2:] = blocks[1]
        return out

    s1 = local(*rng.uniform(0, 2 * np.pi, 2), *rng.uniform(-0.8, 0.8, 2))
    s2 = local(*rng.uniform(0, 2 * np.pi, 2), *rng.uniform(-0.8, 0.8, 2))
    return s2 @ beamsplitter(rng.uniform(0.05, 0.95)) @ s1


def random_physical_two_mode(rng):
    """gamma = S diag(nu1, nu1, nu2, nu2) S^T with random symplectic S."""
    nus = 1.0 + rng.exponential(1.5, size=2)
    s = random_symplectic_two_mode(rng)
    return s @ np.diag([nus[0], nus[0], nus[1], nus[1]]) @ s.T, np.sort(nus)[::-1]


def two_mode_nu_closed_form(m):
    """Textbook nu_+- for a two-mode covariance matrix (independent oracle)."""
    a = np.linalg.det(m[:2, :2])
    b = np.linalg.det(m[2:, 2:])
    c = np.linalg.det(m[:2, 2:])
    delta = a + b + 2 * c
    disc = np.sqrt(max(delta * delta - 4 * np.linalg.det(m), 0.0))
    return (
        np.sqrt((delta + disc) / 2.0),
        np.sqrt(max((delta - disc) / 2.0, 0.0)),
    )


LARGEST_SUBNORMAL = 2.225073858507201e-308
SPECIAL_SAMPLES = (0.0, 1.0, 5e-324, 1e-310, LARGEST_SUBNORMAL, 2.2250738585072014e-308, -0.0)


def sample_values():
    """Doubles for sample files: 0, 1, the smallest subnormal and other
    subnormals, transmittances in [0, 1] and any finite double."""
    return st.one_of(
        st.sampled_from(SPECIAL_SAMPLES),
        st.floats(min_value=5e-324, max_value=LARGEST_SUBNORMAL),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(allow_nan=False, allow_infinity=False),
    )


# '%.17g' lines of samples in [1e-4, 1), as `simulate` writes them: more than
# one block of outputs.read_fractions, so that a line after them is read in a
# later block
BLOCK_OF_LINES = b"".join(b"%.17g\r\n" % v for v in np.random.default_rng(15).uniform(1e-4, 1.0, 7000))


def read_samples(path):
    """The samples of a sample file as one array: the blocks of
    outputs.sample_blocks, the stream that read_eta_csv sums, joined."""
    with contextlib.closing(outputs.sample_blocks(path)) as blocks:
        return np.concatenate(list(blocks))


def hex_values(values):
    """Exact bit patterns of a sequence of floats."""
    return [float(v).hex() for v in values]


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# Cn^2 series the reader must reject with ConfigError (the CLI: exit 2)
MALFORMED_CN2 = {
    "one_cell_row": b"hour,cn2\n01\n",
    "field_over_csv_limit": b"hour,cn2\n" + b"x" * 200000 + b",1e-15\n",
    "nan": b"hour,cn2\n00,nan\n",
    "non_utf8": b"hour,cn2\n00,1e-15\n01,\xff\n",
}


def number_keys(properties, path=()):
    """(path, schema node) of every number key under a schema node's
    properties; a protocol's keys once, under `protocols`."""
    for key, node in properties.items():
        if key == "protocol":
            continue
        if node["type"] == "number":
            yield path + (key,), node
        elif "properties" in node:
            yield from number_keys(node["properties"], path + (key,))
