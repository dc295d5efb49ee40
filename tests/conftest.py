"""Shared fixtures and builders for the test suite."""

import numpy as np
import pytest

from revtori import diophantine
from revtori.fields import FourierField, action_powers, mode_mask, mode_orders

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def random_parity_field(rng, parity, d=1, N=8, q_y=2, r=0.1, m=None,
                        decay=0.4, amp=1.0, N_t=None):
    """Random real field with exact declared parity.

    Coefficients get a mild exponential decay in |k| + |l| so that sup
    norms stay O(amp), and are restricted to the |k|_1 + |l| <= N simplex
    (the support every solver works on).  N_t (default N) is the time
    cutoff; N_t = 0 gives an autonomous field.
    """
    m = d if m is None else m
    N_t = N if N_t is None else N_t
    P = len(action_powers(d, q_y))
    shape = (2 * N + 1,) * d + (2 * N_t + 1, P, m)
    raw = rng.standard_normal(shape)
    raw *= amp * np.exp(-decay * mode_orders(d, N, N_t))[..., None, None]
    raw[~mode_mask(d, N, N_t)] = 0.0
    sl = (slice(None, None, -1),) * (d + 1)
    if parity == "even":
        coeffs = 0.5 * (raw + raw[sl]).astype(complex)
    elif parity == "odd":
        coeffs = 0.5j * (raw - raw[sl])
    else:
        raise ValueError(parity)
    return FourierField(d, m, N, q_y, r, coeffs, (parity,) * m)


def random_reversible_pair(rng, d=1, N=8, q_y=2, r=0.1, amp=1.0):
    """The (f even, g odd) pair the homological equations expect."""
    f = random_parity_field(rng, "even", d=d, N=N, q_y=q_y, r=r, amp=amp)
    g = random_parity_field(rng, "odd", d=d, N=N, q_y=q_y, r=r, amp=amp)
    return f, g


def grid_parity_residual(field, parity=None, n=None):
    """Relative sup of F(-x,-t) -/+ F(x,t) on the synthesis grid.

    parity defaults to the field's own tags; returns the worst component.
    """
    n = 2 * field.N + 2 if n is None else n
    vals = field.values_on_grid(n).real
    axes = tuple(range(field.d + 1))
    rev = np.flip(np.roll(vals, -1, axis=axes), axis=axes)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    tags = field.parity if parity is None else (parity,) * field.m
    worst = 0.0
    for i, tag in enumerate(tags):
        sign = 1.0 if tag == "even" else -1.0
        dev = float(np.max(np.abs(rev[..., :, i] - sign * vals[..., :, i])))
        worst = max(worst, dev / scale)
    return worst


@pytest.fixture(scope="session")
def golden():
    """Certified golden-mean frequency (d = 1)."""
    return diophantine.certify([GOLDEN])


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
