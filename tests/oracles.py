"""Test-only oracles shared by more than one test module."""

import numpy as np

from relreparam.dynamics import UVWState, means_from_uvw
from relreparam.gmm import MixtureParams, responsibilities_array


def exact_partials_per_sample(state: UVWState, xs: np.ndarray) -> np.ndarray:
    """Per-sample exact chain-rule partials of the log-density, shape (n, 3).

    Columns are d/d(v, u, w) in original mode and d/d(v, Delta, w') in
    relative mode. This is the independent route of the Monte-Carlo oracle
    for the closed-form velocities; it never touches their series expressions.
    """
    v = state.v
    mu1, mu2 = means_from_uvw(state)
    params = MixtureParams(weights=(v, 1.0 - v), means=(mu1, mu2), sigmas=(1.0, 1.0))
    gam = responsibilities_array(params, xs)
    dl_dm1 = gam[:, 0] * (xs - mu1)
    dl_dm2 = gam[:, 1] * (xs - mu2)
    dl_dv = gam[:, 0] / v - gam[:, 1] / (1.0 - v)
    if state.parameterization == "original":
        # mu1 = w + (1-v)u, mu2 = w - v*u
        d_v = dl_dv - state.u * dl_dm1 - state.u * dl_dm2
        d_u = (1.0 - v) * dl_dm1 - v * dl_dm2
        d_w = dl_dm1 + dl_dm2
    else:
        # mu1 = w' - (1-v)*Delta, mu2 = w' + v*Delta
        d_v = dl_dv + state.u * dl_dm1 + state.u * dl_dm2
        d_u = -(1.0 - v) * dl_dm1 + v * dl_dm2
        d_w = dl_dm1 + dl_dm2
    return np.column_stack([d_v, d_u, d_w])
