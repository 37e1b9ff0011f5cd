"""Shared tolerances and dimension caps."""

from __future__ import annotations

import os

# Validation of user-supplied matrices (absorbs I/O noise).
TOL_INPUT = 1e-8
# Agreement between independent computation routes of the same quantity.
TOL_ROUTE = 1e-8
# Slack threshold below which a certificate reports a violation.
TOL_VERDICT = 1e-9

DEFAULT_OPERATOR_DIM_CAP = 4096
VECTOR_DIM_CAP = 1 << 20

CAP_ENV_VAR = "QCERT_MAX_DIM"


def operator_dim_cap() -> int:
    """Largest allowed side of a materialized operator.

    Overridable through the QCERT_MAX_DIM environment variable.
    """
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_OPERATOR_DIM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap < 2:
        raise ValueError(f"{CAP_ENV_VAR} must be >= 2, got {cap}")
    return cap
