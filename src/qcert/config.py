"""Fixed tolerances, dimension caps and measure-route names; no option changes them."""

from __future__ import annotations

# Validation of user-supplied matrices (absorbs I/O noise).
TOL_INPUT = 1e-8
# Agreement between independent computation routes of the same quantity.
TOL_ROUTE = 1e-8
# Slack threshold below which a certificate reports a violation.
TOL_VERDICT = 1e-9

# Largest side D of a materialized D x D operator, checked before the array is built.
OPERATOR_DIM_CAP = 4096
# Largest length of a state vector, the doubled two-copy vector and a purification.
VECTOR_DIM_CAP = 1 << 20

# The routes of ``measures.measure_all``; here so the CLI parser needs no measures import.
ROUTES = ("partitions", "projector", "subset-sum", "all", "oracle")
