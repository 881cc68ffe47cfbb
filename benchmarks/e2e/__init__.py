"""End-to-end benchmark: four golden-checked workloads, end-to-end metrics
from an untraced run and per-layer metrics from a traced one.  See
``README.md`` in this directory."""
