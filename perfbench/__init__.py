"""The repository benchmark: end-to-end and per-layer metrics for the
simulator, the sharded engine and the HTTP service (see README.md)."""
