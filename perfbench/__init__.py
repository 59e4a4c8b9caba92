"""The repository benchmark: workloads, outside-in tracer and checks."""
