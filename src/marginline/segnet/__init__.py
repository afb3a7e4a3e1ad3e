# the two names the benchmark's workloads import from the package
from .network import NetworkParams, forward
