import pytest

from invperm.experiments import _usable_cpus


@pytest.fixture
def two_cpus():
    """Skip a test that runs a census at parallelism 2 where this process
    may run on fewer than two CPUs, the count that ``ExperimentConfig``
    bounds parallelism by."""
    if _usable_cpus() < 2:
        pytest.skip("needs two usable CPUs for parallelism 2")
