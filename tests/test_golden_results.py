"""The committed ``benchmarks/results`` files that record what the DES
observers print must equal what the experiments render today.

``benchmarks/`` needs pytest-benchmark and is not part of tier-1, which
is how ``fig09_ablation.txt`` and ``ext_bottlenecks.txt`` stayed at the
seed's output through two PRs that added a ``bottleneck`` column and
``bottleneck:`` / ``critical path:`` lines.  Both experiments are pure
simulation, so their rendering is deterministic to the byte.
"""

import os

import pytest

from repro.experiments import ext_bottlenecks, fig9

RESULTS = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                       "results")


EXPERIMENTS = {"fig09_ablation": fig9, "ext_bottlenecks": ext_bottlenecks}


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_committed_result_file_is_current(name):
    with open(os.path.join(RESULTS, f"{name}.txt")) as handle:
        committed = handle.read()
    # benchmarks/conftest.py's save_result appends the newline.
    assert EXPERIMENTS[name].run().render() + "\n" == committed, (
        f"benchmarks/results/{name}.txt is stale; regenerate it with "
        f"python -m pytest benchmarks/test_{name}.py")
