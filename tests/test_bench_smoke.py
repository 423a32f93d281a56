"""Every case of the layer micro-benchmarks under ``bench/`` runs once.

The suite does not collect ``bench/``, and its cases run only when someone
times them, so a change that broke one would go unseen.  Here an inner
pytest session runs them with pytest-benchmark switched off and a stub
``benchmark`` fixture in its place, which calls each benchmarked function
once, untimed.
"""

from pathlib import Path

import pytest
import pytest_benchmark.hookspec

BENCH = Path(__file__).resolve().parents[1] / "bench"


class StubBenchmark:
    """benchmark(f, *args) and benchmark.pedantic(f, args, kwargs) call f once;
    stats is None, as on pytest-benchmark's fixture when timing is off."""

    stats = None

    def __call__(self, function, *args, **kwargs):
        return function(*args, **kwargs)

    def pedantic(self, target, args=(), kwargs=None, **rounds):
        return target(*args, **(kwargs or {}))


class StubPlugin:
    def __init__(self):
        self.collected, self.passed = [], []

    def pytest_addhooks(self, pluginmanager):
        # bench/conftest.py implements hooks that pytest-benchmark declares
        pluginmanager.add_hookspecs(pytest_benchmark.hookspec)

    @pytest.fixture
    def benchmark(self):
        return StubBenchmark()

    def pytest_collection_finish(self, session):
        self.collected = [item.nodeid for item in session.items]

    def pytest_runtest_logreport(self, report):
        if report.when == "call" and report.passed:
            self.passed.append(report.nodeid)


def test_every_bench_case_runs_once():
    plugin = StubPlugin()
    code = pytest.main([str(BENCH), "-q", "-p", "no:benchmark", "-p", "no:cacheprovider"],
                       plugins=[plugin])
    assert code == pytest.ExitCode.OK
    assert plugin.passed == plugin.collected
    assert {nodeid.split("::")[0] for nodeid in plugin.passed} == {
        f"bench/{path.name}" for path in BENCH.glob("test_*.py")}
