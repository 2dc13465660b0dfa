import json
import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, settings

from kernelep.cli import (
    cmd_eval,
    cmd_gen_data,
    cmd_train,
    make_config,
    save_graph,
)
from kernelep.ep_engine import demo_graph

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

# One verdict line per release criterion, filled in by test_acceptance and
# printed as a dedicated section after the run so the gate is readable at a
# glance even under plain `pytest -v`.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Full-scale artifacts shared by criteria 1, 6 and 8 and by the
    logistic-regression accuracy test: the seed-42 acceptance model and its
    evaluation report, which holds the operator's KLs and the oracle floor."""
    root = tmp_path_factory.mktemp("acceptance")
    data = {
        "seed": 42,
        "n_train": 2000,
        "n_test": 200,
        "n_importance": 10_000,
        "num_features": 2000,
        "dataset": str(root / "train.csv"),
        "model": str(root / "model.json"),
        "graph": str(root / "graph.json"),
    }
    save_graph(root / "graph.json", demo_graph())
    t0 = time.perf_counter()
    cmd_gen_data(make_config(data))
    cmd_train(make_config(data))
    report_path = cmd_eval(make_config(data, {"out": str(root / "report.json")}))
    elapsed = time.perf_counter() - t0
    report = json.loads(report_path.read_text())
    floor_median = report["floor"]["kl_summary"]["median"]
    return SimpleNamespace(
        root=root,
        data=data,
        elapsed=elapsed,
        report=report,
        floor_median=floor_median,
        threshold=20.0 * floor_median,
    )
