"""Shared fixtures. The expensive trained predictors are session-scoped so the
acceptance suite and module tests pay for each training run exactly once."""

import time

import numpy as np
import pytest

from fleetopt.design_space import default_space, reduced_space, decode_rows
from fleetopt.device_world import (
    FleetConfig,
    MeasurementLedger,
    Oracle,
    default_proxy,
    generate_fleet,
    accuracy_value,
    energy_value,
    latency_value,
)
from fleetopt.learn_to_optimize import build_lambda_grid, optimizer_inputs, train_method2
from fleetopt.surrogate import (
    TrainingSettings,
    train_accuracy_predictor,
    train_device_specific_predictor,
    train_stage1,
)

# Per-criterion pass/fail lines collected by the acceptance tests and printed
# at the end of the run.
CRITERIA: dict[int, str] = {}

# Wall time of the expensive fixtures, charged to the criteria that use them.
BUILD_SECONDS: dict[str, float] = {}


def record_criterion(num: int, name: str, ok: bool, detail: str) -> bool:
    CRITERIA[num] = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {name}: {detail}"
    return ok


def pytest_terminal_summary(terminalreporter):
    if not CRITERIA:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(CRITERIA):
        terminalreporter.write_line(CRITERIA[num])


def seeded(*salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(salt)))


def rows_of(f):
    """The row objective the minimizers take, from a function of one index tuple."""
    return lambda X: np.array([f(tuple(x)) for x in np.asarray(X).tolist()])


@pytest.fixture(scope="session")
def reduced():
    return reduced_space()


@pytest.fixture(scope="session")
def dspace():
    return default_space()


@pytest.fixture(scope="session")
def proxy():
    return default_proxy()


@pytest.fixture(scope="session")
def fleet():
    return generate_fleet(FleetConfig(), seeded(0, 0))


@pytest.fixture(scope="session")
def reduced_models(reduced, proxy):
    """Accuracy plus proxy latency/energy predictors on the 128-design space."""
    t0 = time.monotonic()
    rng = seeded(0, 5)
    acc = train_accuracy_predictor(500, Oracle(reduced, MeasurementLedger()), rng)
    lat = train_device_specific_predictor(
        "latency", proxy, 500, Oracle(reduced, MeasurementLedger()), rng
    )
    en = train_device_specific_predictor(
        "energy", proxy, 500, Oracle(reduced, MeasurementLedger()), rng
    )
    BUILD_SECONDS["reduced_models"] = time.monotonic() - t0
    return {"accuracy": acc, "latency": lat, "energy": en}


@pytest.fixture(scope="session")
def proxy_latency_default(dspace, proxy):
    """Proxy latency predictor on the full space; the reuse detector's model."""
    t0 = time.monotonic()
    model = train_device_specific_predictor(
        "latency", proxy, 500, Oracle(dspace, MeasurementLedger()), seeded(0, 1)
    )
    BUILD_SECONDS["proxy_latency_default"] = time.monotonic() - t0
    return model


@pytest.fixture(scope="session")
def stage1_bundle(dspace, fleet):
    """Device-aware predictors trained on the fleet's real training devices."""
    t0 = time.monotonic()
    bundle = train_stage1(
        list(fleet.training_real), 500, Oracle(dspace, MeasurementLedger()), seeded(0, 2)
    )
    BUILD_SECONDS["stage1_bundle"] = time.monotonic() - t0
    return bundle


@pytest.fixture(scope="session")
def method2_net(dspace, fleet, stage1_bundle):
    """Amortized optimizer trained through the frozen stage-1 predictors."""
    t0 = time.monotonic()
    lam_grid = build_lambda_grid(4, 1.0)
    inputs = optimizer_inputs(list(fleet.training_real) + list(fleet.synthetic), lam_grid)
    inputs = inputs.reshape(-1, inputs.shape[-1])
    net = train_method2(
        inputs,
        *stage1_bundle,
        (64, 64),
        TrainingSettings(),
        1e-4,
        seeded(0, 3),
    )
    BUILD_SECONDS["method2_net"] = time.monotonic() - t0
    return net


class ExactModel:
    """Oracle-backed stand-in for a trained predictor: decodes the encoding and
    returns the true value of the design's value view, so searches against it
    are exact."""

    def __init__(self, metric, space, device=None, objective_scale=1.0):
        self.metric = metric
        self.device_tag = device.device_id if device else ""
        self.takes_device = False
        self.objective_scale = objective_scale
        self._space = space
        self._device = device

    def _value(self, x):
        if self.metric == "accuracy":
            return accuracy_value(x, self._space)
        if self.metric == "latency":
            return latency_value(x, self._device)
        return energy_value(x, self._device)

    def predict(self, enc):
        x = tuple(decode_rows([enc], self._space)[0].tolist())
        return self._value(self._space.design_at(x))

    def predict_batch(self, X):
        return np.array([self.predict(row) for row in np.asarray(X, dtype=float)])


@pytest.fixture(scope="session")
def exact_models(reduced, proxy):
    from fleetopt.design_space import enumerate_all

    designs = [reduced.design_at(x) for x in enumerate_all(reduced)]
    s_lat = float(np.median([latency_value(x, proxy) for x in designs]))
    s_en = float(np.median([energy_value(x, proxy) for x in designs]))
    return {
        "accuracy": ExactModel("accuracy", reduced),
        "latency": ExactModel("latency", reduced, proxy, s_lat),
        "energy": ExactModel("energy", reduced, proxy, s_en),
    }
