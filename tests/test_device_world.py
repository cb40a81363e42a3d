import numpy as np
import pytest

from fleetopt.design_space import DesignPoint, StageChoice, enumerate_all, sample_uniform
from fleetopt.device_world import (
    ACCURACY_MAX,
    NOISE_AMPLITUDE,
    QUANT_PENALTY,
    DeviceFeatures,
    FleetConfig,
    Fleet,
    MeasurementLedger,
    Oracle,
    accuracy_value,
    default_proxy,
    energy_value,
    generate_fleet,
    latency_value,
    true_accuracy,
    true_energy,
    true_latency,
)
from fleetopt.proxy_reuse import spearman


def small_design():
    return DesignPoint(
        stages=(StageChoice(1, 0.5, 3), StageChoice(1, 0.5, 3)), bits=32
    )


def device(**overrides):
    base = dict(
        device_id="custom",
        throughput=100.0,
        bandwidth=50.0,
        overhead=0.05,
        quant_speedup={4: 2.5, 8: 2.0, 16: 1.4, 32: 1.0},
        power_dynamic=0.5,
        power_static=2.0,
        gamma=1.0,
    )
    base.update(overrides)
    return DeviceFeatures(**base)


# hand-evaluated from the documented cost model:
# work = (1*0.25*9*16, 1*0.25*9*8) = (36, 18); mem = (0.5, 0.5)
# latency = 36/100 + 0.5/50 + 18/100 + 0.5/50 + 0.05*2 = 0.66
# energy  = 0.5*(36+18) + 2.0*0.66 = 28.32
def test_latency_matches_hand_transcription(proxy):
    assert latency_value(small_design(), proxy) == pytest.approx(0.66, abs=1e-12)


def test_energy_matches_hand_transcription(proxy):
    assert energy_value(small_design(), proxy) == pytest.approx(28.32, abs=1e-12)


def test_doubling_depth_doubles_latency():
    # linear regime: gamma 1, overhead ~0, bandwidth ~inf
    d = device(bandwidth=1e15, overhead=1e-15)
    x1 = small_design()
    x2 = DesignPoint(
        stages=tuple(StageChoice(s.depth * 2, s.width, s.kernel) for s in x1.stages),
        bits=x1.bits,
    )
    assert latency_value(x2, d) == pytest.approx(2 * latency_value(x1, d), rel=1e-9)


def test_doubling_throughput_halves_latency():
    d1 = device(bandwidth=1e15, overhead=1e-15)
    d2 = device(throughput=200.0, bandwidth=1e15, overhead=1e-15)
    x = small_design()
    assert latency_value(x, d2) == pytest.approx(latency_value(x, d1) / 2, rel=1e-9)


def test_energy_static_only_is_power_times_latency():
    d = device(power_dynamic=1e-15)
    x = small_design()
    assert energy_value(x, d) == pytest.approx(2.0 * latency_value(x, d), rel=1e-9)


def test_energy_dynamic_only_proportional_to_work():
    d1 = device(power_static=1e-15)
    x1 = small_design()
    x2 = DesignPoint(
        stages=tuple(StageChoice(s.depth * 3, s.width, s.kernel) for s in x1.stages),
        bits=x1.bits,
    )
    assert energy_value(x2, d1) == pytest.approx(3 * energy_value(x1, d1), rel=1e-9)


def test_quantization_accuracy_penalty(reduced):
    x32 = small_design()
    x4 = DesignPoint(stages=x32.stages, bits=8)
    # reduced space has bits {8, 32}: penalty gap 0.01 within noise band
    gap = accuracy_value(x32, reduced) - accuracy_value(x4, reduced)
    expected = QUANT_PENALTY[8] - QUANT_PENALTY[32]
    assert abs(gap - expected) <= 2 * NOISE_AMPLITUDE


def test_accuracy_saturates_at_high_capacity(dspace):
    x = DesignPoint(
        stages=tuple(StageChoice(4, 1.25, 7) for _ in range(4)), bits=32
    )
    # capacity ~38.9 makes the exponential term < 1e-5
    assert abs(accuracy_value(x, dspace) - (ACCURACY_MAX - QUANT_PENALTY[32])) <= (
        NOISE_AMPLITUDE + 1e-5
    )


def test_accuracy_argmax_on_reduced_is_all_max(reduced):
    designs = enumerate_all(reduced)
    accs = [accuracy_value(x, reduced) for x in designs]
    best = designs[int(np.argmax(accs))]
    assert best == DesignPoint(
        stages=(StageChoice(2, 1.0, 5), StageChoice(2, 1.0, 5)), bits=32
    )


def test_accuracy_deterministic(reduced):
    x = small_design()
    assert accuracy_value(x, reduced) == accuracy_value(x, reduced)


def test_oracle_values_deterministic(proxy, reduced):
    x = small_design()
    assert latency_value(x, proxy) == latency_value(x, proxy)
    assert energy_value(x, proxy) == energy_value(x, proxy)


def test_device_validation():
    with pytest.raises(ValueError):
        device(throughput=-1.0)
    with pytest.raises(ValueError):
        device(gamma=1.5)
    with pytest.raises(ValueError):
        device(quant_speedup={8: 0.0})


def test_device_serialization_roundtrip(proxy):
    assert DeviceFeatures.from_dict(proxy.to_dict()) == proxy


def test_ledger_starts_empty():
    assert MeasurementLedger().snapshot() == {"accuracy": 0, "devices": {}}


def test_ledger_counts_every_call(proxy, reduced):
    ledger = MeasurementLedger()
    x = small_design()
    for _ in range(5):
        true_latency(x, proxy, ledger)
    true_energy(x, proxy, ledger)
    true_accuracy(x, reduced, ledger)
    assert ledger.count(proxy.device_id, "latency") == 5
    # energy derives from latency without double-charging the latency counter
    assert ledger.count(proxy.device_id, "energy") == 1
    assert ledger.count(proxy.device_id, "latency") == 5
    assert ledger.accuracy_count == 1


def test_ledger_csv_format(proxy, reduced):
    ledger = MeasurementLedger()
    true_latency(small_design(), proxy, ledger)
    true_accuracy(small_design(), reduced, ledger)
    lines = ledger.to_csv().strip().replace("\r", "").split("\n")
    assert lines[0] == "device_id,metric,count"
    assert lines[1] == "*,accuracy,1"
    assert f"{proxy.device_id},latency,1" in lines


def test_oracle_charges_ledger(reduced, proxy):
    ledger = MeasurementLedger()
    oracle = Oracle(reduced, ledger)
    oracle.latency(small_design(), proxy)
    oracle.energy(small_design(), proxy)
    oracle.accuracy(small_design())
    assert ledger.total() == 2
    assert ledger.total("latency") == 1
    assert ledger.accuracy_count == 1


def test_fleet_zero_counts_is_proxy_only():
    fleet = generate_fleet(FleetConfig(0, 0, 0, 0), np.random.default_rng(0))
    assert fleet.training_real == ()
    assert fleet.synthetic == ()
    assert fleet.holdout_monotone == ()
    assert fleet.holdout_adversarial == ()
    assert fleet.proxy == default_proxy()


def test_fleet_counts_and_unique_ids(fleet):
    assert len(fleet.training_real) == 8
    assert len(fleet.synthetic) == 16
    assert len(fleet.holdout_monotone) == 8
    assert len(fleet.holdout_adversarial) == 4
    ids = [d.device_id for d in fleet.all_devices()]
    assert len(set(ids)) == len(ids)


def test_fleet_generation_deterministic():
    a = generate_fleet(FleetConfig(), np.random.default_rng(np.random.SeedSequence([0, 0])))
    b = generate_fleet(FleetConfig(), np.random.default_rng(np.random.SeedSequence([0, 0])))
    assert a == b


def test_fleet_serialization_roundtrip(fleet):
    assert Fleet.from_dict(fleet.to_dict()) == fleet


def probe_latencies(devices, space, n=40, seed=17):
    rng = np.random.default_rng(seed)
    probes = [sample_uniform(space, rng) for _ in range(n)]
    return {d.device_id: [latency_value(x, d) for x in probes] for d in devices}, probes


def test_monotone_family_preserves_proxy_ranking(fleet, dspace):
    lats, probes = probe_latencies([fleet.proxy] + list(fleet.holdout_monotone), dspace)
    base = lats[fleet.proxy.device_id]
    for d in fleet.holdout_monotone:
        assert spearman(base, lats[d.device_id]) >= 0.95


def test_adversarial_devices_break_proxy_ranking(fleet, dspace):
    lats, probes = probe_latencies([fleet.proxy] + list(fleet.holdout_adversarial), dspace)
    base = lats[fleet.proxy.device_id]
    for d in fleet.holdout_adversarial:
        assert spearman(base, lats[d.device_id]) <= 0.80


def test_adversarial_inverts_quant_ordering(fleet):
    for d in fleet.holdout_adversarial:
        bits = sorted(d.quant_speedup)
        factors = [d.quant_speedup[b] for b in bits]
        # low bit-widths are the slow ones
        assert factors == sorted(factors)


def test_costs_strictly_increase_in_every_field(reduced, fleet):
    # exhaustive pairwise neighbour comparison on the reduced space
    designs = enumerate_all(reduced)
    for d in [fleet.proxy, fleet.training_real[0]]:
        for x in designs:
            for axis in range(7):
                idx = list(reduced.indices_of(x))
                sizes = [len(a) for a in reduced._axes()]
                if idx[axis] + 1 >= sizes[axis]:
                    continue
                idx[axis] += 1
                y = reduced.design_at(idx)
                assert latency_value(y, d) > latency_value(x, d)
                assert energy_value(y, d) > energy_value(x, d)
