import numpy as np
import pytest

from fleetopt import device_world
from fleetopt.design_space import (
    DesignPoint,
    DesignSpace,
    DimensionMismatchError,
    InvalidDesignError,
    StageChoice,
    enumerate_all,
    sample_rows,
    sample_uniform,
)
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
)
from fleetopt.proxy_reuse import spearman


def small_design():
    return DesignPoint(
        stages=(StageChoice(1, 0.5, 3), StageChoice(1, 0.5, 3)), bits=32
    )


SMALL = (0,) * 6 + (1,)  # small_design() in the reduced space, the form the oracle measures


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
    designs = [reduced.design_at(x) for x in enumerate_all(reduced)]
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
    oracle = Oracle(reduced, ledger)
    x = SMALL
    for _ in range(5):
        oracle.latency(x, proxy)
    oracle.energy(x, proxy)
    oracle.accuracy(x)
    assert ledger.count(proxy.device_id, "latency") == 5
    # energy derives from latency without double-charging the latency counter
    assert ledger.count(proxy.device_id, "energy") == 1
    assert ledger.count(proxy.device_id, "latency") == 5
    assert ledger.accuracy_count == 1


def test_ledger_csv_format(proxy, reduced):
    ledger = MeasurementLedger()
    oracle = Oracle(reduced, ledger)
    oracle.latency(SMALL, proxy)
    oracle.accuracy(SMALL)
    lines = ledger.to_csv().strip().replace("\r", "").split("\n")
    assert lines[0] == "device_id,metric,count"
    assert lines[1] == "*,accuracy,1"
    assert f"{proxy.device_id},latency,1" in lines


def test_oracle_charges_ledger(reduced, proxy):
    ledger = MeasurementLedger()
    oracle = Oracle(reduced, ledger)
    oracle.latency(SMALL, proxy)
    oracle.energy(SMALL, proxy)
    oracle.accuracy(SMALL)
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
    probes = [space.design_at(sample_uniform(space, rng)) for _ in range(n)]
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
    sizes = [len(a) for a in reduced._axes()]
    for d in [fleet.proxy, fleet.training_real[0]]:
        for idx in enumerate_all(reduced):
            x = reduced.design_at(idx)
            for axis in range(7):
                if idx[axis] + 1 >= sizes[axis]:
                    continue
                y = reduced.design_at(idx[:axis] + (idx[axis] + 1,) + idx[axis + 1:])
                assert latency_value(y, d) > latency_value(x, d)
                assert energy_value(y, d) > energy_value(x, d)


# --- row form ------------------------------------------------------------------


@pytest.mark.parametrize("space_name, n", [("default", 6000), ("reduced", None)])
def test_row_forms_equal_the_scalar_values_bit_for_bit(space_name, n, dspace, reduced):
    # 17 devices: the proxy, hetero ones (gamma != 1), monotone and adversarial
    # (inverted speedups); 6000 x 17 = 102k default-space pairs
    space = dspace if space_name == "default" else reduced
    devices = generate_fleet(FleetConfig(4, 4, 4, 4), np.random.default_rng(29)).all_devices()
    assert len({d.gamma for d in devices}) > 2
    rng = np.random.default_rng(31)
    designs = enumerate_all(space) if n is None else [sample_uniform(space, rng) for _ in range(n)]
    points = [space.design_at(x) for x in designs]
    lat_ref = [[latency_value(x, d) for d in devices] for x in points]
    en_ref = [[energy_value(x, d) for d in devices] for x in points]
    acc_ref = [accuracy_value(x, space) for x in points]
    oracle = Oracle(space)
    assert np.array_equal(oracle.latency_rows(designs, devices), lat_ref)
    assert np.array_equal(oracle.energy_rows(designs, devices), en_ref)
    both = oracle.latency_energy_rows(designs, devices)
    assert np.array_equal(both[0], lat_ref) and np.array_equal(both[1], en_ref)
    assert np.array_equal(oracle.accuracy_rows(designs), acc_ref)
    # the single measurements are the one-row case: every reduced-space
    # design, the first 200 default-space ones
    k = 200 if n is not None else len(designs)
    assert [[oracle.latency(x, d) for d in devices] for x in designs[:k]] == lat_ref[:k]
    assert [[oracle.energy(x, d) for d in devices] for x in designs[:k]] == en_ref[:k]
    assert [oracle.accuracy(x) for x in designs[:k]] == acc_ref[:k]


@pytest.mark.parametrize("space_name, n", [("default", 3000), ("reduced", None)])
def test_row_forms_price_each_distinct_stage_term_once_per_device(monkeypatch, space_name, n,
                                                                  dspace, reduced):
    space = dspace if space_name == "default" else reduced
    devices = generate_fleet(FleetConfig(2, 2, 2, 2), np.random.default_rng(29)).all_devices()
    designs = (enumerate_all(space) if n is None
               else sample_rows(space, np.random.default_rng(37), n).tolist())
    S = space.num_stages
    terms = {(i, *x[3 * i:3 * i + 3], x[-1]) for x in designs for i in range(S)}
    assert len(terms) < len(designs) * S
    calls = []
    monkeypatch.setattr(device_world, "pow", lambda a, b: calls.append(b) or a**b, raising=False)
    oracle = Oracle(space)
    # energy takes the latency pass it needs, so both metrics in one call price
    # each term once too
    for measure in (oracle.latency_rows, oracle.energy_rows, oracle.latency_energy_rows):
        calls.clear()
        measure(designs, devices)
        assert len(calls) == len(terms) * len(devices)
        assert sorted(set(calls)) == sorted({d.gamma for d in devices})
    # a pair call prices each (row, stage) as its own term
    calls.clear()
    oracle.latency_pairs(designs[:len(devices)], devices)
    assert len(calls) == len(devices) * S


def test_row_calls_charge_once_per_value_and_nothing_else(reduced):
    devices = generate_fleet(FleetConfig(1, 0, 1, 1), np.random.default_rng(3)).all_devices()
    designs = enumerate_all(reduced)[:10]
    ledger = MeasurementLedger()
    oracle = Oracle(reduced, ledger)
    assert oracle.latency_rows(designs, devices).shape == (10, 4)
    assert ledger.snapshot() == {
        "accuracy": 0, "devices": {d.device_id: {"latency": 10} for d in devices}}
    oracle.energy_rows(designs, devices[:1])
    oracle.accuracy_rows(designs[:3])
    assert ledger.count(devices[0].device_id, "energy") == 10
    assert ledger.total("energy") == 10 and ledger.total("latency") == 40
    assert ledger.accuracy_count == 3
    # both metrics in one call: each value charged once, as two calls would
    oracle.latency_energy_rows(designs[:4], devices[1:])
    assert ledger.total("energy") == 10 + 4 * 3 and ledger.total("latency") == 40 + 4 * 3
    assert ledger.count(devices[1].device_id, "energy") == 4


def test_row_calls_check_their_rows(reduced):
    oracle = Oracle(reduced)
    with pytest.raises(DimensionMismatchError):
        oracle.latency_rows([(0,) * 6], [default_proxy()])
    for bad in [(0,) * 6 + (2,), (0,) * 6 + (-1,), (0.5,) + (0,) * 6]:
        with pytest.raises(InvalidDesignError):
            oracle.accuracy_rows([bad])
    assert oracle.ledger.snapshot() == {"accuracy": 0, "devices": {}}
    # like the scalar form, only a bit-width a row uses needs a speedup
    eight_only = device(quant_speedup={8: 2.0})
    assert oracle.latency_rows([(0,) * 7], [eight_only])[0, 0] == latency_value(
        reduced.design_at((0,) * 7), eight_only)
    with pytest.raises(ValueError, match="32-bit"):
        oracle.latency_rows([(0,) * 7, (0,) * 6 + (1,)], [eight_only])


# --- pair form -----------------------------------------------------------------


def test_pair_forms_equal_the_reference_values_bit_for_bit(dspace):
    # 2550 default-space pairs over 17 devices of every family: the proxy,
    # hetero (gamma != 1), monotone and adversarial (inverted speedups)
    fleet = generate_fleet(FleetConfig(4, 4, 4, 4), np.random.default_rng(29))
    devices = fleet.all_devices() * 150
    assert len({d.gamma for d in devices}) > 2
    assert any(d.quant_speedup[4] < 1.0 for d in fleet.holdout_adversarial)
    designs = sample_rows(dspace, np.random.default_rng(37), len(devices))
    points = [dspace.design_at(x) for x in map(tuple, designs.tolist())]
    oracle = Oracle(dspace)
    lat, en = oracle.latency_pairs(designs, devices), oracle.energy_pairs(designs, devices)
    assert lat.shape == en.shape == (len(devices),)
    assert lat.tolist() == [latency_value(x, d) for x, d in zip(points, devices)]
    assert en.tolist() == [energy_value(x, d) for x, d in zip(points, devices)]
    # the single measurements are the one-pair case
    for x, d in zip(map(tuple, designs[:100].tolist()), devices):
        assert oracle.latency(x, d) == oracle.latency_pairs([x], [d])[0]
        assert oracle.energy(x, d) == oracle.energy_pairs([x], [d])[0]


def test_pair_calls_charge_once_per_pair_to_its_device(reduced):
    devices = generate_fleet(FleetConfig(1, 0, 1, 1), np.random.default_rng(3)).all_devices()
    designs = enumerate_all(reduced)[:7]
    paired = [devices[i] for i in (0, 1, 1, 2, 3, 3, 3)]
    ledger = MeasurementLedger()
    oracle = Oracle(reduced, ledger)
    oracle.latency_pairs(designs, paired)
    assert ledger.snapshot() == {"accuracy": 0, "devices": {
        devices[0].device_id: {"latency": 1}, devices[1].device_id: {"latency": 2},
        devices[2].device_id: {"latency": 1}, devices[3].device_id: {"latency": 3}}}
    oracle.energy_pairs(designs[:2], paired[:2])
    assert ledger.total("energy") == 2 and ledger.total("latency") == 7
    assert ledger.count(devices[1].device_id, "energy") == 1


def test_pair_calls_check_their_rows_before_charging(reduced, proxy):
    oracle = Oracle(reduced)
    for bad in [(0,) * 6 + (2,), (0,) * 6 + (-1,), (0.5,) + (0,) * 6]:
        with pytest.raises(InvalidDesignError):
            oracle.latency_pairs([SMALL, bad], [proxy, proxy])
    with pytest.raises(DimensionMismatchError):
        oracle.energy_pairs([(0,) * 6], [proxy])
    for rows, devices in [([SMALL], [proxy, proxy]), ([SMALL, SMALL], [proxy]), ([SMALL], [])]:
        with pytest.raises(ValueError, match="design rows for"):
            oracle.latency_pairs(rows, devices)
        with pytest.raises(ValueError, match="design rows for"):
            oracle.energy_pairs(rows, devices)
    assert oracle.ledger.snapshot() == {"accuracy": 0, "devices": {}}
    # only the bit-width of each pair's own row needs a speedup on its device
    eight_only = device(quant_speedup={8: 2.0})
    expected = [latency_value(reduced.design_at((0,) * 7), eight_only),
                latency_value(small_design(), proxy)]
    assert oracle.latency_pairs([(0,) * 7, SMALL], [eight_only, proxy]).tolist() == expected
    with pytest.raises(ValueError, match="32-bit"):
        oracle.latency_pairs([(0,) * 7, SMALL], [eight_only, eight_only])
    assert oracle.ledger.total() == 2


def test_stage_table_is_built_once_per_space(monkeypatch, fleet):
    # 3 x 2 x 3 (depth, width, kernel) cells at each of 3 stages: 54 stage terms
    space = DesignSpace(3, (1, 2, 3), (0.5, 1.0), (3, 5, 7), (8, 32))
    device_world._stage_table.cache_clear()
    calls = [0]
    original = device_world._stage_term

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(device_world, "_stage_term", counted)
    X = sample_rows(space, np.random.default_rng(0), 6)
    devices = fleet.all_devices()[:2]
    first = Oracle(space).latency_rows(X, devices)
    assert calls[0] == 54
    assert np.array_equal(Oracle(space).latency_rows(X, devices), first)
    Oracle(space).energy_rows(X, devices)
    assert calls[0] == 54
    assert not device_world._stage_table(space).flags.writeable
