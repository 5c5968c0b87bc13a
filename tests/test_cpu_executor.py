"""The vectorised hammer executor."""

import numpy as np
import pytest

from repro.common.rng import RngStream
from repro.cpu import executor as executor_module
from repro.cpu.executor import HammerExecutor, stream_fingerprint
from repro.cpu.isa import HammerKernelConfig, baseline_load_config, rhohammer_config
from repro.cpu.platform import platform_by_name


@pytest.fixture(scope="module")
def raptor_executor() -> HammerExecutor:
    return HammerExecutor(platform_by_name("raptor_lake"), rng=RngStream(41))


@pytest.fixture(scope="module")
def comet_executor() -> HammerExecutor:
    return HammerExecutor(platform_by_name("comet_lake"), rng=RngStream(42))


def stream(n_addresses=8, repeats=2000):
    return np.tile(np.arange(n_addresses), repeats)


def test_empty_stream(raptor_executor):
    result = raptor_executor.execute(np.array([]), HammerKernelConfig())
    assert result.issued == 0
    assert result.duration_ns == 0.0
    assert result.survivors == 0


def test_serial_config_preserves_everything(comet_executor):
    # On Comet Lake obfuscation removes the whole branch window, so a
    # strong NOP pseudo-barrier leaves a truly serial stream.
    config = rhohammer_config(nop_count=500)
    result = comet_executor.execute(stream(), config)
    assert result.miss_rate == 1.0
    assert result.survivors == result.issued
    # Order preserved: surviving ids cycle exactly like the input.
    assert np.array_equal(result.address_ids[:16], stream()[:16])


def test_raptor_keeps_residual_disorder_even_with_nops(raptor_executor):
    # The hybrid parts see through the obfuscation partially; NOPs alone
    # cannot push the window to zero (Section 4.4 / platform residual).
    config = rhohammer_config(nop_count=500)
    result = raptor_executor.execute(stream(), config)
    residual = raptor_executor.platform.branch_window * (
        raptor_executor.platform.obfuscation_residual
    )
    assert result.window >= residual
    assert result.miss_rate < 1.0


def test_disordered_prefetch_drops_accesses(raptor_executor):
    config = HammerKernelConfig()  # no counter-speculation at all
    result = raptor_executor.execute(stream(), config)
    assert result.miss_rate < 0.5
    assert result.survivors < result.issued


def test_times_are_sorted_and_positive(raptor_executor):
    result = raptor_executor.execute(stream(), HammerKernelConfig())
    assert (np.diff(result.times_ns) >= 0).all()
    assert result.times_ns.min() > 0


def test_duration_covers_all_issued_slots(raptor_executor):
    config = rhohammer_config(nop_count=200, num_banks=2)
    result = raptor_executor.execute(stream(), config)
    assert result.duration_ns >= result.times_ns.max()
    per_slot = result.duration_ns / result.issued
    cost = raptor_executor.throughput.iteration_cost(config, result.miss_rate)
    assert per_slot == pytest.approx(cost.total_ns)


def test_execution_is_deterministic_per_seed():
    a = HammerExecutor(platform_by_name("raptor_lake"), rng=RngStream(7))
    b = HammerExecutor(platform_by_name("raptor_lake"), rng=RngStream(7))
    config = HammerKernelConfig()
    ra = a.execute(stream(), config)
    rb = b.execute(stream(), config)
    assert np.array_equal(ra.address_ids, rb.address_ids)
    assert ra.miss_rate == rb.miss_rate


def test_comet_keeps_more_order_than_raptor(comet_executor, raptor_executor):
    config = HammerKernelConfig()
    comet = comet_executor.execute(stream(), config)
    raptor = raptor_executor.execute(stream(), config)
    assert comet.miss_rate > raptor.miss_rate
    assert comet.window < raptor.window


def test_multibank_raises_miss_rate(comet_executor):
    """Figure 8: interleaving stretches flush->prefetch spacing.

    Uses Comet Lake, whose moderate reorder window sits between the
    single-bank and four-bank revisit distances; on Raptor Lake the plain
    kernel's window dwarfs both and the drops saturate either way.
    """
    def run(banks):
        ids = np.tile(np.arange(8 * banks), 2000)
        return comet_executor.execute(ids, HammerKernelConfig(num_banks=banks))
    assert run(4).miss_rate > run(1).miss_rate


def test_activation_rate_property(raptor_executor):
    result = raptor_executor.execute(stream(), rhohammer_config(nop_count=300))
    expected = result.survivors / (result.duration_ns * 1e-9)
    assert result.activation_rate_per_sec == pytest.approx(expected)


def test_execute_memo_hits_on_repeat():
    ex = HammerExecutor(platform_by_name("raptor_lake"), rng=RngStream(7))
    config = HammerKernelConfig()
    first = ex.execute(stream(), config)
    second = ex.execute(stream(), config)
    assert second is first
    assert (ex.cache_hits, ex.cache_misses) == (1, 1)
    # A copy of the stream (different object, same bytes) also hits.
    ex.execute(stream().copy(), config)
    assert ex.cache_hits == 2


def test_supplied_fingerprint_matches_hashing(monkeypatch):
    """A supplied fingerprint gives the same cached result and the same
    hit/miss counters as hashing in ``execute``, and is never recomputed."""
    config = rhohammer_config(nop_count=40)
    fingerprint = stream_fingerprint(stream())
    hashed_streams = []
    real = executor_module.stream_fingerprint

    def counting(ids):
        hashed_streams.append(ids.size)
        return real(ids)

    monkeypatch.setattr(executor_module, "stream_fingerprint", counting)

    def run(*supplied):
        ex = HammerExecutor(platform_by_name("raptor_lake"), rng=RngStream(7))
        results = [ex.execute(stream(), config, *supplied) for _ in range(3)]
        assert all(result is results[0] for result in results)
        return ex, results[0]

    hashed_ex, hashed = run()
    assert len(hashed_streams) == 3
    supplied_ex, supplied = run(fingerprint)
    assert len(hashed_streams) == 3
    assert np.array_equal(hashed.times_ns, supplied.times_ns)
    assert np.array_equal(hashed.address_ids, supplied.address_ids)
    assert hashed.miss_rate == supplied.miss_rate
    assert hashed.duration_ns == supplied.duration_ns
    assert (hashed_ex.cache_hits, hashed_ex.cache_misses) == (2, 1)
    assert (supplied_ex.cache_hits, supplied_ex.cache_misses) == (2, 1)
    # Both forms name the same memo entry.
    assert hashed_ex.execute(stream(), config, fingerprint) is hashed
    assert supplied_ex.execute(stream(), config) is supplied


def test_execute_memo_distinguishes_stream_and_config():
    ex = HammerExecutor(platform_by_name("raptor_lake"), rng=RngStream(7))
    ex.execute(stream(), HammerKernelConfig())
    ex.execute(stream(n_addresses=6), HammerKernelConfig())
    ex.execute(stream(), HammerKernelConfig(nop_count=10))
    assert ex.cache_misses == 3
    assert ex.cache_hits == 0


def test_execute_memo_matches_uncached_results():
    cached = HammerExecutor(platform_by_name("raptor_lake"), rng=RngStream(9))
    uncached = HammerExecutor(
        platform_by_name("raptor_lake"), rng=RngStream(9), cache_size=0
    )
    config = rhohammer_config(nop_count=40)
    for _ in range(3):
        a = cached.execute(stream(), config)
        b = uncached.execute(stream(), config)
        assert np.array_equal(a.times_ns, b.times_ns)
        assert np.array_equal(a.address_ids, b.address_ids)
        assert a.miss_rate == b.miss_rate
        assert a.duration_ns == b.duration_ns
    assert uncached.cache_hits == uncached.cache_misses == 0


def test_execute_memo_is_lru_bounded():
    ex = HammerExecutor(
        platform_by_name("raptor_lake"), rng=RngStream(7), cache_size=2
    )
    config = HammerKernelConfig()
    for n in (4, 5, 6):  # third distinct stream evicts the first
        ex.execute(stream(n_addresses=n), config)
    assert len(ex._cache) == 2
    ex.execute(stream(n_addresses=4), config)  # evicted: recomputed
    assert ex.cache_misses == 4


def test_execute_memo_returns_readonly_arrays():
    ex = HammerExecutor(platform_by_name("raptor_lake"), rng=RngStream(7))
    result = ex.execute(stream(), HammerKernelConfig())
    with pytest.raises(ValueError):
        result.times_ns[0] = 0.0
    with pytest.raises(ValueError):
        result.address_ids[0] = 0
