"""Guard: the observers cost nothing when they are off.

That the ledger and telemetry run no code at all when switched off is
a count, in ``test_sim_call_budget.py``.  What stays here: an unarmed
telemetry sampler must leave the simulation bitwise unchanged.
"""


def test_telemetry_disabled_is_free(emit):
    """Guard for the telemetry hooks, same contract as the ledger's.

    The sampler reaches components through ``publish_gauges``, which
    must stay one list append per *component* — never per packet — and
    an unarmed world must run the exact same simulation: identical
    KernelStats (bitwise, floats included) whether or not a sampler
    was watching, under a real packet storm."""
    import time

    from repro.bench.scenarios import run_overload_storm

    kwargs = dict(
        mode="interrupt", offered_multiplier=4.0, warmup=0.1, duration=0.4
    )
    t0 = time.perf_counter()
    plain = run_overload_storm(**kwargs)
    off_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    observed = run_overload_storm(telemetry=True, **kwargs)
    on_wall = time.perf_counter() - t0
    emit(
        f"storm wall clock: telemetry off {off_wall:.2f}s, "
        f"armed {on_wall:.2f}s"
    )

    kernel = plain["receiver_host"].kernel
    assert kernel.telemetry is None
    # O(components): a storm of thousands of frames must not grow the
    # provider list — it holds one entry per NIC/device/port/pool.
    assert len(kernel._gauge_providers) <= 16, (
        f"gauge providers grew with traffic: {len(kernel._gauge_providers)}"
    )
    # Zero observer effect: armed telemetry changed nothing the
    # simulation itself can see.
    assert kernel.stats == observed["receiver_host"].kernel.stats
    assert plain["goodput_pps"] == observed["goodput_pps"]

