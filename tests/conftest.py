import pytest


@pytest.fixture(scope="session")
def ray_session():
    """One Ray session for the whole pytest run (driver contract)."""
    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=4,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture()
def tmp_lake(tmp_path):
    """Fresh changelog + lake dirs per test."""
    log = tmp_path / "log"
    lake = tmp_path / "lake"
    log.mkdir()
    return str(log), str(lake)


@pytest.fixture()
def distributed_reads(monkeypatch):
    """Send every manifest-planned lake read (``read_lake``,
    ``final_state``, ``fetch_conversations``) and every planned pass
    (``replay``, ``replay_multi``, refill: ``apply_changes_ds``) to its
    executor of plain Ray tasks.  Test lakes and logs sit far below Ray Data's
    block target, so the planner would run them all in the driver; this
    patches its one predicate, which reads and passes share."""
    from migration_pair_ray.pipelines import replay
    monkeypatch.setattr(replay, "read_in_driver", lambda nbytes: False)


@pytest.fixture()
def cpus_back():
    """``cpus_back(before, timeout_s=2.0)`` polls Ray's free logical CPUs
    until they reach ``before`` or ``timeout_s`` ends, and returns the
    last count: a pass or query that gave back every CPU it took returns
    at least ``before``."""
    import time
    import ray

    def wait(before: float, timeout_s: float = 2.0) -> float:
        deadline = time.monotonic() + timeout_s
        while True:
            free = ray.available_resources().get("CPU", 0.0)
            if free >= before or time.monotonic() > deadline:
                return free
            time.sleep(0.05)
    return wait
