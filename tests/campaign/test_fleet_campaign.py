"""One real fleet-mode campaign: gateway + worker subprocesses.

Slow relative to the server-mode tests (subprocess spawn + probe), so
there is exactly one of it: a three-phase scenario — churn, mild chaos,
then a mid-phase ``kill_worker`` — against a live 2-worker fleet,
asserting the run is lossless, sessions fail over to the ring successor,
and the bundle verifies.  The CI campaign smoke job runs the committed
``examples/campaigns/smoke.toml`` through the same path twice and
compares hashes; this test keeps the path honest under plain pytest.
"""

from repro.campaign import parse_scenario, run_scenario


def test_fleet_campaign_end_to_end(tmp_path):
    scenario = parse_scenario({
        "scenario": {"name": "fleet-lab", "seed": 23, "mode": "fleet",
                     "workers": [2], "cache_size": 128},
        "phase": [
            {"name": "ramp", "clients": 3, "refs": 60,
             "mix": {"cello": 0.5, "cad": 0.5},
             "arrival": {"curve": "uniform", "over_s": 0.05}},
            {"name": "chaos", "clients": 2, "refs": 50,
             "sessions_per_client": 2,
             "mix": {"snake": 1.0},
             "chaos": {"reset_every": 70, "delay_every": 29,
                       "delay_ms": 1.0}},
            # Long enough that sessions outlive the 1s checkpoint tick
            # and are still streaming when the worker dies under them,
            # even on a fast host: 24,000 requests take well over 1.3 s.
            {"name": "failover", "clients": 8, "refs": 3000,
             "mix": {"cello": 1.0},
             "kill_worker": "w0", "kill_after_s": 1.3},
        ],
    })
    (bundle, record), = run_scenario(
        scenario, out_dir=str(tmp_path / "out")
    )
    assert record["workers"] == 2
    assert record["sessions_lost"] == 0
    ramp, chaos, failover = record["phases"]
    assert ramp["requests"] == 3 * 60
    assert chaos["requests"] == 2 * 2 * 50
    assert chaos["churn_opened"] == 4
    assert chaos["churn_closed"] == 4
    assert chaos["chaos"]["drops_injected"] >= 1
    # The kill phase: the worker really died, every session it held
    # resumed on the ring successor, and nothing was lost.
    assert failover["failover"] is True
    assert failover["kill_worker"] == "w0"
    assert failover["worker_killed"] is True
    assert failover["failovers_resumed"] > 0
    assert failover["sessions_lost"] == 0
    assert failover["requests"] == 8 * 3000
    bundle.verify()
    # The merged fleet metrics landed in the bundle's results.  The exact
    # advice total is no longer asserted: the killed worker's counters
    # reset when the supervisor respawns it.
    fleet_totals = bundle.results["fleet_metrics"]["fleet"]
    assert fleet_totals["advice_issued"] >= 380
    assert bundle.results["fleet_metrics"]["gateway"]["sessions_lost"] == 0
    assert len(bundle.results["fleet_metrics"]["per_worker"]) == 2
