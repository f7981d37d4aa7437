"""The skyline service: submit jobs over HTTP, measure oracle savings.

Oracle calls — real model training — dominate discovery cost; the
service's persistent oracle store makes them a one-time cost per task:
the first job on a task key runs cold and seeds the store, every later
job warm-starts from it. This example:

1. boots an in-process ``ServiceServer`` on a free port (or talks to an
   already-running ``repro serve`` via ``--url``),
2. submits the same tiny T3 job twice through the HTTP client,
3. prints each job's oracle accounting and the measured savings,
4. dumps the service's ``/v1/metrics`` snapshot.

Run:  python examples/service_client.py
      python examples/service_client.py --url http://127.0.0.1:8765
"""

from __future__ import annotations

import argparse
import json
import tempfile

from repro.service import OracleStore, Scheduler, ServiceClient, ServiceServer

#: Seconds-fast: tiny corpus, small budget, exact oracle estimator (so
#: the second job's skyline is byte-identical to the first's).
JOB = dict(
    task="T3",
    algorithm="apx",
    epsilon=0.3,
    budget=8,
    max_level=2,
    scale=0.2,
    estimator="oracle",
)


def describe(label: str, record: dict) -> None:
    """One line of oracle accounting for a finished job record."""
    summary = record["summary"]
    print(
        f"{label}: {record['state']:>4} in {record['run_seconds']:.2f}s | "
        f"{'warm' if record['warm_started'] else 'cold'} start "
        f"({record['warm_records']} historical tests) | "
        f"oracle calls {record['oracle_calls']} "
        f"(saved {record['oracle_calls_saved']}) | "
        f"skyline {summary['skyline_size']}"
    )


def drive(client: ServiceClient) -> None:
    """Submit the same job twice and report the warm-start effect."""
    print(f"service {client.url}: {client.health()['status']}")
    first = client.run(**JOB)
    describe("job 1", first)
    second = client.run(**JOB)
    describe("job 2", second)

    bits = [e["bits"] for e in client.result(first["id"])["result"]["entries"]]
    bits2 = [
        e["bits"] for e in client.result(second["id"])["result"]["entries"]
    ]
    print(f"identical skylines: {bits == bits2} ({len(bits)} datasets)")
    saved = second["oracle_calls_saved"]
    print(f"oracle trainings saved by the shared store: {saved}")

    metrics = client.metrics()
    print("\n/metrics snapshot:")
    print(json.dumps(metrics, indent=2))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--url", default="",
        help="base URL of a running 'repro serve' (default: boot an "
             "in-process server on a free port)",
    )
    args = parser.parse_args()
    if args.url:
        drive(ServiceClient(args.url))
        return
    # Self-hosted demo: fresh temp oracle store, result cache off so the
    # second job actually *runs* (and demonstrates the warm start) rather
    # than completing instantly from the result cache.
    with tempfile.TemporaryDirectory() as tmp:
        scheduler = Scheduler(
            oracle_store=OracleStore(tmp), result_cache=None, n_workers=1
        )
        with ServiceServer(scheduler, port=0) as server:
            drive(ServiceClient(server.url))


if __name__ == "__main__":
    main()
