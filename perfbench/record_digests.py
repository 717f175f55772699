#!/usr/bin/env python3
"""Record the output digests that run.py checks.

    python3 perfbench/record_digests.py

For every workload, runs repetition 0 of workload seed ``run.DIGEST_SEED``
through ``csdcsim.cli.main``, checks its outputs and stores the sha256 of
the files it wrote in ``perfbench/digests.json``.  Run it only on a
commit whose outputs are known to be right: a later change to the
transcripts, the statistics or the RNG draw order then shows up as a
failed check in every benchmark run.
"""

from __future__ import annotations

import json

import run
from workloads import WORKLOADS


def main() -> None:
    run.import_csdcsim()
    from csdcsim import cli

    work = run.WORK_DIR / "record"
    work.mkdir(parents=True, exist_ok=True)
    checks = run.Checks()
    digests: dict[str, str] = {}
    try:
        for workload in WORKLOADS.values():
            oracle = run.sweep_oracle(workload)
            digests[workload.name] = run.reference_rep(cli, workload, oracle, work, checks)
            if checks.failures:
                raise SystemExit(f"{workload.name}: {checks.failures}")
            print(workload.name, digests[workload.name], flush=True)
    finally:
        run.remove_work_dir(work)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
