"""The repository benchmark: TBPoint against full simulation across the
Sec. V-C design points, and the warm daemon, layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics declared in BENCHMARK.json;
``--trace 1`` makes the separate traced run that prints the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the host facts and a human-readable summary.  The exit
code is 0 only when every output check passed; a missing program gives
exit code 2 and no result.

``--seed`` orders the operations and lays out the serve request
schedule.  The kernel traces themselves come from ``--kernel-seed``
(default 2014, the seed EXPERIMENTS.md reports), so the accuracy
metrics stay fixed across runs and are checked against
``perfbench/reference.json``; any other kernel seed is held-out data on
which only the bit-identity checks apply.  A change to the model that
is meant to move those values updates the file by hand, from the
values that the failed checks print.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
WORKLOADS = ("paper-mix", "serve-mix")
REFERENCE_SEED = 2014


class Outcome:
    """Operations attempted and the checks that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(message)

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.fail(message)


class Scratch:
    """Fresh directories under ``.bench_run/`` in the checkout, given as
    paths relative to the repository root (short unix-socket paths)."""

    def __init__(self) -> None:
        base = ROOT / ".bench_run"
        base.mkdir(exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=base))

    def new_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.root)).relative_to(ROOT)

    def remove(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


def host_facts() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None  # a checkout without git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def check_reference(workload: str, values: dict, outcome: Outcome) -> None:
    expected = json.loads(REFERENCE.read_text()).get(workload)
    if expected is None:
        outcome.fail(f"no reference values for {workload} in {REFERENCE.name}")
        return
    for key, entry in expected.items():
        for name, value in entry.items():
            got = values.get(key, {}).get(name)
            outcome.check(got == value,
                          f"{key} {name}: {got!r} != reference {value!r}")
    outcome.check(set(values) == set(expected),
                  f"operations {sorted(values)} != reference {sorted(expected)}")


def run_workload(args, scratch: Scratch, outcome: Outcome) -> tuple[dict, dict]:
    """(metrics, deterministic values) of one run."""
    import library
    import servemix

    spec = {"paper-mix": library.PAPER_MIX,
            "serve-mix": library.SERVE_VIEW}[args.workload]
    if not args.trace:
        if args.workload == "serve-mix":
            return servemix.measure(ROOT, args.seed, args.seconds,
                                    args.kernel_seed, scratch, outcome)
        return library.measure(spec, args.seed, args.seconds,
                               args.kernel_seed, scratch, outcome)
    metrics, values = library.trace_layers(spec, args.seed, args.kernel_seed,
                                           scratch, outcome)
    # The serve layer, on this workload's own requests.  The daemon
    # takes no GPU config, so paper-mix's are TBPoint estimates at the
    # base machine.
    metrics.update(servemix.trace_session(
        ROOT, args.seed, args.kernel_seed, scratch, outcome,
        tbpoint_kernels=spec.kernels,
        simulate_kernel="stream" if args.workload == "serve-mix" else None,
    ))
    return metrics, values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--kernel-seed", type=int, default=REFERENCE_SEED)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    # A terminated run still unwinds its ``finally`` blocks, which stop
    # the daemon it started and remove its scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    scratch = Scratch()
    # Any profile cache the program opens by default lands in this run's
    # scratch, never in the user's cache.
    os.environ["TBPOINT_CACHE_DIR"] = str(ROOT / scratch.new_dir())
    print(json.dumps({"host": host_facts(), "workload": args.workload,
                      "seed": args.seed, "kernel_seed": args.kernel_seed,
                      "trace": args.trace}), flush=True)
    outcome = Outcome()
    try:
        metrics, values = run_workload(args, scratch, outcome)
    except Exception as exc:  # an operation raised: report it as failed
        traceback.print_exc()
        outcome.attempted += 1
        outcome.fail(f"{type(exc).__name__}: {exc}")
        metrics, values = {}, {}
    finally:
        scratch.remove()

    if values and args.kernel_seed == REFERENCE_SEED:
        check_reference(args.workload, values, outcome)
    if metrics:
        outcome.check(set(metrics) == set(units),
                      f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                      "BENCHMARK.json")
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("note: IPC comes from this repository's timing model, which has "
          "not been validated against hardware, so ipc_error_gmean is error "
          "against a full run of the same simulator; the memory hierarchy "
          "resets per launch, so every simulated launch starts with empty "
          "caches", flush=True)
    # A run that raised has recorded the problem, so no metrics also
    # means a failure here.
    correct = not outcome.problems
    attempted = max(1, outcome.attempted)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": min(attempted, len(outcome.problems)),
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")}
            for name, value in sorted(metrics.items())
        },
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
