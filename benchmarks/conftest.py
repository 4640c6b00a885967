"""Shared configuration for the experiment benchmarks.

Each benchmark reproduces one experiment from DESIGN.md / EXPERIMENTS.md and
prints the table or series the paper's claim corresponds to, in addition to
timing the run via pytest-benchmark.

Performance-trajectory benchmarks additionally emit machine-readable
``BENCH_<name>.json`` records via :func:`emit_json`.  Every emitted record —
printed or written — carries the git sha and an ISO timestamp so the numbers
stay attributable across PRs.
"""

import datetime
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

REPO_ROOT = Path(__file__).resolve().parents[1]


def git_sha() -> str:
    """Current commit sha, or "unknown" outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def bench_meta() -> dict:
    """The attribution fields stamped onto every emitted benchmark record."""
    return {
        "git_sha": git_sha(),
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def emit(table) -> None:
    """Print an experiment table so it appears in the benchmark output."""
    meta = bench_meta()
    print()
    print(table.render())
    print(f"[bench-meta] git_sha={meta['git_sha']} timestamp={meta['timestamp']}")


def read_baseline(path: str) -> dict:
    """Load a ``--check-against`` baseline record.

    Gates call this before they measure or emit anything, so the record
    they compare against is the committed one, never this run's output.
    """
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def emit_json(name: str, payload: dict, *, baseline: Optional[str] = None) -> Optional[Path]:
    """Write ``BENCH_<name>.json`` (payload + git sha + ISO timestamp).

    The output directory defaults to the repository root so the trajectory
    files sit next to ROADMAP.md; override with the ``BENCH_DIR`` env var
    (CI points it at the artifact upload directory).  ``baseline`` is the
    file a gate compares against: this refuses to write onto it (returns
    None), so a gate run without ``BENCH_DIR`` cannot replace its own
    baseline.
    """
    directory = Path(os.environ.get("BENCH_DIR", REPO_ROOT))
    path = directory / f"BENCH_{name}.json"
    if baseline is not None and path.resolve() == Path(baseline).resolve():
        print(f"[bench-json] not writing {path}: it is the --check-against "
              f"baseline; set BENCH_DIR to keep this run's record")
        return None
    directory.mkdir(parents=True, exist_ok=True)
    record = dict(payload)
    record.update(bench_meta())
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"[bench-json] wrote {path}")
    return path
