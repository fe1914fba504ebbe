"""Capture the preset CSVs that the ``figures`` workload checks against.

    python3 bench/capture_reference.py

Writes ``bench/reference/figures.json.gz``: for every preset, the exact
CSV that ``ico-cqed figure ID`` writes, from the ``src/`` of this checkout.
The committed file was captured at the seed commit; recapture only when a
change to the presets' output is intended and explained.
"""

from __future__ import annotations

import gzip
import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from ico_cqed.sweep import FIGURE_PRESETS, figure_table  # noqa: E402

from run import _git_sha  # noqa: E402
from workloads import REFERENCE  # noqa: E402


def main() -> int:
    data = {
        "commit": _git_sha(),
        "presets": {fid: figure_table(fid).to_csv() for fid in sorted(FIGURE_PRESETS)},
    }
    buf = io.BytesIO()
    with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as gz:
        gz.write(json.dumps(data, indent=0, sort_keys=True).encode())
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_bytes(buf.getvalue())
    print(f"wrote {REFERENCE} ({len(buf.getvalue())} bytes, commit {data['commit']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
