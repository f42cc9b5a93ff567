"""Record the golden outputs the benchmark compares against.

    python3 perfbench/make_goldens.py

Runs every workload variant once through the benchmark's own child and
writes its output to goldens/<workload>/v<variant>.out, with the argv and
exit code in goldens/manifest.json.  The goldens define correctness: record
them only at a commit whose outputs are trusted, never to make a failing
comparison pass.
"""

import json
import shutil
import tempfile
from pathlib import Path

import golden
from run import ROOT, run_child
from workloads import VARIANTS, WORKLOADS


def main() -> None:
    manifest = {}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        for name, workload in WORKLOADS.items():
            (golden.GOLDEN_DIR / name).mkdir(parents=True, exist_ok=True)
            manifest[name] = {}
            for variant in range(VARIANTS):
                argv = workload.argv(variant)
                run = run_child("plain", argv, Path(workdir), f"{name}-{variant}")
                rel = f"{name}/v{variant}.out"
                (golden.GOLDEN_DIR / rel).write_text(run["output"])
                manifest[name][str(variant)] = {"argv": argv, "exit": run["exit"], "file": rel}
                print(f"{name} v{variant}: exit {run['exit']}, {' '.join(argv)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    golden.MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")


if __name__ == "__main__":
    main()
