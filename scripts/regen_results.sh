#!/usr/bin/env bash
# Regenerate docs/results/ from the code: build the seven exhibit
# binaries in release, run each from the repository root (the figure
# binaries write their CSVs to the cwd-relative docs/results/) and
# redirect its stdout to docs/results/<name>.txt. CI's `exhibits` job
# runs this and `git diff --exit-code docs/results`, so EXPERIMENTS.md
# cannot quote numbers the code no longer prints. ~25 s of run time.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

exhibits=(table1 fig6 fig7 fig8 ablation scaling tune)
cargo build --release -p mcio-bench "${exhibits[@]/#/--bin=}"
target=${CARGO_TARGET_DIR:-target}
mkdir -p docs/results
for name in "${exhibits[@]}"; do
  "$target/release/$name" > "docs/results/$name.txt"
done
