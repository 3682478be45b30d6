#!/bin/sh
# Print the SHA-256 of matrix.csv as one commit's dsekit writes it, so a
# change can show that its matrix outputs are unchanged.
#
# Usage: perfbench/matrix_digest.sh [COMMIT]   (default HEAD)
#
# The commit's src/ is unpacked under .perfbench_out/digest-<commit>/ and
# runs `dsekit experiment` with this checkout's perfbench/configs/matrix.json
# with seeds 1 and 2 in every cell: 16 cells, where one call of the matrix
# workload runs 8 (one seed per cell).
set -eu
commit=${1:-HEAD}
root=$(git rev-parse --show-toplevel)
work="$root/.perfbench_out/digest-$(git -C "$root" rev-parse --short "$commit")"
rm -rf "$work"
mkdir -p "$work"
git -C "$root" archive "$commit" src | tar -x -C "$work"
PYTHONPATH="$work/src" python3 -m dsekit.cli experiment \
    --config "$root/perfbench/configs/matrix.json" --runs 2 --seed 1 \
    --out-dir "$work/out" --quiet
sha256sum "$work/out/matrix.csv" | cut -d' ' -f1
