#!/usr/bin/env bash
# Fail when the figure reports of the working tree differ from those of
# BASE_REV while both carry the same report schema.
#
# Usage: scripts/check_reports_unchanged.sh BASE_REV
#
# Runs scripts/reproduce_figures.py at seeds 1 and 9173 and at seed 1 with
# `--noise-p 0` (its own flags, built from the CLI option table),
# `realmask fig3|fig4|fig5 --analytic --seed 1`,
# `realmask fig5 --analytic --noise-p 0 --seed 1` (concurrence taken from the
# amplitudes of the pure phase probes),
# `realmask fig5 --noise-p 0 --seed 1` (whose pure phase probes are the only
# reports here with boundary fits in the qubit MLE),
# `realmask fig3 --noise-p 0 --seed 1` (noiseless masked states, used without
# the depolarizing rebuild), `realmask fig5 --shots 1 --seed 1` (axes with
# zero counts in the bootstrap resamples), `realmask fig3 --qsv-tests 100000
# --seed 1` (a large verification run) and `realmask equiv --n-inputs 5000
# --seed 1` (whose gap digits move with any change in the arithmetic of the
# walk, the optical table or the measurement module), on a temporary `git worktree` of
# BASE_REV and on the working tree, then compares the two output trees with
# `diff -r`.  A change that moves report numbers must bump
# experiments.REPORT_SCHEMA, so a silent re-baseline fails.  When the schemas
# differ the script passes and lists the report files whose content moved
# apart from the "schema" line (`diff -rq -I '"schema":'`), so a reviewer can
# check that the bump moved only the reports it declares.
#
# The stdout of `realmask angles --state 1,2,3,4 --phi 30 --setting XY` and of
# `realmask angles --basis 0.3,0.5,1.1,0.2` (the optical angle solvers) carries
# no schema, so it is compared whatever the schemas.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BASE_REV" >&2
    exit 2
fi
base_rev=$1
repo=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'git -C "$repo" worktree remove --force "$tmp/base" >/dev/null 2>&1 || true; rm -rf "$tmp"' EXIT

git -C "$repo" worktree add --detach --quiet "$tmp/base" "$base_rev"

# Sampled and analytic reports of the tree at $1, written under $2.
reports() {
    for seed in 1 9173; do
        python3 "$1/scripts/reproduce_figures.py" --seed "$seed" --out "$2/seed$seed" >/dev/null
    done
    python3 "$1/scripts/reproduce_figures.py" --seed 1 --noise-p 0 --out "$2/seed1_noiseless" >/dev/null
    for fig in fig3 fig4 fig5; do
        PYTHONPATH="$1/src" python3 -m realmask.cli "$fig" --analytic --seed 1 --out "$2/analytic" >/dev/null
    done
    PYTHONPATH="$1/src" python3 -m realmask.cli fig5 --analytic --noise-p 0 --seed 1 --out "$2/analytic_noiseless" >/dev/null
    PYTHONPATH="$1/src" python3 -m realmask.cli fig5 --noise-p 0 --seed 1 --out "$2/noiseless" >/dev/null
    PYTHONPATH="$1/src" python3 -m realmask.cli fig3 --noise-p 0 --seed 1 --out "$2/noiseless" >/dev/null
    PYTHONPATH="$1/src" python3 -m realmask.cli fig5 --shots 1 --seed 1 --out "$2/one_shot" >/dev/null
    PYTHONPATH="$1/src" python3 -m realmask.cli fig3 --qsv-tests 100000 --seed 1 --out "$2/qsv_large" >/dev/null
    PYTHONPATH="$1/src" python3 -m realmask.cli equiv --n-inputs 5000 --seed 1 --out "$2/equiv" >/dev/null
    mkdir -p "$2.angles"
    PYTHONPATH="$1/src" python3 -m realmask.cli angles --state 1,2,3,4 --phi 30 --setting XY > "$2.angles/state.txt"
    PYTHONPATH="$1/src" python3 -m realmask.cli angles --basis 0.3,0.5,1.1,0.2 > "$2.angles/basis.txt"
}
reports "$tmp/base" "$tmp/out_base"
reports "$repo" "$tmp/out_head"

if ! diff -r "$tmp/out_base.angles" "$tmp/out_head.angles"; then
    echo "angle solver output differs from $base_rev" >&2
    exit 1
fi

schema() {
    python3 -c 'import json, sys; print(json.load(open(sys.argv[1])).get("schema"))' "$1/seed1/fig3.json"
}
base_schema=$(schema "$tmp/out_base")
head_schema=$(schema "$tmp/out_head")
if [ "$base_schema" != "$head_schema" ]; then
    echo "report schema $base_schema -> $head_schema: reports may differ; files whose content moved:"
    diff -rq -I '"schema":' "$tmp/out_base" "$tmp/out_head" \
        | sed "s|^Files $tmp/out_base/\([^ ]*\) and .* differ\$|  \1|" || true
    exit 0
fi
if ! diff -r "$tmp/out_base" "$tmp/out_head"; then
    echo "reports differ from $base_rev under the same schema $head_schema;" \
         "bump experiments.REPORT_SCHEMA if the change is meant to move them" >&2
    exit 1
fi
echo "reports identical to $base_rev (schema $head_schema, seeds 1 and 9173, noiseless reproduce_figures run," \
     "analytic, analytic noiseless fig5, noiseless fig3 and fig5," \
     "one-shot fig5, 100,000-test fig3 and 5,000-input equiv at seed 1, angle solver output)"
