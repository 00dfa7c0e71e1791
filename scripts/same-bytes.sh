#!/usr/bin/env bash
# Same-bytes check: builds `laminar-experiments` from the working tree and
# from BASE (a commit, default HEAD), runs both over the same inputs, and
# requires every output to be byte-identical:
#
#   * `all` at --jobs $(nproc) (every result file);
#   * the --jobs 1 --trace JSONL of fig11 fig12 fig15 chaos recovery;
#   * the rows and summary of each side's smoke, checkpoint-soak and
#     fleet-chaos specs (the last two must also equal their committed
#     baselines);
#   * the working tree's --resume-from on BASE's recovery.txt must verify.
#
# A refactor that claims to change no behaviour runs this against its
# parent commit:  scripts/same-bytes.sh <parent>
# Exits 1 at the first difference, naming the file and its first
# differing line. About 3 minutes on 2 cores, most of it the two builds.
set -euo pipefail
cd "$(dirname "$0")/.."

base_rev="${1:-HEAD}"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

echo "same-bytes: base $base_rev ($(git rev-parse --short "$base_rev")), head = working tree"
mkdir -p "$work/base-src"
git archive "$base_rev" | tar -x -C "$work/base-src"

cargo build --release --offline -q -p laminar-bench --bin laminar-experiments
head_bin="${CARGO_TARGET_DIR:-$PWD/target}/release/laminar-experiments"
(cd "$work/base-src" && CARGO_TARGET_DIR="$work/base-target" \
    cargo build --release --offline -q -p laminar-bench --bin laminar-experiments)
base_bin="$work/base-target/release/laminar-experiments"

# quiet LOG CMD...: runs CMD with stdout dropped and stderr appended to
# LOG; on failure prints the tail of LOG and exits 1.
quiet() {
    local log="$1"
    shift
    if ! "$@" >/dev/null 2>>"$log"; then
        echo "same-bytes: failed: $*" >&2
        tail -n 20 "$log" >&2
        exit 1
    fi
}

# run_side NAME BIN SRC: every output of one side lands under $work/NAME.
run_side() {
    local name="$1" bin="$2" src="$3" out="$work/$1" log="$work/$1.log"
    mkdir -p "$out/all" "$out/trace-results" "$out/specs"
    echo "same-bytes: running $name"
    quiet "$log" "$bin" --jobs "$(nproc)" --out "$out/all" all
    quiet "$log" "$bin" --jobs 1 --out "$out/trace-results" --trace "$out/trace.jsonl" \
        fig11 fig12 fig15 chaos recovery
    local spec
    for spec in smoke checkpoint-soak fleet-chaos; do
        mkdir -p "$out/specs/$spec"
        quiet "$log" "$bin" --spec "$src/specs/$spec.toml" --out "$out/specs/$spec"
    done
}

run_side base "$base_bin" "$work/base-src"
run_side head "$head_bin" "$PWD"

# same A B: exits 1 with the first differing line unless A and B match.
same() {
    if ! cmp -s "$1" "$2"; then
        echo "same-bytes: DIFFERS: ${1#"$work/"} vs ${2#"$work/"}" >&2
        diff "$1" "$2" | head -n 4 >&2 || true
        exit 1
    fi
}

files=0
while IFS= read -r rel; do
    [ -f "$work/head/$rel" ] || { echo "same-bytes: head lacks $rel" >&2; exit 1; }
    same "$work/base/$rel" "$work/head/$rel"
    files=$((files + 1))
done < <(cd "$work/base" && find . -type f | sort)
head_files=$(cd "$work/head" && find . -type f | wc -l)
if [ "$head_files" -ne "$files" ]; then
    echo "same-bytes: head wrote $head_files files, base $files" >&2
    exit 1
fi

for spec in checkpoint-soak fleet-chaos; do
    same "specs/$spec.baseline.jsonl" "$(ls "$work/head/specs/$spec"/*.rows.jsonl)"
done

resume="$("$head_bin" --resume-from "$work/base/all/recovery.txt" --out "$work/resume" \
    2>>"$work/head.log")"
for want in "verified: yes" "resumed report identical to uninterrupted run: yes"; do
    if ! grep -qF "$want" <<<"$resume"; then
        echo "same-bytes: --resume-from on base's recovery.txt lacks \"$want\":" >&2
        echo "$resume" >&2
        exit 1
    fi
done

echo "same-bytes: $files files identical ($(ls "$work/head/all" | wc -l) result files)"
echo "same-bytes: trace $(wc -l <"$work/head/trace.jsonl") lines," \
    "sha256 $(sha256sum "$work/head/trace.jsonl" | cut -d' ' -f1)"
echo "same-bytes: checkpoint-soak and fleet-chaos rows equal their baselines"
echo "same-bytes: --resume-from verified"
