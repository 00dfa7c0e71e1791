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
# A change that alters bytes on purpose runs it too, to show its exact
# difference set: every differing file is listed with the start of its
# diff, then the resume verdict, and the script exits 1 if anything
# differed. About 3 minutes on 2 cores, most of it the two builds.
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

# same A B: records a difference, naming both files and printing the
# start of their diff, unless A and B match.
differences=0
same() {
    if ! cmp -s "$1" "$2"; then
        echo "same-bytes: DIFFERS: ${1#"$work/"} vs ${2#"$work/"}" >&2
        diff "$1" "$2" | head -n 60 >&2 || true
        differences=$((differences + 1))
    fi
}

files=0
while IFS= read -r rel; do
    files=$((files + 1))
    if [ ! -f "$work/head/$rel" ]; then
        echo "same-bytes: DIFFERS: head lacks $rel" >&2
        differences=$((differences + 1))
        continue
    fi
    same "$work/base/$rel" "$work/head/$rel"
done < <(cd "$work/base" && find . -type f | sort)
while IFS= read -r rel; do
    if [ ! -f "$work/base/$rel" ]; then
        echo "same-bytes: DIFFERS: base lacks $rel" >&2
        differences=$((differences + 1))
    fi
done < <(cd "$work/head" && find . -type f | sort)

for spec in checkpoint-soak fleet-chaos; do
    same "specs/$spec.baseline.jsonl" "$(ls "$work/head/specs/$spec"/*.rows.jsonl)"
done

if resume="$("$head_bin" --resume-from "$work/base/all/recovery.txt" --out "$work/resume" \
    2>&1)"; then
    for want in "verified: yes" "resumed report identical to uninterrupted run: yes"; do
        if ! grep -qF "$want" <<<"$resume"; then
            echo "same-bytes: DIFFERS: --resume-from on base's recovery.txt lacks \"$want\":" >&2
            echo "$resume" >&2
            differences=$((differences + 1))
            break
        fi
    done
else
    echo "same-bytes: DIFFERS: --resume-from on base's recovery.txt failed:" >&2
    echo "$resume" >&2
    differences=$((differences + 1))
fi

if [ "$differences" -ne 0 ]; then
    echo "same-bytes: $differences differences (of $files base files, the two committed" \
        "baselines and the resume)" >&2
    exit 1
fi
echo "same-bytes: $files files identical ($(ls "$work/head/all" | wc -l) result files)"
echo "same-bytes: trace $(wc -l <"$work/head/trace.jsonl") lines," \
    "sha256 $(sha256sum "$work/head/trace.jsonl" | cut -d' ' -f1)"
echo "same-bytes: checkpoint-soak and fleet-chaos rows equal their baselines"
echo "same-bytes: --resume-from verified"
