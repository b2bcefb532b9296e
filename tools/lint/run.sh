#!/usr/bin/env bash
# Single local entry point for the static-analysis gate — reproduces the
# CI `static-analysis` job's verdicts:
#
#   1. invariant linter (atomic-order, seqlock-discipline, seq-wake,
#      hot-alloc, stale-waiver, fp-contract, aligned-storage) + its
#      fixture self-tests and the bench-regression checker's unit tests
#   2. header self-containment (every public header compiles standalone)
#   3. clang-tidy over compile_commands.json — skipped with a notice if
#      clang-tidy is not installed (CI always runs it)
#
# Usage: tools/lint/run.sh [--changed] [build-dir]    (default: build)
#
#   --changed  scope clang-tidy to the .cpp files that differ from
#              origin/main (the whole-tree linter and header check still
#              run — they are cheap; clang-tidy is the slow step)
#
# Ends with a per-step PASS/FAIL/SKIP summary table and exits non-zero
# if any step failed.
set -u -o pipefail

REPO="$(cd "$(dirname "$0")/../.." && pwd)"
PY="${PYTHON:-python3}"
CHANGED=0
BUILD=""
for arg in "$@"; do
  case "$arg" in
    --changed) CHANGED=1 ;;
    -h|--help) sed -n '2,20p' "$0"; exit 0 ;;
    *) BUILD="$arg" ;;
  esac
done
BUILD="${BUILD:-$REPO/build}"

# The gate is mostly Python; a missing interpreter must be a loud
# configuration error, never a silently green run.
if ! command -v "$PY" >/dev/null 2>&1; then
  echo "error: '$PY' not found — the invariant linter and its self-tests" >&2
  echo "cannot run. Install python3 or set PYTHON=/path/to/python." >&2
  exit 2
fi

STEP_NAMES=()
STEP_RESULTS=()
status=0

# record <name> <PASS|FAIL|SKIP>
record() {
  STEP_NAMES+=("$1")
  STEP_RESULTS+=("$2")
  [ "$2" = FAIL ] && status=1
}

# run_step <name> <cmd...>: prints a banner, runs, records the verdict.
run_step() {
  local name="$1"
  shift
  printf '\n== %s ==\n' "$name"
  if "$@"; then record "$name" PASS; else record "$name" FAIL; fi
}

run_step "invariant lint (src/)" \
  "$PY" "$REPO/tools/lint/invariant_lint.py" --root "$REPO/src"

run_step "linter self-tests (fixtures)" \
  "$PY" -m unittest discover -s "$REPO/tools/lint/tests"

run_step "bench-regression checker tests" \
  "$PY" -m unittest discover -s "$REPO/tools/tests"

header_selfcheck() {
  if [ ! -d "$BUILD" ]; then
    cmake -B "$BUILD" -S "$REPO" || return 1
  fi
  cmake --build "$BUILD" --target header_selfcheck -j
}
run_step "header self-containment" header_selfcheck

# clang-tidy: the one slow step, hence the --changed scoping.
tidy_files() {
  # .cpp files under src/ differing from origin/main (added/modified).
  git -C "$REPO" diff --name-only --diff-filter=d origin/main -- 'src/*.cpp' \
    2>/dev/null | while IFS= read -r f; do printf '%s\n' "$REPO/$f"; done
}

printf '\n== clang-tidy ==\n'
if ! command -v clang-tidy >/dev/null 2>&1; then
  echo "clang-tidy not installed — skipped locally (CI runs it;"
  echo "install clang-tidy to reproduce that part of the gate)"
  record "clang-tidy" SKIP
elif [ "$CHANGED" = 1 ] &&
     ! git -C "$REPO" rev-parse --verify -q origin/main >/dev/null; then
  echo "--changed requested but origin/main is unknown to git —"
  echo "falling back to the full tree"
  CHANGED=0
fi
if command -v clang-tidy >/dev/null 2>&1; then
  if [ "$CHANGED" = 1 ]; then
    files="$(tidy_files)"
    if [ -z "$files" ]; then
      echo "--changed: no src/ .cpp files differ from origin/main — skipped"
      record "clang-tidy (changed)" SKIP
    elif printf '%s\n' "$files" |
         xargs clang-tidy -p "$BUILD" --quiet; then
      record "clang-tidy (changed)" PASS
    else
      record "clang-tidy (changed)" FAIL
    fi
  elif command -v run-clang-tidy >/dev/null 2>&1; then
    # compile_commands.json is exported unconditionally by CMakeLists.txt.
    if run-clang-tidy -p "$BUILD" -quiet "$REPO/src/.*"; then
      record "clang-tidy" PASS
    else
      record "clang-tidy" FAIL
    fi
  else
    # No run-clang-tidy wrapper: drive clang-tidy over the library sources.
    if find "$REPO/src" -name '*.cpp' -print0 |
       xargs -0 clang-tidy -p "$BUILD" --quiet; then
      record "clang-tidy" PASS
    else
      record "clang-tidy" FAIL
    fi
  fi
fi

printf '\n== summary ==\n'
i=0
while [ "$i" -lt "${#STEP_NAMES[@]}" ]; do
  printf '  %-34s %s\n' "${STEP_NAMES[$i]}" "${STEP_RESULTS[$i]}"
  i=$((i + 1))
done

if [ "$status" -ne 0 ]; then
  printf '\nstatic-analysis gate: FAILED\n'
else
  printf '\nstatic-analysis gate: OK\n'
fi
exit "$status"
