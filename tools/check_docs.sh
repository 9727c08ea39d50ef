#!/usr/bin/env bash
# Documentation lint, runnable standalone or as the `doc_lint` ctest:
#   1. every relative markdown link in README.md and docs/*.md resolves;
#   2. the required docs/ guides exist and are linked from README.md;
#   3. every `--flag` a doc mentions exists in the tools/ sources (so a
#      renamed CLI flag cannot leave stale instructions behind);
#   3b. every LCSF_* name (environment variable, CMake option, macro) a
#      doc mentions appears as a whole word in code, so a removed
#      variable cannot stay documented;
#   3c. the member of every backticked `Scope::member` a doc mentions
#      appears as a whole word in the program sources, so a removed
#      option or function cannot stay documented;
#   4. every docs/*.md file is reachable from README.md by following
#      relative markdown links (no orphaned guides);
#   5. if doxygen is installed, the Doxyfile builds warning-free.
# Exits non-zero on the first failure class, printing every offender.
set -u
cd "$(dirname "$0")/.."

fail=0

required_docs="docs/architecture.md docs/monte_carlo.md docs/stabilization.md docs/robustness.md docs/yield_estimation.md"
for doc in $required_docs; do
  if [ ! -f "$doc" ]; then
    echo "doc-lint: missing required guide: $doc"
    fail=1
  fi
  if ! grep -q "$doc" README.md; then
    echo "doc-lint: README.md does not link $doc"
    fail=1
  fi
done

# Relative markdown links: [text](target). Skips http(s), mailto and
# pure-anchor links; strips #fragments before the existence check.
check_links() {
  file="$1"
  dir=$(dirname "$file")
  grep -o '](\([^)]*\))' "$file" | sed 's/^](//; s/)$//' |
    while IFS= read -r target; do
      case "$target" in
        http://*|https://*|mailto:*|\#*) continue ;;
      esac
      path="${target%%#*}"
      [ -z "$path" ] && continue
      if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
        echo "doc-lint: $file -> broken link: $target"
      fi
    done
}

broken=$( { check_links README.md
            for f in docs/*.md; do check_links "$f"; done; } )
if [ -n "$broken" ]; then
  echo "$broken"
  fail=1
fi

# CLI-flag existence: every --flag token the docs mention must appear in
# a tools/ source (C++ CLI, shell, or python). Flags owned by external
# programs (ctest, cmake, gtest binaries) are allowlisted.
external_flags="--gtest_filter --test-dir --output-on-failure --build --target"
doc_flags=$(grep -rhoE -- '--[a-z][a-z0-9_-]*' README.md docs/*.md | sort -u)
for flag in $doc_flags; do
  case " $external_flags " in
    *" $flag "*) continue ;;
  esac
  if ! grep -rqF -- "$flag" tools/; then
    echo "doc-lint: flag $flag mentioned in docs but absent from tools/"
    fail=1
  fi
done

# LCSF_* names: each must appear as a whole word in a non-Markdown file
# of the source trees or in the top-level CMakeLists.txt.
doc_names=$(grep -hoE 'LCSF_[A-Z0-9_]+' README.md docs/*.md | sort -u)
for name in $doc_names; do
  if ! grep -rqw --exclude='*.md' -- "$name" src tools bench lcsf_bench \
       tests examples CMakeLists.txt; then
    echo "doc-lint: $name mentioned in docs but absent from code"
    fail=1
  fi
done

# Qualified names: a backtick span that opens with `Scope::member` (any
# depth of scopes) names a member that must appear as a whole word in a
# non-Markdown file under src/, tools/, bench/ or examples/.
doc_qualified=$(grep -hoE '`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' \
                  README.md docs/*.md | tr -d '`' | sort -u)
for qname in $doc_qualified; do
  if ! grep -rqw --exclude='*.md' -- "${qname##*::}" src tools bench \
       examples; then
    echo "doc-lint: $qname mentioned in docs but absent from code"
    fail=1
  fi
done

# Reachability: walk relative markdown links from README.md to a fixpoint
# and require every docs/*.md to be visited.
reachable="README.md"
frontier="README.md"
while [ -n "$frontier" ]; do
  next=""
  for file in $frontier; do
    dir=$(dirname "$file")
    targets=$(grep -o '](\([^)]*\))' "$file" 2> /dev/null |
                sed 's/^](//; s/)$//; s/#.*$//')
    for target in $targets; do
      case "$target" in
        http://*|https://*|mailto:*|"") continue ;;
      esac
      if [ -f "$dir/$target" ]; then
        resolved="$dir/$target"
      elif [ -f "$target" ]; then
        resolved="$target"
      else
        continue  # broken links already reported above
      fi
      resolved=$(realpath --relative-to=. "$resolved")
      case " $reachable " in
        *" $resolved "*) ;;
        *) reachable="$reachable $resolved"; next="$next $resolved" ;;
      esac
    done
  done
  frontier="$next"
done
for doc in docs/*.md; do
  case " $reachable " in
    *" $doc "*) ;;
    *)
      echo "doc-lint: $doc is not reachable from README.md"
      fail=1
      ;;
  esac
done

if command -v doxygen > /dev/null 2>&1; then
  out=$(doxygen Doxyfile 2>&1)
  status=$?
  warnings=$(printf '%s\n' "$out" | grep -i 'warning' || true)
  if [ $status -ne 0 ] || [ -n "$warnings" ]; then
    echo "doc-lint: doxygen failed or warned:"
    printf '%s\n' "$out" | tail -30
    fail=1
  else
    echo "doc-lint: doxygen build clean"
  fi
else
  echo "doc-lint: doxygen not installed, skipping API-reference build"
fi

if [ $fail -eq 0 ]; then
  echo "doc-lint: OK"
fi
exit $fail
