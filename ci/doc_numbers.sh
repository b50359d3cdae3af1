#!/bin/sh
# A bound a document quotes beside `alloc_gate` is a bound tests/alloc_gate.rs
# asserts: every `≤ N` in a paragraph of DESIGN.md or EXPERIMENTS.md that
# names the file must be one of the test's `<= N`. (A bound the test used to
# hold is history: write it without the `≤`.)
set -eu
cd "$(dirname "$0")/.."
number='[0-9][0-9.]*'
plain='s/^[^0-9]*//; s/\.0*$//'
bounds=$(grep -o "<= *$number" tests/alloc_gate.rs | sed "$plain" | sort -un)
[ -n "$bounds" ] || { echo "no \`<=\` bound found in tests/alloc_gate.rs"; exit 1; }
status=0
for doc in DESIGN.md EXPERIMENTS.md; do
    quoted=$(awk -v RS= '/alloc_gate/' "$doc" | grep -o "≤ *$number" | sed "$plain" | sort -un)
    [ -n "$quoted" ] || { echo "$doc quotes no bound beside alloc_gate"; status=1; }
    for n in $quoted; do
        echo "$bounds" | grep -qx "$n" && continue
        echo "$doc quotes ≤ $n beside alloc_gate; tests/alloc_gate.rs asserts <=" $bounds
        status=1
    done
done
exit $status
