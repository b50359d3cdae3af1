#!/bin/sh
# Every `pub`/`pub(crate) fn` in a crate's `src/` is named by code that is
# not a test: `src/` up to each file's first column-0 `#[cfg(test)]` (the
# benchmark under crates/bench/src/bin/ledger included) or `examples/`.
# Comment lines are not code, so a name only a doc comment mentions counts
# as unreached. Nor is every occurrence of a name a use: it counts only
# where code calls it (`name(`, `.name(`, `name::<`), names it as a path
# (`::name`) or passes it as a function value (`(name)`, `, name,`) — a
# field, a local or a setter that shares the name does not reach it. A function only tests reach is deleted or, if tests outside
# its module need it as an observer no other public path gives, listed in
# ALLOWED below. Prints each unreached name with its file; exits 1 if any
# is not allowed.
set -eu
cd "$(dirname "$0")/.."

# Observers and references that tests outside their module read.
ALLOWED='meeting_count degrees involving peers_of reachable wanted_uris
remove_own with_cache series_for matches_text estimated_popularity contacts
credits dir matching'

corpus=$(mktemp)
trap 'rm -f "$corpus"' EXIT
# One line per code line: `file<TAB>line`, test modules and comment lines
# dropped, each string literal (on one line or several) an `S`.
find crates/*/src examples -name '*.rs' -not -path '*/target/*' | sort |
    while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            {
                line = $0
                if (open) {
                    if (!match(line, /^([^"\\]|\\.)*"/)) next
                    line = substr(line, RLENGTH + 1); open = 0
                }
                gsub(/'"'"'\\?"'"'"'/, "'"''"'", line)
                gsub(/"([^"\\]|\\.)*"/, "S", line)
                if (i = index(line, "\"")) { line = substr(line, 1, i); open = 1 }
                print f "\t" line
            }' "$f"
    done > "$corpus"

status=0
defs='pub(\(crate\))?[[:space:]]+(const[[:space:]]+)?fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*'
for name in $(grep -oE "$defs" "$corpus" | sed -E 's/.*fn[[:space:]]+//' | sort -u); do
    use="\b$name[[:space:]]*(\(|::<)|::$name\b"
    grep -vE "fn[[:space:]]+$name\b" "$corpus" | grep -qE "$use" && continue
    where=$(grep -E "fn[[:space:]]+$name\b" "$corpus" | cut -f1 | sort -u | xargs)
    case " $(echo $ALLOWED) " in
        *" $name "*) echo "allowed: $name ($where)" ;;
        *) echo "unreached: $name ($where)"; status=1 ;;
    esac
done
exit $status
