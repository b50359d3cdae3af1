#!/bin/sh
# Every `pub`/`pub(crate) fn` in a crate's `src/` is named by code that is
# not a test: `src/` up to each file's first column-0 `#[cfg(test)]` (the
# benchmark under crates/bench/src/bin/ledger included) or `examples/`.
# Comment lines are not code, so a name only a doc comment mentions counts
# as unreached. Nor is every occurrence of a name a use: it counts only
# where code calls it (`name(`, `.name(`, `name::<`), names it as a path
# (`::name`) or passes it as a function value (`(name)`, `, name,`) — a
# field, a local or a setter that shares the name does not reach it.
#
# An associated function — one with no `self` receiver, defined in an
# `impl Type` block — is reached only through its own type: `Type::name`,
# `Alias::name` for a `pub type Alias = Type`, or `Self::name` in its own
# file. So `Foo::new` is unreached however many other types call their
# `new`. A method (a `self` receiver) is still matched by name alone: one
# whose name another type's method or function also uses counts as reached
# by that other's calls — the hole this check leaves open. A use inside a
# function of the same name reaches nothing, though: a method wrapping
# another type's same-named method (or a recursive call) is not a caller.
#
# A function only tests reach is deleted or, if tests outside its module
# need it as an observer no other public path gives, listed in ALLOWED
# below (an associated function as `Type::name`).
#
# Every `pub`/`pub(crate)` field of a struct is likewise read by that code,
# or deleted: as `.name` — not `.name(` or `.name::<`, which call a method
# of that name — or through a struct pattern that binds it, on one line or
# several, in exactly two forms:
#
#   let Type { .., name, .. } =         (so `if let`, `while let`, `let … else`)
#   Type { .., name: x, .. } =>         (a match arm, an `if` guard allowed)
#
# where the arm's pattern starts its line (after an optional `|`). Only the
# outermost pattern's field names count. A field is matched by name alone,
# so one whose name another type's field shares counts as read wherever
# the other is, and a struct pattern in any other place (inside `Some(…)`,
# after another alternative, a parameter) reads nothing: the holes the
# field check leaves open.
#
# Prints each unreached function or field with its file; exits 1 if any is
# not allowed.
set -eu
cd "$(dirname "$0")/.."

# Observers and references that tests outside their module read.
ALLOWED='meeting_count degrees involving peers_of reachable wanted_uris
remove_own with_cache series_for matches_text estimated_popularity contacts
credits dir'

corpus=$(mktemp)
defs=$(mktemp)
fields=$(mktemp)
bound=$(mktemp)
trap 'rm -f "$corpus" "$defs" "$fields" "$bound"' EXIT
# One line per code line: `file<TAB>fn<TAB>line`, test modules and comment
# lines dropped, each string literal (on one line or several) an `S`, and
# `fn` the innermost function whose body holds the line (empty outside
# one). Beside it, one line per `pub`/`pub(crate) fn`:
# `file<TAB>name<TAB>Type`, the type empty unless the function is
# associated (in an `impl Type` block, no `self` receiver); one per
# `pub`/`pub(crate)` field: `file<TAB>name`; and one per field a `let` or
# match-arm struct pattern binds, in the same form.
find crates/*/src examples -name '*.rs' -not -path '*/target/*' | sort |
    while read -r f; do
        awk -v f="$f" -v defs="$defs" -v fields="$fields" -v bound="$bound" '
            # Prints each field name that a struct pattern binds, given
            # the text between its braces.
            function bind(fields_text,    parts, n, k, part) {
                n = split(fields_text, parts, ",")
                for (k = 1; k <= n; k++) {
                    part = parts[k]
                    sub(/^[[:space:]]*((ref|mut)[[:space:]]+)*/, "", part)
                    if (match(part, /^[a-z_][a-z0-9_]*/))
                        print f "\t" substr(part, RSTART, RLENGTH) >> bound
                }
            }
            /^#\[cfg\(test\)\]/ { exit }
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
                print f "\t" fn_name[fns] "\t" line

                code = line
                gsub(/'"'"'[{}]'"'"'/, "", code)
                sub(/\/\/.*/, "", code)
                # An inherent impl: its type is the last path segment
                # before any generics, after skipping the impl generics.
                if (code ~ /^[[:space:]]*impl[[:space:]<]/ && code !~ /[[:space:]]for[[:space:]]/) {
                    head = code
                    sub(/^[[:space:]]*impl/, "", head)
                    if (head ~ /^</) {
                        nest = 0
                        for (k = 1; k <= length(head); k++) {
                            ch = substr(head, k, 1)
                            if (ch == "<") nest++
                            else if (ch == ">" && substr(head, k - 1, 1) != "-" && --nest == 0) break
                        }
                        head = substr(head, k + 1)
                    }
                    if (match(head, /[A-Za-z_][A-Za-z0-9_:]*/)) {
                        impl_type = substr(head, RSTART, RLENGTH)
                        sub(/.*::/, "", impl_type)
                        impl_depth = depth
                    }
                }
                if (match(code, /pub(\(crate\))?[[:space:]]+(const[[:space:]]+)?fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
                    sig_name = substr(code, RSTART, RLENGTH)
                    sub(/.*fn[[:space:]]+/, "", sig_name)
                    sig_type = (impl_type != "" && depth == impl_depth + 1) ? impl_type : ""
                    sig = ""
                    collecting = 1
                }
                if (match(code, /^[[:space:]]*pub(\(crate\))?[[:space:]]+[a-z_][a-z0-9_]*[[:space:]]*:([^:]|$)/)) {
                    field = substr(code, RSTART, RLENGTH)
                    sub(/^[[:space:]]*pub(\(crate\))?[[:space:]]+/, "", field)
                    sub(/[[:space:]]*:.*/, "", field)
                    print f "\t" field >> fields
                }
                # A struct pattern `let Type { a, b: c, .. } = …`, on one
                # line or several, reads each field it names.
                if (!binding && code ~ /(^|[^A-Za-z0-9_])let[[:space:]]+[A-Z][A-Za-z0-9_:]*[[:space:]]*\{/) {
                    binding = 1; pattern = ""
                }
                if (binding) {
                    pattern = pattern " " code
                    if (match(pattern, /\}[[:space:]]*=([^=]|$)/)) {
                        binding = 0
                        pattern = substr(pattern, 1, RSTART - 1)
                        sub(/^[^{]*\{/, "", pattern)
                        bind(pattern)
                    }
                }
                # A line that starts with `Type {` opens a struct pattern
                # or a struct expression: read on to its closing brace, and
                # it is the pattern of a match arm if `=>` (or an `if`
                # guard) follows.
                if (!arm && !binding && code ~ /^[[:space:]]*(\|[[:space:]]*)?[A-Z][A-Za-z0-9_:]*[[:space:]]*\{/) {
                    arm = 1; arm_text = ""
                }
                if (arm) {
                    arm_text = arm_text " " code
                    nest = 0
                    for (k = 1; k <= length(arm_text); k++) {
                        ch = substr(arm_text, k, 1)
                        if (ch == "{") nest++
                        else if (ch == "}" && --nest == 0) break
                    }
                    if (k <= length(arm_text)) {
                        arm = 0
                        if (substr(arm_text, k + 1) ~ /^[[:space:]]*(if[[:space:]].*)?=>/) {
                            pattern = substr(arm_text, 1, k - 1)
                            sub(/^[^{]*\{/, "", pattern)
                            bind(pattern)
                        }
                    }
                }
                if (collecting) {
                    sig = sig " " code
                    if (code ~ /[{;]/) {
                        collecting = 0
                        receiver = "\\([[:space:]]*(&[[:space:]]*('"'"'[A-Za-z_]+[[:space:]]+)?)?(mut[[:space:]]+)?self([^A-Za-z0-9_]|$)"
                        if (sig ~ receiver) sig_type = ""
                        print f "\t" sig_name "\t" sig_type >> defs
                    }
                }
                # The enclosing function: a `fn name` opens its body at
                # the next `{`, unless a `;` ends a bodiless declaration.
                if (match(code, /(^|[^A-Za-z0-9_])fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/)) {
                    pending = substr(code, RSTART, RLENGTH)
                    sub(/.*fn[[:space:]]+/, "", pending)
                }
                if (pending != "" && index(code, "{")) {
                    fns++; fn_name[fns] = pending; fn_depth[fns] = depth; pending = ""
                } else if (code ~ /;[[:space:]]*$/) pending = ""
                depth += gsub(/{/, "{", code) - gsub(/}/, "}", code)
                while (fns > 0 && depth <= fn_depth[fns]) fns--
                if (impl_type != "" && depth <= impl_depth && code ~ /}/) impl_type = ""
            }' "$f"
    done > "$corpus"

# allowed NAME LIST: NAME is on the allow-list LIST.
allowed() {
    case " $(echo $2) " in
        *" $1 "*) return 0 ;;
    esac
    return 1
}

status=0
# Methods and free functions: reached by name.
for name in $(awk -F'\t' '$3 == "" { print $2 }' "$defs" | sort -u); do
    use="\b$name[[:space:]]*(\(|::<)|::$name\b"
    awk -F'\t' -v n="$name" '$2 != n' "$corpus" | grep -vE "fn[[:space:]]+$name\b" |
        grep -qE "$use" && continue
    where=$(awk -F'\t' -v n="$name" '$2 == n && $3 == "" { print $1 }' "$defs" | sort -u | xargs)
    if allowed "$name" "$ALLOWED"; then echo "allowed: $name ($where)"; else
        echo "unreached: $name ($where)"; status=1; fi
done
# Associated functions: reached through their own type only.
report=$(awk -F'\t' '$3 != "" { print $3 "\t" $2 "\t" $1 }' "$defs" | sort -u |
    while IFS="$(printf '\t')" read -r type name file; do
        aliases=$(grep -oE "pub type [A-Za-z_][A-Za-z0-9_]*(<[^=]*>)? = $type\b" "$corpus" |
            sed -E 's/pub type ([A-Za-z0-9_]+).*/\1/' | xargs)
        paths=$(echo $type $aliases | tr ' ' '|')
        grep -vE "fn[[:space:]]+$name\b" "$corpus" | grep -qE "\b($paths)::$name\b" && continue
        awk -F'\t' -v f="$file" '$1 == f' "$corpus" | grep -qE "\bSelf::$name\b" && continue
        if allowed "$type::$name" "$ALLOWED"; then echo "allowed: $type::$name ($file)"; else
            echo "unreached: $type::$name ($file)"; fi
    done)
[ -z "$report" ] || echo "$report"
case "$report" in *unreached:*) status=1 ;; esac
# Fields: read as `.name` or bound by a `let` or match-arm struct pattern.
for name in $(cut -f2 "$fields" | sort -u); do
    sed -E "s/\.$name[[:space:]]*(\(|::<)//g" "$corpus" | grep -qE "\.$name\b" && continue
    cut -f2 "$bound" | grep -qx "$name" && continue
    where=$(awk -F'\t' -v n="$name" '$2 == n { print $1 }' "$fields" | sort -u | xargs)
    echo "unreached field: $name ($where)"
    status=1
done
exit $status
