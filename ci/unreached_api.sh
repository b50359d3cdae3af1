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
# of that name — or through a struct pattern that binds it. A struct
# pattern binds its fields in exactly these places:
#
#   let P =                   (so `if let`, `while let`, `let … else`;
#                              `let P: T =` too; on one line or several)
#   P =>                      (a match arm that starts its line, after an
#   P if guard =>              optional `|`; the guard on the `=>` line;
#                              on one line or several)
#   for P in                  (a `for` loop that starts its line; on one
#                              line or several)
#   |P, P: T, …|              (a closure parameter list that opens and
#                              closes on one line: each parameter that is
#                              a P, with or without a type annotation)
#
# where P is one or more alternatives joined by `|`, each either a struct
# pattern `Type { .. }` or one wrapped as `Some(Type { .. })` or
# `Ok(Type { .. })`, optionally behind a `&` — any other alternative
# (`Kind::A`, `Err(e)`, `_`) binds nothing but does not hide its
# neighbours. Only each alternative's own field names count, not those of
# a pattern nested inside a field. A field is matched by name alone, so one
# whose name another type's field shares counts as read wherever the
# other is, and a struct pattern anywhere else — a `fn` parameter, a
# closure parameter list split over lines, a tuple element, deeper than
# `Some`/`Ok` — reads nothing: the holes the field check leaves open.
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
# `pub`/`pub(crate)` field: `file<TAB>name`; and one per field a struct
# pattern binds, in the same form.
find crates/*/src examples -name '*.rs' -not -path '*/target/*' | sort |
    while read -r f; do
        awk -v f="$f" -v defs="$defs" -v fields="$fields" -v bound="$bound" '
            # Prints each field name that a struct pattern binds, given
            # the text between its braces: the leading name of each field,
            # split at the commas outside any nested group.
            function bind(fields_text,    n, k, ch, nest, from, part) {
                n = length(fields_text); nest = 0; from = 1
                for (k = 1; k <= n + 1; k++) {
                    ch = substr(fields_text, k, 1)
                    if (ch ~ /[({[]/) nest++
                    else if (ch ~ /[])}]/) nest--
                    else if (k > n || (ch == "," && nest == 0)) {
                        part = substr(fields_text, from, k - from); from = k + 1
                        sub(/^[[:space:]]*((ref|mut)[[:space:]]+)*/, "", part)
                        if (match(part, /^[a-z_][a-z0-9_]*/))
                            print f "\t" substr(part, RSTART, RLENGTH) >> bound
                    }
                }
            }
            # Binds the fields of each alternative of pattern text `p` that
            # is a struct pattern, bare or inside `Some(…)`/`Ok(…)`.
            function bind_pattern(p,    n, k, ch, nest, from, alt) {
                n = length(p); nest = 0; from = 1
                for (k = 1; k <= n + 1; k++) {
                    ch = substr(p, k, 1)
                    if (ch ~ /[({[]/) nest++
                    else if (ch ~ /[])}]/) nest--
                    else if (k > n || (ch == "|" && nest == 0)) {
                        alt = substr(p, from, k - from); from = k + 1
                        sub(/^[[:space:]]*(&[[:space:]]*)?/, "", alt)
                        sub(/[[:space:]]+$/, "", alt)
                        if (match(alt, /^(Some|Ok)\([[:space:]]*/)) {
                            if (alt !~ /\)$/) continue
                            alt = substr(alt, RLENGTH + 1, length(alt) - RLENGTH - 1)
                            sub(/[[:space:]]+$/, "", alt)
                        }
                        if (alt !~ /^[A-Z][A-Za-z0-9_:]*[[:space:]]*\{.*\}$/) continue
                        sub(/^[^{]*\{/, "", alt)
                        bind(substr(alt, 1, length(alt) - 1))
                    }
                }
            }
            # Binds the fields of each struct-pattern parameter of every
            # closure parameter list that opens and closes within line `t`:
            # pipes pair up left to right, and `||` is no list.
            function bind_closures(t,    n, k, j, ch, nest, params, m, from, part) {
                n = length(t)
                for (k = 1; k <= n; k++) {
                    if (substr(t, k, 1) != "|") continue
                    if (substr(t, k + 1, 1) == "|") { k++; continue }
                    nest = 0
                    for (j = k + 1; j <= n; j++) {
                        ch = substr(t, j, 1)
                        if (ch ~ /[({[]/) nest++
                        else if (ch ~ /[])}]/) { if (--nest < 0) break }
                        else if (ch == "|" && nest == 0) break
                    }
                    if (j > n || substr(t, j, 1) != "|") continue
                    params = substr(t, k + 1, j - k - 1); k = j
                    m = length(params); nest = 0; from = 1
                    for (j = 1; j <= m + 1; j++) {
                        ch = substr(params, j, 1)
                        if (ch ~ /[({[]/) nest++
                        else if (ch ~ /[])}]/) nest--
                        else if (j > m || (ch == "," && nest == 0)) {
                            part = substr(params, from, j - from); from = j + 1
                            bind_pattern(cut_annotation(part))
                        }
                    }
                }
            }
            # Parameter text `p` without its `: T` annotation: cut at the
            # first single `:` outside any group.
            function cut_annotation(p,    n, k, ch, nest) {
                n = length(p); nest = 0
                for (k = 1; k <= n; k++) {
                    ch = substr(p, k, 1)
                    if (ch ~ /[({[]/) nest++
                    else if (ch ~ /[])}]/) nest--
                    else if (ch == ":" && substr(p, k + 1, 1) == ":") k++
                    else if (ch == ":" && nest == 0) return substr(p, 1, k - 1)
                }
                return p
            }
            # Reads candidate pattern text `t` of a `let` (mode "let"), a
            # match arm (mode "arm") or a `for` loop (mode "for") up to its
            # `=`, `=>` or `in` outside any group: returns "done", with the
            # pattern (guard and type annotation cut) in `found`; "open" if
            # the next line may go on with it; "more" if only a line
            # starting with `|`, `if` or `=>` may; "abort" if it is no such
            # pattern.
            function scan(t, mode,    n, k, ch, nx, nest, guard) {
                n = length(t); nest = 0; guard = 0
                for (k = 1; k <= n; k++) {
                    ch = substr(t, k, 1); nx = substr(t, k + 1, 1)
                    if (ch ~ /[({[]/) { nest++; continue }
                    if (ch ~ /[])}]/) { if (--nest < 0) return "abort"; continue }
                    if (nest > 0) continue
                    if (mode == "for" && substr(t, k, 2) == "in" &&
                        substr(t, k - 1, 1) ~ /[[:space:]]/ &&
                        (k + 2 > n || substr(t, k + 2, 1) ~ /[[:space:]]/)) {
                        found = substr(t, 1, k - 1)
                        return "done"
                    }
                    if (ch == "=" && nx == ">") {
                        if (mode != "arm") return "abort"
                        found = substr(t, 1, (guard ? guard : k) - 1)
                        return "done"
                    }
                    if (ch == ";") return "abort"
                    if (guard) continue
                    if (ch == "=" && nx != "=" && mode == "let") {
                        found = substr(t, 1, k - 1)
                        return "done"
                    }
                    if (ch == ":" && nx == ":") { k++; continue }
                    if (ch == ":" && mode == "let") {
                        found = substr(t, 1, k - 1)
                        return "done"
                    }
                    if (ch == "." && nx == ".") { k++; continue }
                    if (mode == "arm" && substr(t, k, 3) ~ /^if[[:space:]]/ &&
                        substr(t, k - 1, 1) ~ /[[:space:]]/) { guard = k; k += 2; continue }
                    if (ch !~ /[A-Za-z0-9_|&@[:space:]]/) return "abort"
                }
                if (nest > 0 || guard || mode != "arm" || t ~ /\|[[:space:]]*$/) return "open"
                return "more"
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
                # A `let` pattern, a match arm or `for` loop starting its
                # line, that may hold a struct pattern: read on (at most 40
                # lines) to its `=`, `=>` or `in` and bind what its
                # alternatives name.
                if (pat_mode && pat_more && code !~ /^[[:space:]]*(\||if[[:space:]]|=>)/) pat_mode = ""
                if (pat_mode) code_from = code
                else if (match(code, /(^|[^A-Za-z0-9_])let[[:space:]]+&?[[:space:]]*[A-Z]/)) {
                    pat_mode = "let"; pat_text = ""; pat_lines = 0
                    code_from = substr(code, RSTART + RLENGTH - 1)
                } else if (match(code, /^[[:space:]]*for[[:space:]]+&?[[:space:]]*[A-Z]/)) {
                    pat_mode = "for"; pat_text = ""; pat_lines = 0
                    code_from = substr(code, RSTART + RLENGTH - 1)
                } else if (code ~ /^[[:space:]]*(\|[[:space:]]*)?&?[[:space:]]*[A-Z]/) {
                    pat_mode = "arm"; pat_text = ""; pat_lines = 0; code_from = code
                }
                if (pat_mode) {
                    pat_text = pat_text " " code_from
                    verdict = scan(pat_text, pat_mode)
                    pat_more = verdict == "more"
                    if (verdict == "done") bind_pattern(found)
                    if (verdict == "done" || verdict == "abort" || ++pat_lines == 40) pat_mode = ""
                }
                bind_closures(code)
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
