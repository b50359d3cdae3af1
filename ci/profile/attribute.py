#!/usr/bin/env python3
"""attribute.py <binary> <samples> [-v] [-r root,...] [-m key,key,...]: where a run's samples fall.

Reads what `sampler.c` wrote, expands every sampled stack through inlined
frames (`addr2line -i`), keeps the samples with a frame naming one of the
roots, and gives each to the innermost frame naming one of MARKERS. The
roots default to `run_simulation` and, in a sweep, the two halves the
executor calls; `-r` names others — the metadata server's storm wants
`-r MetadataServer::`. `-m` puts rows of its own before MARKERS — the
campus sweep wants `-m matches_token_set,matches_any,store_record,
metadata_offers,FrequentScan`, the storm the qualified operation names in
`sampler.c`'s header (a bare `search` would also claim a `binary_search`
leaf). `-v` lists each row's commonest leaf functions. A libc leaf
(malloc, memcpy) keeps no frame pointer, so its
sample skips its caller and lands one row further out; it is listed as
`[libc.so.6 near <the dynamic symbol before it>] < <the frame it landed
in>`, which on a stripped glibc tells the string routines (`near
__nss_database_lookup`: the multiarch memcmp/memcpy block) from the
allocator (`near __default_morecore`, `malloc`, `free`), and a keyword
probe's `memcmp` from a URI comparison's.
"""
import bisect
import collections
import os
import subprocess
import sys

binary, path = sys.argv[1], sys.argv[2]
real = os.path.realpath(binary)
segments, libraries, stacks = [], [], []
for line in open(path):
    fields = line.split()
    if fields[0] == "M" and len(fields) >= 7 and os.path.realpath(fields[6]) == real:
        lo, hi = (int(x, 16) for x in fields[1].split("-"))
        segments.append((lo, hi, int(fields[3], 16)))
    elif fields[0] == "M" and len(fields) >= 7 and fields[6].startswith("/"):
        lo, hi = (int(x, 16) for x in fields[1].split("-"))
        libraries.append((lo, hi, int(fields[3], 16), fields[6]))
    elif fields[0] == "S":
        stacks.append([int(x, 16) for x in fields[1:]])
base = min(lo - offset for lo, _, offset in segments)


def relative(addr, leaf):
    # A return address belongs to the call before it.
    addr -= 0 if leaf else 1
    return addr - base if any(lo <= addr < hi for lo, hi, _ in segments) else None


dynamic = {}


def outside(addr):
    """A leaf outside the binary, by the dynamic symbol that precedes it."""
    for lo, hi, offset, lib in libraries:
        if lo <= addr < hi:
            if lib not in dynamic:
                nm = subprocess.run(["nm", "-D", "--defined-only", "-n", lib], capture_output=True, text=True)
                table = [l.split() for l in nm.stdout.splitlines() if len(l.split()) == 3]
                dynamic[lib] = ([int(a, 16) for a, _, _ in table], [n.split("@")[0] for _, _, n in table])
            starts, names = dynamic[lib]
            at = bisect.bisect_right(starts, addr - lo + offset) - 1
            return f"[{os.path.basename(lib)} near {names[at] if at >= 0 else '?'}]"
    return "[outside the binary]"


wanted = sorted({r for st in stacks for i, a in enumerate(st) if (r := relative(a, i == 0)) is not None})
out = subprocess.run(
    ["addr2line", "-a", "-f", "-i", "-C", "-e", binary] + [hex(a) for a in wanted],
    capture_output=True, text=True, check=True,
).stdout.splitlines()
chains, current, i = {}, None, 0
while i < len(out):
    if out[i].startswith("0x"):
        current = int(out[i], 16)
        chains[current] = []
        i += 1
    else:
        chains[current].append(out[i])  # function; the next line is file:line
        i += 2

MARKERS = [
    ("run_contact_via", "contact kernel (run_contact_via)"),
    ("day_tick", "day tick"),
    ("on_scheduled", "day tick"),
    ("frequent_map", "ShardedTrace::frequent_map"),
    ("read_pairs_sidecar", "ShardedTrace::frequent_map"),
    ("load_next_shard", "shard decode"),
    ("ContactReader", "shard decode"),
    ("parse_line", "shard decode"),
    ("is_alive", "Harness::is_alive"),
    ("materialize", "NodeTable::materialize"),
    ("drain_node_events", "Harness::drain_node_events"),
    ("on_contact_start", "Harness::on_contact_start self"),
    ("run_streaming", "engine self"),
    ("StreamSimulator", "engine self"),
    ("run_simulation", "run_simulation self"),
]
if "-m" in sys.argv:
    MARKERS = [(key, key) for key in sys.argv[sys.argv.index("-m") + 1].split(",")] + MARKERS
ROOTS = ["run_simulation", "runner::simulate", "runner::frequent_contacts"]
if "-r" in sys.argv:
    ROOTS = sys.argv[sys.argv.index("-r") + 1].split(",")
rows, leaves, total = collections.Counter(), collections.defaultdict(collections.Counter), 0
for st in stacks:
    frames = []  # innermost first
    for i, a in enumerate(st):
        r = relative(a, i == 0)
        frames += chains.get(r, ["?"]) if r is not None else [outside(a)]
    if not any(root in f for f in frames for root in ROOTS):
        continue
    total += 1
    row = next((name for f in frames for key, name in MARKERS if key in f), "other")
    rows[row] += 1
    # A leaf outside the binary is listed with the frame that called into it.
    leaf = " < ".join(frames[:2]) if frames[0].startswith("[") else frames[0]
    leaves[row][leaf] += 1
print(f"{total} of {len(stacks)} samples inside {', '.join(ROOTS)}")
for row, n in rows.most_common():
    print(f"{100 * n / total:5.1f} %  {n:5d}  {row}")
    if "-v" in sys.argv:
        for leaf, k in leaves[row].most_common(6):
            print(f"            {k:5d}  {leaf[:120]}")
