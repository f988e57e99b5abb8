#!/usr/bin/env python3
"""Resolve and summarise a hostprof sample file.

    scripts/hostprof/report.py FILE

FILE is what sampler.c wrote ($HOSTPROF_OUT.<pid>). Every address is
resolved with `nm` against the file mapped at it, taking the load base of
a position-independent file from its mapping at offset 0. Report before
rebuilding the program: a file whose inode changed since the run is left
unresolved, with a warning. Callers are resolved at their return address
minus one, so that a call at the end of a function is charged to that
function. Prints, as shares of all samples:

  - self: the function the CPU was in (top 25);
  - inclusive: functions anywhere on the stack, each counted once per
    sample (top 25);
  - groups: samples whose stack holds a frame of the group (monitor,
    event queue, MD5, GC, Stdlib's Hashtbl and Set with caml_hash, and
    polymorphic compare), and samples in Hashtbl, Set or compare under a
    monitor frame.

Exits 1 when no sample resolves to a symbol, so a script can check that
profiling still works.
"""

import argparse
import bisect
import collections
import os
import re
import subprocess
import sys

GROUPS = [
    ("monitor", r"^camlRemon_core__(Ikb|Ghumvee|Ipmon|Replication_buffer)\."),
    ("event queue", r"^camlRemon_sim__Event_queue\."),
    ("MD5", r"^caml_(md5|MD5)"),
    ("GC", r"^caml_(empty_minor_heap|minor_collection|major_collection_slice"
           r"|opportunistic_major|do_some_marking|mark_|sweep|compact"
           r"|stw_empty_minor_heap|try_stw_empty_minor_heap)"),
    ("Hashtbl/Set", r"^(camlStdlib__Hashtbl\.|caml_hash$|camlStdlib__Set\.)"),
    ("polymorphic compare", r"^(compare_val|caml_compare|caml_equal"
                            r"|caml_notequal|caml_lessthan|caml_lessequal"
                            r"|caml_greaterthan|caml_greaterequal)$"),
]
MONITOR = re.compile(GROUPS[0][1])
LOOKUP = re.compile(GROUPS[-2][1] + "|" + GROUPS[-1][1])
UNDER_MONITOR = "Hashtbl/Set/compare under monitor"
TOP = 25  # rows of the self and inclusive tables


def parse(path):
    """Samples, and the mapped files that still are the files the run
    mapped (same inode); a file rebuilt since would resolve wrongly."""
    samples, maps, stale = [], [], set()
    with open(path) as f:
        for line in f:
            if line.startswith("# "):
                print(line[2:].strip())  # the sampler's own counts
            elif line.startswith("S "):
                samples.append([int(x, 16) for x in line.split()[1:]])
            elif line.startswith("M "):
                fields = line[2:].split()
                if len(fields) >= 6 and fields[5].startswith("/"):
                    try:
                        same = os.stat(fields[5]).st_ino == int(fields[4])
                    except OSError:
                        same = False
                    if not same:
                        stale.add(fields[5])
                        continue
                    lo, hi = (int(x, 16) for x in fields[0].split("-"))
                    maps.append((lo, hi, int(fields[2], 16), fields[5]))
    for f in sorted(stale):
        print(f"warning: {f} changed since the run; its frames stay unresolved",
              file=sys.stderr)
    return samples, maps


def is_pie(path):
    try:
        with open(path, "rb") as f:
            head = f.read(18)
    except OSError:
        return True
    return head[:4] == b"\x7fELF" and head[16] == 3  # ET_DYN


def symbols(path):
    """Sorted (address, name) of the file's functions, or [] when nm
    finds none. A stripped library falls back to its dynamic table, whose
    nearest export may not be the function that ran: such names are
    marked "name? [file]"."""
    base = path.rsplit("/", 1)[-1]
    for args, mark in ((["nm", "-n", "--defined-only"], "{}"),
                       (["nm", "-n", "-D", "--defined-only"], "{}? [" + base + "]")):
        try:
            out = subprocess.run(args + [path], capture_output=True,
                                 text=True, check=False).stdout
        except OSError:
            return []
        syms = []
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 3 and parts[1] in "TtWw":
                syms.append((int(parts[0], 16), mark.format(parts[2])))
        if syms:
            return syms
    return []


class Resolver:
    def __init__(self, maps):
        self.maps = sorted(maps)
        self.starts = [m[0] for m in self.maps]
        self.base = {}
        for lo, _, off, path in self.maps:
            if off == 0 and path not in self.base:
                self.base[path] = lo if is_pie(path) else 0
        self.tables = {}
        self.cache = {}

    def name(self, addr):
        if addr in self.cache:
            return self.cache[addr]
        i = bisect.bisect_right(self.starts, addr) - 1
        name = None
        if i >= 0 and addr < self.maps[i][1]:
            path = self.maps[i][3]
            if path not in self.tables:
                syms = symbols(path)
                self.tables[path] = ([a for a, _ in syms], [n for _, n in syms])
            addrs, names = self.tables[path]
            rel = addr - self.base.get(path, 0)
            j = bisect.bisect_right(addrs, rel) - 1
            name = names[j] if j >= 0 else "[" + path.rsplit("/", 1)[-1] + "]"
        self.cache[addr] = name
        return name


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("file")
    args = ap.parse_args()
    samples, maps = parse(args.file)
    res = Resolver(maps)
    self_n, incl_n, group_n = (collections.Counter() for _ in range(3))
    resolved = 0
    for s in samples:
        frames = [res.name(s[0])] + [res.name(a - 1) for a in s[1:]]
        if frames[0] is None:
            continue
        resolved += 1
        self_n[frames[0]] += 1
        stack = {f for f in frames if f}
        incl_n.update(stack)
        for gname, pat in GROUPS:
            if any(re.search(pat, f) for f in stack):
                group_n[gname] += 1
        if any(MONITOR.search(f) for f in stack) and any(
                LOOKUP.search(f) for f in stack):
            group_n[UNDER_MONITOR] += 1
    total = len(samples)
    print(f"{args.file}: {total} samples, {resolved} resolved")
    if total == 0:
        print("no samples")
        sys.exit(1)

    def table(title, counts):
        print(f"\n{title}")
        for name, c in counts.most_common(TOP):
            print(f"  {100.0 * c / total:6.2f}%  {c:7d}  {name}")

    table("self", self_n)
    table("inclusive", incl_n)
    print("\ngroups (inclusive)")
    for gname in [g for g, _ in GROUPS] + [UNDER_MONITOR]:
        c = group_n[gname]
        print(f"  {100.0 * c / total:6.2f}%  {c:7d}  {gname}")
    if resolved == 0:
        sys.exit(1)


if __name__ == "__main__":
    main()
