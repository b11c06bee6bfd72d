#!/usr/bin/env python3
"""Regenerate src/gazesim/ziggurat_tables.bin from the installed NumPy.

`PCG64Streams.normal` repeats the fast path of NumPy's 256-layer ziggurat
(Marsaglia & Tsang, "The Ziggurat Method for Generating Random
Variables", J. Stat. Softw. 5(8), 2000). It needs two of NumPy's tables:
`wi_double` (256 float64 layer widths) and `ki_double` (256 uint64
acceptance bounds). Both are local symbols in the object file
`src_distributions_distributions.c.o` inside the static library
`numpy/random/lib/libnpyrandom.a` that NumPy installs. This script reads
that archive, finds the two symbols by name in the object's ELF symbol
table, and writes them as one little-endian file: wi_double then
ki_double, 4096 bytes.

The table values are NumPy's, from numpy/random/src/distributions/
ziggurat_constants.h, and are used under NumPy's licence:

    Copyright (c) 2005-2025, NumPy Developers.
    All rights reserved. Redistribution and use in source and binary
    forms, with or without modification, are permitted under the terms
    of the BSD 3-Clause License, whose full text ships with NumPy as
    LICENSE.txt.

Usage:
    python scripts/ziggurat_tables.py            # rewrite the data file
    python scripts/ziggurat_tables.py --check    # exit 1 if it differs
"""
from __future__ import annotations

import argparse
import struct
import sys
from pathlib import Path

import numpy as np

ARCHIVE = Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
MEMBER = "src_distributions_distributions.c.o"
SYMBOLS = (("wi_double", "f8"), ("ki_double", "u8"))
TABLE_LEN = 256
OUTPUT = Path(__file__).resolve().parents[1] / "src" / "gazesim" / "ziggurat_tables.bin"

SHT_SYMTAB = 2


def archive_member(data: bytes, name: str) -> bytes:
    """One member of a System V / GNU `ar` archive, by name."""
    if not data.startswith(b"!<arch>\n"):
        raise ValueError("not an ar archive")
    pos, long_names = 8, b""
    while pos + 60 <= len(data):
        header = data[pos : pos + 60]
        size = int(header[48:58])
        body = data[pos + 60 : pos + 60 + size]
        raw = header[:16].decode().rstrip()
        if raw == "//":
            long_names = body
        elif raw.startswith("/") and raw[1:].isdigit():
            start = int(raw[1:])
            raw = long_names[start : long_names.index(b"\n", start)].decode()
        if raw.rstrip("/") == name:
            return body
        pos += 60 + size + (size & 1)
    raise KeyError(f"{name} not in archive")


def elf_symbols(obj: bytes, names: tuple[str, ...]) -> tuple[str, dict[str, bytes]]:
    """The byte order of a relocatable ELF64 object ('<' or '>'), and the
    bytes of each named data symbol in it."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2:
        raise ValueError("not an ELF64 object")
    order = "<" if obj[5] == 1 else ">"
    shoff, = struct.unpack_from(order + "Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from(order + "HH", obj, 0x3A)
    sections = [
        struct.unpack_from(order + "IIQQQQIIQQ", obj, shoff + i * shentsize)
        for i in range(shnum)
    ]
    found = {}
    for _, sh_type, _, _, offset, size, link, _, _, entsize in sections:
        if sh_type != SHT_SYMTAB:
            continue
        strtab_offset = sections[link][4]
        for pos in range(offset, offset + size, entsize):
            st_name, _, _, st_shndx, st_value, st_size = struct.unpack_from(
                order + "IBBHQQ", obj, pos
            )
            end = obj.index(b"\0", strtab_offset + st_name)
            name = obj[strtab_offset + st_name : end].decode()
            if name in names:
                start = sections[st_shndx][4] + st_value
                found[name] = obj[start : start + st_size]
    missing = set(names) - set(found)
    if missing:
        raise KeyError(f"symbols not found: {', '.join(sorted(missing))}")
    return order, found


def tables_from_numpy() -> bytes:
    obj = archive_member(ARCHIVE.read_bytes(), MEMBER)
    order, found = elf_symbols(obj, tuple(name for name, _ in SYMBOLS))
    parts = []
    for name, kind in SYMBOLS:
        values = np.frombuffer(found[name], order + kind)
        if len(values) != TABLE_LEN:
            raise ValueError(f"{name}: expected {TABLE_LEN} entries, got {len(values)}")
        parts.append(values.astype("<" + kind).tobytes())
    return b"".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare the committed file with the installed NumPy's tables",
    )
    args = parser.parse_args(argv)
    tables = tables_from_numpy()
    if args.check:
        if not OUTPUT.exists() or OUTPUT.read_bytes() != tables:
            print(f"{OUTPUT.name} differs from the tables in {ARCHIVE}", file=sys.stderr)
            return 1
        print(f"{OUTPUT.name} matches numpy {np.__version__}")
        return 0
    OUTPUT.write_bytes(tables)
    print(f"wrote {OUTPUT} ({len(tables)} bytes) from numpy {np.__version__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
