"""The parts the sectioned differential dumps share: the error record and
the section runner of surface_differential, algebra_differential and
recipe_differential.  Each script imports it from this directory, which
Python puts first on the module path when it runs a script here.
"""

from __future__ import annotations

import argparse
import hashlib
import time

from multitwist.formats import FormatError


def error_record(exc) -> str:
    """The exception's type and message, and for a FormatError its line."""
    line = f" @{exc.line}" if isinstance(exc, FormatError) else ""
    return f"{type(exc).__name__}{line}: {exc}"


def record(fn, *args) -> str:
    try:
        return fn(*args)
    except Exception as exc:  # any error is a record, so a crash shows as a difference
        return error_record(exc)


def run_sections(doc: str, sections) -> dict:
    """Read --records, then print one line per section of (name, record
    generator): its name, its record count and a SHA-256 of the records
    (with --records, every record first, each on its own line).  The last
    line digests the whole dump.  Returns each section's wall time."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--records", action="store_true", help="print every record")
    args = ap.parse_args()
    whole = hashlib.sha256()
    seconds = {}
    for name, section in sections:
        start = time.perf_counter()
        digest = hashlib.sha256()
        count = 0
        for rec in section():
            digest.update(rec.encode() + b"\n")
            count += 1
            if args.records:
                print(rec)
        seconds[name] = time.perf_counter() - start
        line = f"{name}: {count} records {digest.hexdigest()[:16]}"
        whole.update(line.encode() + b"\n")
        print(line)
    print(f"dump sha256 {whole.hexdigest()}")
    return seconds
