#!/usr/bin/env python3
"""Summarise a Chrome trace as a multiset, for order-only golden changes.

    python3 tools/determinism/span_multiset.py TRACE.json [TRACE.json ...]

trace::write_chrome_trace writes one event per line. This prints, per file,
the number of spans ("ph":"X"), of counter samples ("ph":"C") and of other
events (metadata and instants), and the SHA-256 of the event lines after a
bytewise sort (each line without its separating comma, joined by newlines).
Two traces with the same events in a different record order get the same
digest; a changed, missing or extra event changes it. The engine's
`events_processed` samples are counted but left out of the digest: the
engine takes one every N dispatched events, so they move with the event
count even when every span and every other counter stays the same.

Use it when a change reorders record calls without changing any span, e.g.
a different tie order among engine events, to show that a determinism
golden of a trace changed only in order (docs/ENGINE.md, section 8).
Exits non-zero if a file is not in the one-event-per-line layout.
"""
import hashlib
import sys

HEADER = b'{"displayTimeUnit":"ms","traceEvents":['
FOOTER = b"]}"
ENGINE_COUNTER = b'"name":"events_processed","ph":"C","cat":"core"'


def summarise(path):
    spans = counters = others = 0
    events = []
    with open(path, "rb") as f:
        if f.readline().rstrip(b"\n") != HEADER:
            sys.exit(f"{path}: not a trace::write_chrome_trace file")
        closed = False
        for line in f:
            line = line.rstrip(b"\n")
            if line == FOOTER:
                closed = True
                break
            if line.endswith(b","):
                line = line[:-1]
            if not line:
                continue  # a trace with no events has one empty line
            if not (line.startswith(b"{") and line.endswith(b"}")):
                sys.exit(f"{path}: expected one event per line, "
                         f"got {line[:80]!r}")
            if b'"ph":"C"' in line:
                counters += 1
                if ENGINE_COUNTER in line:
                    continue
            elif b'"ph":"X"' in line:
                spans += 1
            else:
                others += 1
            events.append(line)
    if not closed:
        sys.exit(f"{path}: truncated (no closing {FOOTER.decode()})")
    events.sort()
    digest = hashlib.sha256(b"\n".join(events)).hexdigest()
    return spans, counters, others, digest


def main(argv):
    if len(argv) < 2:
        sys.exit("usage: span_multiset.py TRACE.json [TRACE.json ...]")
    for path in argv[1:]:
        spans, counters, others, digest = summarise(path)
        print(f"{path}: {spans} spans, {counters} counter samples, "
              f"{others} other events, sorted-event sha256 {digest}")


if __name__ == "__main__":
    main(sys.argv)
