#!/usr/bin/env python3
"""Trace summary: where a traced griffin_bench run spent its thread time.

Reads the Chrome trace-event JSON that `griffin_bench run ... --trace
<file>` writes and prints three views of its "X" (complete) events:

  * per span name: events, inclusive thread-s (the spans' durations)
    and self thread-s (each duration minus those of its direct
    children on the same thread);
  * thread-s per network, summed over that network's `layer` spans
    (the runner runs each task, one network layer's worksets,
    under one `layer` span whose args name the network, the layer
    index and the layer name);
  * the ten costliest (network, layer) pairs.

It closes with a check line: the self times must sum to the time the
top-level spans cover, per thread, which holds exactly when every span
nests in its parent.  Exit status 1 when they differ (or the file is
not a trace).

    tools/trace_summary.py TRACE.json
"""

import collections
import json
import signal
import sys


def die(message):
    print("trace_summary: " + message, file=sys.stderr)
    sys.exit(1)


def ns(micros):
    """A trace timestamp or duration (microseconds) as integer ns."""
    return int(round(float(micros) * 1000.0))


def load_events(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as error:
        die("cannot read %s: %s" % (path, error))
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        die("%s is not a Chrome trace document" % path)
    events = []
    for e in doc["traceEvents"]:
        if e.get("ph") != "X":
            continue
        start = ns(e["ts"])
        events.append({"name": e["name"], "tid": e["tid"], "start": start,
                       "end": start + ns(e["dur"]),
                       "args": e.get("args", {})})
    return events


def self_times(events):
    """Adds each event's self time ("self", ns); returns the time the
    top-level spans cover, in ns, from a separate interval union."""
    by_tid = collections.defaultdict(list)
    for e in events:
        e["self"] = e["end"] - e["start"]
        by_tid[e["tid"]].append(e)
    covered = 0
    for spans in by_tid.values():
        # Parents before the children that start with them.
        spans.sort(key=lambda e: (e["start"], -e["end"]))
        open_spans = []
        for e in spans:
            while open_spans and open_spans[-1]["end"] <= e["start"]:
                open_spans.pop()
            if open_spans:
                open_spans[-1]["self"] -= e["end"] - e["start"]
            open_spans.append(e)
        reach = None
        for e in spans:
            if reach is None or e["start"] >= reach:
                covered += e["end"] - e["start"]
                reach = e["end"]
            elif e["end"] > reach:
                covered += e["end"] - reach
                reach = e["end"]
    return covered


def seconds(value_ns):
    return value_ns / 1e9


def print_table(title, header, rows):
    """Text columns left-aligned, numbers right-aligned (floats as
    %.6f thread-s)."""
    cells = [[("%.6f" % c) if isinstance(c, float) else str(c) for c in r]
             for r in rows]
    numeric = [bool(rows) and not isinstance(rows[0][i], str)
               for i in range(len(header))]
    widths = [max(len(r[i]) for r in [header] + cells)
              for i in range(len(header))]
    print(title)
    for row in [header] + cells:
        print("  ".join(c.rjust(w) if num else c.ljust(w)
                        for c, w, num in zip(row, widths, numeric))
              .rstrip())
    print()


def main(argv):
    if len(argv) != 2 or argv[1].startswith("-"):
        print("usage: tools/trace_summary.py TRACE.json", file=sys.stderr)
        return 2
    events = load_events(argv[1])
    covered = self_times(events)
    threads = len({e["tid"] for e in events})
    print("%s: %d spans on %d threads\n" % (argv[1], len(events), threads))

    per_name = collections.defaultdict(lambda: [0, 0, 0])
    for e in events:
        stats = per_name[e["name"]]
        stats[0] += 1
        stats[1] += e["end"] - e["start"]
        stats[2] += e["self"]
    print_table("per span name", ["span", "events", "inclusive_s", "self_s"],
                [[name, n, seconds(incl), seconds(own)]
                 for name, (n, incl, own) in
                 sorted(per_name.items(), key=lambda kv: (-kv[1][2], kv[0]))])

    per_net = collections.defaultdict(lambda: [0, 0])
    per_layer = collections.defaultdict(lambda: [0, 0])
    for e in events:
        if e["name"] != "layer":
            continue
        args = e["args"]
        if not {"network", "index", "layer"} <= set(args):
            die("a layer span lacks its network/index/layer args")
        dur = e["end"] - e["start"]
        key = (args["network"], int(args["index"]), args["layer"])
        for table, k in ((per_net, key[0]), (per_layer, key)):
            table[k][0] += 1
            table[k][1] += dur
    print_table("per network (layer spans)", ["network", "tasks", "thread_s"],
                [[net, n, seconds(dur)] for net, (n, dur) in
                 sorted(per_net.items(), key=lambda kv: (-kv[1][1], kv[0]))])
    top = sorted(per_layer.items(), key=lambda kv: (-kv[1][1], kv[0]))[:10]
    print_table("costliest layers",
                ["network", "index", "layer", "tasks", "thread_s"],
                [[net, index, name, n, seconds(dur)]
                 for (net, index, name), (n, dur) in top])

    total_self = sum(e["self"] for e in events)
    print("check: self times sum to %.6f thread-s, top-level spans cover "
          "%.6f thread-s" % (seconds(total_self), seconds(covered)))
    if total_self != covered:
        print("trace_summary: spans overlap without nesting",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    # A reader that stops early (`... | head`) ends the summary the way
    # it ends cat: by SIGPIPE, with no BrokenPipeError traceback.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main(sys.argv))
