"""Fold the traced operation's Chrome trace-event JSON (the obs span
recorder's format) into a per-layer table.

Spans are replayed per thread against a stack; a span's self time is its
duration minus the time its child spans cover.  Each span name maps to a
layer (LAYERS below, first matching prefix wins).  For the operation under
the driver's `bench.op` span the fold reports, per layer:

  self_s      self time on the root's thread (the critical path: that
              thread blocks on everything else the operation does);
  crit_share  self_s as a share of the root span's wall time;
  thread_s    self time summed over every thread inside the root's
              interval (thread-seconds, comparable against wall).

The root thread's self times partition the root interval exactly, so they
sum to the traced wall; the share not attributed to a named layer (the
root's own self time and unmapped spans) is the residue.
"""

ROOT_SPAN = "bench.op"

# (span-name prefix, layer), first match wins.  Names follow the modules
# of src/glove: api (engine), source/sink (api + cdr), shard, core, serve.
LAYERS = (
    ("bench.source.", "source"),
    ("source.", "source"),
    ("bench.sink.", "sink"),
    ("sink.", "sink"),
    ("serve.publish.snapshot", "sink"),
    ("stream.pass1.scan", "shard.plan"),
    ("stream.plan", "shard.plan"),
    ("stream.shard", "shard.shards"),
    ("stream.reconcile", "shard.reconcile"),
    ("engine.collect", "source"),
    ("engine.drain", "sink"),
    # A strategy's own time is its core algorithm (core::anonymize_update
    # in serve's incremental epochs) unless the strategy is the sharded
    # stream; see strategy_layer().
    ("engine.strategy", "core"),
    ("engine.", "api"),
    ("bench.window", "serve.window"),
    ("bench.publish", "serve.publish"),
    ("serve.publish", "serve.publish"),
)
LAYER_NAMES = ("api", "source", "sink", "shard.plan", "shard.shards",
               "shard.reconcile", "core", "serve.window", "serve.publish")
RESIDUE_LAYER = "residue"


def layer_of(name):
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return RESIDUE_LAYER


def spans(events):
    """Yields (tid, name, begin_us, end_us, self_us, sharded) per closed
    span; `sharded` says whether a stream.* span ran inside it."""
    stacks = {}
    for event in events:
        phase = event.get("ph")
        tid = event["tid"]
        stack = stacks.setdefault(tid, [])
        if phase == "B":
            stack.append([event["name"], float(event["ts"]), 0.0, False])
        elif phase == "E":
            if not stack:
                raise ValueError(f"unbalanced end of {event['name']}")
            name, begin, child, sharded = stack.pop()
            end = float(event["ts"])
            duration = end - begin
            if stack:
                stack[-1][2] += duration
                stack[-1][3] |= sharded or name.startswith("stream.")
            yield tid, name, begin, end, duration - child, sharded


def strategy_layer(name, sharded):
    """The sharded stream's own time outside its stream.* spans is
    orchestration (the core loop runs inside stream.shard and
    stream.reconcile spans), so it counts as api, not core."""
    if name.startswith("engine.strategy") and sharded:
        return "api"
    return layer_of(name)


def fold(document):
    all_spans = list(spans(document["traceEvents"]))
    roots = [s for s in all_spans if s[1] == ROOT_SPAN]
    if len(roots) != 1:
        raise ValueError(f"expected one '{ROOT_SPAN}' span, "
                         f"found {len(roots)}")
    root_tid, _, root_begin, root_end, _, _ = roots[0]
    wall_us = root_end - root_begin

    self_us = {layer: 0.0 for layer in LAYER_NAMES + (RESIDUE_LAYER,)}
    thread_us = dict(self_us)
    span_totals = {}
    for tid, name, begin, end, own, sharded in all_spans:
        if begin < root_begin or end > root_end:
            total = span_totals.setdefault(name, 0.0)
            span_totals[name] = total + (end - begin)
            continue
        layer = (RESIDUE_LAYER if name == ROOT_SPAN
                 else strategy_layer(name, sharded))
        thread_us[layer] += own
        if tid == root_tid:
            self_us[layer] += own
            span_totals[name] = span_totals.get(name, 0.0) + (end - begin)
        else:
            key = name + "@workers"
            span_totals[key] = span_totals.get(key, 0.0) + (end - begin)

    layers = {}
    for layer in self_us:
        layers[layer] = {
            "self_s": self_us[layer] / 1e6,
            "thread_s": thread_us[layer] / 1e6,
            "crit_share": self_us[layer] / wall_us if wall_us > 0 else 0.0,
        }
    return {
        "wall_s": wall_us / 1e6,
        "self_sum_s": sum(self_us.values()) / 1e6,
        "residue_s": self_us[RESIDUE_LAYER] / 1e6,
        "layers": layers,
        "span_totals_s": {k: v / 1e6 for k, v in sorted(span_totals.items())},
    }


def render(table):
    wall = table["wall_s"]
    lines = [f"{'layer':<16} {'self_s':>9} {'crit%':>7} {'thread_s':>9} "
             f"{'thr/wall':>8}"]
    for layer, row in table["layers"].items():
        ratio = row["thread_s"] / wall if wall > 0 else 0.0
        lines.append(f"{layer:<16} {row['self_s']:>9.3f} "
                     f"{100 * row['crit_share']:>6.1f}% "
                     f"{row['thread_s']:>9.3f} {ratio:>8.2f}")
    lines.append(f"{'traced wall':<16} {wall:>9.3f}   (self times sum to "
                 f"{table['self_sum_s']:.3f} s)")
    return "\n".join(lines)

