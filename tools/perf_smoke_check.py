#!/usr/bin/env python3
"""CI perf-smoke gate for the pipelined aggregation path.

Reads a google-benchmark JSON report from bench/micro_collectives and asserts

  1. the pipelined blocked-aggregation schedule exposes strictly less
     simulated communication time than the fully blocking baseline, by at
     least the checked-in margin, and
  2. the perf-model adaptive pipeline depth (depth arg 0) exposes no more
     simulated communication time than the *best* fixed depth in the sweep.

Thresholds live in tools/perf_smoke_thresholds.json. The gated counters
(sim_exposed_comm_s / sim_hidden_comm_s) are derived from post-time clocks and
the ring cost model — fully deterministic, so the gate is runner-independent.
On failure every violated threshold is printed with a value-vs-limit diff.

The micro_collectives report additionally carries the bf16 wire-format
gate: with PLEXUS_WIRE-style bf16 payloads the trainer's wire bytes must
drop to at most `wire_bytes_max_ratio` of the fp32 run (deterministic byte
accounting; the measured ratio is exactly 0.5 on all-float workloads).

It can also gate the SIMD kernel dispatch: pass --kernels-report=PATH with
a bench/micro_kernels JSON report (--benchmark_filter to include
SimdVsScalar) and the `simd_speedup` section is checked — the active
target's `speedup_vs_serial` against the pinned scalar kernel table must
clear the per-benchmark floor. Those are wall-clock ratios, so the floors
are far below measured values; they catch the vectorized path silently
losing to (or dispatching to) the scalar fallback.

And it can gate the serving stack: pass --serve-report=PATH with a
bench/micro_serve JSON report and the serve section of the thresholds file
is checked (minimum sustained QPS, maximum p99 latency, nothing rejected).
Serve numbers are wall-clock, so those margins are deliberately loose —
the gate catches order-of-magnitude regressions and outright breakage, not
percent-level drift.

Finally it can gate the out-of-core streaming path: pass
--streaming-report=PATH with a bench/micro_streaming JSON report and the
`streaming` thresholds section is checked — losses bitwise-equal between the
blocking and prefetched runs, the block-cache peak within the RSS budget,
a real volume of bytes streamed, and the fixed-depth pipelined prefetch
schedule exposing no more wall-clock IO than the blocking baseline (skipped
when the baseline itself is too fast to measure — warm-page-cache runners).

Usage: perf_smoke_check.py [micro_collectives.json] [thresholds.json]
                           [--kernels-report=micro_kernels.json]
                           [--serve-report=micro_serve.json]
                           [--streaming-report=micro_streaming.json]
"""
import json
import os
import sys

# Deterministic counters still cross the JSON text round-trip; allow one ulp
# worth of slack so "equal to the best fixed depth" never flakes.
EPS = 1e-12


def load_counters(report_path):
    with open(report_path) as f:
        report = json.load(f)
    counters = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        counters[b["name"]] = b
    return counters


def get_counter(counters, name, key, failures):
    bench = counters.get(name)
    if bench is None:
        failures.append(f"benchmark missing from report: {name}")
        return None
    value = bench.get(key)
    if value is None:
        failures.append(f"{name}: counter {key} missing from report")
    return value


def fmt_us(seconds):
    return f"{seconds * 1e6:.2f}us"


def check_pipelined_vs_blocking(counters, thresholds, failures):
    max_ratio = thresholds["pipelined_vs_blocking_max_ratio"]
    for pair in thresholds["pairs"]:
        base_name, piped_name = pair["baseline"], pair["pipelined"]
        base = get_counter(counters, base_name, "sim_exposed_comm_s", failures)
        piped = get_counter(counters, piped_name, "sim_exposed_comm_s", failures)
        hidden = get_counter(counters, piped_name, "sim_hidden_comm_s", failures)
        if base is None or piped is None or hidden is None:
            continue
        ratio = piped / base if base > 0 else float("inf")
        ok = piped < base and ratio <= max_ratio and hidden > 0
        print(
            f"[{'OK' if ok else 'FAIL'}] {piped_name}: exposed {fmt_us(piped)} vs blocking "
            f"{fmt_us(base)} (ratio {ratio:.3f}, limit {max_ratio}); hidden {fmt_us(hidden)}"
        )
        if not ok:
            failures.append(
                f"{piped_name}: exposed {fmt_us(piped)} not below blocking {fmt_us(base)} by "
                f"the required margin (ratio {ratio:.3f} > limit {max_ratio}"
                f", diff {fmt_us(piped - base * max_ratio)} over)"
                + ("" if hidden > 0 else "; and no hidden time at all")
            )


def check_adaptive_vs_best_fixed(counters, thresholds, failures):
    max_ratio = thresholds.get("adaptive_vs_best_fixed_max_ratio")
    groups = thresholds.get("adaptive", [])
    if max_ratio is None or not groups:
        return
    for group in groups:
        adaptive_name = group["adaptive"]
        adaptive = get_counter(counters, adaptive_name, "sim_exposed_comm_s", failures)
        fixed = {}
        for name in group["fixed"]:
            v = get_counter(counters, name, "sim_exposed_comm_s", failures)
            if v is not None:
                fixed[name] = v
        if adaptive is None or len(fixed) != len(group["fixed"]):
            continue
        best_name, best = min(fixed.items(), key=lambda kv: kv[1])
        limit = best * max_ratio + EPS
        ok = adaptive <= limit
        depth = counters[adaptive_name].get("adaptive_depth")
        depth_str = f", chose depth {depth:.0f}" if depth is not None else ""
        print(
            f"[{'OK' if ok else 'FAIL'}] {adaptive_name}: exposed {fmt_us(adaptive)} vs best "
            f"fixed {best_name} {fmt_us(best)} (limit ratio {max_ratio}{depth_str})"
        )
        if not ok:
            per_depth = ", ".join(f"{n}={fmt_us(v)}" for n, v in sorted(fixed.items()))
            failures.append(
                f"{adaptive_name}: adaptive exposed {fmt_us(adaptive)} exceeds limit "
                f"{fmt_us(limit)} ({fmt_us(adaptive - limit)} over; fixed sweep: {per_depth})"
            )


def fmt_mb(b):
    return f"{b:.2f}MB"


def check_wire_bytes(counters, thresholds, failures):
    max_ratio = thresholds.get("wire_bytes_max_ratio")
    names = thresholds.get("wire_bytes", [])
    if max_ratio is None or not names:
        return
    for name in names:
        ratio = get_counter(counters, name, "wire_bytes_ratio", failures)
        fp32_mb = get_counter(counters, name, "fp32_wire_mb", failures)
        bf16_mb = get_counter(counters, name, "bf16_wire_mb", failures)
        if ratio is None or fp32_mb is None or bf16_mb is None:
            continue
        ok = fp32_mb > 0 and ratio <= max_ratio
        print(
            f"[{'OK' if ok else 'FAIL'}] {name}: bf16 {fmt_mb(bf16_mb)} vs fp32 "
            f"{fmt_mb(fp32_mb)} wire bytes (ratio {ratio:.3f}, limit {max_ratio})"
        )
        if not ok:
            failures.append(
                f"{name}: bf16 wire bytes {fmt_mb(bf16_mb)} not below fp32 {fmt_mb(fp32_mb)} by "
                f"the required margin (ratio {ratio:.3f} > limit {max_ratio})"
            )


def check_simd_speedup(counters, thresholds, failures):
    gates = thresholds.get("simd_speedup", [])
    if not gates:
        failures.append("thresholds file has no 'simd_speedup' section")
        return
    for gate in gates:
        name = gate["benchmark"]
        speedup = get_counter(counters, name, "speedup_vs_serial", failures)
        if speedup is None:
            continue
        target = counters[name].get("label", "")
        ok = speedup >= gate["min_speedup"]
        print(
            f"[{'OK' if ok else 'FAIL'}] {name}: {speedup:.2f}x vs pinned scalar kernels "
            f"(min {gate['min_speedup']}x{', target ' + target if target else ''})"
        )
        if not ok:
            failures.append(
                f"{name}: SIMD speedup {speedup:.2f}x below the {gate['min_speedup']}x floor "
                f"({'target ' + target if target else 'unknown target'})"
            )


def check_serve(counters, thresholds, failures):
    serve = thresholds.get("serve")
    if serve is None:
        failures.append("thresholds file has no 'serve' section")
        return
    name = serve["benchmark"]
    qps = get_counter(counters, name, "qps", failures)
    p99 = get_counter(counters, name, "p99_us", failures)
    rejected = get_counter(counters, name, "rejected", failures)
    if qps is None or p99 is None or rejected is None:
        return
    ok = qps >= serve["min_qps"] and p99 <= serve["max_p99_us"] and rejected == 0
    print(
        f"[{'OK' if ok else 'FAIL'}] {name}: {qps:.0f} QPS (min {serve['min_qps']:.0f}), "
        f"p99 {p99:.1f}us (max {serve['max_p99_us']:.0f}us), {rejected:.0f} rejected"
    )
    if not ok:
        failures.append(
            f"{name}: QPS {qps:.0f} / p99 {p99:.1f}us / rejected {rejected:.0f} violates "
            f"(min_qps {serve['min_qps']}, max_p99_us {serve['max_p99_us']}, rejected == 0)"
        )


def check_streaming(counters, thresholds, failures):
    gate = thresholds.get("streaming")
    if gate is None:
        failures.append("thresholds file has no 'streaming' section")
        return
    name = gate["benchmark"]
    pipelined = get_counter(counters, name, "io_exposed_s_pipelined", failures)
    blocking = get_counter(counters, name, "io_exposed_s_blocking", failures)
    streamed = get_counter(counters, name, "bytes_streamed_mb", failures)
    peak = get_counter(counters, name, "peak_cache_mb", failures)
    budget = get_counter(counters, name, "budget_mb", failures)
    equal = get_counter(counters, name, "losses_bitwise_equal", failures)
    if None in (pipelined, blocking, streamed, peak, budget, equal):
        return
    # Exposed IO is wall-clock; on a warm page cache the blocking baseline can
    # be too fast for the overlap comparison to mean anything — then only the
    # deterministic invariants (budget, bytes, bitwise losses) are gated. The
    # gated prefetch run uses a fixed deep depth (the report's prefetch_depth
    # counter); the adaptive run is reported but not gated, because the perf
    # model prices IO at raw disk bandwidth and may legitimately choose a
    # shallow depth on a page-cached tmpdir.
    floor = gate.get("min_measurable_io_s", 0.0)
    overlap_ok = blocking <= floor or pipelined <= blocking * gate["max_io_exposed_ratio"] + EPS
    ok = (
        overlap_ok
        and streamed >= gate["min_bytes_streamed_mb"]
        and peak <= budget
        and equal == 1
    )
    print(
        f"[{'OK' if ok else 'FAIL'}] {name}: exposed IO {pipelined * 1e3:.1f}ms pipelined vs "
        f"{blocking * 1e3:.1f}ms blocking (limit ratio {gate['max_io_exposed_ratio']}), "
        f"{streamed:.1f}MB streamed, cache peak {peak:.2f}MB / budget {budget:.0f}MB, "
        f"losses {'bitwise-equal' if equal == 1 else 'DIVERGED'}"
    )
    if not ok:
        details = []
        if not overlap_ok:
            details.append(
                f"pipelined exposed IO {pipelined * 1e3:.1f}ms exceeds blocking "
                f"{blocking * 1e3:.1f}ms * {gate['max_io_exposed_ratio']}"
            )
        if streamed < gate["min_bytes_streamed_mb"]:
            details.append(
                f"only {streamed:.1f}MB streamed (min {gate['min_bytes_streamed_mb']}MB)"
            )
        if peak > budget:
            details.append(f"cache peak {peak:.2f}MB over the {budget:.0f}MB budget")
        if equal != 1:
            details.append("blocking and prefetched losses diverged")
        failures.append(f"{name}: " + "; ".join(details))


def main():
    serve_report = None
    kernels_report = None
    streaming_report = None
    positionals = []
    for arg in sys.argv[1:]:
        if arg.startswith("--serve-report="):
            serve_report = arg.split("=", 1)[1]
        elif arg.startswith("--kernels-report="):
            kernels_report = arg.split("=", 1)[1]
        elif arg.startswith("--streaming-report="):
            streaming_report = arg.split("=", 1)[1]
        else:
            positionals.append(arg)
    if (
        not positionals
        and serve_report is None
        and kernels_report is None
        and streaming_report is None
    ):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    thresholds_path = (
        positionals[1]
        if len(positionals) > 1
        else os.path.join(os.path.dirname(os.path.abspath(__file__)), "perf_smoke_thresholds.json")
    )
    with open(thresholds_path) as f:
        thresholds = json.load(f)

    failures = []
    if positionals:
        counters = load_counters(positionals[0])
        check_pipelined_vs_blocking(counters, thresholds, failures)
        check_adaptive_vs_best_fixed(counters, thresholds, failures)
        check_wire_bytes(counters, thresholds, failures)
    if kernels_report is not None:
        check_simd_speedup(load_counters(kernels_report), thresholds, failures)
    if serve_report is not None:
        check_serve(load_counters(serve_report), thresholds, failures)
    if streaming_report is not None:
        check_streaming(load_counters(streaming_report), thresholds, failures)

    if failures:
        print(f"\nperf-smoke FAILED ({len(failures)} threshold(s) violated):", file=sys.stderr)
        for f_ in failures:
            print(f"  - {f_}", file=sys.stderr)
        return 1
    checked = []
    if positionals:
        checked.append(
            "pipelining hides communication, the adaptive depth matches or beats every "
            "fixed depth, and bf16 halves the wire"
        )
    if kernels_report is not None:
        checked.append("the SIMD kernels beat the pinned scalar fallback")
    if serve_report is not None:
        checked.append("the serving stack sustains the gated QPS within the p99 latency cap")
    if streaming_report is not None:
        checked.append(
            "streaming epochs stay under the RSS budget with bitwise losses and "
            "prefetch hides the IO"
        )
    print(f"\nperf-smoke passed: {'; '.join(checked)}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
