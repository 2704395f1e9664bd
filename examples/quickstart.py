#!/usr/bin/env python3
"""Quickstart: simulate an HTC workload on a SmarCo chip.

Builds a scaled SmarCo (4 sub-rings x 16 cores = 64 TCG cores), loads the
KMP string-matching profile on all 512 hardware threads, runs the
discrete-event simulation to completion, and prints the chip-level
metrics — then does the same on the Xeon baseline for comparison.

Run:  python examples/quickstart.py
"""

from repro import RunRequest, SmarCoChip, execute, get_profile, smarco_scaled


def main() -> None:
    profile = get_profile("kmp")

    print("=== SmarCo (scaled: 4 sub-rings x 16 cores) ===")
    chip = SmarCoChip(smarco_scaled(sub_rings=4), seed=0)
    chip.load_profile(profile, threads_per_core=8, instrs_per_thread=300)
    result = chip.run()
    print(f"cores completed        : {result.cores_done}/{result.total_cores}")
    print(f"simulated cycles       : {result.cycles:,.0f}")
    print(f"instructions retired   : {result.instructions:,}")
    print(f"chip IPC               : {result.ipc:.1f}")
    print(f"throughput             : {result.throughput_ips / 1e9:.2f} Ginstr/s")
    print(f"memory requests        : {result.mem_requests:,} "
          f"(batched into {result.mem_transactions:,} transactions, "
          f"{result.mact_request_reduction:.2f}x MACT reduction)")
    print(f"mean request latency   : {result.mean_request_latency:.0f} cycles")
    print(f"NoC bandwidth utilised : {result.noc_bandwidth_utilization:.1%}")

    print("\n=== Xeon E7-8890V4 baseline (48 threads) ===")
    xeon = execute(RunRequest(kind="xeon", workload="kmp", xeon_threads=48,
                              xeon_instrs_per_thread=30_000)).result
    print(f"throughput             : {xeon.throughput_ips / 1e9:.2f} Ginstr/s")
    print(f"pipeline idle ratio    : {xeon.idle_ratio:.1%}")
    print(f"L1 miss ratio          : {xeon.miss_ratios['L1']:.1%}")

    speedup = result.throughput_ips / xeon.throughput_ips
    print(f"\nSmarCo speedup over Xeon: {speedup:.1f}x "
          "(paper Fig 22: 4.86x-18.57x)")


if __name__ == "__main__":
    main()
