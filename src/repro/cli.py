"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``table2`` / ``table3``
    Print the paper's scheme-comparison tables from the closed forms.
``ksweep``
    The Section 2 in-text N/D' versus k sweep.
``fig9``
    The Figure 9 cost and stream series.
``reliability``
    MTTF/MTTDS for a given geometry, plus the in-text claims.
``simulate``
    Run the cycle simulator for one scheme, optionally failing a disk,
    and print the delivery report.
``rebuild``
    Compare tape versus on-line parity rebuild for a failed disk.
``chaos``
    Seeded randomized fault campaigns with invariant checks.
``cluster``
    Run a sharded multi-node cluster over the session pool and print
    (or emit as JSON) the merged cluster report.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.analysis import (
    SystemParameters,
    compare_schemes,
    figure9_cost_series,
    figure9_stream_series,
    format_comparison_table,
)
from repro.analysis.reliability import mttds_years, mttf_catastrophic_years
from repro.analysis.streams import k_sweep
from repro.schemes import ALL_SCHEMES, Scheme
from repro.units import seconds_to_hours


def _scheme(value: str) -> Scheme:
    try:
        return Scheme(value.upper())
    except ValueError:
        choices = ", ".join(s.value for s in Scheme)
        raise argparse.ArgumentTypeError(
            f"unknown scheme {value!r} (choose from {choices})")


def build_parser() -> argparse.ArgumentParser:
    """The repro command-line argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault Tolerant Design of Multimedia Servers "
                    "(SIGMOD 1995) — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, group_size in [("table2", 5), ("table3", 7)]:
        table = sub.add_parser(name, help=f"paper Table {name[-1]} "
                                          f"(C = {group_size})")
        table.set_defaults(group_size=group_size)
        table.add_argument("--disks", type=int, default=100,
                           help="total disks D (default 100)")

    sub.add_parser("ksweep", help="Section 2 N/D' versus k sweep")

    fig9 = sub.add_parser("fig9", help="Figure 9 cost and stream series")
    fig9.add_argument("--working-set-mb", type=float, default=100_000.0)

    reliability = sub.add_parser("reliability",
                                 help="MTTF/MTTDS for a geometry")
    reliability.add_argument("--disks", type=int, default=1000)
    reliability.add_argument("--group-size", type=int, default=10)
    reliability.add_argument("--replications", type=int, default=0,
                             help="also run an accelerated Monte-Carlo "
                                  "cross-check with this many replications")
    reliability.add_argument("--seed", type=int, default=11,
                             help="Monte-Carlo root seed (default 11)")
    reliability.add_argument("--workers", type=int, default=1,
                             help="process-pool width for the Monte-Carlo "
                                  "(default 1: in-process)")

    simulate = sub.add_parser("simulate", help="run the cycle simulator")
    simulate.add_argument("--scheme", type=_scheme, default=Scheme.STREAMING_RAID,
                          help="SR, SG, NC, or IB (default SR)")
    simulate.add_argument("--disks", type=int, default=10)
    simulate.add_argument("--group-size", type=int, default=5)
    simulate.add_argument("--streams", type=int, default=2)
    simulate.add_argument("--cycles", type=int, default=30)
    simulate.add_argument("--fail-disk", type=int, default=None)
    simulate.add_argument("--fail-cycle", type=int, default=2)
    simulate.add_argument("--repair-cycle", type=int, default=None)
    simulate.add_argument("--metadata-only", action="store_true",
                          help="skip payload bytes (counters only)")
    simulate.add_argument("--fast-forward", action="store_true",
                          help="batch stable cycles (requires "
                               "--metadata-only)")

    rebuild = sub.add_parser("rebuild",
                             help="tape vs on-line rebuild estimate")
    rebuild.add_argument("--disks", type=int, default=20)
    rebuild.add_argument("--group-size", type=int, default=5)
    rebuild.add_argument("--movies", type=int, default=40)
    rebuild.add_argument("--idle-fraction", type=float, default=0.2)

    design = sub.add_parser("design",
                            help="recommend the cheapest feasible design")
    design.add_argument("--working-set-mb", type=float, default=100_000.0)
    design.add_argument("--streams", type=int, default=1200)
    design.add_argument("--min-mttf-years", type=float, default=0.0)

    scale = sub.add_parser("scale",
                           help="Section 1 system-scale arithmetic")
    scale.add_argument("--disks", type=int, default=1000)
    scale.add_argument("--disk-capacity-mb", type=float, default=1000.0)
    scale.add_argument("--disk-bandwidth-mb-s", type=float, default=4.0)

    sub.add_parser("verify",
                   help="self-check the reproduction against the paper")

    chaos = sub.add_parser(
        "chaos", help="seeded fault campaigns with invariant checks")
    chaos.add_argument("--seed", type=int, default=7,
                       help="campaign seed (default 7)")
    chaos.add_argument("--scheme", default="all",
                       help="SR, SG, NC, IB, or all (default all)")
    chaos.add_argument("--cycles", type=int, default=40,
                       help="campaign length in cycles (default 40)")
    chaos.add_argument("--max-failures", type=int, default=2,
                       help="max concurrent whole-disk failures (default 2)")
    chaos.add_argument("--skip-payload-check", action="store_true",
                       help="skip the byte-verified equivalence replay")
    chaos.add_argument("--runs", type=int, default=1,
                       help="campaigns per scheme, seeds derived from "
                            "--seed (default 1)")
    chaos.add_argument("--workers", type=int, default=1,
                       help="process-pool width (default 1: in-process)")

    cluster = sub.add_parser(
        "cluster", help="run a sharded multi-node cluster")
    cluster.add_argument("--shards", type=int, default=2,
                         help="number of independent server shards "
                              "(default 2)")
    cluster.add_argument("--workers", type=int, default=1,
                         help="session-pool width; results are "
                              "bit-identical for any value (default 1)")
    cluster.add_argument("--disks", type=int, default=20,
                         help="disks per shard (default 20)")
    cluster.add_argument("--scheme", type=_scheme,
                         default=Scheme.STREAMING_RAID,
                         help="SR, SG, NC, IB, or PD (default SR)")
    cluster.add_argument("--group-size", type=int, default=5,
                         help="parity group size C (default 5)")
    cluster.add_argument("--cycles", type=int, default=40,
                         help="simulated cycles (default 40)")
    cluster.add_argument("--arrivals-per-cycle", type=float, default=4.0,
                         help="cluster-wide Poisson arrival rate "
                              "(default 4.0)")
    cluster.add_argument("--replicate-top-k", type=int, default=0,
                         help="replicate the k hottest titles onto an "
                              "extra shard (default 0)")
    cluster.add_argument("--fast-forward", action="store_true",
                         help="vectorise stable stretches inside "
                              "each shard window")
    cluster.add_argument("--seed", type=int, default=0,
                         help="root seed; every shard/trace/placement "
                              "seed derives from it (default 0)")
    cluster.add_argument("--chaos", action="store_true",
                         help="roll a seeded shard fault storm onto the "
                              "cluster and gate the run on workers=1 vs "
                              "workers=N digest equality")
    cluster.add_argument("--chaos-max-failures", type=int, default=1,
                         help="max concurrent scripted failures per "
                              "shard (default 1)")
    cluster.add_argument("--json", action="store_true",
                         help="emit the cluster report as JSON")

    experiments = sub.add_parser(
        "experiments", help="regenerate paper experiments as data")
    experiments.add_argument("name", nargs="?", default=None,
                             help="experiment id (omit to run all)")
    experiments.add_argument("--json", action="store_true",
                             help="emit rows as JSON")
    return parser


def cmd_table(args: argparse.Namespace) -> int:
    """Print Table 2 or 3 from the closed forms."""
    params = SystemParameters.paper_table1(num_disks=args.disks)
    print(f"Scheme comparison at C = {args.group_size}, D = {args.disks}")
    print(format_comparison_table(compare_schemes(params, args.group_size)))
    return 0


def cmd_ksweep(_args: argparse.Namespace) -> int:
    """Print the Section 2 N/D' versus k sweep."""
    ks = [1, 2, 4, 6, 8, 10]
    mpeg2 = k_sweep(SystemParameters.paper_section2(4.5), ks)
    mpeg1 = k_sweep(SystemParameters.paper_section2(1.5), ks)
    print("N/D' versus k (Section 2 drive: 100 KB, 30/10 ms)")
    print(f"{'k':>4}{'MPEG-2':>10}{'MPEG-1':>10}")
    for k in ks:
        print(f"{k:>4}{mpeg2[k]:>10.2f}{mpeg1[k]:>10.2f}")
    return 0


def cmd_fig9(args: argparse.Namespace) -> int:
    """Print the Figure 9 cost and stream series."""
    params = SystemParameters.paper_table1(reserve_k=5)
    sizes = range(2, 11)
    costs = figure9_cost_series(params, args.working_set_mb, sizes)
    streams = figure9_stream_series(params, args.working_set_mb, sizes)
    header = "C    " + "".join(f"{s.value:>12}" for s in ALL_SCHEMES)
    print(f"Figure 9(a): total cost ($), W = {args.working_set_mb:,.0f} MB")
    print(header)
    for i, c in enumerate(sizes):
        print(f"{c:<5}" + "".join(f"{costs[s][i].total:>12,.0f}"
                                  for s in ALL_SCHEMES))
    print()
    print("Figure 9(b): supported streams")
    print(header)
    for i, c in enumerate(sizes):
        print(f"{c:<5}" + "".join(f"{streams[s][i][1]:>12}"
                                  for s in ALL_SCHEMES))
    return 0


def cmd_reliability(args: argparse.Namespace) -> int:
    """Print MTTF/MTTDS for one geometry."""
    params = SystemParameters.paper_table1(num_disks=args.disks)
    print(f"Reliability at D = {args.disks}, C = {args.group_size} "
          "(MTTF 300,000 h, MTTR 1 h per disk)")
    for scheme in ALL_SCHEMES:
        mttf = mttf_catastrophic_years(params, args.group_size, scheme)
        mttds = mttds_years(params, args.group_size, scheme)
        print(f"  {scheme.display_name:<16} MTTF {mttf:>14,.1f} y   "
              f"MTTDS {mttds:>16,.1f} y")
    if args.replications > 0:
        from repro.analysis import mttf_catastrophic_hours
        from repro.faults.reliability import (
            catastrophic_condition, simulate_mean_time_to)
        from repro.layout import ClusteredParityLayout
        # Accelerated per-disk MTTF so the replications finish quickly;
        # the ratio to eq. (4) is scale-free.
        mttf_h, mttr_h = 200.0, 1.0
        fast = SystemParameters.paper_table1(
            num_disks=args.disks, mttf_disk_hours=mttf_h,
            mttr_disk_hours=mttr_h)
        expected_h = mttf_catastrophic_hours(fast, args.group_size,
                                             Scheme.STREAMING_RAID)
        layout = ClusteredParityLayout(args.disks, args.group_size)
        estimate = simulate_mean_time_to(
            args.disks, mttf_h, mttr_h, catastrophic_condition(layout),
            replications=args.replications, seed=args.seed,
            workers=args.workers)
        print(f"Monte-Carlo cross-check ({estimate.samples} replications, "
              f"accelerated MTTF {mttf_h:.0f} h, workers={args.workers}):")
        print(f"  simulated {estimate.mean_hours:,.1f} h "
              f"+/- {estimate.ci95_hours:,.1f} h   "
              f"eq. (4) {expected_h:,.1f} h")
        return 0 if estimate.consistent_with(expected_h) else 1
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Run the cycle simulator and print the delivery report."""
    from repro.faults.injector import FaultAction, FaultEvent, FaultSchedule
    from repro.server import MultimediaServer
    if args.fast_forward and not args.metadata_only:
        print("--fast-forward requires --metadata-only (payload "
              "verification forces the scalar path)")
        return 2
    params = SystemParameters.paper_table1(
        num_disks=args.disks,
        track_size_mb=512 / 1e6,
        disk_capacity_mb=512 * 2000 / 1e6,
    )
    server = MultimediaServer.build(
        params, args.group_size, args.scheme,
        slots_per_disk=8, verify_payloads=not args.metadata_only)
    names = server.catalog.names()
    for index in range(args.streams):
        server.admit(names[index % len(names)])
    events: list[FaultEvent] = []
    if args.fail_disk is not None:
        events = [FaultEvent(cycle, args.fail_disk, action)
                  for cycle, action in (
                      (args.fail_cycle, FaultAction.FAIL),
                      (args.repair_cycle, FaultAction.REPAIR))
                  if cycle is not None and 0 <= cycle < args.cycles]
    schedule = FaultSchedule(events)
    server.run_with_schedule(args.cycles, schedule,
                             fast_forward=args.fast_forward)
    for event in schedule:
        verb = "failed" if event.action is FaultAction.FAIL else "repaired"
        print(f"[cycle {event.cycle}] disk {event.disk_id} {verb}")
    report = server.report
    print(f"{args.scheme.display_name}: {report.summary()}")
    for cause, count in sorted(report.hiccups_by_cause().items(),
                               key=lambda item: item[0].value):
        print(f"  {cause.value}: {count}")
    print(f"payload mismatches: {report.payload_mismatches}")
    return 0 if report.payload_mismatches == 0 else 1


def cmd_rebuild(args: argparse.Namespace) -> int:
    """Compare tape reload with on-line parity rebuild."""
    from repro.layout import ClusteredParityLayout
    from repro.media import MediaObject
    from repro.tertiary import TapeLibrary, compare_rebuild_paths
    params = SystemParameters.paper_table1(num_disks=args.disks)
    layout = ClusteredParityLayout(args.disks, args.group_size)
    tracks_per_movie = max(args.group_size - 1,
                           20_000 // max(args.movies, 1))
    for index in range(args.movies):
        layout.place(MediaObject(f"movie-{index}", 0.1875,
                                 tracks_per_movie, seed=index))
    comparison = compare_rebuild_paths(layout, 0, params, TapeLibrary(),
                                       idle_fraction=args.idle_fraction)
    print(f"Failed disk 0 holds {comparison.tracks} tracks")
    print(f"  tape reload   : {seconds_to_hours(comparison.tape_time_s):,.1f} hours")
    print(f"  parity rebuild: {seconds_to_hours(comparison.online_time_s):,.2f} hours "
          f"(idle fraction {args.idle_fraction})")
    print(f"  speedup       : {comparison.speedup:,.0f}x")
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    """Recommend the cheapest feasible design (Section 5 workflow)."""
    from repro.analysis import recommend_design
    params = SystemParameters.paper_table1(reserve_k=5)
    best = recommend_design(params, args.working_set_mb, args.streams,
                            min_mttf_years=args.min_mttf_years)
    print(f"requirement: {args.streams} streams over "
          f"{args.working_set_mb:,.0f} MB of content")
    if best is None:
        print("no feasible design — relax the requirement or add disks")
        return 1
    print(f"recommended: {best.describe()}")
    print(f"  MTTDS {best.mttds_years:,.0f} years")
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    """Print the Section 1 system-scale arithmetic."""
    from repro.analysis.sizing import section1_scale
    scale = section1_scale(args.disks, args.disk_capacity_mb,
                           args.disk_bandwidth_mb_s)
    print(f"{args.disks} disks x {args.disk_capacity_mb:,.0f} MB at "
          f"{args.disk_bandwidth_mb_s} MB/s each:")
    print(f"  storage : {scale.mpeg2_movies} MPEG-2 movies or "
          f"{scale.mpeg1_movies} MPEG-1 movies (90 min)")
    print(f"  bandwidth: {scale.mpeg2_users:,} MPEG-2 users or "
          f"{scale.mpeg1_users:,} MPEG-1 users")
    return 0


def cmd_verify(_args: argparse.Namespace) -> int:
    """Self-check the reproduction's headline numbers against the paper."""
    from repro.analysis import compare_schemes
    from repro.analysis.sizing import section1_scale
    from repro.analysis.streams import k_sweep

    checks: list[tuple[str, bool]] = []

    def check(label: str, condition: bool) -> None:
        checks.append((label, condition))
        print(f"  [{'ok' if condition else 'FAIL'}] {label}")

    print("Verifying the reproduction against the paper's numbers:")
    params = SystemParameters.paper_table1()
    table2 = compare_schemes(params, 5)
    expected2 = {"SR": (1041, 10410), "SG": (966, 3623),
                 "NC": (966, 2612), "IB": (1263, 10104)}
    for scheme, metrics in table2.items():
        streams, buffers = expected2[scheme.value]
        check(f"Table 2 {scheme.value}: {streams} streams, "
              f"{buffers} buffer tracks",
              metrics.streams == streams
              and metrics.buffer_tracks == buffers)
    table3 = compare_schemes(params, 7)
    check("Table 3 streams row: 1125/1035/1035/1273",
          [m.streams for m in table3.values()] == [1125, 1035, 1035, 1273])
    check("Table 2 MTTDS (NC): 3,176,862.3 years",
          abs(table2[Scheme.NON_CLUSTERED].mttds_years - 3_176_862.3) < 1)
    sweep = k_sweep(SystemParameters.paper_section2(4.5), [1, 2, 10])
    check("Section 2 k-sweep: 14.7 / 16.2 / 17.4",
          abs(sweep[1] - 14.78) < 0.05 and abs(sweep[2] - 16.28) < 0.05
          and abs(sweep[10] - 17.48) < 0.05)
    big = SystemParameters.paper_table1(num_disks=1000)
    check("Section 2 MTTF (D=1000, C=10): ~1141 years",
          abs(mttf_catastrophic_years(big, 10, Scheme.STREAMING_RAID)
              - 1141.6) < 1)
    scale = section1_scale()
    check("Section 1 scale: 329/987 movies, 7111/21333 users",
          (scale.mpeg2_movies, scale.mpeg1_movies,
           scale.mpeg2_users, scale.mpeg1_users) == (329, 987, 7111, 21333))
    failures = [label for label, ok in checks if not ok]
    print(f"{len(checks) - len(failures)}/{len(checks)} checks passed")
    return 1 if failures else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run seeded chaos campaigns; non-zero exit on invariant violations."""
    from repro.faults.chaos import ChaosProfile, run_campaign_grid
    from repro.parallel import derive_seeds
    if args.scheme.lower() == "all":
        schemes = None
    else:
        schemes = [_scheme(args.scheme)]
    profile = ChaosProfile(cycles=args.cycles,
                           max_concurrent_failures=args.max_failures)
    seeds = (list(derive_seeds(args.seed, args.runs)) if args.runs > 1
             else [args.seed])
    results = run_campaign_grid(
        seeds, schemes=schemes, profile=profile,
        check_payload_mode=not args.skip_payload_check,
        workers=args.workers)
    failed = 0
    for result in results:
        flag = "ok" if result.passed else "FAIL"
        print(f"[{flag}] {result.scheme.display_name}: seed {result.seed}, "
              f"{result.cycles} cycles, {result.events} fault events")
        print(f"       hiccups {result.total_hiccups}, media errors "
              f"{result.total_media_errors}, streams shed "
              f"{result.total_streams_shed}, data-loss events "
              f"{result.data_loss_events}, scrub repairs "
              f"{result.scrub_repairs}")
        print(f"       digest {result.digest[:16]}")
        for violation in result.violations:
            print(f"       violation: {violation}")
        failed += 0 if result.passed else 1
    print(f"{len(results) - failed}/{len(results)} campaigns clean")
    return 1 if failed else 0


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run one sharded cluster and print (or JSON-dump) the report."""
    import json as json_module
    from repro.cluster import (ClusterChaosProfile, ClusterSpec,
                               run_cluster, run_cluster_campaign)
    spec = ClusterSpec(
        scheme=args.scheme,
        shards=args.shards,
        disks_per_shard=args.disks,
        parity_group_size=args.group_size,
        cycles=args.cycles,
        arrivals_per_cycle=args.arrivals_per_cycle,
        replicate_top_k=args.replicate_top_k,
        seed=args.seed,
        fast_forward=args.fast_forward,
    )
    campaign = None
    if args.chaos:
        profile = ClusterChaosProfile(
            max_concurrent_failures=args.chaos_max_failures)
        campaign = run_cluster_campaign(spec, args.seed, profile=profile,
                                        workers=args.workers)
        result = campaign.report
    else:
        result = run_cluster(spec, workers=args.workers)
    if args.json:
        payload = {
            "shards": result.spec.shards,
            "workers": result.workers,
            "admitted": result.admitted,
            "rejected": result.rejected,
            "unarrived": result.unarrived,
            "capacity": result.capacity,
            "hiccups": result.report.total_hiccups,
            "digest": result.digest(),
            "ff_disengagements": result.ff_disengagement_totals(),
            "per_shard": [
                {"shard": s.shard_id, "routed": s.routed,
                 "admitted": s.admitted, "rejected": s.rejected,
                 "effective_limit": s.effective_limit,
                 "ff_engaged_cycles": s.ff_engaged_cycles,
                 "ff_disengagements": dict(s.ff_disengagements)}
                for s in result.per_shard],
        }
        if campaign is not None:
            payload["chaos"] = {
                "events": campaign.events,
                "deterministic": campaign.passed,
                "violations": campaign.violations,
            }
        print(json_module.dumps(payload, indent=2))
    else:
        print(result.summary())
        for shard in result.per_shard:
            print(f"  shard {shard.shard_id}: routed {shard.routed}, "
                  f"admitted {shard.admitted}, rejected {shard.rejected}, "
                  f"effective limit {shard.effective_limit}, "
                  f"ff {shard.ff_engaged_cycles} cycles")
        if campaign is not None:
            verdict = ("deterministic" if campaign.passed
                       else "DIVERGED: " + "; ".join(campaign.violations))
            print(f"  chaos: {campaign.events} scripted faults, {verdict}")
    if campaign is not None and not campaign.passed:
        return 1
    return 0 if result.report.total_lost_tracks == 0 else 1


def cmd_experiments(args: argparse.Namespace) -> int:
    """Regenerate registered experiments; non-zero exit on any mismatch."""
    import json as json_module
    from repro.experiments import list_experiments, run_all, run_experiment
    if args.name is None:
        results = run_all()
    else:
        if args.name not in list_experiments():
            print(f"unknown experiment {args.name!r}; known: "
                  + ", ".join(list_experiments()))
            return 2
        results = [run_experiment(args.name)]
    all_match = True
    for result in results:
        flag = "ok" if result.matches_paper else "MISMATCH"
        print(f"[{flag}] {result.experiment_id}: {result.title}")
        if args.json:
            print(json_module.dumps(result.rows, indent=2))
        if result.notes:
            print(f"       note: {result.notes}")
        all_match &= result.matches_paper
    return 0 if all_match else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "table2": cmd_table,
        "table3": cmd_table,
        "ksweep": cmd_ksweep,
        "fig9": cmd_fig9,
        "reliability": cmd_reliability,
        "simulate": cmd_simulate,
        "rebuild": cmd_rebuild,
        "design": cmd_design,
        "scale": cmd_scale,
        "verify": cmd_verify,
        "chaos": cmd_chaos,
        "cluster": cmd_cluster,
        "experiments": cmd_experiments,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
