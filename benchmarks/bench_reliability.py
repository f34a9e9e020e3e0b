"""Reproduce the paper's reliability numbers (eq. 4-6 and in-text claims).

Closed forms, evaluated at the paper's parameters:

* Section 2: 1000 disks in 10-disk clusters -> MTTF ~ 1100 years;
* Section 4: the same system under Improved bandwidth -> ~540 years;
* Section 3: five concurrent failures among 1000 disks -> > 250 My;
* Tables 2-3 MTTF/MTTDS rows (also pinned by bench_table2/3).

Monte-Carlo validation with accelerated per-disk MTTF: the simulated mean
time to catastrophe matches eq. (4)/(5) within sampling error, confirming
the birth-death approximation the paper relies on.

Standalone, the script times the cycle-accurate rebuild-window
measurement (the input to the measured-window MTTDS pipeline) with the
fast-forward engine against the scalar loop on a warm Streaming-RAID
farm (:func:`repro.experiments.rebuildbench.run_reliability_gate`),
exits non-zero unless the two windows and final states are identical,
and writes ``benchmarks/BENCH_reliability.json``::

    python benchmarks/bench_reliability.py [--smoke]
"""

import argparse
import sys

import pytest

from repro.analysis import (
    SystemParameters,
    mean_time_to_k_concurrent_failures_hours,
    mttf_catastrophic_hours,
)
from repro.analysis.reliability import (
    declustered_mttds_hours,
    declustering_ratio,
    mttf_catastrophic_years,
)
from repro.experiments.harness import publish
from repro.experiments.rebuildbench import run_reliability_gate
from repro.faults import catastrophic_condition, simulate_mean_time_to
from repro.faults.markov import (
    exact_mttf_clustered_hours,
    exact_mttf_improved_hours,
    exact_time_to_k_concurrent_hours,
)
from repro.layout import ClusteredParityLayout, ImprovedBandwidthLayout
from repro.schemes import Scheme
from repro.units import hours_to_years


def closed_forms():
    big = SystemParameters.paper_table1(num_disks=1000)
    return {
        "sr_1000_c10_years": mttf_catastrophic_years(
            big, 10, Scheme.STREAMING_RAID),
        "ib_1000_c10_years": mttf_catastrophic_years(
            big, 10, Scheme.IMPROVED_BANDWIDTH),
        "five_concurrent_years": hours_to_years(
            mean_time_to_k_concurrent_failures_hours(1000, 5, 300_000, 1)),
        "pd_alpha_1000_c10": declustering_ratio(1000, 10),
        "pd_mttds_1000_c10_years": hours_to_years(
            declustered_mttds_hours(big, 10)),
    }


def monte_carlo():
    mttf, mttr = 200.0, 1.0
    clustered = ClusteredParityLayout(20, 5)
    shifted = ImprovedBandwidthLayout(20, 5)
    return {
        "clustered": simulate_mean_time_to(
            20, mttf, mttr, catastrophic_condition(clustered),
            replications=400, seed=11),
        "shifted": simulate_mean_time_to(
            20, mttf, mttr, catastrophic_condition(shifted),
            replications=400, seed=11),
    }


def test_reliability_closed_forms(benchmark):
    values = benchmark(closed_forms)
    print()
    print("Closed-form reliability at the paper's parameters:")
    print(f"  SR, D=1000, C=10: {values['sr_1000_c10_years']:,.1f} years "
          "(paper: ~1100)")
    print(f"  IB, D=1000, C=10: {values['ib_1000_c10_years']:,.1f} years "
          "(paper: ~540)")
    print(f"  5 concurrent among 1000: "
          f"{values['five_concurrent_years'] / 1e6:,.0f} My (paper: >250 My)")
    print(f"  PD, D=1000, alpha={values['pd_alpha_1000_c10']:.4f}: MTTDS "
          f"{values['pd_mttds_1000_c10_years']:,.1f} years (the alpha in "
          "the window cancels the wider D-1 exposure — eq. 4 exactly)")
    assert values["sr_1000_c10_years"] == pytest.approx(1141.6, abs=0.5)
    assert values["pd_mttds_1000_c10_years"] == pytest.approx(
        values["sr_1000_c10_years"])
    assert values["ib_1000_c10_years"] == pytest.approx(540.8, abs=0.5)
    assert values["five_concurrent_years"] > 250e6


def test_reliability_monte_carlo(benchmark):
    estimates = benchmark.pedantic(monte_carlo, rounds=1, iterations=1)
    params = SystemParameters.paper_table1(
        num_disks=20, mttf_disk_hours=200.0, mttr_disk_hours=1.0)
    expected_sr = mttf_catastrophic_hours(params, 5, Scheme.STREAMING_RAID)
    expected_ib = mttf_catastrophic_hours(params, 5,
                                          Scheme.IMPROVED_BANDWIDTH)
    print()
    print("Monte-Carlo vs eq. (4)/(5), accelerated drives "
          "(MTTF 200 h, MTTR 1 h, D = 20, C = 5):")
    print(f"  clustered: simulated {estimates['clustered'].mean_hours:,.0f} h"
          f" +- {estimates['clustered'].ci95_hours:,.0f}, "
          f"eq.(4) {expected_sr:,.0f} h")
    print(f"  shifted  : simulated {estimates['shifted'].mean_hours:,.0f} h"
          f" +- {estimates['shifted'].ci95_hours:,.0f}, "
          f"eq.(5) {expected_ib:,.0f} h")
    assert estimates["clustered"].mean_hours == pytest.approx(expected_sr,
                                                              rel=0.25)
    assert estimates["shifted"].mean_hours == pytest.approx(expected_ib,
                                                            rel=0.25)
    ratio = estimates["clustered"].mean_hours / \
        estimates["shifted"].mean_hours
    print(f"  exposure penalty (2C-1)/(C-1): simulated {ratio:.2f}, "
          f"theory {9 / 4:.2f}")
    # The exact birth-death chains (see tests/faults/test_markov.py):
    exact_sr = exact_mttf_clustered_hours(20, 5, 200.0, 1.0)
    exact_ib = exact_mttf_improved_hours(20, 5, 200.0, 1.0)
    print(f"  exact chains: clustered {exact_sr:,.0f} h "
          f"(eq.4 within {abs(exact_sr / expected_sr - 1):.2%}); "
          f"shifted {exact_ib:,.0f} h "
          f"(eq.5 optimistic by {expected_ib / exact_ib:.2f}x — the true "
          "exposure is 3C-4, not 2C-1)")
    assert estimates["clustered"].consistent_with(exact_sr)
    assert estimates["shifted"].consistent_with(exact_ib)
    # Eq. 6's implicit single-repairman assumption, quantified:
    parallel = exact_time_to_k_concurrent_hours(100, 3, 300_000, 1)
    formula = mean_time_to_k_concurrent_failures_hours(100, 3, 300_000, 1)
    print(f"  eq. 6 at k=3: formula {hours_to_years(formula):,.0f} y, "
          f"parallel-repair exact {hours_to_years(parallel):,.0f} y "
          "((k-1)! = 2x more conservative)")


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="smaller farm for CI smoke runs")
    args = parser.parse_args()
    report = run_reliability_gate(num_disks=200 if args.smoke else 500)
    sys.exit(1 if publish(__file__, report) else 0)
