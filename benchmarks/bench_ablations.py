"""Ablations of the SUV design choices called out in DESIGN.md:

* redirect-back on/off (Section IV-A claims it keeps table occupancy
  and entry counts low);
* redirect summary signature on/off (filters table lookups off the
  critical path of every access);
* Stall vs abort-requester conflict resolution;
* conflict-signature size (false-conflict sensitivity).
"""

from conftest import S, emit
from repro.stats.report import format_table

APP = "genome"


def test_ablation_redirect_back(benchmark, sim_cache):
    results = {}

    def run_all():
        for on in (True, False):
            results[on] = sim_cache.run(
                APP, S, overrides={"redirect.redirect_back": on}
            )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for on in (True, False):
        res, st = results[on], results[on].scheme_stats
        rows.append([
            "on" if on else "off", res.total_cycles,
            int(st["redirects"]), int(st["redirect_backs"]),
            int(st["pool_live_lines"]), int(st["pool_pages"]),
        ])
    emit("ablation_redirect_back", format_table(
        ["redirect-back", "exec cycles", "redirects", "redirect-backs",
         "live pool lines", "pool pages"],
        rows,
        title=f"ablation — redirect-back optimization ({APP})",
    ))
    # the optimization's claimed effect: far fewer live entries/pool lines
    assert (results[True].scheme_stats["pool_live_lines"]
            <= results[False].scheme_stats["pool_live_lines"])


def test_ablation_summary_signature(benchmark, sim_cache):
    results = {}

    def run_all():
        for on in (True, False):
            results[on] = sim_cache.run(
                APP, S, overrides={"redirect.use_summary_signature": on}
            )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for on in (True, False):
        res, st = results[on], results[on].scheme_stats
        rows.append([
            "on" if on else "off", res.total_cycles,
            int(st["summary_filtered"]), int(st["summary_passed"]),
            int(st["summary_false_positives"]),
        ])
    emit("ablation_summary_signature", format_table(
        ["summary signature", "exec cycles", "lookups filtered",
         "lookups performed", "false positives"],
        rows,
        title=f"ablation — redirect summary signature ({APP})",
    ))
    # with the filter off, every access performs a table lookup
    assert results[False].scheme_stats["summary_filtered"] == 0
    assert (results[True].scheme_stats["summary_passed"]
            < results[False].scheme_stats["summary_passed"])


def test_ablation_conflict_policy(benchmark, sim_cache):
    results = {}

    def run_all():
        # SUV at stall is the named scheme; any other resolution is
        # spelled as its composed name
        for policy, scheme in (
            ("stall", S), ("abort_requester", "redirect+eager+abort_requester"),
        ):
            results[policy] = sim_cache.run(APP, scheme)
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [policy, res.total_cycles, res.aborts,
         f"{res.abort_ratio:.1%}",
         res.breakdown.cycles["Stalled"], res.breakdown.cycles["Wasted"]]
        for policy, res in results.items()
    ]
    emit("ablation_policy", format_table(
        ["policy", "exec cycles", "aborts", "abort ratio", "Stalled",
         "Wasted"],
        rows,
        title=f"ablation — conflict-resolution policy ({APP}, SUV)",
    ))
    # abort_requester never stalls a conflicting transaction; the Stall
    # policy converts (some of) those aborts into waiting time
    assert (results["abort_requester"].breakdown.cycles["Stalled"]
            <= results["stall"].breakdown.cycles["Stalled"])


def test_ablation_signature_size(benchmark, sim_cache):
    sizes = (256, 1024, 2048, 8192)
    results = {}

    def run_all():
        for bits in sizes:
            results[bits] = sim_cache.run(
                APP, S, overrides={"signature.bits": bits}
            )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        [bits, results[bits].total_cycles, results[bits].aborts,
         results[bits].breakdown.cycles["Stalled"]]
        for bits in sizes
    ]
    emit("ablation_signature_size", format_table(
        ["signature bits", "exec cycles", "aborts", "Stalled"],
        rows,
        title=f"ablation — conflict-signature size ({APP}, SUV): smaller "
              "signatures alias more addresses (false conflicts)",
    ))
    # tiny signatures must not be faster than the paper's 2 Kbit
    assert results[256].total_cycles >= 0.9 * results[2048].total_cycles
