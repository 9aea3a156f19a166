"""Small reports and sweeps of the synthetic algorithms, pinned by their SHA-256.

A report is a pure function of its flags, so its bytes replay exactly.  These
digests match the reports of the per-run samplers that the per-outcome gather
replaced.  A change to sampling, seeding or reduction that moves one changes
what the algorithm reports: it updates the digest and says which report moved
and why.  Rall-Fuller is left out: its floats pass through numpy's
SIMD-dispatched sin and exp and through pocketfft, whose last bits may differ
between CPUs and numpy versions.

A sweep is pinned by its CSV, which holds only integers and grid reprs, so it
is stable across platforms; its JSON also carries the sweep's provenance,
whose keys may change while no row moves.
"""

import hashlib

import pytest

from lowdepth.cli import main

REPORTS = {
    "type1": (["--algorithm", "type1", "--truth", "0.3", "--trials", "10", "--seed", "2"],
              "21e5b8641b9788497a1292bea8b7514d333f55e795179283ec9b5e85debb3b18"),
    "type2": (["--algorithm", "type2", "--truth", "0.3", "--trials", "5", "--seed", "7"],
              "7554c6ca5095d2a267f09a2682a4df0b2644e34c90f86a80730ffe44db7f9944"),
    "monkey-demo": (["--algorithm", "monkey-demo", "--truth", "0.3", "--trials", "5",
                     "--seed", "2"],
                    "a1db58d8c270771aa29e821f64c58d44bfb21aeb2631d0bfd0f337647c2104ba"),
    # a truth away from the wrap, whose offsets from the reference need no reduction
    "phase-uniform": (["--algorithm", "phase", "--truth", "4.2", "--epsilon", "0.01",
                       "--trials", "10", "--seed", "5"],
                      "b601fa0418aaca0a960b420f7fd17c7a7738c726b96f85430e77b175b84a0a8c"),
    # runs on both sides of 0, reduced from just below 0 and from just below 2 pi
    "phase-zero": (["--algorithm", "phase", "--truth", "0.0", "--epsilon", "0.01",
                    "--trials", "10", "--seed", "5"],
                   "26d77672a405af03003d7fc3e208af129b5deb46ee2341c1fd873295f7bfb490"),
}

SWEEPS = {
    "type1": ([], "e74bd2e972b5dab46d018002ca5ea4becbd8ba862503d3313f9305c9f7ac35a7"),
    # 13 of the 20 cells fail when sampled, so the digest pins which ones ran
    "type2": (["--algorithm", "type2", "--truth", "0.9", "--seed", "3"],
              "066ff356c03847885a40e34afce9755a0a363946ec096d743f4919b60aec1c1c"),
    "phase": (["--algorithm", "phase", "--truth", "1.0", "--seed", "3",
               "--epsilon-grid", "0.1,0.05,0.02,0.01", "--beta-grid", "0,0.5,0.9"],
              "955d5b4c82771974d54ed9782a7cbc4a380b39399ead8139b7f885e7a9555823"),
}


@pytest.mark.parametrize("name", REPORTS)
def test_report_bytes_replay(name, tmp_path):
    flags, digest = REPORTS[name]
    out = tmp_path / f"{name}.json"
    assert main(["run", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_csv_bytes_replay(name, tmp_path):
    flags, digest = SWEEPS[name]
    out = tmp_path / f"{name}.csv"
    assert main(["scale", *flags, "--format", "csv", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
