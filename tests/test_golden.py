"""Golden fingerprints: SHA-256 of CLI outputs at fixed seeds.

Each case runs one `ghzdisc` command and pins the digest of its stdout
and of every file it writes.  Arguments starting with "@" name files in
a fresh temporary directory.  The digests fix the exact tables, the
sampled streams and the report formats byte for byte, so a refactor
that changes any output fails here.

Changing a pinned digest is a deliberate change of program output: it
needs a line in CHANGES.md saying which output changed and why.
"""

import hashlib

import pytest

from ghzdisc import plans, protocol
from ghzdisc.cli import main
from ghzdisc.engine import ChainState
from ghzdisc.protocol import Strategy

GOLDEN = {
    "enumerate-spm-json": (
        ["enumerate", "--strategy", "spm", "--out", "@enum.json"],
        {
            "stdout": "17f07a972831518f040cc3ad2cd947667275ab19b4a908d414f47da19c466b0b",
            "@enum.json": "93662bb891dfda29e957865f5c6056f172e06a83532f4ab0a837dc4cd69e0990",
        },
    ),
    "enumerate-cpm-csv": (
        ["enumerate", "--strategy", "cpm", "--qubits", "8", "--format", "csv", "--out", "@cpm.csv"],
        {
            "stdout": "1046c892d70b2999e18f9dd5f81ce3ba0e6f4e24070750c69f720319015272c4",
            "@cpm.csv": "77af1aa63e342824acd576141accce29f130d7bbab10909df44963b51b1041f2",
        },
    ),
    "enumerate-spm-csv": (
        ["enumerate", "--strategy", "spm", "--qubits", "8", "--format", "csv", "--out", "@spm.csv"],
        {
            "stdout": "17f07a972831518f040cc3ad2cd947667275ab19b4a908d414f47da19c466b0b",
            "@spm.csv": "68bc035e591a167182e21360ab9cbbd1faa3bd2d1ad74140e286e7c5f7ad1b6a",
        },
    ),
    "enumerate-spm-odd-m-csv": (
        ["enumerate", "--strategy", "spm", "--qubits", "6", "--x-sq", "3/7",
         "--format", "csv", "--out", "@spm6.csv"],
        {
            "stdout": "d1c890009d9e9ad3318ea1f4ae38199645ede199a7c281446b19fc84dc25a373",
            "@spm6.csv": "640ae481e56441cab12018a34e1d30f433940db3a0555a454ffe3f933140dfe7",
        },
    ),
    # the benchmark's deep tables: thousands-digit integers, and classes
    # deeper than one run of rows
    "enumerate-cpm-14-csv": (
        ["enumerate", "--strategy", "cpm", "--qubits", "14", "--format", "csv", "--out", "@cpm14.csv"],
        {"@cpm14.csv": "db1f2922e7dec746debe0e1258490b8a3504275af27a95dcdbab474901e2cc8e"},
    ),
    "enumerate-spm-16-json": (
        ["enumerate", "--strategy", "spm", "--qubits", "16", "--out", "@spm16.json"],
        {"@spm16.json": "697d7d58d9bee4115adeb01379e05113572cf2feac02a67cdbad7851859d9367"},
    ),
    # at x^2 = 3/7, 46 of the 48 nums have an odd part other than 1 (16 of 48 at
    # 2/3), so their lowest terms take a gcd of two big odd ints; the integers
    # are past `decimal_str`'s 2000-bit split
    "enumerate-spm-16-x-sq-3-7-csv": (
        ["enumerate", "--strategy", "spm", "--qubits", "16", "--x-sq", "3/7", "--format", "csv",
         "--out", "@spm16-3-7.csv"],
        {
            "stdout": "1e0ec4c353fa02cb6f74e4bcf00ec4f12ca5570c110c07bc8aabf82e2d45fed4",
            "@spm16-3-7.csv": "88c7a8498c6257c7498a4289f917018625be1c6766b40a9c44dde0e899150735",
        },
    ),
    "simulate-random-json": (
        ["simulate", "--seed", "12", "--groups", "5", "--per-group", "12",
         "--strategy", "random", "--out", "@sim.json"],
        {"@sim.json": "ca0b7a2dcb4ba5b2ed752221c1518514b2aaa94fe87d60e6712b54be1b6af9e9"},
    ),
    "simulate-spm-csv": (
        ["simulate", "--seed", "7", "--trials", "1", "--per-group", "30", "--groups", "20",
         "--strategy", "spm", "--out", "@run.json", "--csv", "@groups.csv"],
        {
            "@run.json": "03cb7fea88944813503506ca3ea4fa7096ccc9a138d2e91708c42146f2bcdc7e",
            "@groups.csv": "7706be966579c817f9e6968ede38daac6f3108251117fed2658a5e0390f51f18",
        },
    ),
    "simulate-x-sq-json": (
        ["simulate", "--seed", "3", "--qubits", "6", "--x-sq", "9/10", "--groups", "2",
         "--per-group", "8", "--out", "@sim6.json"],
        {"@sim6.json": "6d653100f1693b11aa18786c509edc92223041a0530fd35016be7e022e9235ec"},
    ),
    "simulate-cpm-x-sq-json": (
        ["simulate", "--strategy", "cpm", "--seed", "9", "--qubits", "10", "--x-sq", "3/7", "--groups", "4",
         "--per-group", "25", "--trials", "2", "--out", "@cpm10.json"],
        {"@cpm10.json": "cc8ee91d964aebe34f49ff073c93c1419cc0b4bffab4669f985a67892291bfa5"},
    ),
    "discriminate-json": (
        ["discriminate", "--seed", "12", "--trials", "5", "--groups", "4",
         "--per-group", "10", "--out", "@disc.json"],
        {"@disc.json": "7caa496b62a95f41b17f8064184e6dc0c2c942d42cdc22a1e07dc3bbae828d6a"},
    ),
    # two blocks per group, the last of 76 states; more groups than one pass
    # of the protocol loop holds; draws that hash their tail in many groups
    "simulate-random-multi-block-csv": (
        ["simulate", "--strategy", "random", "--qubits", "14", "--seed", "5", "--groups", "70",
         "--per-group", "1100", "--trials", "2", "--out", "@multi.json", "--csv", "@multi.csv"],
        {
            "@multi.json": "d9d2e4a421beac64f8e74b676d87785d6e3a4bcacd83f8ccf60484a866b79dc1",
            "@multi.csv": "cf9175be1845c0b1c86e66dea56b0dc083005566f39fed47e31e56ceac24e207",
        },
    ),
    "discriminate-multi-block-json": (
        ["discriminate", "--seed", "5", "--trials", "3", "--groups", "66", "--per-group", "1100",
         "--qubits", "14", "--out", "@disc1100.json"],
        {"@disc1100.json": "ec86915c97a8e951d929082bf75ffba5b24c0a86b56e85a6829208e246e90313"},
    ),
    "marginal-spm": (
        ["marginal", "--strategy", "spm"],
        {"stdout": "aab688d1d9920783fcf34360228f824f551759cc8e44d5038f8565090d3b2548"},
    ),
    "verify": (
        ["verify", "--random-plans", "2", "--json", "@verify.json"],
        {
            "stdout": "39e16c3122ceb020479d56e7a75bfc583165dc3ed6ed75f21d09182c32fbfce2",
            "@verify.json": "da2b5a6719234dcefa814dc3b18fa27a75f31f6db9fa78f4171903322eae8a92",
        },
    ),
}


def run_case(argv, tmp_path, capsys) -> dict[str, str]:
    """Digest of stdout and of every "@" file the command writes."""
    resolved = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    assert main(resolved) == 0
    outputs = {"stdout": capsys.readouterr().out.encode()}
    for a in argv:
        if a.startswith("@"):
            outputs[a] = (tmp_path / a[1:]).read_bytes()
    return {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_fingerprint(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GHZDISC_OUT_DIR", raising=False)
    argv, pinned = GOLDEN[name]
    digests = run_case(argv, tmp_path, capsys)
    assert {k: digests[k] for k in pinned} == pinned


def _unbuildable(name):
    def fail(*args):
        raise AssertionError(f"{name} was built")
    return fail


# `enumerate` renders each class from its integers: it builds no `Fraction`
# probability or state of a class, and no `ChainState` at all
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_enumerate_builds_no_class_fraction_or_state(fmt, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GHZDISC_OUT_DIR", raising=False)
    argv = ["enumerate", "--strategy", "spm", "--qubits", "12", "--format", fmt, "--out", "@spm12"]
    expected = run_case(argv, tmp_path, capsys)
    monkeypatch.setattr(plans.OutcomeClass, "probability", property(_unbuildable("a class probability")))
    monkeypatch.setattr(plans.OutcomeClass, "state", property(_unbuildable("a class state")))
    monkeypatch.setattr(ChainState, "__init__", _unbuildable("a ChainState"))
    assert run_case(argv, tmp_path, capsys) == expected


def _count_leaf_samplers(monkeypatch) -> list:
    """Records each `LeafSampler` built from a plan (a mixture builds none of its own)."""
    built, init = [], protocol.LeafSampler.__init__
    monkeypatch.setattr(protocol.LeafSampler, "__init__", lambda self, *args: built.append(args) or init(self, *args))
    return built


# a run builds the law of its own strategy alone: the other strategy's plan is never called
@pytest.mark.parametrize("name, unused", [("simulate-cpm-x-sq-json", Strategy.SPM), ("simulate-spm-csv", Strategy.CPM)])
def test_simulate_builds_only_its_strategy_law(name, unused, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GHZDISC_OUT_DIR", raising=False)
    monkeypatch.setitem(protocol.PLANS, unused, _unbuildable(f"{unused.value}'s plan"))
    built = _count_leaf_samplers(monkeypatch)
    argv, pinned = GOLDEN[name]
    digests = run_case(argv, tmp_path, capsys)
    assert {k: digests[k] for k in pinned} == pinned
    assert len(built) == 1


# `discriminate` draws from cpm's and spm's laws, and builds no mixture of them
@pytest.mark.parametrize("name", ["discriminate-json", "discriminate-multi-block-json"])
def test_discriminate_builds_no_mixture(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("GHZDISC_OUT_DIR", raising=False)
    monkeypatch.setattr(protocol, "MixtureSampler", _unbuildable("a mixture"))
    built = _count_leaf_samplers(monkeypatch)
    argv, pinned = GOLDEN[name]
    digests = run_case(argv, tmp_path, capsys)
    assert {k: digests[k] for k in pinned} == pinned
    assert len(built) == 2
