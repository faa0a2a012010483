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

from ghzdisc.cli import main

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
    "simulate-random-json": (
        ["simulate", "--seed", "12", "--groups", "5", "--per-group", "12",
         "--strategy", "random", "--out", "@sim.json"],
        {"@sim.json": "dec0e57d61524443dbf6d281451be29624c93dc252a49a44e51434fef0a28ab0"},
    ),
    "simulate-spm-csv": (
        ["simulate", "--seed", "7", "--trials", "1", "--per-group", "30", "--groups", "20",
         "--strategy", "spm", "--out", "@run.json", "--csv", "@groups.csv"],
        {
            "@run.json": "b0710e2632e84695c5ed2fbe7a305a448c401570cabf3a3f510a0699571dc20d",
            "@groups.csv": "b448d8a5d363ca5327df3b342e11be4e5bee5958d35207a28a4cfbb650218d9d",
        },
    ),
    "simulate-x-sq-json": (
        ["simulate", "--seed", "3", "--qubits", "6", "--x-sq", "9/10", "--groups", "2",
         "--per-group", "8", "--out", "@sim6.json"],
        {"@sim6.json": "07a46eaecfbab1828ff4a6ed7a9ddd0ec8a9fe50985f2fb1addf02ede79667d2"},
    ),
    "discriminate-json": (
        ["discriminate", "--seed", "12", "--trials", "5", "--groups", "4",
         "--per-group", "10", "--out", "@disc.json"],
        {"@disc.json": "b3f8c4f1d49769cbdf71e6dadfe92ccb252eda0f0e923aa510d362c8f5606786"},
    ),
    "marginal-spm": (
        ["marginal", "--strategy", "spm"],
        {"stdout": "aab688d1d9920783fcf34360228f824f551759cc8e44d5038f8565090d3b2548"},
    ),
    "verify": (
        ["verify", "--random-plans", "2", "--json", "@verify.json"],
        {
            "stdout": "ca000248605631fbf0b00c8d11462fb2e7c7d544a9b35fc1fc7f814692e4fb32",
            "@verify.json": "b188b501310d52bf064d8f245cf31ed6fb885a388d93e7c75c9826f2b7dd6c0a",
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
